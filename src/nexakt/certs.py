"""Canonical JSON certificates.

Canonical form: UTF-8, sorted keys, compact separators, integers only;
equal inputs and seed therefore produce byte-identical certificate
files, and content hashes are stable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from . import __version__


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)


def content_hash(obj: Any) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


@dataclass
class Certificate:
    check: str
    params: dict
    seed: int
    inputs: dict = field(default_factory=dict)   # name -> embedded object
    verdict: Any = None
    witnesses: dict = field(default_factory=dict)

    def add_input(self, name: str, obj: Any):
        self.inputs[name] = {"sha256": content_hash(obj), "content": obj}

    def to_dict(self) -> dict:
        return {
            "tool": "nexakt",
            "version": __version__,
            "check": self.check,
            "params": self.params,
            "seed": self.seed,
            "inputs": self.inputs,
            "verdict": self.verdict,
            "witnesses": self.witnesses,
        }


def emit_certificate(cert: Certificate, path) -> Path:
    """Write the canonical JSON form; same certificate -> same bytes."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(canonical_json(cert.to_dict()) + "\n", encoding="utf-8")
    return out
