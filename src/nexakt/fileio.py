"""JSON interchange formats.

Algebra definition:
  {"field": {"p": int},
   "quiver": {"vertices": [str], "arrows": [{"name","from","to"}]},
   "relations": [[{"coeff": int, "path": [str]}]],
   "nilpotency_bound": int}

Module:    {"dims": {vertex: int}, "arrows": {arrow: [flat row-major ints]}}
Morphism:  {"components": {vertex: [flat row-major ints]}}
           (shapes are implied by the participating modules)
Complex:   {"lo": int, "terms": [module...], "differentials": [morphism...]}
Generators ("--m" file): {"generators": [module...]}

Names are the algebra's vertices and arrows; numbers are JSON integers.
Loading a dumped object reproduces it bit-exactly in canonical form.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List

from .certs import canonical_json
from .complexes import ComplexSeq
from .fp import FieldSpec, mat_from_vector
from .quivers import AlgebraBasis, PathWord, Quiver, Relation, build_algebra
from .reps import Module, Morphism, _require_known


class InputError(ValueError):
    """Malformed input file; message carries position info when known."""


def load_json(path) -> object:
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno}, column {exc.colno}: "
                         f"{exc.msg}") from None


def algebra_to_dict(alg: AlgebraBasis) -> dict:
    return {
        "field": {"p": alg.p},
        "quiver": {
            "vertices": list(alg.quiver.vertices),
            "arrows": [{"name": a.name, "from": a.source, "to": a.target}
                       for a in alg.quiver.arrows],
        },
        "relations": [[{"coeff": c, "path": list(w.arrows)}
                       for c, w in r.terms] for r in alg.relations],
        "nilpotency_bound": alg.nilpotency_bound,
    }


def algebra_from_dict(data: dict) -> AlgebraBasis:
    try:
        fld = FieldSpec(_int(data["field"]["p"], "field.p"))
        qd = data["quiver"]
        q = Quiver.build(qd["vertices"],
                         [(a["name"], a["from"], a["to"]) for a in qd["arrows"]])
        rels = [Relation(tuple((_int(t["coeff"], "relation coefficients"),
                                PathWord(tuple(t["path"])))
                               for t in group))
                for group in data.get("relations", [])]
        return build_algebra(q, rels, _int(data["nilpotency_bound"],
                                           "nilpotency_bound"), fld)
    except InputError:
        raise
    except (KeyError, TypeError) as exc:
        raise InputError(f"algebra definition missing field: {exc}") from None
    except ValueError as exc:
        raise InputError(f"bad algebra definition: {exc}") from None


def load_algebra(path) -> AlgebraBasis:
    return algebra_from_dict(load_json(path))


def dump_algebra(alg: AlgebraBasis, path):
    Path(path).write_text(canonical_json(algebra_to_dict(alg)) + "\n",
                          encoding="utf-8")


def module_to_dict(m: Module) -> dict:
    return {
        "dims": {v: m.dims[v] for v in m.algebra.quiver.vertices},
        "arrows": {a.name: list(m.action[a.name].entries)
                   for a in m.algebra.quiver.arrows},
    }


def _ints(values, what: str) -> list:
    bad = [x for x in values if type(x) is not int]     # a bool is no int
    if bad:
        raise InputError(f"{what} must be JSON integers, got {bad[0]!r}")
    return list(values)


def _int(value, what: str) -> int:
    return _ints([value], what)[0]


def module_from_dict(data: dict, alg: AlgebraBasis) -> Module:
    try:
        dims = data["dims"]              # Module(...) refuses an unknown vertex
        _ints(dims.values(), "dimensions")
        arrows = data.get("arrows", {})
        _require_known(arrows, alg._index.arrow_names, "arrow")
        action = {}
        for a in alg.quiver.arrows:
            flat = _ints(arrows.get(a.name, []), f"entries of {a.name}")
            rows = dims.get(a.target, 0)
            cols = dims.get(a.source, 0)
            if not flat:
                flat = [0] * (rows * cols)
            action[a.name] = mat_from_vector(flat, rows, cols, alg.p)
        return Module(alg, dims, action)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad module file: {exc}") from None


def load_module(path, alg: AlgebraBasis) -> Module:
    return module_from_dict(load_json(path), alg)


def morphism_to_dict(f: Morphism) -> dict:
    return {"components": {v: list(f.components[v].entries)
                           for v in f.source.algebra.quiver.vertices}}


def morphism_from_dict(data: dict, source: Module, target: Module) -> Morphism:
    try:
        vertices = source.algebra.quiver.vertices
        given = data.get("components", {})
        _require_known(given, source.algebra._index.vertex_names, "vertex")
        comps = {}
        for v in vertices:
            flat = _ints(given.get(v, []), f"entries at {v}")
            rows, cols = target.dims[v], source.dims[v]
            if not flat:
                flat = [0] * (rows * cols)
            comps[v] = mat_from_vector(flat, rows, cols, source.algebra.p)
        return Morphism(source, target, comps)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad morphism file: {exc}") from None


def complex_to_dict(x: ComplexSeq) -> dict:
    return {
        "lo": x.lo,
        "terms": [module_to_dict(t) for t in x.terms],
        "differentials": [morphism_to_dict(d) for d in x.diffs],
    }


def complex_from_dict(data: dict, alg: AlgebraBasis) -> ComplexSeq:
    try:
        terms = [module_from_dict(t, alg) for t in data["terms"]]
        given = data.get("differentials", [])
        if len(given) != len(terms) - 1:
            raise ValueError("a complex needs one term more than differentials, "
                             f"got {len(terms)} and {len(given)}")
        diffs = [morphism_from_dict(d, terms[k], terms[k + 1])
                 for k, d in enumerate(given)]
        lo = _int(data.get("lo", 0), "lo")
        return ComplexSeq(lo, terms, diffs)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad complex file: {exc}") from None


def generators_from_dict(data: dict, alg: AlgebraBasis) -> List[Module]:
    try:
        return [module_from_dict(g, alg) for g in data["generators"]]
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad generators file: {exc}") from None


def load_generators(path, alg: AlgebraBasis) -> List[Module]:
    return generators_from_dict(load_json(path), alg)


def morphism_with_endpoints_to_dict(f: Morphism) -> dict:
    """Self-contained morphism file: endpoints embedded."""
    return {
        "source": module_to_dict(f.source),
        "target": module_to_dict(f.target),
        "components": morphism_to_dict(f)["components"],
    }


def morphism_with_endpoints_from_dict(data: dict, alg: AlgebraBasis) -> Morphism:
    try:
        src, tgt = (module_from_dict(data[end], alg) for end in ("source", "target"))
    except (KeyError, TypeError) as exc:
        raise InputError(f"morphism file lacks its endpoint {exc}") from None
    return morphism_from_dict(data, src, tgt)
