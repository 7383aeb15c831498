"""Out-of-tree tracing for the benchmark: wrap nexakt's public functions,
record spans, and fold them into per-layer metrics.

Every public function of every layer module is wrapped in each nexakt
namespace that binds it (modules import by name, e.g.
``from .reps import hom_basis``), and ``Mat.mul`` is wrapped on the class
as ``fp.mat_mul``.  ``Tracer.restore`` puts every original object back.

A span is (name, start, end, parent, request).  Self time is a span's
duration minus the time covered by its child spans, so within one
request the self times of all spans add up to the request's duration.
Spans of the ``fp`` layer are timed and counted like every other span,
but are not kept one by one: they are the leaves of the call tree and
number in the millions per pass, so the log keeps only the spans of the
other layers and the benchmark's own request spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from collections import Counter, defaultdict

# Layer name -> nexakt modules whose public functions form the layer.
LAYERS = {
    "fp": ("fp",),
    "quivers": ("quivers",),
    "reps": ("reps",),
    "complexes": ("complexes",),
    "resolutions": ("resolutions",),
    "addcat": ("addcat",),
    "pushout": ("pushout",),
    "tilting": ("tilting",),
    "frob": ("frob",),
    "presets": ("presets",),
    "cli": ("cli", "fileio", "certs"),
}
MODULE_LAYER = {mod: layer for layer, mods in LAYERS.items() for mod in mods}
DRIVER = "driver"

# fileio's loaders share one span name, so that a CLI request's input
# parsing reads as one figure.
_SPAN_ALIASES = {"fileio.load_" + kind: "fileio.load"
                 for kind in ("json", "algebra", "module", "complex",
                              "generators", "morphism")}


def module_content(m) -> int:
    """Content key of a module: its dimension vector and action entries."""
    return hash((tuple(m.dims.values()),
                 tuple(a.entries for a in m.action.values())))


def _key_modules(*positions):
    """Content key over the module arguments at the given positions plus
    every other (plain) argument."""
    def key(args, kwargs):
        parts = []
        for i, a in enumerate(args):
            parts.append(module_content(a) if i in positions else a)
        parts.extend(sorted(kwargs.items()))
        return hash(tuple(parts))
    return key


# Span name -> how to key its arguments for the `.distinct` counter.
DISTINCT_KEYS = {
    "reps.hom_basis": _key_modules(0, 1),
    "resolutions.min_projective_resolution": _key_modules(0),
    "resolutions.min_injective_coresolution": _key_modules(0),
    "resolutions.ext_dim": _key_modules(0, 1),
    # stable_hom(ctx, m1, m2): the context is fixed within a run
    "frob.stable_hom": lambda args, kwargs: hash(
        (module_content(args[1]), module_content(args[2]))),
}
# Span names whose share of `None` results is reported.
NONE_RATIO = ("reps.factor_through", "reps.lift_through", "fp.solve_linear")


def _rref_cells(args, kwargs):
    a = args[0] if args else kwargs["a"]
    return a.rows * a.cols


CELLS = {"fp.rref": _rref_cells}


class Tracer:
    """Span recorder.  One instance per traced run; not thread-safe (the
    benchmark runs one request at a time on one thread)."""

    def __init__(self):
        self.clock = time.perf_counter_ns
        self.names = []
        self.name_ids = {}
        # span log, one entry per kept span (parallel arrays)
        self.log_name = array("i")
        self.log_start = array("q")
        self.log_end = array("q")
        self.log_parent = array("i")
        self.log_request = array("i")
        # open spans: [name_id, start, child_ns, log_index]
        self.stack = []
        self.request = -1
        self.calls = Counter()
        self.self_ns = Counter()
        self.nones = Counter()
        self.cells = Counter()
        self.distinct = defaultdict(set)    # argument keys of this pass
        self.distinct_sum = Counter()       # per-pass counts, summed
        self.request_self_ns = Counter()
        self.request_wall_ns = Counter()
        self._installed = []

    # -- spans -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int, kept: bool):
        index = -1
        if kept:
            index = len(self.log_name)
            parent = self.stack[-1][3] if self.stack else -1
            self.log_name.append(nid)
            self.log_start.append(0)
            self.log_end.append(0)
            self.log_parent.append(parent)
            self.log_request.append(self.request)
        frame = [nid, 0, 0, index]
        self.stack.append(frame)
        frame[1] = self.clock()
        return frame

    def _close(self, frame):
        end = self.clock()
        self.stack.pop()
        nid, start, child, index = frame
        duration = end - start
        self.self_ns[nid] += duration - child
        self.request_self_ns[self.request] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        if index >= 0:
            self.log_start[index] = start
            self.log_end[index] = end

    def request_span(self, request_id: int):
        """Context manager for one benchmark request: the root span, whose
        self time is the benchmark's own code."""
        tracer = self

        class _Span:
            def __enter__(self):
                tracer.request = request_id
                self.frame = tracer._open(tracer._name_id(DRIVER), True)

            def __exit__(self, *exc):
                tracer._close(self.frame)
                start = self.frame[1]
                tracer.request_wall_ns[request_id] += \
                    tracer.log_end[self.frame[3]] - start
                tracer.request = -1
                return False

        return _Span()

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        kept = not name.startswith("fp.")
        key = DISTINCT_KEYS.get(name)
        count_none = name in NONE_RATIO
        cells = CELLS.get(name)
        calls, nones, seen = self.calls, self.nones, self.distinct[nid]
        opened, closed = self._open, self._close
        cell_counter = self.cells

        # The counters are updated inside the span, so their cost is
        # charged to the wrapped function rather than to its caller.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = opened(nid, kept)
            try:
                calls[nid] += 1
                if key is not None:
                    seen.add(key(args, kwargs))
                if cells is not None:
                    cell_counter[nid] += cells(args, kwargs)
                result = fn(*args, **kwargs)
            finally:
                closed(frame)
            if count_none and result is None:
                nones[nid] += 1
            return result

        return traced

    def install(self, package):
        """Wrap every public function of every layer module in every
        nexakt namespace that binds it, and ``Mat.mul`` on its class."""
        import importlib
        mods = {name: importlib.import_module(f"{package.__name__}.{name}")
                for name in MODULE_LAYER}
        namespaces = [package] + list(mods.values())
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                wrappers[id(obj)] = (obj, self.wrap(
                    _SPAN_ALIASES.get(name, name), obj))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._installed.append((ns, attr, obj))
                    setattr(ns, attr, hit[1])
        mat = mods["fp"].Mat
        original_mul = mat.__dict__["mul"]
        self._installed.append((mat, "mul", original_mul))
        setattr(mat, "mul", self.wrap("fp.mat_mul", original_mul))

    def restore(self):
        for ns, attr, obj in reversed(self._installed):
            setattr(ns, attr, obj)
        self._installed.clear()

    # -- results -------------------------------------------------------------

    def close_pass(self):
        """Add this pass's distinct-argument counts to the sum, and start
        the next pass with empty sets."""
        for nid, seen in self.distinct.items():
            self.distinct_sum[nid] += len(seen)
            seen.clear()    # the wrappers hold these very sets

    def take(self) -> "Totals":
        """The counts and times gathered since the last take; clears them
        (the span log is kept).  Closes the current pass."""
        self.close_pass()
        totals = Totals(
            names=list(self.names), name_ids=dict(self.name_ids),
            calls=Counter(self.calls), self_ns=Counter(self.self_ns),
            nones=Counter(self.nones), cells=Counter(self.cells),
            distinct=Counter(self.distinct_sum),
            request_wall_ns=Counter(self.request_wall_ns))
        for counter in (self.calls, self.self_ns, self.nones, self.cells,
                        self.distinct_sum, self.request_self_ns,
                        self.request_wall_ns):
            counter.clear()
        return totals

    def write_spans(self, path):
        """Write the kept spans as JSON lines:
        [name, start_ns, end_ns, parent_index, request_id]."""
        with open(path, "w", encoding="utf-8") as out:
            for i in range(len(self.log_name)):
                out.write(json.dumps([
                    self.names[self.log_name[i]], self.log_start[i],
                    self.log_end[i], self.log_parent[i],
                    self.log_request[i]]) + "\n")


class Totals:
    """Counts and times of one phase of a traced run, by span name."""

    def __init__(self, names, name_ids, calls, self_ns, nones, cells,
                 distinct, request_wall_ns):
        self.names = names
        self.name_ids = name_ids
        self.calls = calls
        self.self_ns = self_ns
        self.nones = nones
        self.cells = cells
        self.distinct = distinct
        self.request_wall_ns = request_wall_ns

    def get(self, counter, name: str) -> int:
        nid = self.name_ids.get(name)
        return 0 if nid is None else counter.get(nid, 0)

    def layer_self_seconds(self) -> dict:
        out = {layer: 0 for layer in LAYERS}
        out[DRIVER] = 0
        for nid, ns in self.self_ns.items():
            name = self.names[nid]
            layer = DRIVER if name == DRIVER else \
                MODULE_LAYER[name.split(".", 1)[0]]
            out[layer] += ns
        return {layer: ns / 1e9 for layer, ns in out.items()}
