"""nexakt benchmark: one command, three seeded workloads, checked answers.

Usage (from the repository root):

    python3 perfbench/run.py --workload nct-search --seed 1 --seconds 20 --trace 0

Workloads: nct-search, addm-certify, frobenius-angles (see
perfbench/README.md), plus the known-defects probe, which is not timed.

Load model: a closed loop with one client.  One workload runs per process,
on one thread; a request is issued only after the previous one finished.
A pass is one request list, made from the seed and the pass number: each
pass asks for the same work on new module content (nct-search repeats
its searches).  After set-up (repeated SETUP_REPEATS times), passes
repeat until --seconds have elapsed (at least one pass).

--trace 0 prints the end-to-end metrics: wall_s (median pass time),
setup_s (median set-up), op_p50_ms and peak_rss_mb (over set-up and the
first pass); times are scaled to a reference speed (speed.py).  The
summary lines add op_p90_ms (where at least ten samples lie beyond it),
fail_ratio and a table of outcomes by request kind.
--trace 1 traces one set-up, runs one untraced pass, then wraps nexakt's
public functions (tracer.py) and runs traced passes.  It prints the
per-layer metrics and writes the kept spans to
.perfbench/spans-<workload>.jsonl.  BENCHMARK.json names the metrics of
both modes.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3

# Per-layer statistic of a wrapped function's span -> Totals counter.
SPAN_STATS = {"calls": "calls", "distinct": "distinct", "cells": "cells",
              "self_s": "self_ns"}


def load_spec():
    """BENCHMARK.json: the metric names the run reports, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check_layer_names(names, spans):
    """Raise unless every per-layer metric name can be computed: it is
    `trace_overhead_s`, `<layer>.self_s`, `<span>.<stat>` of a span the
    tracer wraps, or one of these after `setup.`."""
    from tracer import DRIVER, LAYERS
    for name in names:
        if name == "trace_overhead_s":
            continue
        span, stat = name.removeprefix("setup.").rsplit(".", 1)
        if (span in LAYERS or span == DRIVER) and stat == "self_s":
            continue
        if span not in spans or stat not in (*SPAN_STATS, "none_ratio"):
            raise ValueError(f"BENCHMARK.json: cannot compute {name!r}")


def layer_metric(name, totals, layers, passes):
    """One per-layer metric, per pass: `<layer>.self_s` from the layer self
    times, or `<span>.<stat>` from the wrapped function's span."""
    span, stat = name.rsplit(".", 1)
    if span in layers:
        return layers[span] / passes
    if stat == "none_ratio":
        calls = totals.get(totals.calls, span)
        return totals.get(totals.nones, span) / calls if calls else 0.0
    value = totals.get(getattr(totals, SPAN_STATS[stat]), span) / passes
    return value / 1e9 if stat == "self_s" else value


class Tally:
    """Per-kind request outcomes."""

    def __init__(self):
        self.attempted = Counter()
        self.failed = Counter()
        self.first_error = {}
        self.reported = {}

    def record(self, kind, error):
        self.attempted[kind] += 1
        if error is not None:
            self.failed[kind] += 1
            self.first_error.setdefault(kind, error)

    def report(self, label, value):
        """A reported value (e.g. a certificate digest) must not change
        between passes of one run."""
        old = self.reported.setdefault(label, value)
        if old != value:
            return f"{label} changed between passes: {old} -> {value}"
        return None


def run_pass(wl, state, requests, tally, workdir, probe, tracer=None,
             base_id=0):
    """One pass over the request list.  Returns the per-request latencies,
    unscaled and scaled to the reference speed (speed.py)."""
    raw, scaled = [], []
    for i, req in enumerate(requests):
        error = None
        with probe.region() as took:
            try:
                if tracer is None:
                    got = wl.run(state, req, workdir)
                else:
                    with tracer.request_span(base_id + i):
                        got = wl.run(state, req, workdir)
                if got is not None:
                    error = tally.report(*got)
            except Exception as exc:  # a raising request is a failed request
                error = "".join(traceback.format_exception_only(exc)).strip()
        raw.append(took[0])
        scaled.append(took[1])
        tally.record(req["kind"], error)
    return raw, scaled


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer_metrics(names, totals, at_setup, traced_walls):
    """The per-layer metrics of the traced passes, each per pass, and
    (`setup.*`) of the one traced set-up."""
    layers = totals.layer_self_seconds()
    # the benchmark's loop between request spans
    layers["driver"] += (sum(traced_walls)
                         - sum(totals.request_wall_ns.values()) / 1e9)
    setup_layers = at_setup.layer_self_seconds()
    out = {}
    for name in names:
        if name == "trace_overhead_s":
            continue
        if name.startswith("setup."):
            out[name] = layer_metric(name.removeprefix("setup."), at_setup,
                                     setup_layers, 1)
        else:
            out[name] = layer_metric(name, totals, layers, len(traced_walls))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "nexakt" / "__init__.py").is_file():
        print(f"perfbench: no nexakt sources in {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import nexakt
    if Path(nexakt.__file__).resolve().parent != (src / "nexakt").resolve():
        print(f"perfbench: imported nexakt from {nexakt.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]()
    try:
        end_to_end, per_layer = load_spec()
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}",
              file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        if args.trace:
            return measure_layers(wl, args, workdir, scratch, per_layer)
        return measure(wl, args, workdir, end_to_end)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def timed_setup(wl, workdir, probe):
    """Set up SETUP_REPEATS times; returns the last state and the set-up
    times, unscaled and scaled to the reference speed."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        with probe.region() as took:
            state = wl.setup(workdir)
        raw.append(took[0])
        scaled.append(took[1])
    return state, raw, scaled


def measure(wl, args, workdir, units):
    """The untraced run: the end-to-end metrics."""
    probe = SpeedProbe()
    with probe:
        state, setup_raw, setup_scaled = timed_setup(wl, workdir, probe)
        announce(wl, args)
        tally = Tally()
        deadline = time.perf_counter() + args.seconds
        raw_walls, walls, latencies = [], [], []
        while not walls or time.perf_counter() < deadline:
            requests = wl.requests(args.seed, len(walls))
            raw, scaled = run_pass(wl, state, requests, tally, workdir, probe)
            raw_walls.append(sum(raw))
            walls.append(sum(scaled))
            latencies.extend(scaled)
            if len(walls) == 1:
                # caches keyed by object identity grow with every pass,
                # so the peak covers set-up and the first pass
                rss = peak_rss_mb()
    summarize(tally, walls, raw_walls)
    print("setup s, scaled: " + " ".join(f"{t:.3f}" for t in setup_scaled)
          + "  unscaled: " + " ".join(f"{t:.3f}" for t in setup_raw))
    print(f"op_p50_ms over {len(latencies)} requests")
    if len(latencies) >= 100:
        print(f"op_p90_ms {1000 * percentile(latencies, 0.9)} (ms) "
              f"over {len(latencies)} requests")
    else:
        print(f"op_p90_ms not reported: {len(latencies)} requests "
              f"(needs 100)")
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_scaled),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "peak_rss_mb": rss,
    }
    return finish(tally, metrics, units)


def measure_layers(wl, args, workdir, scratch, units):
    """The traced run: one traced set-up, one untraced pass (the base of
    trace_overhead_s), then traced passes until --seconds have passed.  The
    probe is not entered, so the kernel runs only between requests, never
    inside a span."""
    from tracer import Tracer
    import nexakt
    probe = SpeedProbe()
    tracer = Tracer()
    tracer.install(nexakt)
    try:
        check_layer_names(units, tracer.name_ids)
        with tracer.request_span(-1):
            state = wl.setup(workdir)
    finally:
        tracer.restore()
    at_setup = tracer.take()
    announce(wl, args)
    tally = Tally()
    deadline = time.perf_counter() + args.seconds
    base, _ = run_pass(wl, state, wl.requests(args.seed, 0), tally, workdir,
                       probe)
    raw_walls, walls = [], []
    tracer.install(nexakt)
    try:
        while not walls or time.perf_counter() < deadline:
            requests = wl.requests(args.seed, len(walls) + 1)
            raw, scaled = run_pass(wl, state, requests, tally, workdir, probe,
                                   tracer, len(walls) * len(requests))
            tracer.close_pass()
            raw_walls.append(sum(raw))
            walls.append(sum(scaled))
    finally:
        tracer.restore()
    summarize(tally, walls, raw_walls)
    metrics = per_layer_metrics(units, tracer.take(), at_setup, raw_walls)
    traced = statistics.median(raw_walls)
    metrics["trace_overhead_s"] = traced - sum(base)
    print(f"traced pass {traced} s, untraced pass {sum(base)} s "
          f"(unscaled); driver share of the traced pass "
          f"{metrics['driver.self_s'] / traced}")
    spans = scratch / f"spans-{wl.name}.jsonl"
    tracer.write_spans(spans)
    print(f"spans: {len(tracer.log_name)} kept in {spans}")
    return finish(tally, metrics, units)


def announce(wl, args):
    """Print the workload and the digest of its first pass's requests."""
    from workloads import request_digest
    requests = wl.requests(args.seed, 0)
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"requests/pass {len(requests)}")
    print(f"request digest (pass 0) sha256:{request_digest(requests)}")


def summarize(tally, walls, raw_walls):
    for label, value in sorted(tally.reported.items()):
        print(f"{label}: {value}")
    print(f"{'kind':24s} {'attempted':>9s} {'failed':>6s}  first error")
    for kind in sorted(tally.attempted):
        print(f"{kind:24s} {tally.attempted[kind]:9d} "
              f"{tally.failed[kind]:6d}  {tally.first_error.get(kind, '-')}")
    print("pass s, scaled: " + " ".join(f"{w:.3f}" for w in walls)
          + "  unscaled: " + " ".join(f"{w:.3f}" for w in raw_walls))


def finish(tally, metrics, units):
    attempted = sum(tally.attempted.values())
    failed = sum(tally.failed.values())
    print(f"fail_ratio {failed / attempted} (1) over {attempted} requests")
    if metrics.keys() != units.keys():
        raise ValueError(f"computed {sorted(metrics)}, "
                         f"BENCHMARK.json lists {sorted(units)}")
    for name, value in metrics.items():
        print(f"{name} {value} ({units[name]})")
    print(json_line(failed == 0, attempted, failed, metrics, units))
    return 0


def json_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}})


if __name__ == "__main__":
    sys.exit(main())
