"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import nexakt  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import LAYERS, MODULE_LAYER, Tracer  # noqa: E402


def _namespaces():
    import importlib
    return [nexakt] + [importlib.import_module(f"nexakt.{m}")
                       for m in MODULE_LAYER]


def _workdir():
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=scratch)


def _snapshot():
    out = {}
    for ns in _namespaces():
        for attr, obj in vars(ns).items():
            if callable(obj):
                out[(ns.__name__, attr)] = obj
    out[("Mat", "mul")] = nexakt.fp.Mat.__dict__["mul"]
    return out


def test_restore_puts_back_every_original():
    before = _snapshot()
    tracer = Tracer()
    tracer.install(nexakt)
    try:
        original = before[("nexakt.reps", "hom_basis")]
        assert nexakt.reps.hom_basis is not original
        assert nexakt.addcat.hom_basis is nexakt.reps.hom_basis
        assert nexakt.fp.Mat.__dict__["mul"] is not before[("Mat", "mul")]
        wl = workloads.AddmCertify()
        with _workdir() as workdir:
            state = wl.setup(workdir)
            run.run_pass(wl, state, wl.requests(3, 0)[:3], run.Tally(),
                         workdir, SpeedProbe(), tracer)
    finally:
        tracer.restore()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_self_times_sum_to_request_wall():
    tracer = Tracer()

    def fails():
        raise ZeroDivisionError

    inner = tracer.wrap("fp.inner", lambda n: sum(range(n)))
    raising = tracer.wrap("reps.raising", fails)

    def work(n):
        inner(n)
        return raising()

    outer = tracer.wrap("addcat.outer", work)
    for rid in range(3):
        with tracer.request_span(rid):
            sum(range(20000))   # the request's own code
            try:
                outer(50000)
            except ZeroDivisionError:
                pass
            inner(10000)
    assert tracer.stack == []
    for rid, root_ns in tracer.request_wall_ns.items():
        assert root_ns > 0
        assert abs(tracer.request_self_ns[rid] - root_ns) <= 1000  # 1 us
    totals = tracer.take()
    assert totals.get(totals.calls, "fp.inner") == 6
    assert totals.get(totals.calls, "reps.raising") == 3
    layers = totals.layer_self_seconds()
    assert set(layers) == set(LAYERS) | {"driver"}
    assert layers["fp"] > 0 and layers["addcat"] > 0 and layers["driver"] > 0
    root_s = sum(totals.request_wall_ns.values()) / 1e9
    assert abs(sum(layers.values()) - root_s) < 1e-6


def test_same_seed_same_request_digest():
    for cls in workloads.WORKLOADS.values():
        wl = cls()
        first = workloads.request_digest(wl.requests(7, 0))
        assert workloads.request_digest(wl.requests(7, 0)) == first
        assert workloads.request_digest(wl.requests(8, 0)) != first


def test_passes_ask_for_the_same_work_on_new_content():
    wl = workloads.AddmCertify()
    one, two = wl.requests(7, 0), wl.requests(7, 1)
    assert one != two
    assert [r["kind"] for r in one] == [r["kind"] for r in two]
    for a, b in zip(one, two):
        for key in ("src", "tgt", "via", "x", "a", "b"):
            if key in a:
                assert sorted(a[key]) == sorted(b[key])
    alg = workloads.cyclic_nakayama_j2(6, 65537)
    p2 = nexakt.reps.projective_module(alg, "2")
    rng = workloads.random.Random(1)
    copies = [workloads._twisted(p2, rng) for _ in range(3)]
    assert all(c.dims == p2.dims for c in copies)
    assert len({c.action["a2"].entries for c in copies}) == 3


def test_every_listed_metric_can_be_computed():
    end_to_end, per_layer = run.load_spec()
    assert end_to_end["setup_s"] == "s"
    tracer = Tracer()
    tracer.install(nexakt)
    tracer.restore()
    run.check_layer_names(per_layer, tracer.name_ids)
    try:
        run.check_layer_names(["reps.no_such_function.calls"],
                              tracer.name_ids)
    except ValueError:
        pass
    else:
        raise AssertionError("an unknown span name was accepted")


def test_isotropic_probe_fails_only_for_the_isotropic_basis():
    # the same module with socle (1, 0): the envelope is an isomorphism,
    # so the probe's failures come from the basis, not from its oracle
    alg = workloads.cyclic_nakayama_j2(6, 101)
    x = workloads.KnownDefects.isotropic_module(alg, 0, 1)
    env = nexakt.resolutions.injective_envelope(x)
    assert env.target.dims == x.dims


def test_nct_search_oracle_is_lambda_plus_simples():
    # K A_5/J^2, n = 2: Lambda + S_2 + S_4 over 0 <- 1 <- 2 <- 3 <- 4
    dims = workloads.NctSearch.expected_dims(2, 2)
    assert dims == [[1, 0, 0, 0, 0], [1, 1, 0, 0, 0], [0, 1, 1, 0, 0],
                    [0, 0, 1, 1, 0], [0, 0, 0, 1, 1], [0, 0, 1, 0, 0],
                    [0, 0, 0, 0, 1]]
