import random

import pytest

from nexakt import reps, tilting
from nexakt.addcat import (DomainError, HypothesisError, PreconditionError,
                           add_category, indecomposables)
from nexakt.presets import (gen_linear_An_J2, nakayama_algebra,
                            nakayama_indecomposables)
from nexakt.reps import (Module, all_injectives, all_projectives, direct_sum,
                         hom_basis, projective_module, regular_module,
                         simple_module)
from nexakt.resolutions import ext_dim
from nexakt.tilting import (_ExtTable, _nct_report, check_n_cluster_tilting,
                            ext_via_approx_resolution, hom_exact_at_middle,
                            strong_projectivity_check)
from nexakt.addcat import weak_cokernel

from conftest import (are_isomorphic, full_ext_table, in_random_basis,
                      linear_a3_j2, named_modules, preprojective_a2)


@pytest.fixture
def indecs(a3_mods):
    return [a3_mods["P0"], a3_mods["P1"], a3_mods["P2"], a3_mods["S1"], a3_mods["S2"]]


def test_m3_is_2ct(a3, m3):
    report = check_n_cluster_tilting(m3, 2, nakayama_indecomposables(a3))
    assert report.ok
    assert report.verdict == "n-CT"
    with pytest.raises(ValueError, match="n must be >= 1"):
        check_n_cluster_tilting(m3, 0, nakayama_indecomposables(a3))


def test_hand_made_list_gives_a_relative_verdict(a3, m3, indecs):
    # the list holds every indecomposable of K A_3/J^2 (P0 = S0), but
    # nothing proves that, so the verdict is relative to it
    assert nakayama_indecomposables(a3).complete
    checked = indecomposables(indecs, seed=0)
    assert not checked.complete and list(checked) == indecs
    assert indecomposables(checked) is checked
    report = check_n_cluster_tilting(m3, 2, indecs)
    assert report.ok and not report.complete_list
    assert report.verdict == "n-CT (relative to supplied list)"


def test_lambda_plus_s1_fails(a3, a3_mods, indecs):
    bad = add_category(a3, [a3_mods["P0"], a3_mods["P1"], a3_mods["P2"], a3_mods["S1"]],
                       seed=2)
    report = check_n_cluster_tilting(bad, 2, indecs)
    assert not report.ok
    # witness: Ext^1(S1, S0) != 0 shows up as a rigidity failure
    assert report.rigidity_failures
    idx_s1 = 3
    assert any(i == idx_s1 or j == idx_s1
               for i, j, _, _ in report.rigidity_failures)


def test_all_indecomposables_is_unique_1ct(a3, indecs):
    every = add_category(a3, indecs, seed=3)
    report = check_n_cluster_tilting(every, 1, indecs)
    assert report.ok


def test_decomposable_input_rejected(a3, m3, a3_mods, indecs):
    bad_list = [*indecs, direct_sum([a3_mods["P1"], a3_mods["S2"]])[0]]
    with pytest.raises(DomainError, match="entry 5 is decomposable"):
        check_n_cluster_tilting(m3, 2, bad_list)


def test_missing_generator_rejected(a3, m3, a3_mods):
    with pytest.raises(PreconditionError, match="no entry is isomorphic"):
        check_n_cluster_tilting(m3, 2, [a3_mods["P0"], a3_mods["P1"]])


def test_index_of_is_exact_and_the_report_reads_no_seed():
    # isomorphism to an entry is decided exactly (equal dimension vectors
    # and membership in add(entry)), so a module in another basis is found
    # at its entry's position, and a decomposable one with an entry's
    # dimension vector at none
    alg = linear_a3_j2()
    indecs = nakayama_indecomposables(alg)
    rng = random.Random(11)
    for i, x in enumerate(indecs):
        assert indecs.index_of(in_random_basis(x, rng)) == i
    s0_s1 = Module(alg, {"0": 1, "1": 1, "2": 0}, {})      # S0 + S1
    assert s0_s1.dim_vector() == projective_module(alg, "1").dim_vector() == (1, 1, 0)
    with pytest.raises(PreconditionError, match="no entry is isomorphic"):
        indecs.index_of(s0_s1)
    # Lambda + S2 in a random basis: the same report at every seed
    twisted = [in_random_basis(g, rng) for g in
               [projective_module(alg, v) for v in "012"] + [simple_module(alg, "2")]]
    reports = [check_n_cluster_tilting(add_category(alg, twisted, seed=seed), 2,
                                       indecs, seed=seed).to_dict()
               for seed in (0, 7)]
    assert reports[0] == reports[1]
    assert reports[0]["verdict"] == "n-CT"


def test_index_of_finds_what_sampled_hom_misses(monkeypatch):
    # P = k[x]/x^2 over F_2 in another basis: half of Hom(x, P) is
    # invertible, so a sampled test misses with probability 2^-retries;
    # with one sample it misses at seed 1, and index_of, which samples
    # nothing, still finds P's position
    indecs = nakayama_indecomposables(nakayama_algebra(1, 2, cyclic=True, p=2))
    x = in_random_basis(indecs[1], random.Random(0))
    assert not x.same_as(indecs[1])
    monkeypatch.setattr(reps, "FITTING_RETRIES", 1)
    assert not are_isomorphic(x, indecs[1], 1)
    assert indecs.index_of(x) == 1


def test_report_serializes(a3, m3):
    report = check_n_cluster_tilting(m3, 2, nakayama_indecomposables(a3))
    d = report.to_dict()
    assert d["verdict"] == "n-CT"
    assert d["ok"] is True


# -- Ext comparison -------------------------------------------------------


def test_ext_comparison_on_m3_pairs(a3, m3, indecs):
    names = ["P0", "P1", "P2", "S1", "S2"]
    hypothesis_ok = []
    for b in indecs:
        try:
            for a_mod in indecs:
                got = ext_via_approx_resolution(a_mod, b, m3, 1, 2)
                assert got == ext_dim(a_mod, b, 1)
            hypothesis_ok.append(True)
        except HypothesisError:
            hypothesis_ok.append(False)
    # S1 is the unique indecomposable violating Ext^1(M, b) = 0
    assert hypothesis_ok == [True, True, True, False, True]


def test_ext_comparison_s1_s0(a3, m3, a3_mods):
    # Ext^1(S1, S0) = 1 computed both ways
    assert ext_via_approx_resolution(a3_mods["S1"], a3_mods["S0"], m3, 1, 2) == 1
    assert ext_dim(a3_mods["S1"], a3_mods["S0"], 1) == 1


def test_ext_comparison_member_vanishes(a3, m3, a3_mods):
    assert ext_via_approx_resolution(a3_mods["S2"], a3_mods["P2"], m3, 1, 2) == 0


def test_ext_comparison_rejects_bad_degree(a3, m3, a3_mods):
    with pytest.raises(ValueError):
        ext_via_approx_resolution(a3_mods["S1"], a3_mods["S0"], m3, 2, 2)


def test_ext_comparison_over_a_subcategory_that_is_not_generating(a3, a3_mods):
    # nothing in add(P0 + P1 + S2) maps onto the top S2 of P2
    m = add_category(a3, [a3_mods["P0"], a3_mods["P1"], a3_mods["S2"]], seed=1)
    with pytest.raises(HypothesisError,
                       match="right approximation at stage 0 is not surjective"):
        ext_via_approx_resolution(a3_mods["P2"], a3_mods["S0"], m, 1, 2)


# -- strong projectivity ----------------------------------------------------


def test_strong_projectivity_p2(a3, m3, a3_mods):
    f = hom_basis(a3_mods["S0"], a3_mods["P1"])[0]
    ok, ranks = strong_projectivity_check(a3_mods["P2"], f, m3)
    assert ok


def test_strong_projectivity_zero_module(a3, m3, a3_mods):
    from nexakt.reps import zero_module
    f = hom_basis(a3_mods["S0"], a3_mods["P1"])[0]
    ok, _ = strong_projectivity_check(zero_module(a3), f, m3)
    assert ok


def test_strong_projectivity_regular_module(a3, m3, a3_mods):
    f = hom_basis(a3_mods["P1"], a3_mods["P2"])[0]
    ok, _ = strong_projectivity_check(regular_module(a3), f, m3)
    assert ok


def test_strong_projectivity_rejects_nonprojective(a3, m3, a3_mods):
    f = hom_basis(a3_mods["S0"], a3_mods["P1"])[0]
    with pytest.raises(PreconditionError):
        strong_projectivity_check(a3_mods["S2"], f, m3)


@pytest.mark.parametrize("parts", [["S1"], ["P1", "S2"]])
def test_strong_projectivity_rejects_in_a_random_basis(a3, m3, a3_mods, parts):
    p = in_random_basis(direct_sum([a3_mods[k] for k in parts]).module,
                        random.Random(len(parts)))
    f = hom_basis(a3_mods["S0"], a3_mods["P1"])[0]
    with pytest.raises(PreconditionError, match="^p is not projective$"):
        strong_projectivity_check(p, f, m3)


@pytest.mark.parametrize("parts", [["P0", "P1", "P2"], ["P1", "P2"]])
def test_strong_projectivity_accepts_projectives_in_a_random_basis(a3, m3, a3_mods,
                                                                   parts):
    # Lambda and P1 + P2; the zero module is test_strong_projectivity_zero_module
    p = in_random_basis(direct_sum([a3_mods[k] for k in parts]).module,
                        random.Random(len(parts)))
    f = hom_basis(a3_mods["P1"], a3_mods["P2"])[0]
    ok, ranks = strong_projectivity_check(p, f, m3)
    assert ok and ranks["kernel_dim"] == ranks["rank_in"]


def test_nonprojective_negative_control(a3, m3, a3_mods):
    # Hom(S2, -) applied to P2 -> S2 -> weak cokernel (= 0) fails in the middle
    f = hom_basis(a3_mods["P2"], a3_mods["S2"])[0]
    g = weak_cokernel(f, m3)
    ok, ranks = hom_exact_at_middle(a3_mods["S2"], f, g)
    assert not ok
    assert ranks["kernel_dim"] == 1 and ranks["rank_in"] == 0


# -- the Ext table skips rows at projectives and columns at injectives ----


def _vanishing_cases(p):
    """(name, Indecomposables) over K A_m/J^2 (m <= 7), K A_9/J^3 and the
    6-cycle with J^2 = 0, each with its complete list; Pi_2 with the
    hand-made list P1, P2, S1, S2; and K A_3/J^2 with a list that misses
    the injective S2, so that one position is None."""
    for m in range(1, 8):
        yield f"A_{m}/J^2", nakayama_indecomposables(gen_linear_An_J2(1, m - 1, p)[0])
    yield "A_9/J^3", nakayama_indecomposables(nakayama_algebra(9, 3, p=p))
    yield "C_6/J^2", nakayama_indecomposables(nakayama_algebra(6, 2, cyclic=True, p=p))
    pi2 = named_modules(preprojective_a2(p))
    yield "Pi_2", indecomposables(list(pi2.values()), seed=0)
    a3 = linear_a3_j2(p)
    yield "A_3/J^2 without S2", indecomposables(
        [projective_module(a3, v) for v in "012"] + [simple_module(a3, "1")],
        seed=0)


@pytest.mark.parametrize("p", [2, 101, 2147483647])
def test_ext_table_skips_only_entries_that_vanish(p):
    # Ext^k(P_v, y) = 0 = Ext^k(y, I_v) for every entry y and k = 1..3, and
    # the table that writes those zeros unread equals a full table of
    # ext_dim over every ordered pair
    for name, indecs in _vanishing_cases(p):
        alg = indecs[0].algebra
        table = _ExtTable(alg, 4, indecs, 0)
        projs, injs = table.projs, table.injs
        for _, i in projs:
            for y in indecs:
                assert [ext_dim(indecs[i], y, k) for k in (1, 2, 3)] == [0] * 3, name
        for _, j in injs:
            if j is not None:
                for y in indecs:
                    assert [ext_dim(y, indecs[j], k) for k in (1, 2, 3)] == [0] * 3, name
        table.fill(range(len(indecs)))
        full = full_ext_table(indecs, 4)
        assert (table.dims, table.out, table.into) == \
            (full.dims, full.out, full.into), name
    # the last case skips no column for the missing I_2 = S2
    assert [i for _, i in injs] == [1, 2, None]


def test_nct_check_calls_no_ext_dim_at_a_projective_or_an_injective(monkeypatch):
    # K A_7/J^2 at n = 3: the first argument of every ext_dim call is no
    # P_v and the second no I_v, and the report is the one read from a full
    # table
    alg, expected = gen_linear_An_J2(3, 2)
    indecs = nakayama_indecomposables(alg)
    projs = {indecs.index_of(x) for x in all_projectives(alg)}
    injs = {indecs.index_of(x) for x in all_injectives(alg)}
    calls = []
    read = tilting.ext_dim
    monkeypatch.setattr(tilting, "ext_dim",
                        lambda *a: calls.append(a) or read(*a))
    report = check_n_cluster_tilting(add_category(alg, expected), 3, indecs)
    assert calls
    for x, y, _ in calls:
        assert indecs.index_of(x) not in projs
        assert indecs.index_of(y) not in injs
    monkeypatch.undo()
    gens = [indecs.index_of(g) for g in expected]
    reference = _nct_report(gens, full_ext_table(indecs, 3))
    assert report.verdict == reference.verdict == "n-CT"
    assert report.to_dict() == reference.to_dict()
