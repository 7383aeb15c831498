import hashlib
import random
from itertools import combinations
from math import gcd

import pytest

from nexakt import presets, reps, resolutions, tilting
from nexakt.addcat import (DomainError, Indecomposables, PreconditionError,
                           add_category)
from nexakt.certs import canonical_json
from nexakt.fp import FieldSpec, Mat
from nexakt.quivers import PathWord, Quiver, Relation, build_algebra
from nexakt.presets import (gen_auslander_linear_A, gen_linear_An_J2,
                            gen_preprojective_A, nakayama_algebra,
                            nakayama_indecomposables)
from nexakt.reps import (all_injectives, all_projectives, direct_sum,
                         hom_basis, injective_module, projective_module,
                         simple_module)
from nexakt.resolutions import ext_dim, is_projective
from nexakt.tilting import brute_force_nct_search, check_n_cluster_tilting

from conftest import are_isomorphic, in_random_basis, pick, ref_radical_step


def test_a3_j2_generator(a3):
    alg, expected = gen_linear_An_J2(2, 1)
    assert alg.dim == 5
    assert len(expected) == 4
    dims = sorted(g.dim_vector() for g in expected)
    assert dims == [(0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 0)]


def test_nakayama_algebra_names_arrows_and_relations():
    def rel(*word):
        return Relation(((1, PathWord(word)),))
    lin = nakayama_algebra(5, 3)
    assert lin.quiver == Quiver.build("01234", [("a1", "1", "0"), ("a2", "2", "1"),
                                                ("a3", "3", "2"), ("a4", "4", "3")])
    assert list(lin.relations) == [rel("a3", "a2", "a1"), rel("a4", "a3", "a2")]
    assert (lin.nilpotency_bound, lin.p) == (3, 101)
    cyc = nakayama_algebra(3, 4, cyclic=True, p=5)
    assert cyc.quiver == Quiver.build("012", [("a0", "0", "1"), ("a1", "1", "2"),
                                              ("a2", "2", "0")])
    assert list(cyc.relations) == [rel("a0", "a1", "a2", "a0"),
                                   rel("a1", "a2", "a0", "a1"),
                                   rel("a2", "a0", "a1", "a2")]
    assert (cyc.nilpotency_bound, cyc.p, cyc.dim) == (4, 5, 12)
    for k, l in ((0, 2), (3, 1)):
        with pytest.raises(ValueError, match="need k >= 1 and l >= 2"):
            nakayama_algebra(k, l)


def test_gen_linear_an_j2_builds_each_projective_once(monkeypatch):
    # the expected generators are the P_v of all_projectives, which the
    # Nakayama list then reads: one _path_module call per vertex of A_9,
    # and one through presets' own import for each of the 8 other list
    # entries, P_v cut to its top
    calls = 0
    path_module = reps._path_module

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return path_module(*args, **kwargs)
    monkeypatch.setattr(reps, "_path_module", counted)
    monkeypatch.setattr(presets, "_path_module", counted)
    alg, expected = gen_linear_An_J2(2, 4)
    nakayama_indecomposables(alg)
    assert calls == 17
    assert list(expected[:9]) == list(all_projectives(alg))


def test_search_on_selfinjective_nakayama_matches_the_classification():
    """C_k/J^l has a d-cluster-tilting module exactly when l(d-1) + 2
    divides 2k or t*k, with t = gcd(d + 1, 2(l - 1)) (Darpö and Iyama,
    "d-representation-finite self-injective algebras", Adv. Math. 362
    (2020)).  The search agrees for k <= 12, l, d in {2, 3, 4} wherever
    it accepts the list: at least 84 cases, 25 of them with hits; it
    refuses the rest for having too many candidates."""
    accepted = found = 0
    for k in range(1, 13):
        for l in (2, 3, 4):
            alg = nakayama_algebra(k, l, cyclic=True)
            indecs = nakayama_indecomposables(alg)
            for d in (2, 3, 4):
                try:
                    hits = brute_force_nct_search(alg, d, indecs)
                except PreconditionError as exc:
                    assert "too many candidates" in str(exc)
                    continue
                accepted += 1
                found += bool(hits)
                m, t = l * (d - 1) + 2, gcd(d + 1, 2 * (l - 1))
                assert bool(hits) == (2 * k % m == 0 or t * k % m == 0), (k, l, d)
    assert accepted >= 84
    assert found >= 25


def test_one_vertex_case():
    alg, expected = gen_linear_An_J2(1, 0)
    assert alg.dim == 1
    assert len(expected) == 1


def test_a5_j2_generator():
    alg, expected = gen_linear_An_J2(2, 2)
    assert alg.dim == 5 + 4
    assert len(expected) == 7  # 5 projectives + S2 + S4


def test_expected_list_is_nct():
    for (n, m) in [(2, 1), (2, 2), (3, 1)]:
        alg, expected = gen_linear_An_J2(n, m)
        indecs = nakayama_indecomposables(alg)
        cat = add_category(alg, expected, seed=0)
        report = check_n_cluster_tilting(cat, n, indecs)
        assert report.ok, (n, m, report.to_dict())


def test_preprojective_a2(pi2):
    alg = gen_preprojective_A(2)
    assert alg.dim == 4
    # selfinjective: injectives match projectives up to iso
    for v in alg.quiver.vertices:
        iv = injective_module(alg, v)
        assert any(are_isomorphic(iv, projective_module(alg, w), seed=1)
                   for w in alg.quiver.vertices)


def test_preprojective_a2_opposite_isomorphic():
    from nexakt.quivers import opposite_algebra
    alg = gen_preprojective_A(2)
    opp = opposite_algebra(alg)
    assert opp.dim == alg.dim


def test_preprojective_a3_dimension():
    # path enumeration: 3 units + 4 arrows + {a1a2, b2b1, b1a1 = a2b2},
    # all length-3 words die mod the mesh relations
    alg = gen_preprojective_A(3)
    assert alg.dim == 10
    # hook-shaped projectives with dim P_i = i(4 - i)
    dims = [projective_module(alg, v).total_dim for v in alg.quiver.vertices]
    assert dims == [3, 4, 3]
    # selfinjective
    for v in alg.quiver.vertices:
        iv = injective_module(alg, v)
        assert any(are_isomorphic(iv, projective_module(alg, w), seed=1)
                   for w in alg.quiver.vertices)


@pytest.mark.parametrize("p", [2, 101])
def test_preprojective_a_builds_for_every_n(p):
    # no cap above: Pi(A_n) has dimension n(n+1)(n+2)/6, nilpotency bound
    # n with a nonzero path of length n - 1, and is selfinjective, so every
    # I_v is projective; Pi(A_6) builds in under 0.1 s
    for n in range(2, 7):
        alg = gen_preprojective_A(n, p)
        assert alg.dim == n * (n + 1) * (n + 2) // 6
        assert max(w.length() for w in alg.basis) == n - 1
        assert all(is_projective(x) for x in all_injectives(alg)), n
    with pytest.raises(ValueError, match="need n >= 2"):
        gen_preprojective_A(1)


def test_nakayama_lists():
    alg, _ = gen_linear_An_J2(2, 1)
    mods = nakayama_indecomposables(alg)
    assert len(mods) == 5
    dim_vectors = sorted(m.dim_vector() for m in mods)
    assert dim_vectors == [(0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 1, 0)]


def test_nakayama_single_vertex():
    alg, _ = gen_linear_An_J2(1, 0)
    mods = nakayama_indecomposables(alg)
    assert len(mods) == 1


def test_nakayama_pi2():
    alg = gen_preprojective_A(2)
    mods = nakayama_indecomposables(alg)
    assert len(mods) == 4


@pytest.mark.parametrize("alg, count, digest", [
    (gen_linear_An_J2(2, 4)[0], 17,
     "86fcbda0738321c3ba060090f21fa36a63111194f73df3b0c5d5abc3aa984d68"),
    (nakayama_algebra(6, 2, cyclic=True), 12,
     "77de0c37ba9e1d495818922b10294863f286be0c430b8d7c6148b8a7db7650e9"),
    (nakayama_algebra(9, 3), 24,
     "87a5d456ec6073c4eae605739a2190e8aed2a06d40fa0167f2b388fdae7ded3c"),
    (nakayama_algebra(5, 3, cyclic=True), 15,
     "547f4786e8ab7aeee712ee70e9e6dd14e5e02629c5b37fe8f9c23b329895c944"),
    (nakayama_algebra(4, 4, cyclic=True), 16,
     "26e43c29383b885bcc7f4ad116a11fcb1336c830628f17dcde2cec4b9fcd27e9"),
])
def test_nakayama_list_content_is_pinned(alg, count, digest):
    """The list's modules, in order and by content key, as the walk down
    each P_v's radical chain gave them.  Past Loewy length 2 (K A_9/J^3,
    C_5/J^3, C_4/J^4) a block has middle quotients P_v/rad^l P_v with
    1 < l < Loewy length, besides P_v itself and the simple top."""
    mods = nakayama_indecomposables(alg)
    assert len(mods) == count
    assert hashlib.sha256(repr([m.key for m in mods]).encode()).hexdigest() == digest


def _loop_x2_minus_x3(p):
    """One loop x with x^2 - x^3, bound 4: the ideal is (x^2)."""
    q = Quiver.build(["0"], [("x", "0", "0")])
    rel = Relation(((1, PathWord(("x", "x"))), (p - 1, PathWord(("x", "x", "x")))))
    return build_algebra(q, [rel], 4, FieldSpec(p))


def _two_cycle_a0a1_minus_square(p):
    """a0: 0 -> 1, a1: 1 -> 0 with a0a1 - a0a1a0a1, bound 5: the ideal is
    (a0a1)."""
    q = Quiver.build(["0", "1"], [("a0", "0", "1"), ("a1", "1", "0")])
    rel = Relation(((1, PathWord(("a0", "a1"))),
                    (p - 1, PathWord(("a0", "a1", "a0", "a1")))))
    return build_algebra(q, [rel], 5, FieldSpec(p))


NAKAYAMA_REFERENCE_ALGEBRAS = {
    "A9/J^3": lambda p: nakayama_algebra(9, 3, p=p),
    "A7/J^2": lambda p: nakayama_algebra(7, 2, p=p),
    "C5/J^3": lambda p: nakayama_algebra(5, 3, cyclic=True, p=p),
    "C4/J^4": lambda p: nakayama_algebra(4, 4, cyclic=True, p=p),
    "C3/J^5": lambda p: nakayama_algebra(3, 5, cyclic=True, p=p),
    "C6/J^2": lambda p: nakayama_algebra(6, 2, cyclic=True, p=p),
    "C1/J^4": lambda p: nakayama_algebra(1, 4, cyclic=True, p=p),
    "x^2-x^3": _loop_x2_minus_x3,
    "a0a1-(a0a1)^2": _two_cycle_a0a1_minus_square,
}


@pytest.mark.parametrize("name", NAKAYAMA_REFERENCE_ALGEBRAS)
@pytest.mark.parametrize("p", [2, 101, 2**31 - 1])
def test_nakayama_list_is_each_p_v_over_each_radical_power(name, p):
    """Entry by entry and by content key, the list is P_v / rad^l P_v for
    l = 1 .. dim P_v, P_v in vertex order, with rad^l P_v spanned by the
    reference radical step from the identity spans; the last entry of each
    block is the stored P_v.  The last two algebras have relations that
    are not paths, and ideals that are generated by paths."""
    alg = NAKAYAMA_REFERENCE_ALGEBRAS[name](p)
    mods = nakayama_indecomposables(alg)
    ref, ends = [], []
    for pv in all_projectives(alg):
        span = {v: Mat.identity(d, p) for v, d in pv.dims.items()}
        for _ in range(pv.total_dim):
            span = ref_radical_step(pv, span)
            ref.append(reps.quotient_by_submodule(pv, span)[0])
        assert all(m.is_zero() for m in span.values())
        ends.append(len(ref) - 1)
    assert [m.key for m in mods] == [m.key for m in ref]
    assert all(mods[i] is pv for i, pv in zip(ends, all_projectives(alg)))


def test_nakayama_rejects_non_nakayama():
    alg = gen_preprojective_A(3)
    with pytest.raises(ValueError):
        nakayama_indecomposables(alg)


def test_auslander_m1_trivial():
    alg = gen_auslander_linear_A(1)
    assert alg.dim == 1


def test_auslander_m2_matches_a3_j2():
    aus = gen_auslander_linear_A(2)
    lam, _ = gen_linear_An_J2(2, 1)
    assert aus.dim == lam.dim == 5
    assert len(aus.quiver.vertices) == 3
    # one monomial mesh relation of length 2
    assert len(aus.relations) == 1


def test_auslander_m3_builds():
    alg = gen_auslander_linear_A(3)
    assert len(alg.quiver.vertices) == 6
    assert alg.dim == 15  # sum of Hom dimensions between interval modules


def test_auslander_dimension_is_that_of_end_of_the_additive_generator():
    # the Auslander algebra of K A_m is End of the sum of its
    # indecomposables, so its dimension is the sum of dim Hom(X, Y) over
    # the indecomposables X, Y of K A_m = K A_m/J^{m+1}.  No cap above; the
    # test stops at m = 6, since building m = 7 takes over ten times as long
    for m, dim in zip(range(1, 7), (1, 5, 15, 35, 70, 126)):
        indecs = nakayama_indecomposables(nakayama_algebra(m, m + 1))
        assert gen_auslander_linear_A(m).dim == dim == sum(
            len(hom_basis(x, y)) for x in indecs for y in indecs), m
    with pytest.raises(ValueError, match="need m >= 1"):
        gen_auslander_linear_A(0)


def test_brute_force_a3():
    alg, expected = gen_linear_An_J2(2, 1)
    indecs = nakayama_indecomposables(alg)
    hits = brute_force_nct_search(alg, 2, indecs)
    assert len(hits) == 1
    gens = [indecs[i] for i in hits[0]]
    assert len(gens) == len(expected)
    for g in expected:
        assert any(are_isomorphic(g, h, seed=2) for h in gens)


def test_brute_force_a3_n1():
    alg, _ = gen_linear_An_J2(2, 1)
    indecs = nakayama_indecomposables(alg)
    hits = brute_force_nct_search(alg, 1, indecs)
    assert len(hits) == 1
    assert hits[0] == list(range(5))


def test_brute_force_pi2_two_hits():
    alg = gen_preprojective_A(2)
    indecs = nakayama_indecomposables(alg)
    hits = brute_force_nct_search(alg, 2, indecs)
    assert len(hits) == 2
    # each hit is Lambda + one simple
    for hit in hits:
        assert len(hit) == 3


def subset_loop_search(alg, n, indec_list, seed=0):
    """Reference search: try every subset of indec_list containing all
    projectives; return the index sets whose add-closure certifies as
    n-cluster-tilting."""
    if len(indec_list) > 20:
        raise ValueError("list too large for exhaustive search")
    projs = all_projectives(alg)
    proj_idx = []
    for pv in projs:
        hit = None
        for i, x in enumerate(indec_list):
            if are_isomorphic(pv, x, seed + 19):
                hit = i
                break
        if hit is None:
            raise ValueError("indec_list must contain every projective")
        proj_idx.append(hit)
    proj_set = sorted(set(proj_idx))
    rest = [i for i in range(len(indec_list)) if i not in proj_set]
    hits = []
    for r in range(len(rest) + 1):
        for extra in combinations(rest, r):
            subset = sorted(proj_set + list(extra))
            gens = [indec_list[i] for i in subset]
            cat = add_category(alg, gens, seed=seed)
            report = check_n_cluster_tilting(cat, n, indec_list, seed=seed)
            if report.ok:
                hits.append(subset)
    return hits


def _j2_cases():
    """Every K A_{nm+1}/J^2 with at most 13 indecomposables (nm <= 6)."""
    return [(1, 0)] + [(n, m) for n in range(1, 7) for m in range(1, 6 // n + 1)]


@pytest.mark.parametrize("p", [2, 101])
def test_search_matches_subset_loop_on_j2(p):
    for n, m in _j2_cases():
        alg, _ = gen_linear_An_J2(n, m, p=p)
        indecs = nakayama_indecomposables(alg)
        assert len(indecs) <= 13
        hits = brute_force_nct_search(alg, n, indecs)
        assert hits == subset_loop_search(alg, n, indecs), (n, m)
        assert len(hits) == 1, (n, m)


def _a3_lists():
    """K A_3/J^2 lists that break the assumptions a lookup-based search
    would make: a repeated entry, and a decomposable entry S_0 + S_2."""
    alg, _ = gen_linear_An_J2(2, 1)
    indecs = nakayama_indecomposables(alg)
    s2 = [i for i, x in enumerate(indecs) if x.dim_vector() == (0, 0, 1)]
    s0_s2 = direct_sum([simple_module(alg, "0"), simple_module(alg, "2")])[0]
    return alg, [[*indecs, indecs[s2[0]]], [*indecs, s0_s2]]


def test_search_matches_subset_loop_on_other_algebras():
    pi2, aus, j3 = (gen_preprojective_A(2), gen_auslander_linear_A(2),
                    nakayama_algebra(4, 3))
    a3, (repeated, decomposable) = _a3_lists()
    # (algebra, n, list, number of hits)
    cases = [(pi2, 2, nakayama_indecomposables(pi2), 2),
             (aus, 2, nakayama_indecomposables(aus), 1),
             (j3, 2, nakayama_indecomposables(j3), 1),
             (j3, 3, nakayama_indecomposables(j3), 0)]
    for alg, n, indecs, count in cases:
        hits = brute_force_nct_search(alg, n, indecs)
        assert hits == subset_loop_search(alg, n, indecs)
        assert len(hits) == count, (n, hits)
    # a repeated or decomposable entry is refused, not searched over
    with pytest.raises(DomainError, match="entries 3 and 5 are isomorphic"):
        brute_force_nct_search(a3, 2, repeated)
    with pytest.raises(DomainError, match="entry 5 is decomposable"):
        brute_force_nct_search(a3, 2, decomposable)


@pytest.mark.parametrize("build, n, expected", [
    (lambda: gen_preprojective_A(2), 2, [[0, 1, 3], [1, 2, 3]]),
    (lambda: nakayama_algebra(6, 2, cyclic=True), 2, [[0, 1, 3, 4, 5, 7, 8, 9, 11],
                                        [1, 2, 3, 5, 6, 7, 9, 10, 11]]),
    (lambda: nakayama_algebra(6, 2, cyclic=True), 3, [[0, 1, 3, 5, 6, 7, 9, 11],
                                        [1, 2, 3, 5, 7, 8, 9, 11],
                                        [1, 3, 4, 5, 7, 9, 10, 11]]),
], ids=["pi2-n2", "cycle6-j2-n2", "cycle6-j2-n3"])
def test_search_orders_hits_of_equal_size(build, n, expected):
    # several hits of one size come out lexicographically, as the
    # subset loop finds them
    alg = build()
    indecs = nakayama_indecomposables(alg)
    hits = brute_force_nct_search(alg, n, indecs)
    assert hits == subset_loop_search(alg, n, indecs) == expected


def test_search_reaches_a12_j2():
    # 23 indecomposables, 11 candidates: the one 11-CT module
    # Lambda + S_11
    alg, expected = gen_linear_An_J2(11, 1)
    indecs = nakayama_indecomposables(alg)
    assert len(indecs) == 23
    hits = brute_force_nct_search(alg, 11, indecs)
    assert len(hits) == 1
    gens = [indecs[i] for i in hits[0]]
    assert len(gens) == len(expected) == 13
    for g in expected:
        assert any(are_isomorphic(g, h, seed=2) for h in gens)


@pytest.mark.parametrize("p", [2, 101])
@pytest.mark.parametrize("n, m", [(2, 6), (3, 4), (4, 3), (6, 2), (12, 1), (1, 12)])
def test_search_on_a13_j2_finds_the_expected_module(n, m, p):
    # gen_linear_An_J2 refused nm + 1 > 12, a cap left from a search over
    # every subset; the search has its own candidate cap
    alg, expected = gen_linear_An_J2(n, m, p=p)
    assert len(alg.quiver.vertices) == 13
    indecs = nakayama_indecomposables(alg)
    hits = brute_force_nct_search(alg, n, indecs)
    assert hits == [sorted(indecs.index_of(g) for g in expected)]


@pytest.mark.parametrize("label, build, digest", [
    ("A4-J2", lambda: gen_linear_An_J2(1, 3)[0],
     "f2a0bbdb55943a1b2fcc384d86ef9c87376785a0fea12cf174d51d22be9f156c"),
    ("A4-J3", lambda: nakayama_algebra(4, 3),
     "3aee44170bc4e04b2a0bb9277b9b88ad608f146e09ad906376ca9a83efd8704c"),
], ids=["A4-J2", "A4-J3"])
def test_reports_on_every_sublist_are_pinned(label, build, digest):
    # every nonempty sublist at n = 2 and 3, so that generating,
    # cogenerating, rigidity (degrees 1 and 2) and maximality failures all
    # occur; generators in a random basis give the same reports
    alg = build()
    indecs = nakayama_indecomposables(alg)
    rng = random.Random(5)
    twisted = [in_random_basis(x, rng) for x in indecs]
    reports = []
    for n in (2, 3):
        for r in range(1, len(indecs) + 1):
            for s in combinations(range(len(indecs)), r):
                report = check_n_cluster_tilting(
                    add_category(alg, pick(indecs, s)), n, indecs).to_dict()
                if len(s) == 3:
                    assert check_n_cluster_tilting(add_category(
                        alg, [twisted[i] for i in s]), n, indecs).to_dict() == report
                reports.append(report)
    for kind in ("generating_failures", "cogenerating_failures",
                 "rigidity_failures", "maximality_failures"):
        assert any(r[kind] for r in reports), kind
    assert {f[2] for r in reports for f in r["rigidity_failures"]} == {1, 2}
    assert hashlib.sha256(canonical_json(reports).encode()).hexdigest() == digest


def test_search_decides_cliques_from_the_table_alone(monkeypatch):
    # once the Ext table is built, no clique asks for membership,
    # isomorphism or Ext: every report is read from the table by position
    alg, _ = gen_linear_An_J2(3, 2)
    indecs = nakayama_indecomposables(alg)
    cliques = search_cliques(3, indecs)
    events = []

    def spy(name, real):
        return lambda *a: events.append(name) or real(*a)
    monkeypatch.setattr(tilting, "is_projective",
                        spy("is_projective", tilting.is_projective))
    monkeypatch.setattr(reps, "in_add", spy("in_add", reps.in_add))
    monkeypatch.setattr(tilting, "ext_dim", spy("ext_dim", tilting.ext_dim))
    monkeypatch.setattr(Indecomposables, "index_of",
                        spy("index_of", Indecomposables.index_of))
    monkeypatch.setattr(tilting, "_nct_report",
                        spy("report", tilting._nct_report))
    hits = brute_force_nct_search(alg, 3, indecs)
    assert len(hits) == 1
    first = events.index("report")
    assert events.count("report") == len(cliques) > 1
    assert set(events[first:]) == {"report"}


def test_search_refuses_a_list_without_a_projective():
    alg, _ = gen_linear_An_J2(2, 1)
    indecs = nakayama_indecomposables(alg)
    p2 = projective_module(alg, "2")
    rest = [i for i, x in enumerate(indecs) if x.dim_vector() != p2.dim_vector()]
    with pytest.raises(ValueError, match="no entry is isomorphic to the "
                                         r"module of dimension vector \[0, 1, 1\]"):
        brute_force_nct_search(alg, 2, pick(indecs, rest))


@pytest.mark.parametrize("n", [0, -3])
def test_search_refuses_n_below_1(n):
    # as check_n_cluster_tilting does; the search once returned
    # [[0, 1, 2, 3, 4]] here, every indecomposable of K A_3/J^2
    alg, _ = gen_linear_An_J2(2, 1)
    with pytest.raises(ValueError, match="n must be >= 1"):
        brute_force_nct_search(alg, n, nakayama_indecomposables(alg))


def test_search_on_a12_j3_reads_one_ext_table(monkeypatch):
    # (non-projective entries) x (non-injective entries) x (n - 1) Ext
    # dimensions, each pair read and computed once into the table: rows at
    # projectives and columns at injectives vanish unread.  No 2-CT module
    # among the 2252 cliques
    alg = nakayama_algebra(12, 3)
    indecs = nakayama_indecomposables(alg)
    reads, computed = [], []
    read, compute = tilting.ext_dim, resolutions._ext_dim
    monkeypatch.setattr(tilting, "ext_dim",
                        lambda *a: reads.append(a) or read(*a))
    monkeypatch.setattr(resolutions, "_ext_dim",
                        lambda *a: computed.append(a) or compute(*a))
    assert brute_force_nct_search(alg, 2, indecs) == []
    projs = {indecs.index_of(x) for x in all_projectives(alg)}
    injs = {indecs.index_of(x) for x in all_injectives(alg)}
    assert len(projs) == len(injs) == 12
    position = {id(x): i for i, x in enumerate(indecs)}
    pairs = [(position[id(x)], position[id(y)]) for x, y, _ in reads]
    assert sorted(pairs) == [(i, j) for i in range(33) if i not in projs
                             for j in range(33) if j not in injs]
    assert len(reads) == len(computed) == 21 * 21 * (2 - 1)


def test_search_refuses_more_than_20_candidates():
    # n = 1 prunes nothing: K A_12/J^3 has 33 indecomposables, 12 of them
    # projective, so 21 candidates
    alg = nakayama_algebra(12, 3)
    indecs = nakayama_indecomposables(alg)
    assert len(indecs) == 33
    with pytest.raises(ValueError, match="too many candidates"):
        brute_force_nct_search(alg, 1, indecs)


# -- reference: the certifier's report on every clique the search visits --


def search_cliques(n, indecs):
    """The subsets brute_force_nct_search certifies, in its order: the
    projectives plus an Ext^{1..n-1}-orthogonal set of other entries,
    by size, then lexicographically."""
    alg = indecs[0].algebra
    projs = sorted({indecs.index_of(pv) for pv in all_projectives(alg)})

    def compatible(i, j):
        return not any(ext_dim(indecs[a], indecs[b], deg)
                       for a, b in ((i, j), (j, i)) for deg in range(1, n))

    candidates = [i for i in range(len(indecs)) if i not in projs
                  and all(compatible(i, j) for j in projs + [i])]
    extras = [c for r in range(len(candidates) + 1)
              for c in combinations(candidates, r)
              if all(compatible(i, j) for i, j in combinations(c, 2))]
    return [sorted(projs + list(c)) for c in extras]


# sha256 of canonical_json of the list of reports, in search order; the
# reports over K A_{nm+1}/J^2 are the same at p = 2 and p = 101
_REPORT_DIGESTS = {
    "A1-J2-n1": "3fdb95e611150e13615ee2f47f28c4a07e8b3474fa048fa701821a4c58caa978",
    "A2-J2-n1": "3e15ea70d09bb910dfae9f3c9efdb89311c434658c89d291974bd5a589bc80f9",
    "A3-J2-n1": "661c1f3b5fc73bffaa9d07fbf95ad5c1574f55ee336db26374d1bebe52575ae0",
    "A4-J2-n1": "bc7f714b9178780c3e6d0a2b9ca237139408079d2667cceb329702ba6c2d5423",
    "A5-J2-n1": "7b8ffef899f8337b1231c8c9a3a9347ac1546dd02e505a448f44424ccad495ba",
    "A6-J2-n1": "9e283579f6d21ed33edd18e466b484beaa1004fd8fc64c8bfb03174763e84c05",
    "A7-J2-n1": "f1083bbd555c27509cfe9292b9d60fd9b31498a438b98d8cbd407d32f844e592",
    "A3-J2-n2": "38fb3e067c0cf4a0bb5e6b04d13834f2edc3ced1951154ec2f7ac48093195503",
    "A5-J2-n2": "f1d9d9dfb72db0f26fcac592f217324bc34de8a944552d2ac0df59452e7ef085",
    "A7-J2-n2": "ffab18dd4717218fa4b61db9fb6169c789d88f71bf7369a45e1e741ebdb2c4d6",
    "A4-J2-n3": "4d17249bc42c801c86992bb30ea3d43f5008de2fefdd57d762a473ffbab8976e",
    "A7-J2-n3": "44434c3c9f3d4e839da7548d6e13e39b6e3e902f498d087d255df902564f425a",
    "A5-J2-n4": "e38d88bed702eacc5a10228596bad8a6683ff17f3f7350bae012e12c9cf4bbd2",
    "A6-J2-n5": "ae6f325de2b2fe3c962c910b54b4144a1f923175d82eb5b7bdcf345ed364e347",
    "A7-J2-n6": "1879c7292c52ae30596e246e7d58b6975ddf846a9f1ffe292efad4c75ad18fff",
    "A4-J3-n2": "24645096167472312b18abb2d2b410cb1a5503b98defaf839529c323d4b70acb",
    "A7-J3-n4": "6cc0a801e6aeeb2275187180486550c40ad34b1bd05f85b219a931ceafffae4d",
}


def _report_cases():
    """(label, p, algebra builder, n): every K A_{nm+1}/J^2 with nm <= 6
    at p = 2 and p = 101, K A_4/J^3 at n = 2 and K A_7/J^3 at n = 4."""
    cases = [(f"A{n * m + 1}-J2-n{n}", p, lambda n=n, m=m, p=p:
              gen_linear_An_J2(n, m, p=p)[0], n)
             for p in (2, 101) for n, m in _j2_cases()]
    return cases + [("A4-J3-n2", 101, lambda: nakayama_algebra(4, 3), 2),
                    ("A7-J3-n4", 101, lambda: nakayama_algebra(7, 3), 4)]


@pytest.mark.parametrize("label, p, build, n", _report_cases(),
                         ids=[f"{c[0]}-p{c[1]}" for c in _report_cases()])
def test_reports_on_search_cliques_are_pinned(label, p, build, n):
    # every clique's full report is pinned, not only the hits the search
    # keeps: the search's hits are the cliques whose report is ok
    alg = build()
    indecs = nakayama_indecomposables(alg)
    subsets = search_cliques(n, indecs)
    reports = [check_n_cluster_tilting(add_category(alg, pick(indecs, s)), n,
                                       indecs).to_dict() for s in subsets]
    assert brute_force_nct_search(alg, n, indecs) == [
        s for s, r in zip(subsets, reports) if r["ok"]]
    digest = hashlib.sha256(canonical_json(reports).encode()).hexdigest()
    assert digest == _REPORT_DIGESTS[label]
