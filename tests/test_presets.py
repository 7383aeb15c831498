import hashlib
from itertools import combinations

import pytest

from nexakt.addcat import DomainError, add_category
from nexakt.fileio import algebra_from_dict
from nexakt.presets import (brute_force_nct_search, gen_auslander_linear_A,
                            gen_linear_An_J2, gen_preprojective_A,
                            nakayama_indecomposables)
from nexakt.reps import (all_projectives, are_isomorphic, direct_sum,
                         injective_module, projective_module, simple_module,
                         socle_span, radical_span)
from nexakt.tilting import check_n_cluster_tilting

from conftest import cyclic_nakayama_j2


def test_a3_j2_generator(a3):
    alg, expected = gen_linear_An_J2(2, 1)
    assert alg.dim == 5
    assert len(expected) == 4
    dims = sorted(g.dim_vector() for g in expected)
    assert dims == [(0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 0)]


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
    (cyclic_nakayama_j2(6), 12,
     "77de0c37ba9e1d495818922b10294863f286be0c430b8d7c6148b8a7db7650e9"),
])
def test_nakayama_list_content_is_pinned(alg, count, digest):
    """The list walks one radical chain per P_v; its modules, in order and
    by content key, are those of rebuilding each rad^l P_v from P_v."""
    mods = nakayama_indecomposables(alg)
    assert len(mods) == count
    assert hashlib.sha256(repr([m.key for m in mods]).encode()).hexdigest() == digest


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


def linear_an_j3(m, p=101):
    """K A_m/J^3 over the sink-first linear quiver, read from a file dict."""
    return algebra_from_dict({
        "field": {"p": p},
        "quiver": {"vertices": [str(i) for i in range(m)],
                   "arrows": [{"name": f"a{i}", "from": str(i), "to": str(i - 1)}
                              for i in range(1, m)]},
        "relations": [[{"coeff": 1, "path": [f"a{i}", f"a{i - 1}", f"a{i - 2}"]}]
                      for i in range(3, m)],
        "nilpotency_bound": 3})


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
                    linear_an_j3(4))
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


def test_search_refuses_more_than_20_candidates():
    # n = 1 prunes nothing: K A_12/J^3 has 33 indecomposables, 12 of them
    # projective, so 21 candidates
    alg = linear_an_j3(12)
    indecs = nakayama_indecomposables(alg)
    assert len(indecs) == 33
    with pytest.raises(ValueError, match="too many candidates"):
        brute_force_nct_search(alg, 1, indecs)
