import dataclasses
import gc
import random

import pytest

from nexakt import reps, resolutions
from nexakt.fp import Mat, rank, random_invertible
from nexakt.complexes import ComplexSeq
from nexakt.addcat import DomainError, add_category
from nexakt.fp import FieldSpec
from nexakt.presets import gen_linear_An_J2, nakayama_indecomposables
from nexakt.quivers import Quiver, build_algebra
from nexakt.reps import (ContextError, Module, Morphism, all_injectives,
                         are_isomorphic, assemble_from_span, block_morphism, cokernel_morphism,
                         direct_sum, hom_basis,
                         identity_morphism, image_morphism, in_add,
                         injective_module,
                         kernel_morphism, projective_module, simple_module,
                         split_indecomposables, stack_morphisms_from_sum,
                         stack_morphisms_to_sum, zero_module, zero_morphism,
                         regular_module, all_projectives)

from conftest import (cyclic_nakayama_j2, exhaustively_indecomposable, linear_a3_j2,
                      preprojective_a2)


# -- fixtures ----------------------------------------------------------


@pytest.fixture
def a3_mods(a3):
    return {
        "P0": projective_module(a3, "0"),
        "P1": projective_module(a3, "1"),
        "P2": projective_module(a3, "2"),
        "S0": simple_module(a3, "0"),
        "S1": simple_module(a3, "1"),
        "S2": simple_module(a3, "2"),
    }


def dim_vec(m):
    return m.dim_vector()


# -- projectives / injectives ------------------------------------------


def test_a3_projective_dimensions(a3, a3_mods):
    assert dim_vec(a3_mods["P0"]) == (1, 0, 0)
    assert dim_vec(a3_mods["P1"]) == (1, 1, 0)
    assert dim_vec(a3_mods["P2"]) == (0, 1, 1)
    # P1's a-action is an isomorphism (identity in the path basis)
    assert a3_mods["P1"].action["a"].to_lists() == [[1]]


def test_a3_injective_dimensions(a3):
    assert injective_module(a3, "2").dim_vector() == (0, 0, 1)
    assert injective_module(a3, "0").dim_vector() == (1, 1, 0)
    assert injective_module(a3, "1").dim_vector() == (0, 1, 1)


def test_single_vertex_injective_equals_projective():
    from nexakt.fp import FieldSpec
    from nexakt.quivers import Quiver, build_algebra
    alg = build_algebra(Quiver.build(["*"], []), [], 1, FieldSpec(101))
    i = injective_module(alg, "*")
    p = projective_module(alg, "*")
    s = simple_module(alg, "*")
    assert i.dim_vector() == p.dim_vector() == s.dim_vector() == (1,)


def test_pi2_projectives(pi2):
    p1 = projective_module(pi2, "1")
    assert sorted(p1.dims.values()) == [1, 1]


def test_projective_dim_formula(a3):
    for v in a3.quiver.vertices:
        pv = projective_module(a3, v)
        expect = sum(len(a3.block_indices(v, w)) for w in a3.quiver.vertices)
        assert pv.total_dim == expect
        iv = injective_module(a3, v)
        expect_i = sum(len(a3.block_indices(w, v)) for w in a3.quiver.vertices)
        assert iv.total_dim == expect_i


# -- hom spaces ---------------------------------------------------------


def test_hom_p1_p2_is_one_dimensional(a3_mods):
    assert len(hom_basis(a3_mods["P1"], a3_mods["P2"])) == 1
    assert len(hom_basis(a3_mods["P2"], a3_mods["P1"])) == 0


def test_identity_is_a_morphism(a3_mods):
    x = a3_mods["P1"]
    basis = hom_basis(x, x)
    ident = identity_morphism(x)
    # identity lies in the span: End(P1) is F_p
    assert len(basis) == 1
    assert basis[0].scale(_leading_coeff(basis[0], ident)).equals(ident)


def _leading_coeff(b, target):
    bv, tv = b.vectorize(), target.vectorize()
    for x, y in zip(bv, tv):
        if x:
            return (y * pow(x, b.source.algebra.p - 2, b.source.algebra.p)) \
                % b.source.algebra.p
    raise AssertionError


def test_hom_respects_context(a3, pi2):
    with pytest.raises(ContextError):
        hom_basis(projective_module(a3, "0"), projective_module(pi2, "1"))
    with pytest.raises(ContextError):
        Morphism(projective_module(a3, "0"), projective_module(pi2, "1"), {})


def test_hom_rejects_modules_over_another_quotient_of_one_quiver():
    # K A_3 / J^2 and K A_3 share the quiver and p; P_2 over K A_3 has
    # dimension vector (1, 1, 1) and is no module over K A_3 / J^2
    a3 = linear_a3_j2(101)
    path_alg = build_algebra(a3.quiver, [], 3, FieldSpec(101))
    p2 = projective_module(path_alg, "2")
    assert p2.dim_vector() == (1, 1, 1)
    with pytest.raises(ContextError):
        hom_basis(simple_module(a3, "0"), p2)
    # a separately built copy of the same algebra still counts as one
    assert hom_basis(simple_module(a3, "0"),
                     projective_module(linear_a3_j2(101), "1"))


# -- kernels and cokernels ----------------------------------------------


def test_kernel_of_radical_map(a3_mods):
    f = hom_basis(a3_mods["P1"], a3_mods["P2"])[0]
    k, incl = kernel_morphism(f)
    assert k.dim_vector() == (1, 0, 0)  # S0
    assert incl.is_injective()
    assert incl.then(f).is_zero()


def test_kernel_of_identity_and_zero(a3_mods):
    x = a3_mods["P2"]
    k, _ = kernel_morphism(identity_morphism(x))
    assert k.total_dim == 0
    k2, incl2 = kernel_morphism(zero_morphism(x, a3_mods["S0"]))
    assert k2.dim_vector() == x.dim_vector()


def test_cokernel_of_radical_map(a3_mods):
    f = hom_basis(a3_mods["P1"], a3_mods["P2"])[0]
    c, proj = cokernel_morphism(f)
    assert c.dim_vector() == (0, 0, 1)  # S2
    assert proj.is_surjective()
    assert f.then(proj).is_zero()


def test_cokernel_trivial_cases(a3_mods):
    x = a3_mods["P1"]
    c, _ = cokernel_morphism(identity_morphism(x))
    assert c.total_dim == 0
    c2, proj2 = cokernel_morphism(zero_morphism(zero_module(x.algebra), x))
    assert c2.dim_vector() == x.dim_vector()


def test_rank_nullity_per_vertex(a3_mods):
    f = hom_basis(a3_mods["P1"], a3_mods["P2"])[0]
    k, _ = kernel_morphism(f)
    for v in "012":
        assert k.dims[v] + rank(f.components[v]) == f.source.dims[v]


def test_image_factorization_recovered(a3_mods):
    # coker(kernel inclusion) is the image: f factors through it injectively
    from nexakt.reps import image_morphism
    f = hom_basis(a3_mods["P1"], a3_mods["P2"])[0]
    k, incl = kernel_morphism(f)
    coim, proj = cokernel_morphism(incl)
    im, im_incl = image_morphism(f)
    assert coim.dim_vector() == im.dim_vector()
    # the induced map coim -> target composes with proj back to f
    from nexakt.reps import factor_through
    induced = factor_through(f, proj)
    assert induced is not None
    assert proj.then(induced).equals(f)
    assert induced.is_injective()


# -- add membership ------------------------------------------------------


def test_in_add_summand(a3_mods):
    big = direct_sum([a3_mods["S2"], a3_mods["P1"]])[0]
    assert in_add(a3_mods["S2"], [big])


def test_in_add_rejects_s1(a3_mods):
    gens = [a3_mods["P0"], a3_mods["P1"], a3_mods["P2"]]
    w = in_add(a3_mods["S1"], gens)
    assert not w
    assert "reason" in w.detail


def test_in_add_zero_module(a3, a3_mods):
    assert in_add(zero_module(a3), [a3_mods["P0"]])


def test_in_add_decides_a_sum_by_its_summands(monkeypatch):
    alg, gens = gen_linear_An_J2(2, 1)          # add(P0 + P1 + P2 + S2)
    p0, p1 = projective_module(alg, "0"), projective_module(alg, "1")
    s1, s2 = simple_module(alg, "1"), simple_module(alg, "2")
    solve = reps._solve_membership
    solved = []                                   # ids: equal content is ==
    monkeypatch.setattr(reps, "_solve_membership",
                        lambda x, g: solved.append(id(x)) or solve(x, g))
    for parts, member in (([p0, s2], True), ([s1, p1], False)):
        total = direct_sum(parts).module
        # a copy made while the sum lives shares its record, summands
        # included: it is decided by them too, with no solve of its own
        plain = Module(alg, total.dims, total.action)
        assert bool(in_add(total, gens)) is member
        assert bool(in_add(plain, gens)) is member
        assert id(total) not in solved and id(plain) not in solved
    assert solved == [id(s1)]                     # the one non-generator summand


def test_in_add_solves_each_module_once_and_no_generator(a3_mods, monkeypatch):
    gens = [a3_mods["P0"], a3_mods["P1"], a3_mods["P2"]]
    solved = []
    monkeypatch.setattr(reps, "_solve_membership",
                        lambda x, g: solved.append(id(x))
                        or reps.MembershipWitness(False, {}))
    copy = Module(a3_mods["P1"].algebra, dict(a3_mods["P1"].dims),
                  dict(a3_mods["P1"].action))
    for _ in range(2):
        assert in_add(copy, gens)                 # content-equal to P1
        assert not in_add(a3_mods["S1"], gens)
    assert solved == [id(a3_mods["S1"])]


# -- decomposition and isomorphism ---------------------------------------


def test_split_decomposition(a3_mods):
    x = direct_sum([a3_mods["P1"], a3_mods["P1"], a3_mods["S2"]])[0]
    parts = split_indecomposables(x, seed=11)
    by_mult = sorted((count, part.dim_vector()) for part, count in parts)
    assert by_mult == [(1, (0, 0, 1)), (2, (1, 1, 0))]


def test_split_zero_and_indecomposable(a3, a3_mods):
    assert split_indecomposables(zero_module(a3), seed=1) == []
    parts = split_indecomposables(a3_mods["P1"], seed=1)
    assert len(parts) == 1 and parts[0][1] == 1


def test_split_reassembles_isomorphically(a3_mods):
    rng = random.Random(5)
    mods = [a3_mods["P2"], a3_mods["S0"], a3_mods["P2"]]
    x = direct_sum(mods)[0]
    parts = split_indecomposables(x, seed=23)
    rebuilt = direct_sum([part for part, count in parts for _ in range(count)])[0]
    assert sum(c * part.total_dim for part, c in parts) == x.total_dim
    assert are_isomorphic(rebuilt, x, seed=3)


def test_are_isomorphic_basics(a3_mods):
    assert are_isomorphic(a3_mods["P1"], a3_mods["P1"], seed=1)
    assert not are_isomorphic(a3_mods["P1"], a3_mods["P2"], seed=1)


def test_are_isomorphic_base_change(a3_mods):
    rng = random.Random(17)
    x = direct_sum([a3_mods["P1"], a3_mods["S2"]])[0]
    p = x.algebra.p
    u = {v: random_invertible(x.dims[v], p, rng) for v in x.algebra.quiver.vertices}
    uinv = {}
    for v, m in u.items():
        n = m.rows
        from nexakt.fp import solve_linear, Mat as _M
        uinv[v] = solve_linear(m, _M.identity(n, p))
    twisted = Module(x.algebra, dict(x.dims),
                     {a.name: u[a.target].mul(x.action[a.name]).mul(uinv[a.source])
                      for a in x.algebra.quiver.arrows})
    assert are_isomorphic(x, twisted, seed=23)


def test_exhaustive_indecomposability_small_field():
    alg = linear_a3_j2(p=2)
    p1 = projective_module(alg, "1")
    assert exhaustively_indecomposable(p1) is True
    two = direct_sum([p1, p1])[0]
    assert exhaustively_indecomposable(two) is False


# Splitting regressions, pinned at every kind of prime the field accepts:
# (a) above p = 1024 the old eigenvalue scan tried only the shift t = 0,
# so S_0 + S_2 over K A_3/J^2 came back whole; (b) the scan found no
# split through eigenvalues outside F_p.
SPLIT_PRIMES = [2, 5, 101, 1031, 65537, 2**31 - 1]


@pytest.mark.parametrize("p", SPLIT_PRIMES)
def test_semisimple_sum_splits_at_every_prime(p):
    alg = linear_a3_j2(p)
    x = direct_sum([simple_module(alg, "0"), simple_module(alg, "2")])[0]
    for seed in range(5):
        parts = split_indecomposables(x, seed)
        assert sorted((part.dim_vector(), c) for part, c in parts) == [
            ((0, 0, 1), 1), ((1, 0, 0), 1)]
    with pytest.raises(DomainError):
        add_category(alg, [x])


def kronecker_field_module(p):
    """The Kronecker module R with a = I and b the companion matrix of an
    irreducible quadratic, so End R = F_(p^2)."""
    q = Quiver.build(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    alg = build_algebra(q, [], 2, FieldSpec(p))
    if p == 2:
        b = Mat.from_rows([[0, 1], [1, 1]], p)            # x^2 + x + 1
    else:
        r = next(r for r in range(2, p) if pow(r, (p - 1) // 2, p) == p - 1)
        b = Mat.from_rows([[0, r], [1, 0]], p)            # x^2 - r
    return Module(alg, {"1": 2, "2": 2}, {"a": Mat.identity(2, p), "b": b})


@pytest.mark.parametrize("p", SPLIT_PRIMES)
def test_split_through_an_irrational_eigenvalue(p):
    r = kronecker_field_module(p)
    assert len(hom_basis(r, r)) == 2
    x = direct_sum([r, r])[0]
    for seed in range(5):
        parts = split_indecomposables(x, seed)
        assert [c for _, c in parts] == [2]
        assert are_isomorphic(parts[0][0], r, seed)
        alone = split_indecomposables(r, seed)
        assert len(alone) == 1 and alone[0][1] == 1


@pytest.mark.parametrize("p", [2, 3])
def test_split_verdicts_agree_with_the_exhaustive_oracle(p):
    for alg in (gen_linear_An_J2(2, 2, p)[0], cyclic_nakayama_j2(3, p)):
        entries = nakayama_indecomposables(alg)
        sums = [direct_sum([x, y])[0] for i, x in enumerate(entries)
                for y in entries[i:]]
        for k, x in enumerate([*entries, *sums]):
            expected = exhaustively_indecomposable(x)
            assert expected is not None
            parts = split_indecomposables(x, seed=k)
            assert (parts == [(x, 1)]) == expected
            assert sum(c * part.total_dim for part, c in parts) == x.total_dim


def test_regular_module_is_sum_of_projectives(a3):
    lam = regular_module(a3)
    assert lam.total_dim == a3.dim
    for pv in all_projectives(a3):
        assert in_add(pv, [lam])


# -- immutability and the content-keyed memo ---------------------------


def test_construction_leaves_the_given_dicts_unchanged(a3):
    dims, action = {"1": 1}, {}
    s1 = Module(a3, dims, action)
    assert dims == {"1": 1} and action == {}
    components = {}
    zero = Morphism(s1, s1, components)
    assert components == {} and zero.is_zero()
    with pytest.raises(dataclasses.FrozenInstanceError):
        s1.dims = {}
    with pytest.raises(dataclasses.FrozenInstanceError):
        zero.components = {}


def test_hom_basis_computed_once_for_content_equal_targets(a3, monkeypatch):
    calls = []
    solve = reps.kernel_basis
    monkeypatch.setattr(reps, "kernel_basis",
                        lambda a: calls.append(a) or solve(a))
    p1 = projective_module(a3, "1")
    p2, p2_again = projective_module(a3, "2"), projective_module(a3, "2")
    assert p2 is not p2_again and p2.key == p2_again.key
    first = hom_basis(p1, p2)
    assert hom_basis(p1, p2_again) is first
    assert len(calls) == 1


def test_ext_dim_computed_once_per_target_content_and_degree(a3, monkeypatch):
    cohomology, homs = [], []
    real_cohomology, real_hom = (resolutions.hom_cohomology_dim,
                                 resolutions.hom_basis)
    monkeypatch.setattr(resolutions, "hom_cohomology_dim",
                        lambda *a: cohomology.append(a) or real_cohomology(*a))
    monkeypatch.setattr(resolutions, "hom_basis",
                        lambda *a: homs.append(a) or real_hom(*a))
    s2 = simple_module(a3, "2")
    s1, s1_again = simple_module(a3, "1"), simple_module(a3, "1")
    assert s1 is not s1_again and s1.key == s1_again.key
    assert resolutions.ext_dim(s2, s1, 1) == 1
    assert resolutions.ext_dim(s2, s1_again, 1) == 1
    assert len(cohomology) == 1
    # the entry is the int under the target's content key, not the target
    assert s2._memo[("ext", s1.key, 1)] == 1
    assert resolutions.ext_dim(s2, s1, 2) == 0
    assert len(cohomology) == 2
    homs.clear()
    assert resolutions.ext_dim(s2, s1, 0) == resolutions.ext_dim(s2, s1, 0) == 0
    assert len(cohomology) == 2 and len(homs) == 2
    assert ("ext", s1.key, 0) not in s2._memo


def test_content_equal_sources_share_one_hom_solve(a3, monkeypatch):
    calls = []
    solve = reps._solve_hom
    monkeypatch.setattr(reps, "_solve_hom",
                        lambda m, n: calls.append((m, n)) or solve(m, n))
    x, x_again = projective_module(a3, "1"), projective_module(a3, "1")
    y, y_again = projective_module(a3, "0"), projective_module(a3, "0")
    assert x is not x_again and x._memo is x_again._memo
    first = hom_basis(x, y)
    assert hom_basis(x_again, y_again) is first
    assert len(calls) == 1
    # the maps start and end at the first live module of each content
    assert all(f.source is x and f.target is y for f in first)


def test_are_isomorphic_on_content_equal_modules_solves_no_hom(a3, monkeypatch):
    calls = []
    solve = reps._solve_hom
    monkeypatch.setattr(reps, "_solve_hom",
                        lambda m, n: calls.append((m, n)) or solve(m, n))
    x, x_again = projective_module(a3, "1"), projective_module(a3, "1")
    assert are_isomorphic(x, x, seed=0)
    assert are_isomorphic(x, x_again, seed=0)
    assert calls == []


def test_syzygy_is_not_recomputed_on_a_content_equal_module(a3, monkeypatch):
    covers = []
    cover = resolutions.projective_cover
    monkeypatch.setattr(resolutions, "projective_cover",
                        lambda m: covers.append(m) or cover(m))
    s1, s1_again = simple_module(a3, "1"), simple_module(a3, "1")
    omega = resolutions.syzygy(s1, 1)
    assert len(covers) == 1
    assert resolutions.syzygy(s1_again, 1) is omega
    assert len(covers) == 1


@pytest.mark.parametrize("name", ["P0", "S1"])
def test_in_add_of_a_sum_with_one_nonzero_part_is_the_parts_verdict(a3, a3_mods,
                                                                    name):
    # a sum with one nonzero part has that part's content, so it records no
    # summands: a record listing a module of its own content never ends
    gens = [a3_mods["P0"], a3_mods["P2"]]
    x = a3_mods[name]
    verdict = bool(in_add(x, gens))
    for parts in ([x, zero_module(a3)], [x], [zero_module(a3), x, zero_module(a3)]):
        total = direct_sum(parts).module
        assert total.same_as(x) and "summands" not in total._memo
        assert bool(in_add(total, gens)) is verdict


def test_direct_sum_returns_the_parts_it_was_given(a3_mods):
    p0, p1, s2 = a3_mods["P0"], a3_mods["P1"], a3_mods["S2"]
    left, right = direct_sum([p0, p1]).module, direct_sum([p1, s2]).module
    first = direct_sum([left, s2])
    second = direct_sum([p0, right])
    assert second.module.same_as(first.module)
    assert [id(m) for m in second.parts] == [id(p0), id(right)]
    assert [id(m) for m in second.module._memo["summands"]] == [id(left), id(s2)]
    # maps built on the given parts join their summands
    f = block_morphism(p0, second, {(0, 0): identity_morphism(p0)})
    assert f.target is second.module


def test_a_record_dies_with_the_last_module_of_its_content(a3):
    x = direct_sum([projective_module(a3, "1"), simple_module(a3, "0"),
                    simple_module(a3, "1")]).module
    x_again = Module(a3, x.dims, x.action)
    hom_basis(x, x)                               # the record now refers to x
    resolutions.syzygy(x_again, 2)
    records = a3._memo["records"]
    key = x.key
    assert records[key] is x._memo is x_again._memo
    del x
    gc.collect()
    assert records[key] is x_again._memo
    del x_again
    gc.collect()
    assert key not in records


def test_projectives_and_injectives_built_once_per_algebra(a3):
    ps, qs = all_projectives(a3), all_injectives(a3)
    assert all(p is q for p, q in zip(all_projectives(a3), ps))
    assert all(i is j for i, j in zip(all_injectives(a3), qs))
    assert len(ps) == len(qs) == 3


# -- direct sums and block morphisms -----------------------------------


def _inclusion(total, i):
    part = total.parts[i]
    return block_morphism(part, total, {(i, 0): identity_morphism(part)})


def _projection(total, i):
    part = total.parts[i]
    return block_morphism(total, part, {(0, i): identity_morphism(part)})


def test_blocks_land_in_their_slots_and_missing_blocks_are_zero(a3_mods):
    s0, s1, p1, p2 = (a3_mods[k] for k in ("S0", "S1", "P1", "P2"))
    socle = hom_basis(s0, p1)[0]                  # S0 >-> P1
    top = hom_basis(p2, a3_mods["S2"])[0]         # P2 ->> S2
    src = direct_sum([s0, p2, s1])
    tgt = direct_sum([a3_mods["S2"], p1])
    blocks = {(1, 0): socle, (0, 1): top}
    f = block_morphism(src, tgt, blocks)
    for i in range(len(tgt.parts)):
        for j in range(len(src.parts)):
            piece = _inclusion(src, j).then(f).then(_projection(tgt, i))
            if (i, j) in blocks:
                assert piece.equals(blocks[(i, j)])
            else:
                assert piece.is_zero()
    # a plain module counts as one summand
    into = block_morphism(s0, tgt, {(1, 0): socle})
    assert into.then(_projection(tgt, 1)).equals(socle)
    assert into.then(_projection(tgt, 0)).is_zero()


def test_block_with_wrong_endpoints_or_slot_raises(a3_mods):
    s0, s1, p1 = a3_mods["S0"], a3_mods["S1"], a3_mods["P1"]
    socle = hom_basis(s0, p1)[0]
    tgt = direct_sum([p1, s1])
    with pytest.raises(ValueError):               # source is S0, not S1
        block_morphism(s1, tgt, {(0, 0): socle})
    with pytest.raises(ValueError):               # target slot 1 is S1
        block_morphism(s0, tgt, {(1, 0): socle})
    with pytest.raises(ValueError):               # no slot 2
        block_morphism(s0, tgt, {(2, 0): socle})
    # S0 + S1 has the dimension vector of P1 but is not P1
    semisimple = direct_sum([s0, s1])
    with pytest.raises(ValueError):
        block_morphism(s0, tgt, {(0, 0): _inclusion(semisimple, 0)})


def test_non_natural_block_is_rejected_by_the_one_check(a3_mods):
    # a block map is built from natural blocks and is natural by
    # construction; the checked constructor refuses a forged one
    s1, p1 = a3_mods["S1"], a3_mods["P1"]
    comps = {"0": Mat.zero(1, 0, 101), "1": Mat.identity(1, 101),
             "2": Mat.zero(0, 0, 101)}
    with pytest.raises(ValueError, match="naturality"):
        Morphism(s1, p1, comps)                   # not natural at arrow a


def test_stacking_builds_one_morphism_and_direct_sum_none(a3_mods, monkeypatch):
    p1 = a3_mods["P1"]
    maps = [hom_basis(p1, a3_mods[k])[0] for k in ("P2", "S1", "P1")]
    calls = []
    check = Morphism.__post_init__
    monkeypatch.setattr(Morphism, "__post_init__",
                        lambda self: calls.append(self) or check(self))
    total = direct_sum([a3_mods["P2"], a3_mods["S1"], p1])
    stacked = stack_morphisms_to_sum(maps)
    back = stack_morphisms_from_sum([identity_morphism(p1), maps[2]])
    assert calls == []                            # all built unchecked
    assert stacked.target.key == total.module.key
    assert back.source.total_dim == 2 * p1.total_dim
    for f in (stacked, back):
        assert Morphism(f.source, f.target, f.components).equals(f)


def test_add_sub_and_equals_compare_endpoints_by_content(a3_mods):
    # P1 and S0 + S1 share the dimension vector (1, 1, 0), so entrywise
    # arithmetic alone would take g for a map into P1
    s0, s1, p1 = a3_mods["S0"], a3_mods["S1"], a3_mods["P1"]
    f = hom_basis(s0, p1)[0]                      # socle inclusion S0 -> P1
    g = block_morphism(s0, direct_sum([s0, s1]), {(0, 0): identity_morphism(s0)})
    with pytest.raises(ValueError):
        f.sub(g)
    with pytest.raises(ValueError):
        f.add(g)
    assert not f.equals(g)
    assert f.sub(f).is_zero() and f.equals(f.scale(1))


def test_composites_and_combinations_skip_the_naturality_check(a3_mods,
                                                               monkeypatch):
    p1, p2, s2 = a3_mods["P1"], a3_mods["P2"], a3_mods["S2"]
    f, g = hom_basis(p1, p2)[0], hom_basis(p2, s2)[0]
    checked = []
    monkeypatch.setattr(Morphism, "__post_init__", checked.append)
    made = [f.then(g), f.add(f), f.sub(f), f.scale(3),
            assemble_from_span([f], [2], p1, p2)]
    assert checked == []
    monkeypatch.undo()
    for h in made:                                # each passes the full check
        assert Morphism(h.source, h.target, h.components).equals(h)
    with pytest.raises(ValueError):
        assemble_from_span([g], [1], p1, p2)


def test_endpoint_checks_compare_modules_not_dimension_vectors(a3_mods):
    # P1 and S0 + S1 share the dimension vector (1, 1, 0)
    s0, s1, p1 = a3_mods["S0"], a3_mods["S1"], a3_mods["P1"]
    f = hom_basis(s0, p1)[0]                      # socle inclusion S0 -> P1
    semisimple = direct_sum([s0, s1])
    g = _projection(semisimple, 0)                # S0 + S1 -> S0
    assert p1.dim_vector() == semisimple.module.dim_vector()
    with pytest.raises(ValueError):
        f.then(g)
    with pytest.raises(ValueError):
        ComplexSeq(0, [s0, semisimple.module], [f])


# -- composites with a whole Hom basis ----------------------------------


def _composite_family():
    """(algebra, modules): the indecomposables of A_3/J^2 and of the
    selfinjective cyclic Nakayama algebra with three vertices, plus direct
    sums; most have a zero-dimensional vertex, and many Hom spaces between
    them are zero."""
    out = []
    for alg in (linear_a3_j2(), cyclic_nakayama_j2(3)):
        indecs = list(nakayama_indecomposables(alg))
        sums = [direct_sum([indecs[0], indecs[-1]]).module,
                direct_sum([indecs[1], indecs[1], indecs[2]]).module]
        out.append((alg, indecs + sums))
    return out


@pytest.mark.parametrize("family", range(2), ids=["a3-j2", "cyclic-nakayama-3"])
def test_composite_rows_match_composites(family):
    alg, mods = _composite_family()[family]
    rng = random.Random(family)
    seen_empty = 0
    for x in mods:
        for y in mods:
            basis_xy = hom_basis(x, y)
            d = assemble_from_span(basis_xy, [rng.randrange(alg.p) for _ in basis_xy],
                                   x, y)
            for z in mods:
                after, before = hom_basis(y, z), hom_basis(z, x)
                seen_empty += not after
                assert reps.composite_rows(d, after, d_first=True) == \
                    [d.then(b).vectorize() for b in after]
                assert reps.composite_rows(d, before, d_first=False) == \
                    [b.then(d).vectorize() for b in before]
    assert seen_empty


def test_composite_rows_check_endpoints(a3_mods):
    p1, p2, s2 = a3_mods["P1"], a3_mods["P2"], a3_mods["S2"]
    d = hom_basis(p1, p2)[0]
    with pytest.raises(ValueError, match="non-composable"):
        reps.composite_rows(d, hom_basis(p1, p1), d_first=True)
    with pytest.raises(ValueError, match="non-composable"):
        reps.composite_rows(d, hom_basis(p2, p2), d_first=False)
    assert hom_basis(p2, s2)
    mixed = hom_basis(p2, p2) + hom_basis(p2, s2)
    with pytest.raises(ValueError, match="different endpoints"):
        reps.composite_rows(d, mixed, d_first=True)


def test_every_hom_basis_element_passes_the_checked_constructor():
    for alg, mods in _composite_family():
        for x in mods:
            for y in mods:
                for f in hom_basis(x, y):
                    checked = Morphism(f.source, f.target, f.components)
                    assert checked.vectorize() == f.vectorize()


def test_identities_and_zeros_pass_the_checked_constructor(monkeypatch):
    pi2 = preprojective_a2()
    families = _composite_family() + [(pi2, list(nakayama_indecomposables(pi2)))]
    checked = []
    monkeypatch.setattr(Morphism, "__post_init__", checked.append)
    made = [identity_morphism(x) for _, mods in families for x in mods]
    made += [zero_morphism(x, y) for _, mods in families for x in mods for y in mods]
    assert checked == []                          # built unchecked
    monkeypatch.undo()
    for f in made:
        assert Morphism(f.source, f.target, f.components).equals(f)
    with pytest.raises(ContextError):
        zero_morphism(families[0][1][0], families[1][1][0])


def test_derived_modules_and_maps_pass_the_checked_constructors(monkeypatch):
    # kernels, images, cokernels, quotients, sums, simples, zero modules,
    # block maps, covers and envelopes are built unchecked; only P_v and
    # I_v, built from the algebra's table, have their relations checked
    pi2 = preprojective_a2()
    families = _composite_family() + [(pi2, list(nakayama_indecomposables(pi2)))]
    related, natural = [], []
    check = Module._check_relations
    monkeypatch.setattr(Module, "_check_relations",
                        lambda self: related.append(self) or check(self))
    monkeypatch.setattr(Morphism, "__post_init__", natural.append)
    mods, maps = [], []
    for alg, family in families:
        mods += [simple_module(alg, v) for v in alg.quiver.vertices]
        mods += [zero_module(alg), direct_sum(family).module]
        for x in family:
            for y in family:
                basis = hom_basis(x, y)
                for f in basis:
                    for make in (kernel_morphism, image_morphism, cokernel_morphism):
                        maps.append(make(f)[1])
                if basis:
                    maps += [stack_morphisms_to_sum(basis),
                             stack_morphisms_from_sum([g.then(f) for f in basis
                                                       for g in hom_basis(x, x)])]
            maps += [resolutions.projective_cover(x), resolutions.injective_envelope(x)]
            for span in (reps.radical_span(x), reps.socle_span(x)):
                maps.append(reps.quotient_by_submodule(x, span)[1])
    assert natural == []
    assert related
    for m in related:
        alg = m.algebra
        assert any(m.same_as(q) for q in all_projectives(alg) + all_injectives(alg))
    monkeypatch.undo()
    mods += [end for f in maps for end in (f.source, f.target)]
    for m in mods:
        assert Module(m.algebra, m.dims, m.action).key == m.key
    for f in maps:
        assert Morphism(f.source, f.target, f.components).equals(f)


@pytest.mark.parametrize("position", ["first", "last"])
def test_corrupted_kernel_vector_fails_naturality(a3, monkeypatch, position):
    solve = reps.kernel_basis

    def corrupted(a):
        # add a coordinate vector that the naturality system does not kill
        good = solve(a)
        j = next(c for c in range(a.cols) if any(a.col(c)))
        bad = tuple(int(i == j) for i in range(a.cols))
        cols = [good.col(c) for c in range(good.cols)]
        cols = [bad] + cols if position == "first" else cols + [bad]
        return Mat.from_rows([list(r) for r in zip(*cols)], a.p, cols=len(cols))

    monkeypatch.setattr(reps, "kernel_basis", corrupted)
    p1 = projective_module(a3, "1")
    with pytest.raises(ValueError, match="naturality fails at arrow"):
        hom_basis(p1, p1)
