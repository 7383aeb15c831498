import ast
import dataclasses
import gc
import random
from itertools import combinations, combinations_with_replacement, product
from pathlib import Path

import pytest

from nexakt import quivers, reps, resolutions
from nexakt.fp import Mat, kernel_basis, rank, solve_linear
from nexakt.complexes import ComplexSeq
from nexakt.addcat import (DomainError, Indecomposables, add_category,
                           indecomposables, n_cokernel, n_kernel)
from nexakt.fp import FieldSpec
from nexakt.presets import (gen_linear_An_J2, nakayama_algebra,
                            nakayama_indecomposables)
from nexakt.quivers import Quiver, build_algebra
from nexakt.reps import (ContextError, Module, Morphism, all_injectives,
                         are_isomorphic, assemble_from_span, block_morphism, cokernel_morphism,
                         direct_sum, hom_basis,
                         identity_morphism, in_add,
                         injective_module,
                         kernel_morphism, projective_module, simple_module,
                         split_indecomposables, stack_morphisms_from_sum,
                         stack_morphisms_to_sum, zero_module, zero_morphism,
                         regular_module, all_projectives)

from conftest import (DUALITY_ALGEBRAS, DUALITY_CASES, equals,
                      exhaustively_indecomposable, identity_through,
                      in_dense_random_basis, in_random_basis, kronecker_algebra,
                      kronecker_field_module, linear_a3_j2, mat_check_natural_batch,
                      pick, preprojective_a2, random_invertible, random_quotient,
                      ref_composite_rows, two_loops)


# -- projectives / injectives ------------------------------------------


@pytest.mark.parametrize("name, p", DUALITY_CASES)
def test_dual_swaps_projectives_and_injectives_and_is_an_involution(name, p):
    # D P_v over the opposite is I_v and D I_v is P_v, content for content;
    # D D x is x's content over x's algebra, in any basis
    alg = DUALITY_ALGEBRAS[name](p)
    op = quivers.opposite_algebra(alg)
    projs, injs = all_projectives(alg), all_injectives(alg)
    for v, pv, iv in zip(alg.quiver.vertices, projs, injs):
        assert reps._dual(projective_module(op, v)).key == iv.key
        assert reps._dual(injective_module(op, v)).key == pv.key
    rng = random.Random(f"{name}:{p}")
    pool = list(projs + injs) + [simple_module(alg, v) for v in alg.quiver.vertices]
    for x in pool + [in_dense_random_basis(direct_sum(rng.sample(pool, 2)).module, rng)
                     for _ in range(4)]:
        dx = reps._dual(x)
        assert dx.algebra is op and dx.dims == x.dims
        ddx = reps._dual(dx)
        assert ddx.algebra is alg and ddx.cid == x.cid


def test_envelopes_intern_no_module_over_the_opposite():
    # injective_envelope reads only the top of D m over the opposite
    # algebra, and a content id is interned when first read, so the
    # coresolutions of every indecomposable leave the opposite's ids empty
    alg = nakayama_algebra(6, 2, cyclic=True)
    rng = random.Random(6)
    for x in nakayama_indecomposables(alg):
        for y in (x, in_dense_random_basis(x, rng)):
            assert len(resolutions.min_injective_coresolution(y, 3).terms) == 3
    assert quivers.opposite_algebra(alg).ids == {} and alg.ids


def test_a3_projective_dimensions(a3, a3_mods):
    assert a3_mods["P0"].dim_vector() == (1, 0, 0)
    assert a3_mods["P1"].dim_vector() == (1, 1, 0)
    assert a3_mods["P2"].dim_vector() == (0, 1, 1)
    # P1's a-action is an isomorphism (identity in the path basis)
    assert a3_mods["P1"].action["a"].to_lists() == [[1]]


def test_a3_injective_dimensions(a3):
    assert injective_module(a3, "2").dim_vector() == (0, 0, 1)
    assert injective_module(a3, "0").dim_vector() == (1, 1, 0)
    assert injective_module(a3, "1").dim_vector() == (0, 1, 1)


def test_single_vertex_injective_equals_projective():
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
    assert equals(basis[0].scale(_leading_coeff(basis[0], ident)), ident)


@pytest.mark.parametrize("dims, action, words", [
    # on K A_3/J^2 (arrows a: 1 -> 0, b: 2 -> 1, ba = 0) at p = 101
    ({"0": 1, "1": 1, "2": 1}, {"a": (1, 1, (1,), 101), "b": (1, 1, (1,), 101)},
     "relation does not vanish on module"),
    ({"0": -1}, {}, "negative dimension"),
    ({"0": 1, "1": 1}, {"a": (1, 2, (1, 0), 101)}, "action of a has wrong shape"),
    ({"0": 1, "1": 1}, {"a": (1, 1, (1,), 5)}, "action matrix over wrong field"),
], ids=["relation", "negative-dimension", "action-shape", "action-prime"])
def test_module_refuses_bad_data(a3, dims, action, words):
    with pytest.raises(ValueError, match=words):
        Module(a3, dims, {a: Mat(*m) for a, m in action.items()})


def test_morphism_refuses_a_misshaped_component(a3_mods):
    with pytest.raises(ValueError, match="component at 0 has wrong shape"):
        Morphism(a3_mods["S0"], a3_mods["P1"], {"0": Mat(2, 1, (1, 0), 101)})


def _one_arrow():
    """The quiver 1 -> 2 (arrow a) over F_101, no relations."""
    return build_algebra(Quiver.build(["1", "2"], [("a", "1", "2")]), [], 2,
                         FieldSpec(101))


def test_checked_constructors_refuse_names_the_algebra_lacks():
    # these were the zero module, S_1 with b dropped, and the identity
    # of S_1 with the component at 3 dropped
    alg = _one_arrow()
    with pytest.raises(ValueError, match="the algebra has no vertex '3'"):
        Module(alg, {"3": 1}, {})
    with pytest.raises(ValueError, match="the algebra has no arrow 'b'"):
        Module(alg, {"1": 1}, {"b": Mat(1, 1, (1,), 101)})
    s1 = simple_module(alg, "1")
    with pytest.raises(ValueError, match="the algebra has no vertex '3'"):
        Morphism(s1, s1, {"1": Mat(1, 1, (1,), 101), "3": Mat(1, 1, (1,), 101)})


def test_quotient_by_a_span_out_of_vertex_order(a3_mods):
    # P1 / S0 is S1; with dims in the span's order it was taken for S0
    span = {"1": Mat.zero(1, 0, 101), "0": Mat(1, 1, (1,), 101),
            "2": Mat.zero(0, 0, 101)}
    quot = reps.quotient_by_submodule(a3_mods["P1"], span)[0]
    assert quot.dim_vector() == (0, 1, 0) and quot.same_as(a3_mods["S1"])


def test_morphism_refuses_a_component_over_another_field():
    # no arrow's naturality check reads the component at 1, and then
    # f.then(f) was 4, that is 3 * 3 reduced mod 5
    s1 = simple_module(_one_arrow(), "1")
    with pytest.raises(ValueError, match="component at 1 over wrong field"):
        Morphism(s1, s1, {"1": Mat(1, 1, (3,), 5)})


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


def test_quotient_by_a_span_that_is_not_closed_raises(a3_mods):
    # P1 spans vertices 1 and 0, and arrow a: 1 -> 0 acts by 1; a span of
    # all of vertex 1 and nothing at vertex 0 is not a submodule, and the
    # only arrow that shows it ends in the zero span
    x = a3_mods["P1"]
    p = x.algebra.p
    span = {"0": Mat.zero(1, 0, p), "1": Mat.identity(1, p), "2": Mat.zero(0, 0, p)}
    with pytest.raises(ValueError, match="not closed under the action"):
        reps.quotient_by_submodule(x, span)
    span["0"] = Mat.identity(1, p)
    assert reps.quotient_by_submodule(x, span)[0].total_dim == 0


def test_quotient_refuses_a_span_without_a_vertex_or_over_another_field():
    # the radical span of P_2 on K A_3/J^2: with the matrix at 0 deleted
    # this was a bare KeyError: '0'; over F_5 it divides nothing
    alg = nakayama_algebra(3, 2)
    pv = projective_module(alg, "2")
    span = reps.radical_span(pv)
    assert reps.quotient_by_submodule(pv, span)[0].dim_vector() == (0, 0, 1)
    with pytest.raises(ValueError, match="span has no matrix at vertex 0"):
        reps.quotient_by_submodule(pv, {v: m for v, m in span.items() if v != "0"})
    other = {v: Mat(m.rows, m.cols, m.entries, 5) for v, m in span.items()}
    with pytest.raises(ValueError, match="field mismatch: F_101 vs F_5"):
        reps.quotient_by_submodule(pv, other)


def test_image_factorization_recovered(a3_mods):
    # coker(kernel inclusion) is the image, the kernel of the cokernel
    # projection: f factors through it injectively
    f = hom_basis(a3_mods["P1"], a3_mods["P2"])[0]
    k, incl = kernel_morphism(f)
    coim, proj = cokernel_morphism(incl)
    im, im_incl = kernel_morphism(cokernel_morphism(f)[1])
    assert coim.dim_vector() == im.dim_vector()
    assert reps.lift_through(f, im_incl) is not None
    # the induced map coim -> target composes with proj back to f
    from nexakt.reps import factor_through
    induced = factor_through(f, proj)
    assert induced is not None
    assert equals(proj.then(induced), f)
    assert induced.is_injective()


# -- add membership ------------------------------------------------------


def test_in_add_summand(a3_mods):
    # S2 is a summand of S2 + P1, but a plain list is checked by
    # indecomposables() before any verdict, so its decomposable entry is
    # refused
    big = direct_sum([a3_mods["S2"], a3_mods["P1"]])[0]
    assert identity_through(a3_mods["S2"], [big])
    with pytest.raises(DomainError, match="entry 0 is decomposable"):
        in_add(a3_mods["S2"], [big])


def test_in_add_refuses_a_repeated_entry_of_a_plain_list(a3_mods):
    p1 = a3_mods["P1"]
    copy = Module(p1.algebra, dict(p1.dims), dict(p1.action))
    with pytest.raises(DomainError, match="entries 0 and 1 are isomorphic"):
        in_add(p1, [p1, copy])


def test_in_add_checks_a_plain_list_once(monkeypatch):
    # the check of a plain list is kept under its entries' content ids:
    # repeated in_add calls on one list, or on a content-equal copy of it,
    # split each entry once; a refused list is checked again
    alg = nakayama_algebra(9, 2)
    gens = list(all_projectives(alg))
    calls = []
    split = reps.split_indecomposables
    monkeypatch.setattr(reps, "split_indecomposables",
                        lambda x, seed: calls.append(seed) or split(x, seed))
    s1 = simple_module(alg, "1")
    for _ in range(5):
        assert in_add(s1, gens) is False
    assert calls == list(range(len(gens)))
    copies = [Module(alg, dict(g.dims), dict(g.action)) for g in gens]
    assert in_add(gens[3], copies) is True
    assert len(calls) == len(gens)
    big = direct_sum(gens[:2]).module
    for _ in range(2):
        with pytest.raises(DomainError, match="entry 0 is decomposable"):
            in_add(s1, [big])
    assert calls[len(gens):] == [0, 0]


def test_in_add_rejects_s1(a3_mods):
    gens = [a3_mods["P0"], a3_mods["P1"], a3_mods["P2"]]
    assert in_add(a3_mods["S1"], gens) is False


def test_in_add_zero_module(a3, a3_mods):
    assert in_add(zero_module(a3), [a3_mods["P0"]])


def test_in_add_decides_a_sum_by_its_summands(monkeypatch):
    alg, gens = gen_linear_An_J2(2, 1)          # add(P0 + P1 + P2 + S2)
    p0, p1 = projective_module(alg, "0"), projective_module(alg, "1")
    s1, s2 = simple_module(alg, "1"), simple_module(alg, "2")
    solve = reps._approximation_is_iso
    solved = []                                   # ids: equal content is ==
    monkeypatch.setattr(reps, "_approximation_is_iso",
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
    monkeypatch.setattr(reps, "_approximation_is_iso",
                        lambda x, g: solved.append(id(x)) or False)
    copy = Module(a3_mods["P1"].algebra, dict(a3_mods["P1"].dims),
                  dict(a3_mods["P1"].action))
    for _ in range(2):
        assert in_add(copy, gens)                 # content-equal to P1
        assert not in_add(a3_mods["S1"], gens)
    assert solved == [id(a3_mods["S1"])]


def test_sweep_membership_matches_krull_schmidt():
    # over K A_3/J^2 and K A_4/J^2, x is every sum of one or two
    # indecomposables in a random basis and M is add of every nonempty
    # sublist: x lies in add(M) exactly when each summand of x is listed
    rng = random.Random(19)
    count = 0
    for k in (3, 4):
        alg, _ = gen_linear_An_J2(1, k - 1)
        indecs = nakayama_indecomposables(alg)
        sums = [(idx, in_random_basis(direct_sum([indecs[i] for i in idx]).module, rng))
                for r in (1, 2)
                for idx in combinations_with_replacement(range(len(indecs)), r)]
        for r in range(1, len(indecs) + 1):
            for picked in combinations(range(len(indecs)), r):
                m = add_category(alg, pick(indecs, picked))
                for idx, x in sums:
                    member = set(idx) <= set(picked)
                    assert bool(in_add(x, m.generators)) is member, (k, picked, idx)
                    count += 1
    assert count == 31 * 20 + 127 * 35


def test_in_add_tries_only_the_generators_that_fit(monkeypatch):
    # K A_9/J^2, M = add(Lambda + S2 + S4 + S6 + S8): x = P3 + S4 in a
    # random basis fits inside P3, P4, S2 and S4 alone, so every Hom space
    # solved joins x to one of them
    alg, gens = gen_linear_An_J2(2, 4)
    cat = add_category(alg, gens)
    x = in_random_basis(direct_sum([gens[3], gens[10]]).module, random.Random(3))
    solve = reps._solve_hom
    others = []
    monkeypatch.setattr(reps, "_solve_hom", lambda m, n: others.append(
        n.key if m.same_as(x) else m.key) or solve(m, n))
    assert in_add(x, cat.generators)
    assert set(others) == {gens[i].key for i in (3, 4, 9, 10)}


def _kronecker_indecomposables(p):
    """Indecomposables of the Kronecker algebra, checked: P_2, P_1, the
    simple injective S_1, I_2, the band modules of dimension (1, 1) at
    b = 0 and b = a, and the non-brick R (End R = F_(p^2))."""
    r = kronecker_field_module(p)
    alg = r.algebra
    one = Mat.identity(1, p)
    bands = [Module(alg, {"1": 1, "2": 1}, {"a": one, "b": b})
             for b in (Mat.zero(1, 1, p), one)]
    return indecomposables(list(all_projectives(alg)) + [simple_module(alg, "1"),
                           injective_module(alg, "2")] + bands + [r])


@pytest.mark.parametrize("p", [2, 101, 2**31 - 1])
def test_in_add_matches_the_two_sided_test(p):
    # over random sublists of each algebra's indecomposables (R in every
    # other Kronecker list), in_add reads one Hom direction; the two-sided
    # composite test over the same list is the reference.  x is a sum of
    # one to three entries in a random basis, or a random quotient of one
    rng = random.Random(p)
    kron = _kronecker_indecomposables(p)
    lists = [(nakayama_indecomposables(alg), set()) for alg in (
        gen_linear_An_J2(1, 2, p)[0], gen_linear_An_J2(1, 3, p)[0],
        preprojective_a2(p), nakayama_algebra(6, 2, cyclic=True, p=p))]
    lists.append((kron, {len(kron) - 1}))
    verdicts = []
    for indecs, forced in lists:
        xs = [in_random_basis(direct_sum(rng.choices(indecs, k=rng.randint(1, 3))).module,
                              rng) for _ in range(10)]
        xs += [random_quotient(x, rng) for x in xs[:6]]
        for trial in range(8):
            picked = set(rng.sample(range(len(indecs)), rng.randint(1, len(indecs))))
            picked = sorted(picked | forced if trial % 2 else picked)
            gens = pick(indecs, picked)
            for x in xs:
                member = in_add(x, gens)
                assert member is identity_through(x, gens), (
                    p, picked, x.key)
                verdicts.append(member)
    assert verdicts.count(True) > 30 and verdicts.count(False) > 30


@pytest.mark.parametrize("p", [2, 101, 2**31 - 1])
def test_in_add_refuses_a_module_the_generators_do_not_span(p):
    # K A_3/J^2, M = add(P1): S0 + S1 has P1's dimension vector and one map
    # from P1, so the peel keeps P1 alone and its dimension vector is x's;
    # only the trace check (the images span x) refuses it
    alg = linear_a3_j2(p)
    p1 = projective_module(alg, "1")
    x = Module(alg, {"0": 1, "1": 1, "2": 0}, {})
    assert x.dim_vector() == p1.dim_vector() and len(hom_basis(p1, x)) == 1
    assert in_add(x, Indecomposables([p1])) is False
    assert identity_through(x, [p1]) is False


@pytest.mark.parametrize("p", [2, 101, 2**31 - 1])
def test_isomorphism_to_an_indecomposable_matches_the_two_sided_test(p):
    # on every ordered pair (x, e) of listed indecomposables, and on x in a
    # random basis, isomorphism to e is equal dimension vectors and x in
    # add(e) by the two-sided reference; the semisimple module of each
    # entry's dimension vector adds pairs that only membership tells apart
    rng = random.Random(p)
    verdicts = []
    for alg in (nakayama_algebra(5, 2, p=p), nakayama_algebra(6, 2, cyclic=True, p=p),
                nakayama_algebra(4, 3, cyclic=True, p=p)):
        indecs = nakayama_indecomposables(alg)
        xs = [y for x in indecs for y in (x, in_random_basis(x, rng))]
        xs += [Module(alg, dict(x.dims), {}) for x in indecs]
        for x in xs:
            for e in indecs:
                expected = (x.dim_vector() == e.dim_vector()
                            and identity_through(x, [e]))
                assert reps._isomorphic_to_indecomposable(x, e) is expected, (
                    p, x.key, e.key)
                verdicts.append(expected)
    # each entry twice, and the semisimple copy of each simple entry
    assert verdicts.count(True) == 2 * (9 + 12 + 12) + (5 + 6 + 4)


def test_in_add_solves_no_hom_space_out_of_x():
    alg, gens = gen_linear_An_J2(2, 4)
    cat = add_category(alg, gens)
    rng = random.Random(8)
    for parts, member in (([gens[3], gens[10]], True),
                          ([gens[3], simple_module(alg, "3")], False)):
        x = in_random_basis(direct_sum(parts).module, rng)
        assert in_add(x, cat.generators) is member
        assert not [key for key in alg.store
                    if key[:2] == ("hom", x.cid) and len(key) == 3]


def reference_solve_hom(m, n):
    """The naturality system of Hom(m, n) as it was solved with dense rows,
    one list per equation, reduced mod p by Mat.from_rows: the component
    dicts of the basis, in kernel_basis order."""
    alg = m.algebra
    p = alg.p
    verts = alg.quiver.vertices
    offsets, pos = {}, 0
    for v in verts:
        offsets[v] = pos
        pos += n.dims[v] * m.dims[v]
    rows = []
    for a in alg.quiver.arrows:
        A, B = n.action[a.name].entries, m.action[a.name].entries
        nt, ns = n.dims[a.target], n.dims[a.source]
        mt, ms = m.dims[a.target], m.dims[a.source]
        xs, xt = offsets[a.source], offsets[a.target]
        for i in range(nt):
            for j in range(ms):
                row = [0] * pos
                for k in range(ns):
                    row[xs + k * ms + j] += A[i * ns + k]
                for k in range(mt):
                    row[xt + i * mt + k] -= B[k * ms + j]
                rows.append(row)
    kernel = kernel_basis(Mat.from_rows(rows, p, cols=pos))
    comps = []
    for j in range(kernel.cols):
        col = kernel.col(j)
        comps.append({v: Mat.from_rows(
            [col[offsets[v] + i * m.dims[v]:offsets[v] + (i + 1) * m.dims[v]]
             for i in range(n.dims[v])], p, cols=m.dims[v]) for v in verts})
    return comps


def _hom_pool(alg, rng):
    """Modules of total dimension at most 8 over alg, each in a random
    basis: the projectives, injectives and simples, random quotients of
    each projective and injective and of those quotients, and sums of two
    of them."""
    verts = alg.quiver.vertices
    ends = [f(alg, v) for v in verts for f in (projective_module, injective_module)]
    quotients = [random_quotient(x, rng) for x in ends for _ in range(2)]
    quotients += [random_quotient(x, rng) for x in quotients if x.total_dim > 1]
    base = ends + [simple_module(alg, v) for v in verts] + quotients
    base = [x for x in base if x.total_dim <= 8]
    base += [direct_sum([x, y]).module for x, y in combinations(base, 2)
             if 0 < x.total_dim + y.total_dim <= 8]
    return [in_random_basis(x, rng) for x in base if x.total_dim]


@pytest.mark.parametrize("p", [2, 101, 2**31 - 1])
def test_solve_hom_matches_the_reference_solver(p):
    # the Kronecker pool adds R (End R = F_(p^2)) and random
    # representations; on the two-loop algebra each arrow is a loop, so
    # both coefficients of an equation land in one block of unknowns
    rng = random.Random(p)
    q, rels, bound = two_loops(5, p)
    pools = [_hom_pool(alg, rng) for alg in (
        gen_linear_An_J2(1, 3, p)[0], preprojective_a2(p),
        nakayama_algebra(6, 2, cyclic=True, p=p), build_algebra(q, rels, bound, FieldSpec(p)))]
    kron = kronecker_algebra(p)
    pools.append(_hom_pool(kron, rng) + [kronecker_field_module(p)] + [
        Module(kron, {"1": d1, "2": d2},
               {a: Mat.from_rows([[rng.randrange(p) for _ in range(d1)]
                                  for _ in range(d2)], p, cols=d1)
                for a in ("a", "b")})
        for d1, d2 in ((1, 1), (2, 1), (1, 2), (2, 3), (3, 2))])
    nonzero = 0
    for pool in pools:
        for _ in range(60):
            m, n = rng.choice(pool), rng.choice(pool)
            got = [f.components for f in reps._solve_hom(m, n)]
            assert got == reference_solve_hom(m, n), (m.key, n.key)
            nonzero += bool(got)
    assert nonzero > 150


def _entry_row_pools(p, rng):
    """(algebra, pool) for K A_5/J^2, K A_9/J^3, C_6/J^2, Pi_2 and the
    Kronecker algebra: every entry of the Nakayama list, or for the
    Kronecker algebra (not Nakayama) P_1, P_2 = S_2, I_1 = S_1, I_2 and R;
    then four sums of two entries, each in a random basis."""
    cases = [(alg, list(nakayama_indecomposables(alg))) for alg in (
        nakayama_algebra(5, 2, p=p), nakayama_algebra(9, 3, p=p),
        nakayama_algebra(6, 2, cyclic=True, p=p), preprojective_a2(p))]
    r = kronecker_field_module(p)
    kron = r.algebra
    cases.append((kron, [projective_module(kron, "1"), projective_module(kron, "2"),
                         injective_module(kron, "1"), injective_module(kron, "2"), r]))
    for alg, entries in cases:
        yield alg, entries + [in_random_basis(direct_sum(rng.sample(entries, 2)).module,
                                              rng) for _ in range(4)]


@pytest.mark.parametrize("p", [2, 101, 2**31 - 1])
def test_entry_row_kernels_match_the_mat_reference(p):
    # reps solves Hom and forms composite rows on entry rows; the dense
    # Mat references must give the same Hom bases, order and entries, and
    # the same composite rows, on every ordered pair; and a basis vector
    # corrupted at any arrow is refused, naming the arrow the Mat check
    # names
    rng = random.Random(p)
    named = set()
    for alg, pool in _entry_row_pools(p, rng):
        arrows = {a.name for a in alg.quiver.arrows}
        failing = set()
        for x, y in product(pool, repeat=2):
            comps = reference_solve_hom(x, y)
            assert [f.components for f in reps._solve_hom(x, y)] == comps
            back = hom_basis(y, x)
            for d in hom_basis(x, y)[:2]:
                for d_first in (True, False):
                    assert reps.composite_rows(d, back, d_first) == \
                        ref_composite_rows(d, back, d_first)
            for a in alg.quiver.arrows:
                if not (comps and y.dims[a.target] * x.dims[a.source]):
                    continue
                for bad in _corrupted_at(x, y, comps[rng.randrange(len(comps))], a):
                    with pytest.raises(ValueError) as want:
                        mat_check_natural_batch(x, y, [bad])
                    for batch in ([bad] + comps, comps + [bad]):
                        with pytest.raises(ValueError, match=str(want.value)):
                            reps._check_natural_batch(x, y, batch)
                    failing.add(a.name)
                    named.add(str(want.value))
        assert failing == arrows
    assert len(named) > 5


def _corrupted_at(x, y, comp, a):
    """Copies of the components comp of a map x -> y with one entry of the
    component at a's source moved by 1, each breaking naturality at a."""
    p, s = x.algebra.p, a.source
    A, B = y.action[a.name], x.action[a.name]
    for e in range(len(comp[s].entries)):
        moved = list(comp[s].entries)
        moved[e] = (moved[e] + 1) % p
        cs = Mat(comp[s].rows, comp[s].cols, tuple(moved), p)
        if A.mul(cs) != comp[a.target].mul(B):
            yield {**comp, s: cs}


def test_radical_span_is_the_radical_step_from_the_identity_spans():
    # the arrow actions side by side, against the actions times identities
    rng = random.Random(4)
    q, rels, bound = two_loops(5, 101)
    for alg in (linear_a3_j2(), preprojective_a2(), nakayama_algebra(6, 2, cyclic=True),
                kronecker_algebra(), build_algebra(q, rels, bound, FieldSpec(101))):
        for x in _hom_pool(alg, rng) + [zero_module(alg)]:
            ident = {v: Mat.identity(d, alg.p) for v, d in x.dims.items()}
            assert reps.radical_span(x) == reps._radical_step(x, ident), x.key


def test_hom_between_disjoint_supports_solves_no_system(a3_mods, monkeypatch):
    monkeypatch.setattr(reps, "_null_space",
                        lambda *args: pytest.fail("a system was solved"))
    for m, n in (("P0", "S2"), ("S2", "P1"), ("P1", "S2")):
        assert reps._solve_hom(a3_mods[m], a3_mods[n]) == []


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
        uinv[v] = solve_linear(m, Mat.identity(n, p))
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
    for alg in (gen_linear_An_J2(2, 2, p)[0], nakayama_algebra(3, 2, cyclic=True, p=p)):
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
        assert identity_through(pv, [lam])
        # in_add refuses the decomposable entry instead of deciding
        with pytest.raises(DomainError, match="entry 0 is decomposable"):
            in_add(pv, [lam])


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
    solve = reps._null_space
    monkeypatch.setattr(reps, "_null_space",
                        lambda rows, n, p: calls.append(rows) or solve(rows, n, p))
    p1 = projective_module(a3, "1")
    p2, p2_again = projective_module(a3, "2"), projective_module(a3, "2")
    assert p2 is not p2_again and p2.key == p2_again.key
    first = hom_basis(p1, p2)
    assert hom_basis(p1, p2_again) is first
    assert len(calls) == 1


def test_ext_dim_solves_each_hom_once_per_target_content(a3, monkeypatch):
    solves = []
    real_solve = reps._solve_hom
    monkeypatch.setattr(reps, "_solve_hom",
                        lambda m, n: solves.append((m, n)) or real_solve(m, n))
    s2 = simple_module(a3, "2")
    s1, s1_again = simple_module(a3, "1"), simple_module(a3, "1")
    assert s1 is not s1_again and s1.key == s1_again.key
    assert resolutions.ext_dim(s2, s1, 1) == 1
    # one degree reads three Hom dimensions: out of Omega^1 s2, Q_0 and s2
    assert len(solves) == 3
    # a content-equal target reads the memoized Hom bases: no new solve
    assert resolutions.ext_dim(s2, s1_again, 1) == 1
    assert resolutions.ext_dim(s2, s1, 1) == 1
    assert len(solves) == 3
    # Ext is not stored under a key of its own
    assert not any(isinstance(k, tuple) and k[0] == "ext" for k in a3.store)
    assert resolutions.ext_dim(s2, s1, 2) == 0
    solved = len(solves)
    assert resolutions.ext_dim(s2, s1_again, 2) == 0
    assert len(solves) == solved
    # Ext^0 is the Hom dimension
    assert resolutions.ext_dim(s2, s1, 0) == len(hom_basis(s2, s1)) == 0
    assert resolutions.ext_dim(s1, s1_again, 0) == len(hom_basis(s1, s1)) == 1


def test_content_equal_sources_share_one_hom_solve(a3, monkeypatch):
    calls = []
    solve = reps._solve_hom
    monkeypatch.setattr(reps, "_solve_hom",
                        lambda m, n: calls.append((m, n)) or solve(m, n))
    x, x_again = projective_module(a3, "1"), projective_module(a3, "1")
    y, y_again = projective_module(a3, "0"), projective_module(a3, "0")
    assert x is not x_again and x.cid == x_again.cid
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
        assert total.same_as(x) and ("summands", total.cid) not in a3.store
        assert bool(in_add(total, gens)) is verdict


def test_direct_sum_of_nothing_is_refused():
    with pytest.raises(ValueError, match="empty direct sum; use zero_module"):
        direct_sum([])


def test_direct_sum_returns_the_parts_it_was_given(a3_mods):
    p0, p1, s2 = a3_mods["P0"], a3_mods["P1"], a3_mods["S2"]
    left, right = direct_sum([p0, p1]).module, direct_sum([p1, s2]).module
    first = direct_sum([left, s2])
    second = direct_sum([p0, right])
    assert second.module.same_as(first.module)
    assert [id(m) for m in second.parts] == [id(p0), id(right)]
    summands = p0.algebra.store[("summands", second.module.cid)]
    assert [id(m) for m in summands] == [id(left), id(s2)]
    # maps built on the given parts join their summands
    f = block_morphism(p0, second, {(0, 0): identity_morphism(p0)})
    assert f.target is second.module


def test_a_sum_is_built_once_per_list_of_operand_contents(a3, a3_mods, monkeypatch):
    built = []
    blocks = Mat.from_blocks
    monkeypatch.setattr(Mat, "from_blocks",
                        staticmethod(lambda *args: built.append(1) or blocks(*args)))
    p1, s2 = a3_mods["P1"], a3_mods["S2"]
    p1_again, s2_again = projective_module(a3, "1"), simple_module(a3, "2")
    assert p1 is not p1_again and s2 is not s2_again
    first = direct_sum([p1, s2])
    count = len(built)
    second = direct_sum([p1_again, s2_again])
    assert count > 0 and len(built) == count
    assert second.module is first.module
    assert [id(m) for m in first.parts] == [id(p1), id(s2)]
    assert [id(m) for m in second.parts] == [id(p1_again), id(s2_again)]
    # membership of the sum is still read off its "summands" fact
    monkeypatch.setattr(reps, "_approximation_is_iso",
                        lambda *args: pytest.fail("membership was solved"))
    assert in_add(second.module, Indecomposables([p1, s2]))


def _store_calls():
    """(file:line, first argument) of every call of memoized( or
    store.get( in the package, past the store's own methods."""
    for path in sorted(Path(reps.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            owner = node.func.value
            if isinstance(owner, ast.Name) and owner.id == "self":
                continue
            if node.func.attr == "memoized" or (
                    node.func.attr == "get"
                    and getattr(owner, "attr", None) == "store"
                    and getattr(owner.value, "id", None) != "self"):
                yield f"{path.name}:{node.lineno}", node.args[0]


def test_every_store_key_is_listed_in_the_reps_docstring():
    prefixes = {}
    for where, key in _store_calls():
        first = key.elts[0] if isinstance(key, ast.Tuple) else key
        assert isinstance(first, ast.Constant) and isinstance(first.value, str), \
            f"{where}: a store key must start with a literal operation name"
        prefixes.setdefault(first.value, where)
    assert {"hom", "sum", "approx", "summands"} <= set(prefixes)
    missing = [f"{where}: {name}" for name, where in prefixes.items()
               if f'"{name}"' not in reps.__doc__]
    assert not missing, missing


def _ladder_rounds(rounds=20):
    """The 2-cokernel and 2-kernel of a random map between two sums of two
    generators, each in a random basis, over K A_5/J^2 with M its 2-CT
    generators; yields the ladders' rows after each round."""
    alg, gens = gen_linear_An_J2(2, 2, p=101)
    m = add_category(alg, gens)
    rng = random.Random(5)
    for _ in range(rounds):
        src, tgt = (in_random_basis(direct_sum(
            [rng.choice(gens), rng.choice(gens)]).module, rng) for _ in "st")
        f = zero_morphism(src, tgt)
        for b in hom_basis(src, tgt):
            f = f.add(b.scale(rng.randrange(alg.p)))
        yield [[d.vectorize() for d in ladder.diffs]
               for ladder in (n_cokernel(f, m, 2), n_kernel(f, m, 2))]


def test_hom_solves_do_not_depend_on_the_garbage_collector(monkeypatch):
    # facts are held by the algebra's store, not by the modules of their
    # content, so a collection between rounds frees none of them
    calls = []
    solve = reps._solve_hom
    monkeypatch.setattr(reps, "_solve_hom",
                        lambda m, n: calls.append(1) or solve(m, n))
    for _ in _ladder_rounds():
        gc.collect()
    collected = len(calls)
    calls.clear()
    gc.disable()
    try:
        rows = list(_ladder_rounds())
    finally:
        gc.enable()
    assert len(calls) == collected and len(rows) == 20


def test_a_full_store_is_cleared_and_facts_are_made_again(monkeypatch):
    peaks = []
    memoized = quivers.AlgebraBasis.memoized

    def tracked(alg, key, make):
        got = memoized(alg, key, make)
        peaks.append(len(alg.store))
        return got

    monkeypatch.setattr(quivers.AlgebraBasis, "memoized", tracked)
    full = list(_ladder_rounds())
    full_peak = max(peaks)
    peaks.clear()
    monkeypatch.setattr(quivers, "STORE_BOUND", 16)
    assert list(_ladder_rounds()) == full
    assert max(peaks) == 16 < full_peak


def test_content_ids_do_not_collide_across_equal_algebras():
    # the first module over each algebra gets the next id of one counter;
    # a counter per algebra would give S0 over a and S1 over b one id, and
    # Hom(P1, S1 over b) would read the stored Hom(P1, S0 over a) = 0
    a, b = linear_a3_j2(), linear_a3_j2()
    assert a == b and a is not b
    s0, s1 = simple_module(a, "0"), simple_module(b, "1")
    p1 = projective_module(a, "1")
    assert hom_basis(p1, s0) == []
    assert len(hom_basis(p1, s1)) == 1


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
                assert equals(piece, blocks[(i, j)])
            else:
                assert piece.is_zero()
    # a plain module counts as one summand
    into = block_morphism(s0, tgt, {(1, 0): socle})
    assert equals(into.then(_projection(tgt, 1)), socle)
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
        assert equals(Morphism(f.source, f.target, f.components), f)


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
    assert not equals(f, g)
    assert f.sub(f).is_zero() and equals(f, f.scale(1))


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
        assert equals(Morphism(h.source, h.target, h.components), h)
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
    for alg in (linear_a3_j2(), nakayama_algebra(3, 2, cyclic=True)):
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
        assert equals(Morphism(f.source, f.target, f.components), f)
    with pytest.raises(ContextError):
        zero_morphism(families[0][1][0], families[1][1][0])


def test_derived_modules_and_maps_pass_the_checked_constructors(monkeypatch):
    # kernels, cokernels, quotients, sums, simples, zero modules,
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
                    for make in (kernel_morphism, cokernel_morphism):
                        maps.append(make(f)[1])
                if basis:
                    maps += [stack_morphisms_to_sum(basis),
                             stack_morphisms_from_sum([g.then(f) for f in basis
                                                       for g in hom_basis(x, x)])]
            maps += [resolutions.projective_cover(x), resolutions.injective_envelope(x)]
            maps.append(reps.quotient_by_submodule(x, reps.radical_span(x))[1])
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
        assert equals(Morphism(f.source, f.target, f.components), f)


@pytest.mark.parametrize("position", ["first", "last"])
def test_corrupted_kernel_vector_fails_naturality(a3, monkeypatch, position):
    solve = reps._null_space

    def corrupted(rows, n, p):
        # add a coordinate vector that the naturality system does not kill
        j = next(c for c in range(n) if any(row[c] for row in rows))
        bad = [int(i == j) for i in range(n)]
        free, vecs = solve(rows, n, p)
        return free, [bad] + vecs if position == "first" else vecs + [bad]

    monkeypatch.setattr(reps, "_null_space", corrupted)
    p1 = projective_module(a3, "1")
    with pytest.raises(ValueError, match="naturality fails at arrow"):
        hom_basis(p1, p1)
