"""Seeded property suites for the subcategory machinery: approximation
contracts, idempotent completeness instances, composability of admissible
monomorphisms, cosyzygy independence, and an exhaustive Hom oracle."""

import random
from itertools import product

import pytest

from nexakt import reps
from nexakt.addcat import (add_category, minimal_left_approximation,
                           minimal_right_approximation, n_cokernel,
                           verify_n_exact)
from nexakt.complexes import ComplexSeq, complex_from_maps, mapping_cone
from nexakt.fp import Mat, rank
from nexakt.frob import check_frobenius_setup
from nexakt.presets import gen_linear_An_J2, nakayama_indecomposables
from nexakt.reps import (Morphism, _composite_table, _peel_superfluous,
                         block_morphism, cokernel_morphism, direct_sum,
                         factor_through, hom_basis, identity_morphism,
                         lift_through, projective_module, regular_module,
                         simple_module, split_indecomposables,
                         stack_morphisms_from_sum, stack_morphisms_to_sum,
                         zero_module, zero_morphism)

from conftest import (are_isomorphic, equals, linear_a3_j2, named_modules,
                      stably_isomorphic_objects)


def random_sum(cat, rng, max_parts=3):
    picks = [cat.generators[rng.randrange(len(cat.generators))]
             for _ in range(rng.randrange(1, max_parts + 1))]
    return direct_sum(picks)[0]


def fuzz_modules(a3, m3):
    """Fifteen random sums of generators, then two non-members."""
    rng = random.Random(11)
    sums = [random_sum(m3, rng) for _ in range(15)]
    return sums, [simple_module(a3, "0"), simple_module(a3, "1")]


def test_approximation_contract_fuzz(a3, m3):
    # construction-time assertions already enforce the surjectivity
    # contract; exercise them on random objects including non-members
    sums, others = fuzz_modules(a3, m3)
    for x in sums:
        minimal_left_approximation(x, m3)
        minimal_right_approximation(x, m3)
    for x in others:
        f = minimal_left_approximation(x, m3)
        for g in m3.generators:
            (_, r), = reps.hom_dims_and_ranks([f], g, contravariant=True)
            assert r == len(hom_basis(x, g))


@pytest.mark.parametrize("p", [2, 5, 101])
def test_derived_maps_pass_the_full_naturality_check(p):
    # then/add/sub/scale/assemble_from_span skip the naturality check;
    # rebuilding each result through the public constructor runs it
    a3 = linear_a3_j2(p)
    gens = [projective_module(a3, v) for v in "012"] + [simple_module(a3, "2")]
    sums, others = fuzz_modules(a3, add_category(a3, gens, seed=1))
    mods = sums + others
    rng = random.Random(p)
    checked = 0
    for _ in range(60):
        x, y, z = (mods[rng.randrange(len(mods))] for _ in range(3))
        fs, gs = hom_basis(x, y), hom_basis(y, z)
        if not fs or not gs:
            continue
        f, f2 = rng.choice(fs), rng.choice(fs)
        g = rng.choice(gs)
        c = rng.randrange(p)
        combo = reps.assemble_from_span(fs, [rng.randrange(p) for _ in fs], x, y)
        for h in (f.then(g), f.add(f2.scale(c)), f.sub(f2), f.scale(c).then(g),
                  f.sub(f2.scale(c)).then(g.add(g.scale(c))), combo.then(g)):
            rebuilt = Morphism(h.source, h.target, h.components)
            assert equals(rebuilt, h)
            checked += 1
    assert checked >= 50


def restart_peel(parts, x, left):
    """Reference peel: drop the first summand whose component factors
    through the stacked map of all the others, then start over; returns
    the kept positions."""
    kept = list(range(len(parts)))
    changed = True
    while changed:
        changed = False
        for i in kept:
            rest = [parts[r][1] for r in kept if r != i]
            if left:
                rest_map = (stack_morphisms_to_sum(rest) if rest
                            else zero_morphism(x, zero_module(x.algebra)))
                hit = factor_through(parts[i][1], rest_map)
            else:
                rest_map = (stack_morphisms_from_sum(rest) if rest
                            else zero_morphism(zero_module(x.algebra), x))
                hit = lift_through(parts[i][1], rest_map)
            if hit is not None:
                kept.remove(i)
                changed = True
                break
    return kept


def test_one_pass_peel_keeps_what_restart_peel_keeps(a3, m3):
    sums, others = fuzz_modules(a3, m3)
    dropped = 0
    for x in sums + others:
        for left in (True, False):
            parts = [(j, f) for j, g in enumerate(m3.generators)
                     for f in (hom_basis(x, g) if left else hom_basis(g, x))]
            table = _composite_table(m3.generators, parts, left)
            positions = _peel_superfluous(parts, table, a3.p)
            assert positions == restart_peel(parts, x, left), (x.key, left)
            dropped += len(parts) - len(positions)
    assert dropped > 0


def test_approximations_build_one_direct_sum(monkeypatch):
    alg, gens = gen_linear_An_J2(2, 2)
    cat = add_category(alg, gens, seed=0)
    lam = regular_module(alg)
    calls = []
    real = reps.direct_sum

    def counting(mods):
        calls.append(len(mods))
        return real(mods)

    monkeypatch.setattr(reps, "direct_sum", counting)
    for approximate in (minimal_left_approximation, minimal_right_approximation):
        calls.clear()
        approximate(lam, cat)
        assert len(calls) == 1


def test_idempotent_completeness_instances(a3, m3):
    # A0 instance: decompose-and-reassemble certifies idempotent
    # completeness of add(M) on random objects
    rng = random.Random(21)
    for i in range(10):
        x = random_sum(m3, rng)
        parts = split_indecomposables(x, seed=100 + i)
        for part, _ in parts:
            assert any(are_isomorphic(part, g, seed=3) for g in m3.generators)
        rebuilt = direct_sum([part for part, cnt in parts for _ in range(cnt)])[0]
        assert are_isomorphic(rebuilt, x, seed=4)


def test_admissible_monos_compose(m3, a3_mods):
    # E1 instance: composable admissible monomorphisms compose to an
    # admissible monomorphism (its n-cokernel completes it n-exactly)
    f = hom_basis(a3_mods["S0"], a3_mods["P1"])[0]    # S0 >-> P1
    total = direct_sum([a3_mods["P1"], a3_mods["P2"]])
    g = block_morphism(a3_mods["P1"], total,           # P1 >-> P1 + P2
                       {(0, 0): identity_morphism(a3_mods["P1"])})
    fg = f.then(g)
    assert fg.is_injective()
    tail = n_cokernel(fg, m3, 2)
    x = ComplexSeq(0, [fg.source] + list(tail.terms), [fg] + list(tail.diffs))
    assert verify_n_exact(x, m3, 2).ok


def test_cone_of_pushout_morphism_is_exact(a3, m3, a3_mods):
    # the cone of the pushout of (S0 -> P1 -> P2) along S0 -> 0 is the
    # exact complex S0 -> P1 -> P2+P2 -> P2+S2
    from nexakt.pushout import n_pushout
    d0 = hom_basis(a3_mods["S0"], a3_mods["P1"])[0]
    d1 = hom_basis(a3_mods["P1"], a3_mods["P2"])[0]
    x = complex_from_maps(0, [d0, d1])
    y, f = n_pushout(x, zero_morphism(a3_mods["S0"], zero_module(a3)), m3)
    cone = mapping_cone(f)
    dims = [cone.term(k).dim_vector() for k in cone.degrees()]
    assert dims == [(1, 0, 0), (1, 1, 0), (0, 2, 2), (0, 1, 2)]
    # vertex-wise exactness of the cone (it is an exact sequence in mod A)
    for k in range(cone.lo, cone.hi):
        d_out = cone.diff(k)
        d_in = cone.diff(k - 1)
        for v in "012":
            dim_ker = d_out.components[v].cols - rank(d_out.components[v])
            if k > cone.lo:
                assert rank(d_in.components[v]) == dim_ker
            else:
                assert dim_ker == 0  # leftmost map injective


def test_cosyzygy_independence(pi2):
    # computing the second cosyzygy along a padded (non-minimal)
    # coresolution gives a stably isomorphic answer
    mods = named_modules(pi2)
    m = add_category(pi2, [mods["P1"], mods["P2"], mods["S1"]], seed=4)
    indecs = nakayama_indecomposables(pi2)
    ctx = check_frobenius_setup(pi2, m, 2, indecs, seed=4)
    s1 = mods["S1"]
    # padded envelope: S1 >-> P2 + P1 via (socle inclusion, 0)
    socle = hom_basis(s1, mods["P2"])[0]
    total = direct_sum([mods["P2"], mods["P1"]])
    env1 = block_morphism(s1, total, {(0, 0): socle})
    c1, _ = cokernel_morphism(env1)
    # second step: minimal envelope of c1, then its cokernel
    from nexakt.resolutions import injective_envelope
    env2 = injective_envelope(c1)
    c2, _ = cokernel_morphism(env2)
    from nexakt.resolutions import cosyzygy_of
    minimal = cosyzygy_of(s1, 2)
    assert stably_isomorphic_objects(ctx, c2, minimal)
    assert are_isomorphic(minimal, s1, seed=5)


def test_hom_basis_against_exhaustive_oracle():
    # over F_2 the full Hom space is small enough to enumerate naively
    alg = linear_a3_j2(p=2)
    mods = [projective_module(alg, "1"), projective_module(alg, "2"),
            simple_module(alg, "1")]
    for m, n in product(mods, repeat=2):
        entries = [(v, i, j)
                   for v in alg.quiver.vertices
                   for i in range(n.dims[v]) for j in range(m.dims[v])]
        count = 0
        for bits in product((0, 1), repeat=len(entries)):
            comps = {v: [[0] * m.dims[v] for _ in range(n.dims[v])]
                     for v in alg.quiver.vertices}
            for (v, i, j), bit in zip(entries, bits):
                comps[v][i][j] = bit
            try:
                Morphism(m, n, {v: Mat.from_rows(rows, 2, cols=m.dims[v])
                                for v, rows in comps.items()})
                count += 1
            except ValueError:
                pass
        assert count == 2 ** len(hom_basis(m, n))


def test_weak_cokernel_nonuniqueness_is_recorded(m3, a3_mods):
    # two different weak cokernels of one morphism: the minimal one and a
    # padded one; both satisfy the defining property
    from nexakt.addcat import weak_cokernel
    f = hom_basis(a3_mods["S0"], a3_mods["P1"])[0]
    g = weak_cokernel(f, m3)
    total = direct_sum([g.target, a3_mods["P2"]])
    padded = block_morphism(f.target, total, {(0, 0): g})
    for gen in m3.generators:
        # Hom(C', gen) -> Hom(P1, gen) -> Hom(S0, gen) is exact in the middle
        (_, rank_to_a), (_, rank_from_c) = reps.hom_dims_and_ranks(
            [f, padded], gen, contravariant=True)
        assert rank_from_c == len(hom_basis(f.target, gen)) - rank_to_a
