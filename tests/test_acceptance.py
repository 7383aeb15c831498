"""Acceptance suite: one test per criterion, exact tolerances, one
printed pass/fail line each (run with -s to see them live)."""

import json
import random

from nexakt.addcat import (HypothesisError, add_category, comparison_homotopy,
                           contract, contravariant_fragment, n_cokernel,
                           verify_n_exact)
from nexakt.cli import main as cli_main
from nexakt.complexes import (ComplexSeq, chain_map_space, complex_from_maps,
                              mapping_cone, pad_complex, verify_homotopy)
from nexakt.frob import (angle_cone, angle_from_n_exact, check_frobenius_setup,
                         complete_angle_morphism, cosyzygy, rotate_angle,
                         standard_angle, verify_angle_exact)
from nexakt.presets import (brute_force_nct_search, gen_linear_An_J2,
                            gen_preprojective_A, nakayama_indecomposables)
from nexakt.pushout import n_pushout, good_n_pushout
from nexakt.reps import (are_isomorphic, assemble_from_span, direct_sum,
                         hom_basis, identity_morphism, regular_module,
                         solve_rows, split_indecomposables, zero_module,
                         zero_morphism)
from nexakt.resolutions import ext_dim
from nexakt.tilting import (ext_via_approx_resolution, hom_exact_at_middle,
                            strong_projectivity_check)

from conftest import (a3_sequence, complete_to_chain_map, corner_identity,
                      cosyzygy_projection, direct_sum_complexes,
                      identity_complex_morphism, interval_complex,
                      named_modules)


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# -- shared fixtures --------------------------------------------------------


def a3_setup(p=101):
    alg = gen_linear_An_J2(2, 1, p=p)[0]
    mods = named_modules(alg)
    m3 = add_category(alg, [mods["P0"], mods["P1"], mods["P2"], mods["S2"]],
                      seed=1)
    return alg, mods, m3


def pi2_setup(p=101):
    alg = gen_preprojective_A(2, p=p)
    mods = named_modules(alg)
    m = add_category(alg, [mods["P1"], mods["P2"], mods["S1"]], seed=1)
    return alg, mods, m


def pi2_sequence(mods):
    from nexakt.resolutions import min_injective_coresolution
    s1 = mods["S1"]
    cores = min_injective_coresolution(s1, 2)
    proj = cosyzygy_projection(s1, 2)
    return complex_from_maps(0, [cores.maps[0], cores.maps[1], proj])


# -- criterion 1 ------------------------------------------------------------


def test_criterion_1_uniqueness():
    """Unique basic n-CT module of K A_{nm+1}/J^2, at p in {2, 5, 101}."""
    checked = 0
    for (n, m) in [(2, 1), (2, 2), (3, 1)]:
        for p in (2, 5, 101):
            alg, expected = gen_linear_An_J2(n, m, p=p)
            indecs = nakayama_indecomposables(alg)
            hits = brute_force_nct_search(alg, n, indecs, seed=0)
            assert len(hits) == 1, (n, m, p, hits)
            gens = [indecs[i] for i in hits[0]]
            assert len(gens) == len(expected)
            for g in expected:
                assert any(are_isomorphic(g, h, seed=2) for h in gens), (n, m, p)
            checked += 1
    report(1, checked == 9,
           f"unique n-CT module for (n,m) in {{(2,1),(2,2),(3,1)}} "
           f"at p in {{2,5,101}} ({checked}/9 searches)")


# -- criterion 2 ------------------------------------------------------------


def test_criterion_2_ext_comparison():
    """ext_via_approx_resolution == ext_dim on all 25 ordered pairs of
    Lambda_3 indecomposables (hypothesis violations must be flagged)."""
    alg, mods, m3 = a3_setup()
    indecs = [mods["P0"], mods["P1"], mods["P2"], mods["S1"], mods["S2"]]
    compared = 0
    flagged = 0
    for b in indecs:
        for a in indecs:
            try:
                got = ext_via_approx_resolution(a, b, m3, 1, 2)
            except HypothesisError:
                flagged += 1
                continue
            assert got == ext_dim(a, b, 1), (a.dim_vector(), b.dim_vector())
            compared += 1
    # hypothesis Ext^1(M, b) = 0 fails exactly for b = S1 (5 pairs)
    report(2, compared == 20 and flagged == 5,
           f"25 ordered pairs: {compared} equal exactly, "
           f"{flagged} hypothesis violations flagged (b = S1)")


# -- criterion 3 ------------------------------------------------------------


def test_criterion_3_resolution_ladder():
    """n_cokernel(S0 >-> P1) = (P1 -> P2, P2 ->> S2) up to isomorphism and
    the assembled 4-term sequence verifies against all 4 generators."""
    alg, mods, m3 = a3_setup()
    d0 = hom_basis(mods["S0"], mods["P1"])[0]
    tail = n_cokernel(d0, m3, 2)
    assert are_isomorphic(tail.terms[1], mods["P2"], seed=3)
    assert are_isomorphic(tail.terms[2], mods["S2"], seed=3)
    assert tail.diffs[1].is_surjective()
    x = ComplexSeq(0, [mods["S0"]] + list(tail.terms), [d0] + list(tail.diffs))
    cert = verify_n_exact(x, m3, 2)
    interior = [rec for _, recs in cert.cokernel_side.per_generator
                for rec in recs if 1 <= rec.position <= 2]
    interior += [rec for _, recs in cert.kernel_side.per_generator
                 for rec in recs if 1 <= rec.position <= 2]
    report(3, cert.ok and len(interior) == 16
           and all(r.exact for r in interior),
           f"ladder output correct; {len(interior)} interior Hom-exactness "
           f"rank checks all exact (plus end injectivity)")


# -- criterion 4 ------------------------------------------------------------


def _random_pairs_with_equal_bottom(x, y, rng, count):
    maps = chain_map_space(x, y)
    if not maps:
        return []
    p = x.algebra.p
    # subspace with zero bottom component
    zero_bottom = []
    from nexakt.fp import Mat, kernel_basis
    bottom = [f.component(x.lo).vectorize() for f in maps]
    if bottom and len(bottom[0]):
        mat = Mat.from_rows([[b[i] for b in bottom]
                             for i in range(len(bottom[0]))], p,
                            cols=len(maps))
        ker = kernel_basis(mat)
        for j in range(ker.cols):
            acc = None
            for i, f in enumerate(maps):
                c = ker.at(i, j)
                if c:
                    g = _scale_chain_map(f, c)
                    acc = g if acc is None else _add_chain_maps(acc, g)
            if acc is not None:
                zero_bottom.append(acc)
    else:
        zero_bottom = maps
    pairs = []
    for _ in range(count):
        f = _random_combo(maps, rng, p)
        if zero_bottom:
            delta = _random_combo(zero_bottom, rng, p)
            g = _add_chain_maps(f, delta)
        else:
            g = f
        pairs.append((f, g))
    return pairs


def _scale_chain_map(f, c):
    from nexakt.complexes import ComplexMorphism
    return ComplexMorphism(f.source, f.target,
                           {k: f.component(k).scale(c)
                            for k in f.source.degrees()})


def _add_chain_maps(f, g):
    from nexakt.complexes import ComplexMorphism
    return ComplexMorphism(f.source, f.target,
                           {k: f.component(k).add(g.component(k))
                            for k in f.source.degrees()})


def _random_combo(basis, rng, p):
    acc = _scale_chain_map(basis[0], 0)
    for b in basis:
        c = rng.randrange(p)
        if c:
            acc = _add_chain_maps(acc, _scale_chain_map(b, c))
    return acc


def test_criterion_4_comparison_lemma():
    """100 seeded random (f, g) with f^0 = g^0: homotopy found, verified,
    first component zero."""
    rng = random.Random(20260808)
    successes = 0
    total = 0
    for setup, seqfn in ((a3_setup, a3_sequence), (pi2_setup, pi2_sequence)):
        alg, mods, cat = setup()
        x = seqfn(mods)
        pad = pad_complex(interval_complex(1, cat.generators[-1]), 0, 3)
        targets = [x, direct_sum_complexes(x, pad)]
        for y in targets:
            for f, g in _random_pairs_with_equal_bottom(x, y, rng, 25):
                total += 1
                h = comparison_homotopy(f, g)
                assert verify_homotopy(f, g, h)
                assert h.component(x.lo + 1).is_zero()
                successes += 1
    report(4, successes == total == 100,
           f"comparison homotopy verified with h^1 = 0 on "
           f"{successes}/{total} random pairs over Lambda_3 and Pi_2")


# -- criterion 5 ------------------------------------------------------------


def test_criterion_5_pushout():
    """Pushout of (S0 -> P1 -> P2) along S0 -> 0 is (0 -> P2 -> P2 + S2);
    cone verifies; good-pushout padding is contractible."""
    alg, mods, m3 = a3_setup()
    d0 = hom_basis(mods["S0"], mods["P1"])[0]
    d1 = hom_basis(mods["P1"], mods["P2"])[0]
    x = complex_from_maps(0, [d0, d1])
    f0 = zero_morphism(mods["S0"], zero_module(alg))
    y, f = n_pushout(x, f0, m3)
    assert y.term(0).total_dim == 0
    assert are_isomorphic(y.term(1), mods["P2"], seed=4)
    parts = split_indecomposables(y.term(2), seed=5)
    names = sorted(
        ("P2" if are_isomorphic(part, mods["P2"], seed=6) else
         "S2" if are_isomorphic(part, mods["S2"], seed=6) else "?",
         count) for part, count in parts)
    assert names == [("P2", 1), ("S2", 1)]
    cone = mapping_cone(f)
    frag = contravariant_fragment(list(cone.diffs), m3.generators)
    assert frag.ok
    padded, ftilde, padding = good_n_pushout(x, f0, m3)
    h = contract(pad_complex(padding, 0, 3), m3)
    report(5, h is not None,
           "pushout along S0 -> 0 gives (0 -> P2 -> P2+S2); cone is an "
           "n-cokernel; good-pushout padding contracts")


# -- criterion 6 ------------------------------------------------------------


def _random_m_morphism(cat, rng):
    gens = cat.generators
    p = cat.algebra.p

    def random_object():
        k = rng.randrange(1, 3)
        picks = [gens[rng.randrange(len(gens))] for _ in range(k)]
        return direct_sum(picks)[0]

    src, tgt = random_object(), random_object()
    basis = hom_basis(src, tgt)
    f = zero_morphism(src, tgt)
    for b in basis:
        c = rng.randrange(p)
        if c:
            f = f.add(b.scale(c))
    return f


def test_criterion_6_strong_projectivity():
    """Every projective generator (and Lambda itself) sees exactness
    through weak cokernels of 50 seeded morphisms; 100 percent pass."""
    alg, mods, m3 = a3_setup()
    rng = random.Random(6)
    projectives = [mods["P0"], mods["P1"], mods["P2"], regular_module(alg)]
    passes = 0
    total = 0
    for _ in range(50):
        f = _random_m_morphism(m3, rng)
        for p_mod in projectives:
            ok, _ = strong_projectivity_check(p_mod, f, m3)
            total += 1
            passes += ok
    # negative control: a non-projective fails somewhere
    from nexakt.addcat import weak_cokernel
    f = hom_basis(mods["P2"], mods["S2"])[0]
    g = weak_cokernel(f, m3)
    neg_ok, ranks = hom_exact_at_middle(mods["S2"], f, g)
    report(6, passes == total == 200 and not neg_ok,
           f"{passes}/{total} projective Hom-sequences exact; "
           f"non-projective negative control found: Hom(S2,-) on "
           f"P2 ->> S2 -> 0 fails (kernel {ranks['kernel_dim']}, "
           f"image {ranks['rank_in']})")


# -- criterion 7 ------------------------------------------------------------


def test_criterion_7_frobenius():
    """Pi_2 Frobenius pipeline: setup, periodic cosyzygy, standard angle,
    rotation, completion + cone; all exact."""
    alg, mods, m = pi2_setup()
    indecs = nakayama_indecomposables(alg)
    ctx = check_frobenius_setup(alg, m, 2, indecs, seed=1)
    s1 = mods["S1"]
    periodic = are_isomorphic(cosyzygy(ctx, s1, 2), s1, seed=7)
    assert periodic
    # the literal 4-angle S1 -> P2 -> P1 -> S1 -> Sigma S1
    x = pi2_sequence(mods)
    induced = angle_from_n_exact(ctx, x)
    assert [o.dim_vector() for o in induced.objects] == \
        [(1, 0), (1, 1), (1, 1), (1, 0)]
    ok_induced, _ = verify_angle_exact(ctx, induced)
    assert ok_induced
    # pushout-standard angle on the socle inclusion and its rotation
    alpha0 = hom_basis(s1, mods["P2"])[0]
    angle = standard_angle(ctx, alpha0)
    ok_angle, _ = verify_angle_exact(ctx, angle)
    assert ok_angle
    rot = rotate_angle(ctx, angle)
    ok_rot, _ = verify_angle_exact(ctx, rot)
    assert ok_rot
    phi = complete_angle_morphism(ctx, angle, angle,
                                  identity_morphism(angle.objects[0]),
                                  identity_morphism(angle.objects[1]))
    cone, table = angle_cone(ctx, phi)
    ok_cone = all(rec["exact"] for rec in table)
    report(7, ok_induced and ok_angle and ok_rot and ok_cone,
           "setup ok; mho^2(S1) = S1; 4-angle S1->P2->P1->S1->S1, its "
           "rotation and the identity cone all verify exactly")


# -- criterion 8 ------------------------------------------------------------


def _sequence_pool(alg, mods, cat, seq):
    gens = cat.generators
    pool = [seq]
    for k in (0, 1, 2):
        pad = pad_complex(interval_complex(k, gens[k % len(gens)]), 0, 3)
        pool.append(direct_sum_complexes(seq, pad))
    pool.append(pad_complex(interval_complex(1, gens[0]), 0, 3))
    return pool


def _padded_cokernel_top(d0, cat, n, pad_deg, pad_mod):
    """Assemble (d0, alternative padded n-cokernel) as a full complex."""
    from nexakt.fp import Mat
    from nexakt.reps import Morphism
    tail = n_cokernel(d0, cat, n)
    pad = pad_complex(interval_complex(pad_deg, pad_mod), 1, n + 1)
    padded_tail = direct_sum_complexes(tail, pad)
    first = padded_tail.term(1)
    p = d0.source.algebra.p
    incl = Morphism(tail.terms[0], first, {
        v: Mat.from_blocks([tail.terms[0].dims[v], pad.term(1).dims[v]],
                           [tail.terms[0].dims[v]],
                           {(0, 0): Mat.identity(tail.terms[0].dims[v], p)}, p)
        for v in d0.source.algebra.quiver.vertices})
    new_d0 = d0.then(incl)
    return ComplexSeq(0, [d0.source] + [padded_tail.term(k)
                                        for k in range(1, n + 2)],
                      [new_d0] + [padded_tail.diff(k) for k in range(1, n + 1)])


def test_criterion_8_closure_properties():
    """200 seeded closure instances across Lambda_3 and Pi_2, no violations."""
    rng = random.Random(88)
    violations = 0
    instances = 0
    setups = []
    for setup, seqfn in ((a3_setup, a3_sequence), (pi2_setup, pi2_sequence)):
        alg, mods, cat = setup()
        seq = seqfn(mods)
        setups.append((alg, mods, cat, _sequence_pool(alg, mods, cat, seq)))

    # direct sums: 60
    for _ in range(30):
        for alg, mods, cat, pool in setups:
            x = pool[rng.randrange(len(pool))]
            y = pool[rng.randrange(len(pool))]
            instances += 1
            if not verify_n_exact(direct_sum_complexes(x, y), cat, 2).ok:
                violations += 1

    # direct summands: 40
    for _ in range(20):
        for alg, mods, cat, pool in setups:
            x = pool[rng.randrange(len(pool))]
            y = pool[rng.randrange(len(pool))]
            total = direct_sum_complexes(x, y)
            instances += 1
            if not (verify_n_exact(total, cat, 2).ok
                    and verify_n_exact(x, cat, 2).ok
                    and verify_n_exact(y, cat, 2).ok):
                violations += 1

    # weak isomorphisms: 40 (two n-cokernels of one d0 are homotopy
    # equivalent via comparison homotopies in both directions)
    for _ in range(20):
        for alg, mods, cat, pool in setups:
            x = pool[rng.randrange(len(pool))]
            pad = pad_complex(
                interval_complex(1 + rng.randrange(2),
                                 cat.generators[rng.randrange(len(cat.generators))]),
                0, 3)
            y = direct_sum_complexes(x, pad)
            fwd = complete_to_chain_map(x, y, corner_identity(x, y))
            back = complete_to_chain_map(y, x, corner_identity(y, x))
            instances += 1
            h1 = comparison_homotopy(fwd.then(back),
                                     identity_complex_morphism(x))
            h2 = comparison_homotopy(back.then(fwd),
                                     identity_complex_morphism(y))
            if not (verify_homotopy(fwd.then(back),
                                    identity_complex_morphism(x), h1)
                    and verify_homotopy(back.then(fwd),
                                        identity_complex_morphism(y), h2)):
                violations += 1

    # obscure axiom: 40 (top row with equal bottom corner and an
    # n-cokernel tail inherits admissibility)
    for _ in range(20):
        for alg, mods, cat, pool in setups:
            x = pool[rng.randrange(len(pool))]
            d0 = x.diff(0)
            pad_deg = 1 + rng.randrange(2)
            pad_mod = cat.generators[rng.randrange(len(cat.generators))]
            top = _padded_cokernel_top(d0, cat, 2, pad_deg, pad_mod)
            instances += 1
            if not verify_n_exact(top, cat, 2).ok:
                violations += 1

    # pushout extension: 20 (pushout of a verified sequence extends to a
    # verified sequence ending at the same X^{n+1})
    for _ in range(10):
        for alg, mods, cat, pool in setups:
            x = pool[rng.randrange(len(pool))]
            head = ComplexSeq(0, [x.term(0), x.term(1), x.term(2)],
                              [x.diff(0), x.diff(1)])
            g = cat.generators[rng.randrange(len(cat.generators))]
            basis = hom_basis(x.term(0), g)
            f0 = zero_morphism(x.term(0), g)
            for b in basis:
                c = rng.randrange(cat.algebra.p)
                if c:
                    f0 = f0.add(b.scale(c))
            y, f = n_pushout(head, f0, cat)
            basis_d = hom_basis(y.term(2), x.term(3))
            eq1 = [f.component(2).then(b) for b in basis_d]
            eq2 = [y.diff(1).then(b) for b in basis_d]
            coeffs = solve_rows(
                [[e.vectorize() for e in eq1], [e.vectorize() for e in eq2]],
                [x.diff(2).vectorize(),
                 zero_morphism(y.term(1), x.term(3)).vectorize()],
                cat.algebra.p)
            instances += 1
            if coeffs is None:
                violations += 1
                continue
            d_last = assemble_from_span(basis_d, coeffs, y.term(2), x.term(3))
            extended = ComplexSeq(0, [y.term(0), y.term(1), y.term(2),
                                      x.term(3)],
                                  [y.diff(0), y.diff(1), d_last])
            if not verify_n_exact(extended, cat, 2).ok:
                violations += 1

    report(8, instances == 200 and violations == 0,
           f"{instances} seeded closure instances "
           f"(sums/summands/weak isos/obscure axiom/pushout extension), "
           f"{violations} violations")


# -- criterion 9 ------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    """Byte-identical certificates across two runs with one seed; the seed
    appears in the certificate."""
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_main(["demo", "a3-j2", "--seed", "42", "--out", str(out1)]) == 0
    assert cli_main(["demo", "a3-j2", "--seed", "42", "--out", str(out2)]) == 0
    b1 = (out1 / "demo-a3-j2.cert.json").read_bytes()
    b2 = (out2 / "demo-a3-j2.cert.json").read_bytes()
    payload = json.loads(b1)
    report(9, b1 == b2 and payload["seed"] == 42,
           "demo certificates byte-identical across runs; seed recorded")
