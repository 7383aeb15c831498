import hashlib

import pytest

from nexakt.addcat import (DomainError, HypothesisError, PreconditionError,
                           add_category, contract, contravariant_fragment,
                           weak_cokernel)
from nexakt.certs import canonical_json, content_hash
from nexakt.complexes import (ComplexMorphism, ComplexSeq, complex_from_maps,
                              mapping_cone, pad_complex, verify_homotopy)
from nexakt.fileio import morphism_to_dict
from nexakt import addcat, frob, pushout, reps, resolutions
from nexakt.pushout import (_n_pushout, good_n_pushout, n_pushout,
                            pushout_factorization)
from nexakt.reps import (factor_through, hom_basis, identity_morphism,
                         simple_module, split_indecomposables, zero_module,
                         zero_morphism)

from conftest import (are_isomorphic, cyclic6_j2, identity_complex_morphism,
                      ref_pushout_ladder, ref_pushout_top_ok,
                      sweep_generator_maps)


def upper_complex(a3, a3_mods):
    """S0 -> P1 -> P2 in degrees 0..2."""
    d0 = hom_basis(a3_mods["S0"], a3_mods["P1"])[0]
    d1 = hom_basis(a3_mods["P1"], a3_mods["P2"])[0]
    return complex_from_maps(0, [d0, d1])


def test_pushout_along_identity(a3, m3, a3_mods):
    x = upper_complex(a3, a3_mods)
    y, f = n_pushout(x, identity_morphism(a3_mods["S0"]), m3)
    for k in range(3):
        assert are_isomorphic(y.term(k), x.term(k), seed=5)


def test_pushout_along_zero_map(a3, m3, a3_mods):
    x = upper_complex(a3, a3_mods)
    f0 = zero_morphism(a3_mods["S0"], zero_module(a3))
    y, f = n_pushout(x, f0, m3)
    assert y.term(0).total_dim == 0
    assert y.term(1).dim_vector() == (0, 1, 1)        # P2
    parts = sorted((count, part.dim_vector())
                   for part, count in split_indecomposables(y.term(2), seed=3))
    assert parts == [(1, (0, 0, 1)), (1, (0, 1, 1))]  # P2 + S2
    cone = mapping_cone(f)
    assert contravariant_fragment(list(cone.diffs), m3.generators).ok


def test_pushout_along_the_same_mono(a3, m3, a3_mods):
    x = upper_complex(a3, a3_mods)
    f0 = hom_basis(a3_mods["S0"], a3_mods["P1"])[0]
    y, f = n_pushout(x, f0, m3)
    assert y.term(0).dim_vector() == (1, 1, 0)
    cone = mapping_cone(f)
    assert contravariant_fragment(list(cone.diffs), m3.generators).ok


def test_pushout_preserves_mono(a3, m3, a3_mods):
    x = upper_complex(a3, a3_mods)
    f0 = hom_basis(a3_mods["S0"], a3_mods["P1"])[0]
    y, _ = n_pushout(x, f0, m3)
    assert y.diff(0).is_injective()


def test_good_pushout_padding(a3, m3, a3_mods):
    x = upper_complex(a3, a3_mods)
    f0 = zero_morphism(a3_mods["S0"], zero_module(a3))
    padded, ftilde, padding = good_n_pushout(x, f0, m3)
    # degree 1 gains an X^2 = P2 padding summand
    assert padded.term(1).dim_vector() == (0, 2, 2)   # P2 + P2
    assert padded.term(2).dim_vector() == (0, 2, 3)   # (P2 + S2) + P2
    # padding is contractible
    full = pad_complex(padding, x.lo, x.lo + 3)
    h = contract(full, m3)
    assert h is not None


def test_good_pushout_trivial_when_x_short(a3, m3, a3_mods):
    d0 = hom_basis(a3_mods["S0"], a3_mods["P1"])[0]
    x = complex_from_maps(0, [d0])
    padded, ftilde, padding = good_n_pushout(x, identity_morphism(a3_mods["S0"]), m3)
    assert padding.term(0).total_dim == 0


def test_good_pushout_along_identity_contracts(a3, m3, a3_mods):
    x = upper_complex(a3, a3_mods)
    padded, ftilde, padding = good_n_pushout(x, identity_morphism(a3_mods["S0"]), m3)
    full = pad_complex(padding, x.lo, x.lo + 3)
    assert contract(full, m3) is not None


def test_pushout_failing_at_the_top_names_the_degree(a3, m3, a3_mods):
    # S0 -> P1 pushed out along itself: Hom(Y^1, G) -> Hom(C^0, G) is not
    # injective for some generator G, so the failure is at degree lo + n
    d0 = hom_basis(a3_mods["S0"], a3_mods["P1"])[0]
    with pytest.raises(HypothesisError) as exc:
        n_pushout(complex_from_maps(0, [d0]), d0, m3)
    assert exc.value.degree == 1


def test_pushout_refuses_inputs_outside_its_domain(a3, m3, a3_mods):
    # S1 lies outside M = add(P0 + P1 + P2 + S2)
    x = upper_complex(a3, a3_mods)
    s1 = simple_module(a3, "1")
    with pytest.raises(PreconditionError, match="at least two terms"):
        n_pushout(ComplexSeq(0, [a3_mods["P1"]], []), identity_morphism(a3_mods["P1"]), m3)
    with pytest.raises(DomainError, match="pushout input term 0 not in add"):
        n_pushout(complex_from_maps(0, [hom_basis(s1, a3_mods["P2"])[0]]),
                  identity_morphism(s1), m3)
    with pytest.raises(PreconditionError, match="f0 must start at the degree-0"):
        n_pushout(x, identity_morphism(a3_mods["P1"]), m3)
    with pytest.raises(DomainError, match="pushout target of f0 not in add"):
        n_pushout(x, zero_morphism(a3_mods["S0"], s1), m3)


def test_factorization_with_itself(a3, m3, a3_mods):
    x = upper_complex(a3, a3_mods)
    f0 = hom_basis(a3_mods["S0"], a3_mods["P1"])[0]
    y, f = n_pushout(x, f0, m3)
    p, h = pushout_factorization(f, f)
    assert p.component(0).is_injective() and p.component(0).is_surjective()
    assert verify_homotopy(f.then(p), f, h)


def test_factorization_to_another_completion(a3, m3, a3_mods):
    x = upper_complex(a3, a3_mods)
    f0 = zero_morphism(a3_mods["S0"], zero_module(a3))
    y, f = n_pushout(x, f0, m3)
    # alternative completion: g = f followed by an automorphism of y fixing
    # degree 0 (scaling degree >= 1 terms is not a chain map in general, so
    # use the identity automorphism composed with itself)
    g = f.then(identity_complex_morphism(y))
    p, h = pushout_factorization(f, g)
    assert verify_homotopy(f.then(p), g, h)


def test_pushout_solves_membership_only_for_the_given_objects(a3, m3, a3_mods,
                                                            monkeypatch):
    from nexakt.reps import Module, Morphism, block_morphism, direct_sum
    p1, p2, s0, s2 = a3_mods["P1"], a3_mods["P2"], a3_mods["S0"], a3_mods["S2"]
    sums = [direct_sum(parts) for parts in ([p1, s2], [p2, s2], [p1, p1])]
    # user-built copies of the sums' content, made while the sums live
    x1, x2, y0 = (Module(a3, t.module.dims, t.module.action) for t in sums)
    incl = hom_basis(s0, p1)[0]
    d0 = block_morphism(s0, sums[0], {(0, 0): incl})
    d1 = block_morphism(sums[0], sums[1], {(0, 0): hom_basis(p1, p2)[0],
                                           (1, 1): identity_morphism(s2)})
    f0 = block_morphism(s0, sums[2], {(1, 0): incl})
    x = complex_from_maps(0, [Morphism(s0, x1, d0.components),
                              Morphism(x1, x2, d1.components)])
    solve = reps._approximation_is_iso
    solved = []                                   # ids: equal content is ==
    monkeypatch.setattr(reps, "_approximation_is_iso",
                        lambda m, gens: solved.append(id(m)) or solve(m, gens))
    y, f = n_pushout(x, Morphism(s0, y0, f0.components), m3)
    # S0 has the content of the generator P0, the copies x1, x2 and y0 share
    # the records of the sums alive beside them, and every other object
    # that n_pushout checks is a sum of generators: no solve at all
    assert solved == []
    assert y.term(0) is y0 and y.diff(0).then(y.diff(1)).is_zero()


# -- the reference sweep ------------------------------------------------------


def _cone_is_exact(f, m):
    return contravariant_fragment(list(mapping_cone(f).diffs), m.generators).ok


def _checked(*maps):
    """Rebuild chain maps, and their complexes, through the checked
    constructors, which raise unless d d = 0 and every square commutes."""
    for f in maps:
        x, y = (ComplexSeq(z.lo, z.terms, z.diffs) for z in (f.source, f.target))
        ComplexMorphism(x, y, f.components)


# Recorded while n_pushout re-certified its whole cone and good_n_pushout
# its padded cone, and unchanged since both check only the cone's top: one
# sha256 over the labels and maps (y's differentials, f's components) of
# the pushouts returned, and the content hash of the labels of the 16 that
# raise, all of them at the top.
SWEEP_KEPT_SHA256 = "982392b431625b7fbb5642446add18eff9bc49d50aa3357e0c4dc18fa9404d58"
SWEEP_FAILED_SHA256 = "a2f9d65621e9af9a8f0a01cc0cfe6747fb0274d171abbcb282ab39a9376f7afe"


def test_sweep_pushouts_keep_their_maps():
    # x is d or (d, its weak cokernel), f0 every Hom-basis map from the
    # source of d to a generator; each pushout and good pushout, built
    # unchecked, passes the checked constructors.  The top check, read
    # from stored Hom dimensions, agrees with the reference rank test on
    # every case, and each pushout has the reference ladder's maps (the
    # column blocks of w are its composites with the inclusions)
    kept, failed, count = hashlib.sha256(), [], 0
    for label, m, d in sweep_generator_maps():
        for x in (complex_from_maps(0, [d]),
                  complex_from_maps(0, [d, weak_cokernel(d, m)])):
            n = len(x.diffs)
            for t, g in enumerate(m.generators):
                for c, f0 in enumerate(hom_basis(d.source, g)):
                    count += 1
                    key = label + [n, t, c]
                    y_diffs, f_comps, w = ref_pushout_ladder(x, f0, m)
                    try:
                        y, f = n_pushout(x, f0, m)
                    except HypothesisError as exc:
                        assert exc.degree == x.lo + n, key
                        assert not ref_pushout_top_ok(w, m), key
                        failed.append(key)
                        continue
                    assert ref_pushout_top_ok(w, m), key
                    for got, want in zip(y.diffs + [f.component(k) for k in x.degrees()],
                                         y_diffs + f_comps, strict=True):
                        assert got.source is want.source, key
                        assert got.target is want.target, key
                        assert got.components == want.components, key
                    assert _cone_is_exact(f, m), key
                    _checked(f)
                    if n == 2:
                        _, ftilde, padding = good_n_pushout(x, f0, m)
                        assert _cone_is_exact(ftilde, m), key
                        _checked(ftilde, identity_complex_morphism(padding))
                        comp = ftilde.component(2)
                        assert factor_through(identity_morphism(comp.source),
                                              comp) is not None, key
                    kept.update(canonical_json(
                        [key, [morphism_to_dict(u) for u in y.diffs],
                         [morphism_to_dict(f.component(k))
                          for k in x.degrees()]]).encode())
    assert (count, len(failed)) == (2976, 16)
    assert kept.hexdigest() == SWEEP_KEPT_SHA256
    assert content_hash(failed) == SWEEP_FAILED_SHA256


def _c6_cases():
    """n-pushouts over C_6/J^2 at p = 101, M = Lambda + S_0 + S_2 + S_4:
    S_0 -> P_5 -> P_4 (alpha and its weak cokernel) along alpha, which
    passes, and P_0 -> P_5 along its map, which fails at the top."""
    alg, gens = cyclic6_j2()
    m = add_category(alg, gens)
    alpha, e0 = hom_basis(gens[6], gens[5])[0], hom_basis(gens[0], gens[5])[0]
    return m, [(complex_from_maps(0, [alpha, weak_cokernel(alpha, m)]), alpha),
               (complex_from_maps(0, [e0]), e0)]


def test_n_pushout_builds_no_inclusion_and_takes_no_rank(a3, m3, a3_mods,
                                                        monkeypatch):
    x = upper_complex(a3, a3_mods)
    s0 = a3_mods["S0"]
    cases = [(m3, [(x, identity_morphism(s0)),
                   (x, zero_morphism(s0, zero_module(a3))),
                   (x, hom_basis(s0, a3_mods["P1"])[0]),
                   (complex_from_maps(0, [x.diff(0)]), x.diff(0))]),
             _c6_cases()]
    calls = []

    def spy(name, fn):
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)
    for name in ("identity_morphism", "hom_dims_and_ranks"):
        fn = getattr(reps, name)
        for mod in (addcat, frob, pushout, reps, resolutions):
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, spy(name, fn))
    outcomes = []
    for m, xs in cases:
        for x, f0 in xs:
            try:
                _n_pushout(x, f0, m)
                outcomes.append(None)
            except HypothesisError as exc:
                outcomes.append(exc.degree)
    assert outcomes == [None, None, None, 1, None, 1]
    assert calls == []


def test_factorization_refuses_completions_that_differ_in_degree_0(a3, m3, a3_mods):
    x = upper_complex(a3, a3_mods)
    d0 = hom_basis(a3_mods["S0"], a3_mods["P1"])[0]
    _, f = n_pushout(x, d0, m3)
    _, g = n_pushout(x, zero_morphism(a3_mods["S0"], zero_module(a3)), m3)
    with pytest.raises(PreconditionError, match="degree-0 targets differ"):
        pushout_factorization(f, g)
    _, g = n_pushout(x, d0.scale(2), m3)
    with pytest.raises(PreconditionError,
                       match="f and g must share the degree-0 component"):
        pushout_factorization(f, g)


def test_factorization_refuses_a_g_from_another_complex(a3, m3, a3_mods, monkeypatch):
    # x and x' = (2 d^0, d^1) are both pushed out along id_S0, so f and g
    # share their degree-0 target and component; g starts at x', not at x,
    # and is refused before any solve (it reached the solver, which blamed
    # the hypotheses: "factorization stuck at degree 0")
    x = upper_complex(a3, a3_mods)
    other = complex_from_maps(0, [x.diff(0).scale(2), x.diff(1)])
    ident = identity_morphism(a3_mods["S0"])
    _, f = n_pushout(x, ident, m3)
    _, g = n_pushout(other, ident, m3)
    monkeypatch.setattr(pushout, "solve_rows",
                        lambda *args: pytest.fail("solved for a refused g"))
    with pytest.raises(PreconditionError,
                       match="g must start at the source complex of f"):
        pushout_factorization(f, g)
    monkeypatch.undo()
    # a g from a copy of x, equal by content, is accepted
    copy = complex_from_maps(0, list(x.diffs))
    _, g = n_pushout(copy, ident, m3)
    p, h = pushout_factorization(f, g)
    assert verify_homotopy(f.then(p), g, h)
