import pytest

from nexakt.complexes import (ComplexMorphism, ComplexSeq, Homotopy,
                              chain_map_space, complex_from_maps, mapping_cone,
                              pad_complex, verify_homotopy)
from nexakt.presets import gen_linear_An_J2
from nexakt.reps import (hom_basis, identity_morphism, projective_module,
                         simple_module, zero_morphism)

from conftest import (a3_sequence, direct_sum_complexes,
                      identity_complex_morphism, interval_complex, only_hom)


def test_complex_condition_enforced(a3):
    p1 = projective_module(a3, "1")
    with pytest.raises(ValueError):
        complex_from_maps(0, [identity_morphism(p1), identity_morphism(p1)])


def test_complex_refuses_a_wrong_differential_count(a3):
    p1, p2 = projective_module(a3, "1"), projective_module(a3, "2")
    with pytest.raises(ValueError, match="differential count mismatch"):
        ComplexSeq(0, [p1, p2], [])


def test_complex_refuses_an_empty_term_list():
    # with no term, .algebra and .term(k) raised IndexError
    with pytest.raises(ValueError, match="a complex needs at least one term"):
        ComplexSeq(0, [], [])


def test_complex_morphism_refuses_bad_components(a3):
    p1, p2 = projective_module(a3, "1"), projective_module(a3, "2")
    x = complex_from_maps(0, [only_hom(p1, p2)])
    with pytest.raises(ValueError, match="square at degree 0 does not commute"):
        ComplexMorphism(x, x, {0: identity_morphism(p1)})
    with pytest.raises(ValueError,
                       match="component at degree 0 has wrong endpoints"):
        ComplexMorphism(x, x, {0: identity_morphism(p2)})


def test_m3_sequence_builds(a3_mods):
    assert [t.dim_vector() for t in a3_sequence(a3_mods).terms] == \
        [(1, 0, 0), (1, 1, 0), (0, 1, 1), (0, 0, 1)]


def test_cone_of_identity_is_contractible(a3, a3_mods):
    x = a3_sequence(a3_mods)
    cone = mapping_cone(identity_complex_morphism(x))
    # cone terms X^{k+1} + X^k; total dimension doubles
    assert sum(t.total_dim for t in cone.terms) == 2 * sum(t.total_dim for t in x.terms)
    # contractible: identity is null-homotopic with h = projection to X^{k}
    # here we just check exactness vertex-wise
    for k in range(cone.lo, cone.hi):
        d_out = cone.diff(k)
        d_in = cone.diff(k - 1)
        from nexakt.fp import rank
        for v in "012":
            dim_ker = d_out.components[v].cols - rank(d_out.components[v])
            assert rank(d_in.components[v]) == dim_ker or k == cone.lo


def test_cone_of_zero_is_direct_sum(a3, a3_mods):
    x = a3_sequence(a3_mods)
    f = ComplexMorphism(x, x, {})
    cone = mapping_cone(f)
    for k in cone.degrees():
        assert cone.term(k).total_dim == x.term(k + 1).total_dim + x.term(k).total_dim
        dk = cone.diff(k)
        # block diagonal: the off-diagonal corner (f-component) vanishes
        for v in "012":
            m = dk.components[v]
            a_rows = x.term(k + 2).dims[v]
            a_cols = x.term(k + 1).dims[v]
            for i in range(a_rows, m.rows):
                for j in range(a_cols):
                    pass  # f block is below the diagonal; zero when f = 0
            assert f.component(k + 1).is_zero()


def test_verify_homotopy_trivial_cases(a3_mods):
    x = a3_sequence(a3_mods)
    f = identity_complex_morphism(x)
    assert verify_homotopy(f, f, Homotopy(x, x, {}))
    g = ComplexMorphism(x, x, {})
    assert not verify_homotopy(f, g, Homotopy(x, x, {}))


def test_interval_complex_and_padding(a3):
    c = projective_module(a3, "1")
    i1 = interval_complex(1, c)
    padded = pad_complex(i1, 0, 3)
    assert padded.term(0).total_dim == 0
    assert padded.term(1).dim_vector() == c.dim_vector()
    assert padded.term(2).dim_vector() == c.dim_vector()
    assert padded.term(3).total_dim == 0
    assert padded.diff(1).is_injective() and padded.diff(1).is_surjective()


def test_direct_sum_complexes(a3, a3_mods):
    x = a3_sequence(a3_mods)
    s = direct_sum_complexes(x, x)
    for k in x.degrees():
        assert s.term(k).total_dim == 2 * x.term(k).total_dim


def test_chain_map_space_solves_the_square_above_the_source(a3):
    # x is one term in degree 0 and y goes on to degree 1, so a chain map
    # needs f^0 d_Y^0 = 0: End(P1) has none but 0, as P1 -> S1 is its top,
    # while S1 -> P2 (the socle) composed with P2 -> S2 (the top) is zero
    p1, p2 = projective_module(a3, "1"), projective_module(a3, "2")
    s1, s2 = simple_module(a3, "1"), simple_module(a3, "2")
    assert chain_map_space(ComplexSeq(0, [p1], []),
                           complex_from_maps(0, [only_hom(p1, s1)])) == []
    x = ComplexSeq(0, [s1], [])
    y = complex_from_maps(0, [only_hom(p2, s2)])
    (f,) = chain_map_space(x, y)
    assert ComplexMorphism(x, y, f.components).component(0).is_injective()


def test_padding_and_homotopy_refuse_mismatched_ranges(a3_mods):
    x = a3_sequence(a3_mods)
    with pytest.raises(ValueError, match="pad_complex only extends the range"):
        pad_complex(x, 1, 3)
    with pytest.raises(ValueError, match="pad_complex only extends the range"):
        pad_complex(x, 0, 2)
    shifted = ComplexSeq(1, list(x.terms), list(x.diffs))
    with pytest.raises(ValueError, match="homotopy endpoints mismatch"):
        verify_homotopy(identity_complex_morphism(x),
                        identity_complex_morphism(shifted), Homotopy(x, x, {}))


def test_homotopy_between_maps_on_other_complexes_is_refused():
    # over K A_3/J^2: the identities of P1 -d-> P2 (d nonzero) and of
    # P1 -0-> P2 have equal components, so a check that compares only lo
    # certified the empty homotopy between them
    alg = gen_linear_An_J2(2, 1)[0]
    p1, p2 = projective_module(alg, "1"), projective_module(alg, "2")
    x = complex_from_maps(0, [hom_basis(p1, p2)[0]])
    z = complex_from_maps(0, [zero_morphism(p1, p2)])
    f, g = identity_complex_morphism(x), identity_complex_morphism(z)
    for other, h in ((g, Homotopy(x, x, {})), (f, Homotopy(z, x, {})),
                     (f, Homotopy(x, z, {}))):
        with pytest.raises(ValueError, match="homotopy endpoints mismatch"):
            verify_homotopy(f, other, h)
    # equal content is enough: a copy of x built on its own is accepted
    copy = complex_from_maps(0, [hom_basis(p1, p2)[0]])
    assert verify_homotopy(f, identity_complex_morphism(copy), Homotopy(copy, copy, {}))
