import random

import pytest

from nexakt import reps, resolutions
from nexakt.fp import Mat
from nexakt.presets import (gen_linear_An_J2, gen_preprojective_A,
                            nakayama_algebra, nakayama_indecomposables)
from nexakt.reps import (Module, all_projectives, direct_sum, hom_basis,
                         in_add, injective_module, projective_module,
                         simple_module, zero_module, zero_morphism)
from nexakt.resolutions import (cosyzygy_of, ext_dim, injective_envelope,
                                is_projective, min_injective_coresolution,
                                min_projective_resolution, projective_cover,
                                syzygy)

from conftest import (are_isomorphic, in_random_basis, kronecker_field_module,
                      linear_a3_j2, preprojective_a2, random_quotient)


def test_resolution_of_s2_over_a3(a3):
    s2 = simple_module(a3, "2")
    res = min_projective_resolution(s2, 3)
    dims = [t.dim_vector() for t in res.terms]
    assert dims == [(0, 1, 1), (1, 1, 0), (1, 0, 0), (0, 0, 0)]  # P2, P1, P0, 0


def test_resolution_of_projective_has_length_zero(a3):
    p1 = projective_module(a3, "1")
    res = min_projective_resolution(p1, 2)
    assert res.terms[0].dim_vector() == p1.dim_vector()
    assert res.terms[1].total_dim == 0
    assert res.terms[2].total_dim == 0


def test_periodic_resolution_over_pi2(pi2):
    s1 = simple_module(pi2, "1")
    res = min_projective_resolution(s1, 3)
    dims = [t.dims for t in res.terms]
    p1 = projective_module(pi2, "1")
    p2 = projective_module(pi2, "2")
    # rad P1 = S2, rad P2 = S1: covers alternate P1, P2, P1, P2, ...
    assert dims[0] == p1.dims
    assert dims[1] == p2.dims
    assert dims[2] == p1.dims
    assert dims[3] == p2.dims


def test_coresolution_of_s1_over_pi2_is_periodic(pi2):
    s1 = simple_module(pi2, "1")
    cores = min_injective_coresolution(s1, 2)
    p1 = projective_module(pi2, "1")
    p2 = projective_module(pi2, "2")
    # selfinjective: I(S1) = P2 (socle S1), then P1
    assert cores.terms[0].dims == p2.dims
    assert cores.terms[1].dims == p1.dims
    assert are_isomorphic(cosyzygy_of(s1, 2), s1, seed=2)


def test_coresolution_of_injective_has_length_zero(a3):
    i1 = injective_module(a3, "1")
    cores = min_injective_coresolution(i1, 2)
    assert cores.terms[0].dim_vector() == i1.dim_vector()
    assert cores.terms[1].total_dim == 0


def test_coresolution_of_s0_over_a3(a3):
    s0 = simple_module(a3, "0")
    cores = min_injective_coresolution(s0, 1)
    assert cores.terms[0].dim_vector() == (1, 1, 0)
    cok = cosyzygy_of(s0, 1)
    assert cok.dim_vector() == (0, 1, 0)  # S1


def test_ext1_s1_s0(a3_mods):
    assert ext_dim(a3_mods["S1"], a3_mods["S0"], 1) == 1


def test_ext_of_projective_vanishes(a3):
    p1 = projective_module(a3, "1")
    for k in (1, 2, 3):
        for v in "012":
            assert ext_dim(p1, simple_module(a3, v), k) == 0


def test_ext1_s2_s0_vanishes(a3):
    assert ext_dim(simple_module(a3, "2"), simple_module(a3, "0"), 1) == 0


def test_ext0_is_hom(a3_mods):
    p1, p2 = a3_mods["P1"], a3_mods["P2"]
    assert ext_dim(p1, p2, 0) == 1
    assert ext_dim(p2, p1, 0) == 0
    with pytest.raises(ValueError, match="negative Ext degree"):
        ext_dim(p1, p2, -1)


def test_syzygy_chain(a3):
    s2 = simple_module(a3, "2")
    assert syzygy(s2, 1).dim_vector() == (0, 1, 0)  # S1
    assert syzygy(s2, 2).dim_vector() == (1, 0, 0)  # S0
    assert syzygy(s2, 3).total_dim == 0


def test_negative_degrees_are_refused_before_and_after_the_chain_grows():
    # K A_4/J^2 at p = 101: syzygy(S3, -1) read S3 on a fresh chain and
    # (0, 1, 0, 0) once the chain held Omega^2 S3; cosyzygy_of(S0, -1) read
    # (1, 0, 0, 0), then (0, 0, 1, 0); negative lengths gave empty records
    alg = nakayama_algebra(4, 2)
    s3, s0 = simple_module(alg, "3"), simple_module(alg, "0")
    for grown in (False, True):
        with pytest.raises(ValueError, match="negative syzygy degree"):
            syzygy(s3, -1)
        with pytest.raises(ValueError, match="negative cosyzygy degree"):
            cosyzygy_of(s0, -1)
        with pytest.raises(ValueError, match="negative resolution degree"):
            min_projective_resolution(s3, -3)
        with pytest.raises(ValueError, match="negative coresolution degree"):
            min_injective_coresolution(s0, -2)
        if not grown:
            assert syzygy(s3, 2).dim_vector() == (0, 1, 0, 0)
            assert cosyzygy_of(s0, 2).dim_vector() == (0, 0, 1, 0)
    assert syzygy(s3, 0) is s3 and cosyzygy_of(s0, 0) is s0


def test_hom_cohomology_refuses_a_degree_outside_its_range():
    # four maps Q_3 -> Q_2 -> Q_1 -> Q_0 -> S3 give H^1 and H^2 only
    alg = nakayama_algebra(4, 2)
    s3, s2 = simple_module(alg, "3"), simple_module(alg, "2")
    maps = min_projective_resolution(s3, 3).maps
    for k in (1, 2):
        assert resolutions.hom_cohomology_dim(maps, s2, k) == ext_dim(s3, s2, k)
    for k in (-1, 0, 3):
        with pytest.raises(ValueError, match=rf"degree {k} outside 1\.\.2"):
            resolutions.hom_cohomology_dim(maps, s2, k)


def test_ext_grows_the_resolution_only_to_q_k_minus_1(a3, monkeypatch):
    covers = []
    real = resolutions.projective_cover
    monkeypatch.setattr(resolutions, "projective_cover",
                        lambda m: covers.append(m) or real(m))
    s2 = simple_module(a3, "2")
    assert ext_dim(s2, simple_module(a3, "1"), 1) == 1
    # Ext^1 needs Q_0 and Omega^1 s2 = ker(Q_0 -> s2): one cover
    assert len(covers) == 1


@pytest.mark.parametrize("p", [2, 101, 2**31 - 1])
def test_is_projective_matches_membership_in_add_of_the_projectives(p):
    # x is a sum of one to three of the P_v, I_v and simples (R too on the
    # Kronecker algebra) in a random basis, or a random quotient of a sum
    # of projectives; the reference is in_add over the P_v
    rng = random.Random(p)
    r = kronecker_field_module(p)
    verdicts = []
    for alg, extra in ((linear_a3_j2(p), []), (preprojective_a2(p), []),
                       (nakayama_algebra(6, 2, cyclic=True, p=p), []), (r.algebra, [r])):
        pool = list(all_projectives(alg)) + extra + [
            f(alg, v) for v in alg.quiver.vertices
            for f in (injective_module, simple_module)]
        xs = [in_random_basis(direct_sum(rng.choices(pool, k=rng.randint(1, 3))).module,
                              rng) for _ in range(12)]
        xs += [random_quotient(direct_sum(rng.choices(all_projectives(alg),
                                                      k=rng.randint(1, 2))).module,
                               rng) for _ in range(6)]
        xs.append(zero_module(alg))
        for x in xs:
            verdict = is_projective(x)
            assert verdict is in_add(x, all_projectives(alg)), (p, x.key)
            verdicts.append(verdict)
    assert verdicts.count(True) > 10 and verdicts.count(False) > 10


def test_cover_and_envelope_of_zero(a3):
    z = zero_module(a3)
    assert projective_cover(z).source.total_dim == 0
    assert injective_envelope(z).target.total_dim == 0


# -- each step is verified once, when it is appended ----------------------


def test_nonexact_resolution_step_rejected_when_appended(a3, monkeypatch):
    # a "kernel" that is zero makes the next step non-exact at Q_0
    monkeypatch.setattr(resolutions, "kernel_morphism", lambda f: (
        zero_module(a3), zero_morphism(zero_module(a3), f.source)))
    with pytest.raises(AssertionError, match="resolution not exact"):
        min_projective_resolution(simple_module(a3, "2"), 1)


def test_nonexact_coresolution_step_rejected_when_appended(a3, monkeypatch):
    monkeypatch.setattr(resolutions, "cokernel_morphism", lambda f: (
        zero_module(a3), zero_morphism(f.target, zero_module(a3))))
    with pytest.raises(AssertionError, match="coresolution not exact"):
        min_injective_coresolution(simple_module(a3, "1"), 2)


def test_reuse_rechecks_nothing(a3, monkeypatch):
    s2 = simple_module(a3, "2")
    first = min_projective_resolution(s2, 3)
    cores = min_injective_coresolution(s2, 2)

    def no_rank(_):
        raise AssertionError("a memoised step was checked again")
    monkeypatch.setattr(resolutions, "rank", no_rank)
    again = min_projective_resolution(s2, 3)
    assert [t is u for t, u in zip(again.terms, first.terms)] == [True] * 4
    assert min_injective_coresolution(s2, 2).maps == cores.maps
    assert syzygy(s2, 2) is syzygy(s2, 2)


def test_cut_copies_carry_the_syzygies_and_links(a3):
    # S2 over K A_3/J^2: 0 -> P0 -> P1 -> P2 -> S2 and 0 -> S0 -> I0 -> I1 -> I2
    s2, s0 = simple_module(a3, "2"), simple_module(a3, "0")
    res = min_projective_resolution(s2, 1)
    assert (len(res.terms), len(res.maps), len(res.links), len(res.syzygies)) == (2, 2, 2, 3)
    assert res.syzygies[0] is s2 and res.module is s2
    longer = min_projective_resolution(s2, 3)
    assert len(res.terms) == 2 and len(longer.syzygies) == 5
    for k, link in enumerate(longer.links):
        assert link.source is longer.syzygies[k + 1] is syzygy(s2, k + 1)
        assert link.target is longer.terms[k] and link.is_injective()
        assert link.then(longer.maps[k]).is_zero()
    cores = min_injective_coresolution(s0, 2)
    assert (len(cores.terms), len(cores.links), len(cores.syzygies)) == (2, 2, 3)
    for k, link in enumerate(cores.links):
        assert link.source is cores.terms[k] and link.is_surjective()
        assert link.target is cores.syzygies[k + 1] is cosyzygy_of(s0, k + 1)
        assert cores.maps[k].then(link).is_zero()


def test_ext_reads_one_resolution_per_question(monkeypatch):
    # Omega^k x, Q_{k-1} and Omega^{k-1} x come from one cut resolution,
    # whether Omega^k x is zero or not
    alg = nakayama_algebra(7, 3)
    indecs = list(nakayama_indecomposables(alg))
    calls = {"min_projective_resolution": 0, "_projective_chain": 0}
    for name in calls:
        real = getattr(resolutions, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(resolutions, name, counted)
    questions = [(x, y, k) for x in indecs[:6] for y in indecs[:6] for k in (1, 2, 3)]
    for x, y, k in questions:
        ext_dim(x, y, k)
    assert calls == dict.fromkeys(calls, len(questions))


def test_envelope_with_isotropic_socle_vector_is_iso():
    # P_2 + P_3 over the 6-cycle with J^2 = 0, in a basis whose socle at
    # vertex 3 is spanned by s = (1, 10); s.s = 101 = 0 in F_101, so the
    # functional <s, -> kills s and an envelope through it is not monic
    alg = nakayama_algebra(6, 2, cyclic=True, p=101)
    x = Module(alg, {"2": 1, "3": 2, "4": 1},
               {"a2": Mat(2, 1, (1, 10), 101), "a3": Mat(1, 2, (91, 1), 101)})
    env = injective_envelope(x)
    assert env.target.dims == x.dims
    assert env.is_injective() and env.is_surjective()


# -- reference: Ext dimensions from the Hom complex ---------------------


def _twisted_sums_a7_j3():
    """Four sums of two indecomposables over K A_7/J^3, in random bases,
    with the indecomposables themselves."""
    indecs = nakayama_indecomposables(nakayama_algebra(7, 3))
    rng = random.Random(7)
    sums = [in_random_basis(direct_sum([indecs[i] for i in rng.sample(
        range(len(indecs)), 2)])[0], rng) for _ in range(4)]
    return sums + list(indecs)


_EXT_REFERENCE_CASES = {
    "A7-J2": lambda: list(nakayama_indecomposables(gen_linear_An_J2(6, 1)[0])),
    "A7-J3": lambda: list(nakayama_indecomposables(nakayama_algebra(7, 3))),
    "C6-J2-p101": lambda: list(nakayama_indecomposables(nakayama_algebra(6, 2, cyclic=True))),
    "C5-J2-p2": lambda: list(nakayama_indecomposables(nakayama_algebra(5, 2, cyclic=True, p=2))),
    "Pi2": lambda: list(nakayama_indecomposables(gen_preprojective_A(2))),
    "A7-J3-twisted-sums": _twisted_sums_a7_j3,
}


@pytest.mark.parametrize("label", list(_EXT_REFERENCE_CASES))
def test_ext_dim_matches_hom_complex_of_resolution(label):
    # dim Ext^k(x, y) = dim H^k Hom(Q_., y) over the minimal resolution
    # grown to Q_{k+1}, for k = 1, 2, 3
    mods = _EXT_REFERENCE_CASES[label]()
    for x in mods:
        res = min_projective_resolution(x, 4)
        for y in mods:
            for k in (1, 2, 3):
                assert ext_dim(x, y, k) == resolutions.hom_cohomology_dim(
                    res.maps, y, k), (label, x.dims, y.dims, k)


@pytest.mark.parametrize("label", list(_EXT_REFERENCE_CASES))
def test_ext_dim_equals_the_three_hom_formula(label):
    # dim Ext^k(x, y) = dim Hom(Omega^k x, y) - dim Hom(Q_{k-1}, y)
    # + dim Hom(Omega^{k-1} x, y), also where Omega^k x = 0 and ext_dim
    # reads none of them
    mods = _EXT_REFERENCE_CASES[label]()
    for x in mods:
        res = min_projective_resolution(x, 3)
        for y in mods:
            for k in (1, 2, 3):
                assert ext_dim(x, y, k) == (
                    len(hom_basis(syzygy(x, k), y)) - len(hom_basis(res.terms[k - 1], y))
                    + len(hom_basis(syzygy(x, k - 1), y))), (label, x.dims, y.dims, k)


def test_ext_from_a_projective_solves_no_hom_space(monkeypatch):
    # Omega^k P_v = 0 for k >= 1, so Ext^k(P_v, y) = 0 is read off the
    # resolution: no Hom space is solved or read from the store
    alg = nakayama_algebra(7, 3)
    indecs = list(nakayama_indecomposables(alg))
    solves = []
    real = reps._solve_hom
    monkeypatch.setattr(reps, "_solve_hom", lambda m, n: solves.append((m, n)) or real(m, n))
    monkeypatch.setattr(resolutions, "hom_basis",
                        lambda m, n: pytest.fail("a Hom space was read"))
    for pv in all_projectives(alg):
        for y in indecs:
            for k in (1, 2, 3):
                assert ext_dim(pv, y, k) == 0
    assert solves == []
    # a module of projective dimension 1: Ext^2 and Ext^3 read nothing
    x = next(x for x in indecs if not syzygy(x, 1).is_zero() and syzygy(x, 2).is_zero())
    for y in indecs:
        assert ext_dim(x, y, 2) == ext_dim(x, y, 3) == 0
    assert solves == []
