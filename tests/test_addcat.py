import hashlib
import random
from itertools import combinations_with_replacement

import pytest

from nexakt.addcat import (DomainError, HypothesisError, PreconditionError,
                           add_category, comparison_homotopy, contract,
                           n_cokernel,
                           n_kernel, minimal_left_approximation,
                           minimal_right_approximation, verify_n_cokernel,
                           verify_n_exact, verify_n_kernel, weak_cokernel,
                           weak_kernel)
from nexakt.complexes import (ComplexSeq, ComplexMorphism, complex_from_maps,
                              pad_complex, verify_homotopy)
from nexakt.certs import canonical_json, content_hash
from nexakt.fileio import morphism_to_dict
from nexakt import quivers, reps
from nexakt.fp import Mat
from nexakt.frob import check_frobenius_setup, standard_angle
from nexakt.presets import (gen_linear_An_J2, nakayama_algebra,
                            nakayama_indecomposables)
from nexakt.reps import (Module, _composite_table, _peel_superfluous,
                         block_morphism, composite_rows, direct_sum,
                         hom_basis, hom_dims_and_ranks, identity_morphism,
                         in_add, injective_module, projective_module,
                         rows_rank, simple_module, solve_rows,
                         stack_morphisms_from_sum, stack_morphisms_to_sum,
                         zero_module, zero_morphism)
from nexakt.tilting import check_n_cluster_tilting

from conftest import (a3_sequence, complete_to_chain_map, corner_identity,
                      direct_sum_complexes, equals, identity_complex_morphism,
                      in_random_basis, interval_complex, kronecker_algebra,
                      kronecker_field_module, only_hom, pick,
                      preprojective_a2, sweep_generator_maps)


# -- AddCat construction --------------------------------------------------


def test_add_category_flags(a3, m3):
    report = check_n_cluster_tilting(m3, 2, nakayama_indecomposables(a3))
    assert report.generating_failures == []      # every P_v lies in add(M)
    assert report.cogenerating_failures == []    # I0, I1 = P1, P2 shifts; I2 = S2


def test_add_category_rejects_decomposable(a3, a3_mods):
    big = direct_sum([a3_mods["P1"], a3_mods["S2"]])[0]
    with pytest.raises(ValueError):
        add_category(a3, [big], seed=0)


def test_add_category_rejects_duplicates(a3, a3_mods):
    with pytest.raises(ValueError):
        add_category(a3, [a3_mods["P1"], a3_mods["P1"]], seed=0)


# -- approximations ---------------------------------------------------------


def test_left_approx_of_s1_is_socle_embedding(m3, a3_mods):
    f = minimal_left_approximation(a3_mods["S1"], m3)
    assert f.target.dim_vector() == (0, 1, 1)  # P2
    assert f.is_injective()


def test_left_approx_of_member_is_iso(m3, a3_mods):
    f = minimal_left_approximation(a3_mods["P1"], m3)
    assert f.is_injective() and f.is_surjective()


def test_left_approx_into_empty_cat(a3, a3_mods):
    empty = add_category(a3, [], seed=0)
    f = minimal_left_approximation(a3_mods["P1"], empty)
    assert f.target.total_dim == 0


def test_right_approx_of_s1_is_top_projection(m3, a3_mods):
    f = minimal_right_approximation(a3_mods["S1"], m3)
    assert f.source.dim_vector() == (1, 1, 0)  # P1
    assert f.is_surjective()


def test_right_approx_of_member_is_iso(m3, a3_mods):
    f = minimal_right_approximation(a3_mods["S2"], m3)
    assert f.is_injective() and f.is_surjective()


def test_right_approx_from_empty_cat(a3, a3_mods):
    empty = add_category(a3, [], seed=0)
    f = minimal_right_approximation(a3_mods["P1"], empty)
    assert f.source.total_dim == 0


@pytest.mark.parametrize("approximation", [minimal_left_approximation,
                                           minimal_right_approximation])
def test_approximation_that_loses_a_hom_class_is_caught(m3, a3_mods, monkeypatch,
                                                       approximation):
    # the contract is checked for every G with Hom(S1, G) (resp. Hom(G, S1))
    # nonzero: a peel that drops every summand fails it there (the peel is
    # reps._peel_superfluous, patched where addcat's approximation reads it)
    from nexakt import addcat
    monkeypatch.setattr(addcat, "_peel_superfluous", lambda parts, table, p: [])
    with pytest.raises(AssertionError, match="lost a Hom class"):
        approximation(a3_mods["S1"], m3)


def reference_approximation(x, m, left):
    """The minimal left (or right) approximation as it was built by
    composing for every candidate: each Hom basis map x -> G (G -> x) is
    dropped when it lies in the span of the kept others composed with the
    generator Hom spaces, and the contract is checked by solving
    Hom(T, G) (Hom(G, T)) for the sum T of the kept targets (sources)."""
    homs = [hom_basis(x, g) if left else hom_basis(g, x) for g in m.generators]
    parts = [(g, f) for g, basis in zip(m.generators, homs) for f in basis]
    kept = list(range(len(parts)))
    for i, (gi, fi) in enumerate(parts):
        span = []
        for r in kept:
            if r != i:
                gr, fr = parts[r]
                basis = hom_basis(gr, gi) if left else hom_basis(gi, gr)
                span.extend(composite_rows(fr, basis, d_first=left))
        if solve_rows([span], [fi.vectorize()], x.algebra.p) is not None:
            kept.remove(i)
    maps = [parts[r][1] for r in kept]
    zero = zero_module(x.algebra)
    if left:
        approx = stack_morphisms_to_sum(maps) if maps else zero_morphism(x, zero)
    else:
        approx = stack_morphisms_from_sum(maps) if maps else zero_morphism(zero, x)
    for g, basis in zip(m.generators, homs):
        if basis:
            (_, r), = hom_dims_and_ranks([approx], g, contravariant=left)
            assert r == len(basis), "reference approximation lost a Hom class"
    return approx


def test_approximations_match_the_reference():
    # M = add of every indecomposable, and of three random sublists; x
    # every indecomposable and every sum of two, in a random basis
    rng = random.Random(5)
    count = 0
    for alg in (gen_linear_An_J2(1, 2)[0], gen_linear_An_J2(1, 3)[0],
                preprojective_a2(), nakayama_algebra(6, 2, cyclic=True)):
        indecs = nakayama_indecomposables(alg)
        cats = [add_category(alg, indecs)] + [
            add_category(alg, pick(indecs, sorted(rng.sample(
                range(len(indecs)), rng.randrange(1, len(indecs))))))
            for _ in range(3)]
        xs = [in_random_basis(direct_sum(list(pair)).module, rng)
              for k in (1, 2) for pair in combinations_with_replacement(indecs, k)]
        for m in cats:
            for x in xs:
                for left, build in ((True, minimal_left_approximation),
                                    (False, minimal_right_approximation)):
                    assert equals(build(x, m), reference_approximation(x, m, left))
                    count += 1
    assert count == 8 * (20 + 35 + 14 + 90)


def test_approximations_over_a_generator_that_is_not_a_brick():
    # the Kronecker module R has End R = F_(p^2): a map x -> R can factor
    # through another by an endomorphism that is not a scalar
    p = 101
    alg = kronecker_algebra(p)
    r = kronecker_field_module(p)
    m = add_category(alg, [r, projective_module(alg, "1"),
                           projective_module(alg, "2"),
                           injective_module(alg, "2")])
    tube = Module(alg, {"1": 1, "2": 1}, {"a": Mat.identity(1, p)})
    rng = random.Random(2)
    singles = [r, tube, simple_module(alg, "1"), *m.generators[1:]]
    xs = [in_random_basis(direct_sum(list(pair)).module, rng)
          for k in (1, 2) for pair in combinations_with_replacement(singles, k)]
    for x in xs:
        for left, build in ((True, minimal_left_approximation),
                            (False, minimal_right_approximation)):
            f = build(x, m)
            assert equals(f, reference_approximation(x, m, left))
            for g in m.generators:
                (_, rank_f), = hom_dims_and_ranks([f], g, contravariant=left)
                assert rank_f == len(hom_basis(x, g) if left else hom_basis(g, x))
    # Hom(R, R) has dimension 2, but R approximates itself by one copy
    for build in (minimal_left_approximation, minimal_right_approximation):
        assert build(xs[0], m).source.dim_vector() == (2, 2)
        assert build(xs[0], m).target.dim_vector() == (2, 2)


def reverse_greedy_peel(parts, table, p):
    """The positions the peel keeps when every generator is a brick
    (End G = F_p), in closed form: for each G_j, its candidates f_i read
    from last to first, each kept when it is independent of
    R_j = sum of table(r, j) over the r with G_r != G_j and of the
    candidates of G_j kept before it."""
    kept = []
    for j in sorted({jr for jr, _ in parts}):
        span = [row for r, (jr, _) in enumerate(parts) if jr != j
                for row in table(r, j)]
        for i in reversed(range(len(parts))):
            if parts[i][0] == j:
                row = parts[i][1].vectorize()
                if rows_rank(span + [row], p) > rows_rank(span, p):
                    span.append(row)
                    kept.append(i)
    return sorted(kept)


@pytest.mark.parametrize("p", [2, 101, 2**31 - 1])
def test_peel_over_bricks_keeps_the_reverse_greedy_choice(p):
    # over bricks rad End(G_j) = 0, so rad_M(x, G_j) is R_j, and the
    # multiplicity of G_j in the minimal approximation is the dimension of
    # Hom(x, G_j) / R_j (Auslander-Smalo, J. Algebra 1980)
    rng = random.Random(p)
    peels = dropped = 0
    for alg in (gen_linear_An_J2(1, 3, p)[0], nakayama_algebra(6, 2, cyclic=True, p=p),
                preprojective_a2(p)):
        gens = nakayama_indecomposables(alg)
        assert all(len(hom_basis(g, g)) == 1 for g in gens)
        xs = [in_random_basis(direct_sum(list(pair)).module, rng)
              for k in (1, 2) for pair in combinations_with_replacement(gens, k)]
        for x in xs:
            for left in (True, False):
                parts = [(j, f) for j, g in enumerate(gens)
                         for f in (hom_basis(x, g) if left else hom_basis(g, x))]
                table = _composite_table(gens, parts, left)
                kept = _peel_superfluous(parts, table, p)
                assert kept == reverse_greedy_peel(parts, table, p), (x.key, left)
                peels += 1
                dropped += len(parts) - len(kept)
    assert peels == 2 * (35 + 90 + 14) and dropped > 0


def _copy(x):
    """A module of x's content that is not x."""
    return Module(x.algebra, x.dims, x.action)


@pytest.mark.parametrize("left", [True, False])
def test_an_approximation_is_built_once_per_content(monkeypatch, left):
    from nexakt import addcat
    approximate = minimal_left_approximation if left else minimal_right_approximation
    alg, gens = gen_linear_An_J2(2, 2)
    m = add_category(alg, gens)
    rng = random.Random(3)
    xs = [in_random_basis(direct_sum([rng.choice(gens), rng.choice(gens)]).module,
                          rng) for _ in range(6)] + [zero_module(alg)]
    firsts = [approximate(x, m) for x in xs]

    def refuse(*args):
        pytest.fail("a stored approximation was built again")

    monkeypatch.setattr(reps, "_solve_hom", refuse)
    monkeypatch.setattr(addcat, "_peel_superfluous", refuse)
    seconds = [approximate(_copy(x), m) for x in xs]
    assert all(f is g for f, g in zip(firsts, seconds))
    monkeypatch.undo()
    # the same rows and the same endpoints, T included, over a separately
    # built equal algebra, whose modules share no content id with these
    fresh_alg, fresh_gens = gen_linear_An_J2(2, 2)
    fresh_m = add_category(fresh_alg, fresh_gens)
    for x, f in zip(xs, seconds):
        g = approximate(Module(fresh_alg, x.dims, x.action), fresh_m)
        assert f.vectorize() == g.vectorize()
        assert f.source.key == g.source.key and f.target.key == g.target.key


def _approximation_rounds(rounds=8):
    """The approximations of random sums of two generators of K A_5/J^2,
    each in a random basis and once more as a copy, with the sums and
    membership verdicts they pass through."""
    alg, gens = gen_linear_An_J2(2, 2, p=101)
    m = add_category(alg, gens)
    rng = random.Random(9)
    out = []
    for _ in range(rounds):
        x = in_random_basis(direct_sum([rng.choice(gens), rng.choice(gens)]).module,
                            rng)
        for y in (x, _copy(x)):
            for build in (minimal_left_approximation, minimal_right_approximation):
                f = build(y, m)
                out.append((f.source.key, f.target.key, f.vectorize(),
                            bool(in_add(f.source, m.generators)),
                            bool(in_add(f.target, m.generators))))
    return out


def test_stored_approximations_and_sums_survive_a_full_store(monkeypatch):
    peaks = []
    memoized = quivers.AlgebraBasis.memoized

    def tracked(alg, key, make):
        got = memoized(alg, key, make)
        peaks.append(len(alg.store))
        return got

    monkeypatch.setattr(quivers.AlgebraBasis, "memoized", tracked)
    full = _approximation_rounds()
    full_peak = max(peaks)
    peaks.clear()
    monkeypatch.setattr(quivers, "STORE_BOUND", 16)
    assert _approximation_rounds() == full
    assert max(peaks) == 16 < full_peak


# -- weak (co)kernels --------------------------------------------------------


def test_weak_cokernel_of_socle_inclusion(a3, m3, a3_mods):
    f = only_hom(a3_mods["S0"], a3_mods["P1"])
    g = weak_cokernel(f, m3)
    assert g.target.dim_vector() == (0, 1, 1)  # P2
    assert f.then(g).is_zero()


def test_weak_cokernel_of_epi_is_zero_map(a3, m3, a3_mods):
    f = hom_basis(a3_mods["P2"], a3_mods["S2"])[0]
    g = weak_cokernel(f, m3)
    assert g.target.total_dim == 0


def test_weak_cokernel_of_zero_from_zero(a3, m3, a3_mods):
    f = zero_morphism(zero_module(a3), a3_mods["P1"])
    g = weak_cokernel(f, m3)
    assert g.is_injective() and g.is_surjective()


@pytest.mark.parametrize("build", [weak_cokernel, weak_kernel, n_cokernel,
                                   n_kernel, standard_angle],
                         ids=lambda f: f.__name__)
def test_endpoint_outside_add_m_is_named(m3, a3_mods, build):
    # S1 is not in add(M); each constructor names itself and the endpoint.
    # standard_angle runs on Pi_2 with M = add(P1 + P2 + S1), n = 2, where
    # S2 is not in add(M)
    if build is standard_angle:
        pi2 = preprojective_a2()
        p1, p2, s1, s2 = (f(pi2, v) for f, v in (
            (projective_module, "1"), (projective_module, "2"),
            (simple_module, "1"), (simple_module, "2")))
        ctx = check_frobenius_setup(
            pi2, add_category(pi2, [p1, p2, s1], seed=4), 2, [p1, p2, s1, s2],
            seed=4)
        outside, inside = s2, p1
        call = lambda f: standard_angle(ctx, f)
    else:
        extra = (2,) if build in (n_cokernel, n_kernel) else ()
        outside, inside = a3_mods["S1"], a3_mods["P1"]
        call = lambda f: build(f, m3, *extra)
    for end, f in (("source", zero_morphism(outside, inside)),
                   ("target", zero_morphism(inside, outside))):
        with pytest.raises(DomainError,
                           match=rf"^{build.__name__}: {end} not in add\(M\)$"):
            call(f)


@pytest.mark.parametrize("build", [n_cokernel, n_kernel],
                         ids=lambda f: f.__name__)
def test_ladder_of_length_below_1_is_refused(m3, a3_mods, build):
    with pytest.raises(ValueError, match="n must be >= 1"):
        build(identity_morphism(a3_mods["P1"]), m3, 0)


def test_weak_kernel_of_radical_map(a3, m3, a3_mods):
    g = hom_basis(a3_mods["P1"], a3_mods["P2"])[0]
    f = weak_kernel(g, m3)
    assert f.source.dim_vector() == (1, 0, 0)  # S0 = P0
    assert f.then(g).is_zero()


def test_weak_kernel_of_mono_is_zero(a3, m3, a3_mods):
    f = only_hom(a3_mods["S0"], a3_mods["P1"])
    k = weak_kernel(f, m3)
    assert k.source.total_dim == 0


# -- n-cokernels, n-kernels ---------------------------------------------------


def test_n_cokernel_of_socle_inclusion(a3, m3, a3_mods):
    seq = n_cokernel(only_hom(a3_mods["S0"], a3_mods["P1"]), m3, 2)
    assert [t.dim_vector() for t in seq.terms] == [(1, 1, 0), (0, 1, 1), (0, 0, 1)]
    assert seq.diffs[-1].is_surjective()


def test_n_cokernel_of_identity(a3, m3, a3_mods):
    seq = n_cokernel(identity_morphism(a3_mods["P1"]), m3, 2)
    assert seq.terms[1].total_dim == 0
    assert seq.terms[2].total_dim == 0


def test_n_cokernel_of_split_mono(a3, m3, a3_mods):
    total = direct_sum([a3_mods["P1"], a3_mods["S2"]])
    inj = block_morphism(a3_mods["P1"], total, {(0, 0): identity_morphism(a3_mods["P1"])})
    seq = n_cokernel(inj, m3, 2)
    assert seq.terms[1].dim_vector() == (0, 0, 1)
    assert seq.terms[2].total_dim == 0


def test_n_kernel_of_top_projection(a3, m3, a3_mods):
    dn = hom_basis(a3_mods["P2"], a3_mods["S2"])[0]
    seq = n_kernel(dn, m3, 2)
    assert [t.dim_vector() for t in seq.terms] == [(1, 0, 0), (1, 1, 0), (0, 1, 1)]
    assert seq.diffs[0].is_injective()


def test_n_kernel_of_identity(a3, m3, a3_mods):
    seq = n_kernel(identity_morphism(a3_mods["P1"]), m3, 2)
    assert seq.terms[0].total_dim == 0
    assert seq.terms[1].total_dim == 0


def test_n_kernel_of_split_epi(a3, m3, a3_mods):
    total = direct_sum([a3_mods["P1"], a3_mods["S2"]])
    prj = block_morphism(total, a3_mods["S2"], {(0, 1): identity_morphism(a3_mods["S2"])})
    seq = n_kernel(prj, m3, 2)
    assert seq.terms[0].total_dim == 0
    assert seq.terms[1].dim_vector() == (1, 1, 0)


# -- the reference sweep ------------------------------------------------------


# (build, verify, degree of the end term for n)
LADDERS = ((n_cokernel, verify_n_cokernel, lambda n: n + 1),
           (n_kernel, verify_n_kernel, lambda n: 0))
# Recorded when every ladder was re-verified after it was built, and
# unchanged since the ladders check their end term instead: one sha256
# over the labels and maps of the ladders whose end term lies in add(M),
# and the content hash of the labels of the 210 whose end term does not.
SWEEP_KEPT_SHA256 = "8a98f8a7332f29ea6d3e2bffd782f30c87853c710e876ea8bdc5341eb41a22d5"
SWEEP_OUTSIDE_SHA256 = "bd95f744fb971e66c4c948cdcda5488a05a689074a63f4d06d0e52a6444b05cb"
# The same at n = 3 and 4, where a ladder takes two or three weak steps
# (at n <= 2 it takes at most one); recorded while each ladder still ran
# its own loop of approximations and (co)kernels.
SWEEP_LONG_KEPT_SHA256 = "573bcf26935c0d44f381f43c21ffc6d7d9d0dae3cfc5bddcd5279dc606de8b06"
SWEEP_LONG_OUTSIDE_SHA256 = "b9bc1c7b7a01d3629aa7d1e2730b7f0d3e014cc369ed847b9ebdfc01a88c72be"


def _sweep_ladders(ns):
    """(count, sha256 of the ladders ending in add(M), labels of those
    that do not) over the reference sweep at each n in ns."""
    kept, outside, count = hashlib.sha256(), [], 0
    for label, m, d in sweep_generator_maps():
        for n in ns:
            for build, verify, end in LADDERS:
                count += 1
                key = label + [n, build.__name__]
                try:
                    seq = build(d, m, n)
                except HypothesisError as exc:
                    assert exc.degree == end(n), key
                    outside.append(key)
                    continue
                assert verify(d, seq, m).ok, key
                assert in_add(seq.term(end(n)), m.generators), key
                kept.update(canonical_json(
                    [key, [morphism_to_dict(x) for x in seq.diffs]]).encode())
    return count, kept.hexdigest(), outside


def test_sweep_ladders_fail_exactly_outside_add_m():
    for ns, outsiders, kept_sha, outside_sha in (
            ((1, 2), 210, SWEEP_KEPT_SHA256, SWEEP_OUTSIDE_SHA256),
            ((3, 4), 2, SWEEP_LONG_KEPT_SHA256, SWEEP_LONG_OUTSIDE_SHA256)):
        count, kept, outside = _sweep_ladders(ns)
        assert (count, len(outside)) == (3296, outsiders)
        assert kept == kept_sha
        assert content_hash(outside) == outside_sha


def test_sweep_weak_cokernels_and_kernels_are_exact():
    for label, m, d in sweep_generator_maps():
        g, k = weak_cokernel(d, m), weak_kernel(d, m)
        assert d.then(g).is_zero() and k.then(d).is_zero(), label
        for gen in m.generators:
            # Hom(C, gen) -> Hom(B, gen) -> Hom(A, gen) exact in the middle
            (dim_b, rank_to_a), (_, rank_from_c) = hom_dims_and_ranks(
                [d, g], gen, contravariant=True)
            assert rank_from_c == dim_b - rank_to_a, label
            # Hom(gen, K) -> Hom(gen, A) -> Hom(gen, B) exact in the middle
            (_, rank_from_k), (dim_a, rank_to_b) = hom_dims_and_ranks(
                [k, d], gen, contravariant=False)
            assert rank_from_k == dim_a - rank_to_b, label


def test_ladders_ending_outside_add_m_name_the_degree():
    # K A_3/J^2 with M = add(Lambda): the 2-cokernel of P0 -> P1 ends in
    # S2 and the 2-kernel of I1 -> I2 starts in S0; both were returned
    # as verified while only the Hom exactness was checked
    alg, _ = gen_linear_An_J2(1, 2)
    p = [projective_module(alg, v) for v in "012"]
    i = [injective_module(alg, v) for v in "012"]
    with pytest.raises(HypothesisError) as exc:
        n_cokernel(hom_basis(p[0], p[1])[0], add_category(alg, p), 2)
    assert exc.value.degree == 3
    with pytest.raises(HypothesisError) as exc:
        n_kernel(hom_basis(i[1], i[2])[0], add_category(alg, i), 2)
    assert exc.value.degree == 0


# -- verification -------------------------------------------------------------


def test_verify_m3_sequence_passes(a3, m3, a3_mods):
    x = a3_sequence(a3_mods)
    cert = verify_n_exact(x, m3, 2)
    assert cert.ok
    assert len(cert.membership) == 4


def test_verify_contractible_padded_complex(a3, m3, a3_mods):
    x = pad_complex(interval_complex(1, a3_mods["P1"]), 0, 3)
    cert = verify_n_exact(x, m3, 2)
    assert cert.ok


def test_verify_fails_with_zero_tail(a3, m3, a3_mods):
    d0 = hom_basis(a3_mods["S0"], a3_mods["P1"])[0]
    d1 = hom_basis(a3_mods["P1"], a3_mods["P2"])[0]
    x = ComplexSeq(0, [a3_mods["S0"], a3_mods["P1"], a3_mods["P2"], a3_mods["S2"]],
                   [d0, d1, zero_morphism(a3_mods["P2"], a3_mods["S2"])])
    cert = verify_n_exact(x, m3, 2)
    assert not cert.ok


def test_verify_n_cokernel_fragment(a3, m3, a3_mods):
    d0 = hom_basis(a3_mods["S0"], a3_mods["P1"])[0]
    tail = n_cokernel(d0, m3, 2)
    frag = verify_n_cokernel(d0, tail, m3)
    assert frag.ok
    # breaking the tail: replace last map by zero
    broken = ComplexSeq(1, list(tail.terms),
                        [tail.diffs[0], zero_morphism(tail.terms[1], tail.terms[2])])
    frag2 = verify_n_cokernel(d0, broken, m3)
    assert not frag2.ok


def test_verify_n_kernel_fragment(a3, m3, a3_mods):
    dn = hom_basis(a3_mods["P2"], a3_mods["S2"])[0]
    head = n_kernel(dn, m3, 2)
    assert verify_n_kernel(dn, head, m3).ok


@pytest.mark.parametrize("n", (0, -1))
def test_verify_n_exact_refuses_n_below_1(a3, m3, a3_mods, n):
    # with n = 0 the split two-term complex P1 -> P1 has n + 2 terms and
    # would be certified n-exact, verdict True; n_cokernel and n_kernel
    # refuse n < 1, and so does the certificate
    x = complex_from_maps(0, [identity_morphism(a3_mods["P1"])])
    with pytest.raises(ValueError, match="n must be >= 1"):
        verify_n_exact(x, m3, n)
    assert verify_n_exact(pad_complex(x, 0, 2), m3, 1).ok


def test_zero_chain_passes(a3, m3):
    z = zero_module(a3)
    x = ComplexSeq(0, [z, z, z, z],
                   [zero_morphism(z, z) for _ in range(3)])
    assert verify_n_exact(x, m3, 2).ok


# -- comparison homotopy and contractions --------------------------------------


def test_comparison_equal_maps_gives_zero(a3, a3_mods):
    x = a3_sequence(a3_mods)
    f = identity_complex_morphism(x)
    h = comparison_homotopy(f, f)
    assert verify_homotopy(f, f, h)
    assert all(v.is_zero() for v in h.components.values())


def test_comparison_roundtrip_with_constructed_homotopy(a3, a3_mods):
    # pad the M3 sequence with i_1(P2) so a nonzero homotopy component
    # exists (the identity block of the padding); build g = id + (hd + dh)
    # from a chosen h and confirm the solver recovers a verifying homotopy
    from nexakt.reps import Morphism
    x = a3_sequence(a3_mods)
    pad = pad_complex(interval_complex(1, a3_mods["P2"]), 0, 3)
    y = direct_sum_complexes(x, pad)
    p = a3.p
    # h2: y^2 -> y^1, identity on the trailing padding block
    comps = {}
    for v in a3.quiver.vertices:
        rows, cols = y.term(1).dims[v], y.term(2).dims[v]
        padd = pad.term(1).dims[v]
        grid = [[0] * cols for _ in range(rows)]
        for i in range(padd):
            grid[rows - padd + i][cols - padd + i] = 1
        comps[v] = Mat.from_rows(grid, p, cols=cols)
    h2 = Morphism(y.term(2), y.term(1), comps)
    u1 = y.diff(1).then(h2)
    u2 = h2.then(y.diff(1))
    assert not u1.is_zero()
    f = identity_complex_morphism(y)
    g = ComplexMorphism(y, y, {
        0: f.component(0),
        1: f.component(1).add(u1),
        2: f.component(2).add(u2),
        3: f.component(3)})
    h = comparison_homotopy(f, g)
    assert verify_homotopy(f, g, h)
    assert h.component(1).is_zero()
    assert not all(v.is_zero() for v in h.components.values())


def test_comparison_precondition(a3, a3_mods):
    x = a3_sequence(a3_mods)
    f = identity_complex_morphism(x)
    g = ComplexMorphism(x, x, {})
    with pytest.raises(PreconditionError):
        comparison_homotopy(f, g)


def test_comparison_on_padded_pair(a3, m3, a3_mods):
    # two 2-cokernels of the socle inclusion: minimal and padded
    d0 = hom_basis(a3_mods["S0"], a3_mods["P1"])[0]
    tail = n_cokernel(d0, m3, 2)
    x = ComplexSeq(0, [a3_mods["S0"]] + list(tail.terms), [d0] + list(tail.diffs))
    pad = interval_complex(1, a3_mods["P2"])
    y = direct_sum_complexes(x, pad_complex(pad, 0, 3))
    fwd = complete_to_chain_map(x, y, corner_identity(x, y))
    back = complete_to_chain_map(y, x, corner_identity(y, x))
    rt = fwd.then(back)
    h = comparison_homotopy(rt, identity_complex_morphism(x))
    assert verify_homotopy(rt, identity_complex_morphism(x), h)


def test_contract_finds_contraction_of_interval(a3, m3, a3_mods):
    x = pad_complex(interval_complex(0, a3_mods["P2"]), 0, 3)
    h = contract(x, m3)
    assert h is not None
    assert verify_homotopy(identity_complex_morphism(x),
                           ComplexMorphism(x, x, {}), h)


def test_contract_returns_none_for_m3_sequence(a3, m3, a3_mods):
    x = a3_sequence(a3_mods)
    assert contract(x, m3) is None


def test_contract_zero_complex(a3, m3, a3_mods):
    z = zero_module(a3)
    x = ComplexSeq(0, [z, z, z, z], [zero_morphism(z, z)] * 3)
    h = contract(x, m3)
    assert h is not None
    # one term: the first step is already the top degree
    assert contract(ComplexSeq(0, [z], []), m3) is not None
    assert contract(ComplexSeq(0, [a3_mods["P1"]], []), m3) is None


def test_fragments_and_contract_refuse_what_does_not_fit(a3, m3, a3_mods):
    d0 = hom_basis(a3_mods["S0"], a3_mods["P1"])[0]
    dn = hom_basis(a3_mods["P2"], a3_mods["S2"])[0]
    tail, head = n_cokernel(d0, m3, 2), n_kernel(dn, m3, 2)
    with pytest.raises(ValueError, match="chain endpoints mismatch"):
        verify_n_cokernel(identity_morphism(a3_mods["S0"]), tail, m3)
    with pytest.raises(ValueError, match="chain endpoints mismatch"):
        verify_n_kernel(identity_morphism(a3_mods["S2"]), head, m3)
    # S0 -> P1 -> P2 -0-> S2 is not Hom(-, M) exact
    broken = ComplexSeq(0, [a3_mods["S0"], a3_mods["P1"], a3_mods["P2"], a3_mods["S2"]],
                        [d0, hom_basis(a3_mods["P1"], a3_mods["P2"])[0],
                         zero_morphism(a3_mods["P2"], a3_mods["S2"])])
    with pytest.raises(PreconditionError,
                       match="contract: cokernel side does not verify"):
        contract(broken, m3)
