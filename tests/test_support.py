"""Every per-vertex and per-arrow builder of reps and resolutions against
the plain computation: one fp call per vertex or arrow, whatever its
shape.  The modules have zero vertices (sums of a few indecomposables in a
random basis, their quotients, the zero module), so most slots have a zero
side; the references below are kept here as the definition of what each
builder returns, down to the shape of every empty matrix."""

import random

import pytest

from nexakt import fileio, fp, reps
from nexakt.addcat import (add_category, minimal_left_approximation,
                           minimal_right_approximation, n_cokernel, n_kernel,
                           weak_cokernel)
from nexakt.complexes import complex_from_maps
from nexakt.fp import (Mat, kernel_basis, mat_from_vector, quotient_data, rank,
                       solve_linear)
from nexakt.frob import (check_frobenius_setup, rotate_angle, standard_angle,
                         verify_angle_exact)
from nexakt.presets import (gen_linear_An_J2, gen_preprojective_A,
                            nakayama_algebra, nakayama_indecomposables)
from nexakt.pushout import n_pushout
from nexakt.reps import (Module, Morphism, _natural,
                         _split_vector, all_injectives,
                         all_projectives,
                         assemble_from_span, block_morphism, cokernel_morphism,
                         composite_rows, direct_sum, factor_through, hom_basis,
                         identity_morphism, in_add,
                         kernel_morphism, quotient_by_submodule, radical_span,
                         regular_module, simple_module,
                         stack_morphisms_from_sum, stack_morphisms_to_sum,
                         zero_module, zero_morphism)
from nexakt.resolutions import (_components_from_projective, ext_dim,
                                injective_envelope)
from nexakt.tilting import ext_via_approx_resolution, strong_projectivity_check

from conftest import (DUALITY_ALGEBRAS, DUALITY_CASES, in_random_basis,
                      kronecker_algebra, kronecker_field_module,
                      random_quotient, random_submodule_span, ref_composite_rows,
                      ref_radical_step, stack_rows)

PRIMES = (2, 101, 2**31 - 1)


def _algebra(name, p):
    if name == "A4/J^2":
        return gen_linear_An_J2(1, 3, p=p)[0]
    if name == "Pi_2":
        return gen_preprojective_A(2, p)
    if name == "6-cycle/J^2":
        return nakayama_algebra(6, 2, cyclic=True, p=p)
    return kronecker_algebra(p)


def _modules(name, alg, rng):
    """The zero module, random-basis sums of one to three indecomposables
    (projective, injective or simple; the Kronecker module R over the
    Kronecker algebra), twice one simple, and quotients of such sums."""
    simples = [simple_module(alg, v) for v in alg.quiver.vertices]
    pool = [*all_projectives(alg), *all_injectives(alg), *simples]
    if name == "Kronecker":
        pool.append(kronecker_field_module(alg.p))
    out = [zero_module(alg),
           in_random_basis(direct_sum([rng.choice(simples)] * 2).module, rng)]
    for _ in range(4):
        parts = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        out.append(in_random_basis(direct_sum(parts).module, rng))
    for x in out[2:4]:
        if any(not a.is_zero() for a in x.action.values()) or x.total_dim > 1:
            out.append(random_quotient(x, rng))
    return out


def _random_map(x, y, rng):
    basis = hom_basis(x, y)
    return assemble_from_span(basis, [rng.randrange(x.algebra.p) for _ in basis],
                              x, y)


# -- the references: one plain fp call per vertex or arrow ---------------


def ref_split_vector(m, n, vec):
    comps, pos = {}, 0
    for v in m.algebra.quiver.vertices:
        r, c = n.dims[v], m.dims[v]
        comps[v] = mat_from_vector(vec[pos:pos + r * c], r, c, m.algebra.p)
        pos += r * c
    return comps


def ref_then(f, g):
    return {v: g.components[v].mul(f.components[v]) for v in f.components}


def ref_add(f, g):
    return {v: f.components[v].add(g.components[v]) for v in f.components}


def ref_scale(f, c):
    return {v: f.components[v].scale(c) for v in f.components}


def ref_injective(f):
    return all(rank(m) == m.cols for m in f.components.values())


def ref_surjective(f):
    return all(rank(m) == m.rows for m in f.components.values())


def ref_zero(m, n):
    return {v: Mat.zero(n.dims[v], m.dims[v], m.algebra.p)
            for v in m.algebra.quiver.vertices}


def ref_identity(m):
    return {v: Mat.identity(m.dims[v], m.algebra.p)
            for v in m.algebra.quiver.vertices}


def ref_direct_sum(mods):
    alg = mods[0].algebra
    return {a.name: Mat.from_blocks(
        [m.dims[a.target] for m in mods], [m.dims[a.source] for m in mods],
        {(i, i): m.action[a.name] for i, m in enumerate(mods)}, alg.p)
        for a in alg.quiver.arrows}


def ref_block(src_parts, tgt_parts, blocks):
    alg = src_parts[0].algebra
    return {v: Mat.from_blocks([t.dims[v] for t in tgt_parts],
                               [s.dims[v] for s in src_parts],
                               {ij: f.components[v] for ij, f in blocks.items()},
                               alg.p)
            for v in alg.quiver.vertices}


def ref_sub_action(x, incl):
    """The action on vertex spans closed under x's action, one solve per
    arrow."""
    return {a.name: solve_linear(incl[a.target], x.action[a.name].mul(incl[a.source]))
            for a in x.algebra.quiver.arrows}


def ref_kernel(f):
    incl = {v: kernel_basis(m) for v, m in f.components.items()}
    return ref_sub_action(f.source, incl), incl


def ref_column_space(m):
    """The columns of m at the pivots of its reduced row-echelon form: a
    basis of its column space."""
    pivots = fp._reduce(m.to_lists(), m.cols, m.p)
    return Mat.from_rows([[row[j] for j in pivots] for row in m.to_lists()], m.p,
                         cols=len(pivots))


def ref_image(f):
    incl = {v: ref_column_space(m) for v, m in f.components.items()}
    return ref_sub_action(f.target, incl), incl


def ref_inclusion(x, span):
    """The inclusion of the submodule that the column spaces of span carry,
    its action solved one arrow at a time."""
    cols = {v: ref_column_space(m) for v, m in span.items()}
    sub = Module(x.algebra, {v: c.cols for v, c in cols.items()}, ref_sub_action(x, cols))
    return Morphism(sub, x, cols)


def ref_cokernel(f):
    """Q(a) = proj_t A(a) L_s, with L_s the standard basis vectors of the
    target at the free coordinates of the quotient at a's source."""
    p = f.source.algebra.p
    quot = {v: quotient_data(m) for v, m in f.components.items()}
    action = {}
    for a in f.source.algebra.quiver.arrows:
        n_s = f.target.dims[a.source]
        free = quot[a.source][1]
        lift = Mat.from_rows([[1 if i == j else 0 for j in free] for i in range(n_s)],
                             p, cols=len(free))
        action[a.name] = quot[a.target][0].mul(f.target.action[a.name].mul(lift))
    return action, {v: q[0] for v, q in quot.items()}


def ref_radical(m):
    alg = m.algebra
    return {v: Mat.hstack([Mat.zero(m.dims[v], 0, alg.p)]
                          + [m.action[a.name] for a in alg.quiver.arrows
                             if a.target == v])
            for v in alg.quiver.vertices}


def ref_socle(m):
    alg = m.algebra
    return {v: kernel_basis(stack_rows([m.action[a.name] for a in alg.quiver.arrows
                                        if a.source == v], m.dims[v], alg.p))
            for v in alg.quiver.vertices}


def ref_path_matrix(m, word):
    if word.is_trivial():
        return Mat.identity(m.dims[word.base], m.algebra.p)
    out = m.action[word.arrows[0]]
    for name in word.arrows[1:]:
        out = m.action[name].mul(out)
    return out


def ref_from_projective(v, vec, m):
    alg = m.algebra
    paths = [i for i in range(alg.dim) if alg.source_of[i] == v]
    comps = {}
    for w in alg.quiver.vertices:
        cols = [ref_path_matrix(m, alg.basis[b]).mul(vec) for b in paths
                if alg.target_of[b] == w]
        comps[w] = Mat.hstack(cols) if cols else Mat.zero(m.dims[w], 0, alg.p)
    return comps


def ref_into_injective(m, v, functional):
    alg = m.algebra
    paths = [i for i in range(alg.dim) if alg.target_of[i] == v]
    comps = {}
    for w in alg.quiver.vertices:
        rows = [list(functional.transpose().mul(ref_path_matrix(m, alg.basis[b])).row(0))
                for b in paths if alg.source_of[b] == w]
        comps[w] = Mat.from_rows(rows, alg.p, cols=m.dims[w])
    return comps


def ref_injective_envelope(m):
    """The envelope through the socle: at each vertex v, one I_v per
    basis vector of soc(m) at v, through the functional dual to it."""
    alg = m.algebra
    maps = []
    for (v, basis), iv in zip(ref_socle(m).items(), all_injectives(alg)):
        if basis.cols:
            dual = solve_linear(basis.transpose(), Mat.identity(basis.cols, alg.p))
            for j in range(basis.cols):
                functional = mat_from_vector(dual.col(j), m.dims[v], 1, alg.p)
                maps.append(_natural(m, iv, ref_into_injective(m, v, functional)))
    return stack_morphisms_to_sum(maps)


# -- the comparisons -----------------------------------------------------


def _same_module(m, dims, action):
    assert m.dims == dims
    assert m.action == action


@pytest.fixture(params=[(name, p) for name in ("A4/J^2", "Pi_2", "6-cycle/J^2",
                                               "Kronecker")
                        for p in PRIMES],
                ids=lambda c: f"{c[0]}-p{c[1]}")
def case(request):
    name, p = request.param
    alg = _algebra(name, p)
    rng = random.Random(f"{name}:{p}")
    return alg, _modules(name, alg, rng), rng


def test_morphism_arithmetic_matches_reference(case):
    alg, mods, rng = case
    p = alg.p
    for x in mods:
        ident = identity_morphism(x)
        assert ident.components == ref_identity(x)
        assert ident.is_injective() and ident.is_surjective()
        for y in mods:
            assert zero_morphism(x, y).components == ref_zero(x, y)
            f, g = _random_map(x, y, rng), _random_map(x, y, rng)
            vec = [rng.randrange(p) for _ in f.vectorize()]
            assert _split_vector(x, y, vec) == ref_split_vector(x, y, vec)
            c, e = rng.randrange(p), rng.randrange(p)
            combo = [c * a + e * b for a, b in zip(f.vectorize(), g.vectorize())]
            assert assemble_from_span([f, g], [c, e], x, y).components \
                == ref_split_vector(x, y, combo)
            assert f.add(g).components == ref_add(f, g)
            assert f.scale(c).components == ref_scale(f, c)
            assert f.sub(g).components == ref_add(f, g.scale(-1))
            for h in (f, zero_morphism(x, y)):
                assert h.is_injective() == ref_injective(h)
                assert h.is_surjective() == ref_surjective(h)
            z = rng.choice(mods)
            k = _random_map(y, z, rng)
            assert f.then(k).components == ref_then(f, k)
            zero = zero_morphism(y, z)
            assert f.then(zero).components == ref_then(f, zero)


def test_sums_and_composite_rows_match_reference(case):
    alg, mods, rng = case
    for x in mods:
        for y in mods:
            parts = [x, y, rng.choice(mods)]
            s = direct_sum(parts)
            _same_module(s.module, {v: sum(m.dims[v] for m in parts)
                                    for v in alg.quiver.vertices},
                         ref_direct_sum(parts))
            w, z = rng.choice(mods), rng.choice(mods)
            src, tgt = direct_sum([x, w]), direct_sum([y, z])
            blocks = {(i, j): _random_map(a, b, rng)
                      for i, b in enumerate((y, z)) for j, a in enumerate((x, w))
                      if rng.random() < 0.75}
            assert block_morphism(src, tgt, blocks).components \
                == ref_block(src.parts, tgt.parts, blocks)
            d = _random_map(x, y, rng)
            for basis, d_first in ((hom_basis(y, z), True), (hom_basis(w, x), False),
                                   (hom_basis(y, y), True), (hom_basis(x, x), False)):
                assert composite_rows(d, basis, d_first) \
                    == ref_composite_rows(d, basis, d_first)


def _kernel_image_cokernel_match_reference(f):
    """The kernel and cokernel of f against their references, entry for
    entry, and the image, the kernel of the cokernel projection, against
    the kernel reference of that projection and the column spaces of f."""
    quot, proj = cokernel_morphism(f)
    action, comps = ref_cokernel(f)
    _same_module(quot, {v: c.rows for v, c in comps.items()}, action)
    assert proj.components == comps
    assert proj.is_surjective() is ref_surjective(proj) is True
    assert proj.is_injective() is ref_injective(proj)
    for g in (f, proj):
        sub, incl = kernel_morphism(g)
        action, comps = ref_kernel(g)
        _same_module(sub, {v: c.cols for v, c in comps.items()}, action)
        assert incl.components == comps
        assert incl.is_injective() is ref_injective(incl) is True
        assert incl.is_surjective() is ref_surjective(incl)
    image = ref_image(f)[1]             # ker proj, last above, is im f
    for v, c in incl.components.items():
        assert c.cols == image[v].cols == rank(Mat.hstack([c, image[v]]))


def test_kernels_images_cokernels_match_reference(case):
    alg, mods, rng = case
    for x in mods:
        for y in mods:
            for f in (_random_map(x, y, rng), zero_morphism(x, y)):
                _kernel_image_cokernel_match_reference(f)


def test_spans_and_maps_of_indecomposable_projectives_match_reference(case):
    alg, mods, rng = case
    p = alg.p
    for m in mods:
        assert radical_span(m) == ref_radical(m)
        for v in alg.quiver.vertices:
            vec = mat_from_vector([rng.randrange(p) for _ in range(m.dims[v])],
                                  m.dims[v], 1, p)
            assert _components_from_projective(v, vec, m) \
                == ref_from_projective(v, vec, m)
        if not m.is_zero():
            _envelope_matches_reference(m)


def _envelope_matches_reference(x):
    """injective_envelope(x) against the socle route: the same target
    content, and the reference is env.then(phi) for an automorphism phi
    of E.  When no vertex space of x is larger than 1-dimensional, both
    routes take the functional 1 at each socle vertex, so the maps are
    equal entry for entry.  Returns whether they are."""
    env, ref = injective_envelope(x), ref_injective_envelope(x)
    assert env.source is x and env.target.key == ref.target.key
    phi = factor_through(ref, env)
    assert phi is not None and env.then(phi).components == ref.components
    assert all(rank(c) == c.rows == c.cols for c in phi.components.values())
    same = env.components == ref.components
    assert same or max(x.dims.values()) > 1
    return same


def _local_modules(alg):
    """The I_v and every P_v / rad^l P_v (l >= 1): indecomposable, with a
    simple socle or a simple top."""
    out = list(all_injectives(alg))
    for pv in all_projectives(alg):
        span = radical_span(pv)
        while True:
            out.append(quotient_by_submodule(pv, span)[0])
            if all(c.is_zero() for c in span.values()):
                break
            span = ref_radical_step(pv, span)
    return out


def _duality_indecomposables(name, alg):
    """Every indecomposable of a Nakayama algebra of DUALITY_ALGEBRAS, and
    the local modules of the others."""
    if name in ("Pi_3", "Aus(A_3)"):
        return _local_modules(alg)
    return list(nakayama_indecomposables(alg))


@pytest.mark.parametrize("name, p", DUALITY_CASES)
def test_injective_envelope_matches_the_socle_route(name, p):
    """Indecomposables in the standard basis and in a dense random one,
    and two-summand sums in a dense random basis.  Every indecomposable
    of a Nakayama algebra here has vertex spaces of dimension at most 1,
    so its envelope is the reference's, entry for entry."""
    alg = DUALITY_ALGEBRAS[name](p)
    rng = random.Random(f"{name}:{p}")
    nakayama = name not in ("Pi_3", "Aus(A_3)")
    indecs = _duality_indecomposables(name, alg)
    for x in indecs + [in_random_basis(x, rng) for x in indecs]:
        same = _envelope_matches_reference(x)
        assert same or not nakayama
    for _ in range(8):
        _envelope_matches_reference(
            in_random_basis(direct_sum(rng.sample(indecs, 2)).module, rng))


def test_envelope_with_isotropic_socle_vector_matches_the_socle_route():
    # P_2 + P_3 over the 6-cycle with J^2 = 0, with socle (1, 10) at
    # vertex 3 and (1, 10).(1, 10) = 0 in F_101: the envelope is an
    # isomorphism through other functionals than the reference's
    alg = nakayama_algebra(6, 2, cyclic=True, p=101)
    x = Module(alg, {"2": 1, "3": 2, "4": 1},
               {"a2": Mat(2, 1, (1, 10), 101), "a3": Mat(1, 2, (91, 1), 101)})
    assert not _envelope_matches_reference(x)


def _zero_spans(x, rng):
    """Zero spans in x of three kinds: zero-valued columns at every vertex,
    no columns at any vertex, and the two alternating across vertices."""
    p, verts = x.algebra.p, x.algebra.quiver.vertices
    return [{v: Mat.zero(x.dims[v], rng.randint(1, 3), p) for v in verts},
            {v: Mat.zero(x.dims[v], 0, p) for v in verts},
            {v: Mat.zero(x.dims[v], i % 2 * rng.randint(1, 3), p)
             for i, v in enumerate(verts)}]


def test_one_map_stacks_match_the_one_summand_block(case):
    """A stack of one map equals the map block_morphism builds into (out
    of) the one-summand direct sum, and the plain block reference, by
    content key of both ends and by every component."""
    alg, mods, rng = case
    for x in mods:
        for y in mods:
            for f in (_random_map(x, y, rng), zero_morphism(x, y)):
                ref = ref_block([x], [y], {(0, 0): f})
                for stacked, generic in (
                        (stack_morphisms_to_sum([f]),
                         block_morphism(x, direct_sum([y]), {(0, 0): f})),
                        (stack_morphisms_from_sum([f]),
                         block_morphism(direct_sum([x]), y, {(0, 0): f}))):
                    assert stacked.source.key == generic.source.key == x.key
                    assert stacked.target.key == generic.target.key == y.key
                    assert stacked.components == generic.components == ref


def _zero_span_quotients_match_the_cokernel_path(x, rng):
    """The quotient of x by each zero span equals the cokernel of the
    inclusion of the submodule the span's column spaces carry, and the
    plain cokernel reference: x itself, by content key, and the identity
    of x."""
    for span in _zero_spans(x, rng):
        incl = ref_inclusion(x, span)
        generic, generic_proj = cokernel_morphism(incl)
        action, comps = ref_cokernel(incl)
        quot, proj = quotient_by_submodule(x, span)
        assert quot.key == generic.key == x.key
        _same_module(quot, {v: c.rows for v, c in comps.items()}, action)
        assert proj.source.key == generic_proj.source.key == x.key
        assert proj.target.key == generic_proj.target.key == x.key
        assert proj.components == generic_proj.components == comps \
            == identity_morphism(x).components


def _with_redundant_columns(m, rng):
    """m followed by two random combinations of its columns."""
    p = m.p
    extra = Mat.from_rows([[rng.randrange(p) for _ in range(2)] for _ in range(m.cols)],
                          p, cols=2)
    return Mat.hstack([m, m.mul(extra)])


def test_zero_span_quotients_match_the_cokernel_path(case):
    alg, mods, rng = case
    for x in mods:
        _zero_span_quotients_match_the_cokernel_path(x, rng)


@pytest.mark.parametrize("name, p", DUALITY_CASES)
def test_kernels_cokernels_and_quotients_match_reference_in_a_dense_basis(name, p):
    """The kernel, image and cokernel reference test, the zero-span
    quotient test and quotients by random submodules, on indecomposables
    in the standard basis and on copies of them and of two-summand sums
    in a dense random basis, where kernels, images and submodules are
    not spanned by coordinate vectors.  Maps are random elements of
    End(x) and of Hom(x, y) for random y, and the zero map."""
    alg = DUALITY_ALGEBRAS[name](p)
    rng = random.Random(f"{name}:{p}")
    indecs = _duality_indecomposables(name, alg)
    mods = indecs + [in_random_basis(x, rng) for x in indecs] + [
        in_random_basis(direct_sum(rng.sample(indecs, 2)).module, rng)
        for _ in range(4)]
    for x in mods:
        for y in (x, rng.choice(mods)):
            _kernel_image_cokernel_match_reference(_random_map(x, y, rng))
        _kernel_image_cokernel_match_reference(zero_morphism(x, rng.choice(mods)))
        _zero_span_quotients_match_the_cokernel_path(x, rng)
        span = {v: _with_redundant_columns(m, rng)
                for v, m in random_submodule_span(x, rng).items()}
        quot, proj = quotient_by_submodule(x, span)
        action, comps = ref_cokernel(ref_inclusion(x, span))
        _same_module(quot, {v: c.rows for v, c in comps.items()}, action)
        assert proj.components == comps


def test_a_zero_span_with_a_wrong_row_count_raises(case):
    """A span whose matrix at some vertex v does not have dim x_v rows is
    refused, whether its columns are zero-valued or absent."""
    alg, mods, rng = case
    for x in mods:
        for span in _zero_spans(x, rng):
            for v, m in span.items():
                for rows in {m.rows + 1, max(m.rows - 1, 0)} - {m.rows}:
                    bad = {**span, v: Mat.zero(rows, m.cols, alg.p)}
                    with pytest.raises(ValueError, match=f"span at vertex {v}"):
                        quotient_by_submodule(x, bad)


@pytest.fixture
def canonical_modules(monkeypatch):
    """Wrap reps._module, which checks nothing, to assert that every module
    the package derives is in the canonical form that Module._shape checks
    and would leave unchanged; returns the modules seen."""
    seen = []
    module = reps._module

    def checked(alg, dims, action):
        m = object.__new__(reps.Module)
        m.__dict__.update(algebra=alg, dims=dims, action=action)
        m._shape()
        assert list(m.dims.items()) == list(dims.items())
        assert list(m.action.items()) == list(action.items())
        seen.append(m)
        return module(alg, dims, action)
    monkeypatch.setattr(reps, "_module", checked)
    return seen


def test_derived_modules_come_in_canonical_form(canonical_modules, case):
    # requested first, the wrapper is in place when the case is built
    for check in (test_morphism_arithmetic_matches_reference,
                  test_sums_and_composite_rows_match_reference,
                  test_kernels_images_cokernels_match_reference,
                  test_spans_and_maps_of_indecomposable_projectives_match_reference,
                  test_one_map_stacks_match_the_one_summand_block,
                  test_zero_span_quotients_match_the_cokernel_path):
        check(case)
    assert canonical_modules


def test_demo_modules_come_in_canonical_form(canonical_modules, tmp_path):
    from nexakt.cli import main
    assert main(["demo", "preproj-a2", "--out", str(tmp_path)]) == 0
    assert canonical_modules


def test_cases_have_zero_vertices():
    """The cases reach what the builders skip: the zero module, and modules
    zero at some vertices but not at all."""
    for name in ("A4/J^2", "Pi_2", "6-cycle/J^2", "Kronecker"):
        alg = _algebra(name, 101)
        mods = _modules(name, alg, random.Random(f"{name}:101"))
        assert mods[0].is_zero()
        assert any(0 < sum(1 for d in m.dims.values() if d) < len(m.dims)
                   for m in mods), name


# -- no fp call on a zero-dimensional slot -------------------------------


def _twisted_sum(mods, picks, rng):
    return in_random_basis(direct_sum([mods[i] for i in picks]).module, rng)


@pytest.fixture
def empty_results_raise(monkeypatch):
    """A function that makes Mat.mul, add, scale, from_blocks and
    fp.mat_from_vector raise on a result with a zero side; the inputs of a
    request are built before it is called."""
    def guarded(name, fn):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            if not (out.rows and out.cols):
                raise AssertionError(f"{name} made a {out.rows}x{out.cols} matrix")
            return out
        return call

    def install():
        for name in ("mul", "add", "scale"):
            monkeypatch.setattr(Mat, name, guarded(name, getattr(Mat, name)))
        monkeypatch.setattr(Mat, "from_blocks",
                            staticmethod(guarded("from_blocks", Mat.from_blocks)))
        for mod in (fp, reps, fileio):
            monkeypatch.setattr(mod, "mat_from_vector",
                                guarded("mat_from_vector", fp.mat_from_vector))
    return install


def test_addm_requests_hand_fp_no_zero_dimensional_slot(empty_results_raise):
    """One request of each add(M) kind on K A_9/J^2 at p = 65537, as the
    addm-certify workload makes them; inputs are built first."""
    alg, gens = gen_linear_An_J2(2, 4, p=65537)
    cat = add_category(alg, gens, seed=0)
    indecs = nakayama_indecomposables(alg)
    rng = random.Random(5)
    src, tgt, via = (_twisted_sum(gens, picks, rng)
                     for picks in ([0, 9], [3, 10, 4], [5, 11]))
    d, f0 = _random_map(src, tgt, rng), _random_map(src, via, rng)
    x = _twisted_sum(indecs, [2, 12, 7], rng)
    lam = in_random_basis(regular_module(alg), rng)
    empty_results_raise()
    seq = n_cokernel(d, cat, 2)
    assert seq.diff(0).then(seq.diff(1)).is_zero()
    n_kernel(d, cat, 2)
    n_pushout(complex_from_maps(0, [d, weak_cokernel(d, cat)]), f0, cat)
    assert minimal_left_approximation(x, cat).source.dims == x.dims
    assert minimal_right_approximation(x, cat).target.dims == x.dims
    assert in_add(tgt, cat.generators)
    assert ext_via_approx_resolution(x, via, cat, 1, 2) == ext_dim(x, via, 1)
    assert strong_projectivity_check(lam, d, cat)[0] is True


def test_angle_requests_hand_fp_no_zero_dimensional_slot(empty_results_raise):
    """standard_angle, rotate_angle and verify_angle_exact on the 6-cycle
    with J^2 = 0 at p = 101, M = add(Lambda + S_0 + S_2 + S_4), n = 2, as
    the frobenius-angles workload makes them."""
    alg = nakayama_algebra(6, 2, cyclic=True, p=101)
    gens = ([all_projectives(alg)[v] for v in range(6)]
            + [simple_module(alg, str(v)) for v in (0, 2, 4)])
    ctx = check_frobenius_setup(alg, add_category(alg, gens, seed=0), 2,
                                nakayama_indecomposables(alg), seed=0)
    rng = random.Random(5)
    alpha = _random_map(_twisted_sum(gens, [6, 1], rng),
                        _twisted_sum(gens, [2, 7, 0], rng), rng)
    empty_results_raise()
    angle = standard_angle(ctx, alpha)
    assert verify_angle_exact(ctx, angle)[0] is True
    assert verify_angle_exact(ctx, rotate_angle(ctx, angle))[0] is True
