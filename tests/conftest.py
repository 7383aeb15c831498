import random
from itertools import combinations, product
from types import SimpleNamespace

import pytest

from nexakt import reps
from nexakt.addcat import (Indecomposables, PreconditionError, _lift_along,
                           _weak_cokernel, add_category)
from nexakt.complexes import ComplexMorphism, ComplexSeq, complex_from_maps
from nexakt.fp import FieldSpec, Mat, mat_from_vector, rank, solve_linear
from nexakt.frob import (Angle, _closed_coresolution, stable_hom, suspension,
                         suspension_morphism)
from nexakt.presets import (gen_auslander_linear_A, gen_linear_An_J2,
                            gen_preprojective_A, nakayama_algebra,
                            nakayama_indecomposables)
from nexakt.quivers import PathWord, Quiver, Relation, build_algebra
from nexakt.reps import (Module, Morphism, _require_same_algebra, all_injectives,
                         all_projectives, assemble_from_span, block_morphism,
                         composite_rows, direct_sum, hom_basis,
                         hom_dims_and_ranks, identity_morphism,
                         projective_module,
                         quotient_by_submodule, simple_module, solve_rows,
                         split_indecomposables, stack_morphisms_from_sum)
from nexakt.resolutions import ext_dim, min_injective_coresolution


def linear_a3_j2(p=101):
    """Vertices 0 <- 1 <- 2, all length-2 paths zero: K A_3/J^2 with its
    arrows named a and b, not a1 and a2 as presets.nakayama_algebra(3, 2)
    names them, since tests read those names (test_reps.py reads the
    action of "a" on P_1, and passes actions keyed "a" and "b")."""
    q = Quiver.build(["0", "1", "2"], [("a", "1", "0"), ("b", "2", "1")])
    rel = Relation(((1, PathWord(("b", "a"))),))
    return build_algebra(q, [rel], 2, FieldSpec(p))


def preprojective_a2(p=101):
    """Doubled A_2: arrows a: 1->2 and b: 2->1 with ab = ba = 0.  This is
    C_2/J^2 on vertices 1 and 2 with arrows named a and b, kept apart from
    presets.nakayama_algebra(2, 2, cyclic=True) (vertices 0 and 1, arrows
    a0 and a1) since tests read these names."""
    q = Quiver.build(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    rels = [Relation(((1, PathWord(("a", "b"))),)),
            Relation(((1, PathWord(("b", "a"))),))]
    return build_algebra(q, rels, 2, FieldSpec(p))


def two_loops(bound, p):
    """One vertex, loops x and y, xy = yx, x^2 = y^3, y^4 = 0: the relations
    are not homogeneous.  Inputs only (quiver, relations, bound); the
    algebra builds at bound 5 and above."""
    q = Quiver.build(["1"], [("x", "1", "1"), ("y", "1", "1")])
    rels = [Relation(((1, PathWord(("x", "y"))), (p - 1, PathWord(("y", "x"))))),
            Relation(((1, PathWord(("x", "x"))), (p - 1, PathWord(("y", "y", "y"))))),
            Relation(((1, PathWord(("y", "y", "y", "y"))),))]
    return q, rels, bound


def cyclic6_j2(p=101):
    """C_6/J^2 over F_p, the frobenius-angles algebra, and the generators
    of its 2-CT module Lambda + S_0 + S_2 + S_4: P_0..P_5, S_0, S_2, S_4."""
    alg = nakayama_algebra(6, 2, cyclic=True, p=p)
    return alg, ([projective_module(alg, str(v)) for v in range(6)]
                 + [simple_module(alg, str(v)) for v in (0, 2, 4)])


def kronecker_algebra(p=101):
    """The Kronecker algebra: arrows a, b: 1 -> 2, no relations."""
    q = Quiver.build(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    return build_algebra(q, [], 2, FieldSpec(p))


def kronecker_field_module(p):
    """The Kronecker module R with a = I and b the companion matrix of an
    irreducible quadratic, so End R = F_(p^2): indecomposable, not a brick."""
    if p == 2:
        b = Mat.from_rows([[0, 1], [1, 1]], p)            # x^2 + x + 1
    else:
        r = next(r for r in range(2, p) if pow(r, (p - 1) // 2, p) == p - 1)
        b = Mat.from_rows([[0, r], [1, 0]], p)            # x^2 - r
    return Module(kronecker_algebra(p), {"1": 2, "2": 2},
                  {"a": Mat.identity(2, p), "b": b})


# -- helpers the tests share (the package has no use for them) ------------


def named_modules(alg):
    """P_v, then S_v, for every vertex v, keyed "P" + v and "S" + v."""
    vertices = alg.quiver.vertices
    return {**{f"P{v}": projective_module(alg, v) for v in vertices},
            **{f"S{v}": simple_module(alg, v) for v in vertices}}


def only_hom(x, y):
    """The basis element of Hom(x, y), which must be one-dimensional."""
    (f,) = hom_basis(x, y)
    return f


def a3_sequence(mods):
    """The exact sequence S0 -> P1 -> P2 -> S2 over K A_3/J^2 in degrees
    0..3, from the named_modules of the algebra."""
    return complex_from_maps(0, [only_hom(mods[a], mods[b]) for a, b in
                                 (("S0", "P1"), ("P1", "P2"), ("P2", "S2"))])


def corner_identity(x, y):
    """The identity map between the lowest terms of x and y (equal
    dimension vectors), by the checked constructor."""
    src, tgt = x.term(x.lo), y.term(y.lo)
    assert src.dims == tgt.dims
    return Morphism(src, tgt, {v: Mat.identity(d, src.algebra.p)
                               for v, d in src.dims.items()})


def equals(f, g):
    """Equal maps: endpoints of equal content and equal components."""
    return (f.source.same_as(g.source) and f.target.same_as(g.target)
            and f.vectorize() == g.vectorize())


def pick(indecs, indices):
    """The sublist of a checked Indecomposables at the given positions:
    checked, and not complete."""
    return Indecomposables([indecs[i] for i in indices])


def random_invertible(n, p, rng):
    """Uniform-ish invertible matrix by rejection sampling."""
    while True:
        m = Mat.from_rows([[rng.randrange(p) for _ in range(n)] for _ in range(n)],
                          p, cols=n)
        if rank(m) == n:
            return m


def interval_complex(k, c):
    """The contractible complex with c in degrees k and k+1 and identity
    differential."""
    return ComplexSeq(k, [c, c], [identity_morphism(c)])


def direct_sum_complexes(x, y):
    lo = min(x.lo, y.lo)
    hi = max(x.hi, y.hi)
    sums = [direct_sum([x.term(k), y.term(k)]) for k in range(lo, hi + 1)]
    diffs = [block_morphism(sums[k - lo], sums[k - lo + 1],
                            {(0, 0): x.diff(k), (1, 1): y.diff(k)})
             for k in range(lo, hi)]
    return ComplexSeq(lo, [s.module for s in sums], diffs)


def identity_complex_morphism(x):
    return ComplexMorphism(x, x, {k: identity_morphism(x.term(k))
                                  for k in x.degrees()})


def complete_to_chain_map(x, y, f0):
    """Extend f0: x^lo -> y^lo to a chain map by weak-cokernel
    factorizations (HypothesisError names the failing degree)."""
    comps = _lift_along(f0, list(x.diffs),
                        [y.diff(k) for k in range(x.lo, x.hi)], x.lo)
    return ComplexMorphism(x, y, dict(enumerate(comps, x.lo)))


def ref_pushout_ladder(x, f0, m):
    """Reference for pushout._n_pushout's ladder: (d_Y, f components, top
    w), each w the weak cokernel of the cone differential before it and
    f^{k+1}, d_Y^k its composites with the inclusions of X^{k+1} and Y^k
    (block_morphism of an identity), not column blocks.  No verdict is
    read."""
    lo, n = x.lo, len(x.terms) - 1
    y_diffs, f_comps = [], [f0]
    c = direct_sum([x.terms[1], f0.target])
    d = block_morphism(x.terms[0], c, {(0, 0): x.diff(lo).scale(-1), (1, 0): f0})
    for k in range(n):
        w = _weak_cokernel(d, m)
        f_next, d_y = (block_morphism(part, c, {(i, 0): identity_morphism(part)})
                       .then(w) for i, part in enumerate(c.parts))
        y_diffs.append(d_y)
        f_comps.append(f_next)
        if k < n - 1:
            c_next = direct_sum([x.terms[k + 2], w.target])
            d = block_morphism(c, c_next, {(0, 0): x.diff(lo + k + 1).scale(-1),
                                           (1, 0): f_next, (1, 1): d_y})
            c = c_next
    return y_diffs, f_comps, w


def ref_pushout_top_ok(w, m):
    """Reference for _n_pushout's top check, by composing and ranking:
    Hom(w, G) is injective on Hom(Y^n, G), its rank equal to that
    dimension, for every generator G."""
    return all(rank == dim for g in m.generators
               for dim, rank in hom_dims_and_ranks([w], g, contravariant=True))


def cosyzygy_projection(m, k):
    """The epi I^k -> cosyzygy_of(m, k) closing the length-k coresolution."""
    return min_injective_coresolution(m, k).links[k - 1]


def ref_suspension_morphism(ctx, f):
    """Reference for frob.suspension_morphism: the last component of the
    chain map extending f along the closed coresolutions, lifted in full
    whatever its ends."""
    return _lift_along(f, _closed_coresolution(f.source, ctx.n),
                       _closed_coresolution(f.target, ctx.n))[-1]


def ref_continuation(ctx, a):
    """Reference for frob._continued(ctx, a, n + 2), as verify_angle_exact
    built it: the objects, the suspension of each and Sigma Sigma X^0, then
    the maps, closing included, and the suspension of each."""
    nodes = list(a.objects) + [suspension(ctx, obj) for obj in a.objects] \
        + [suspension(ctx, suspension(ctx, a.objects[0]))]
    chain = a.all_maps() + [suspension_morphism(ctx, u) for u in a.all_maps()]
    return nodes, chain


def ref_angle_cone(ctx, phi):
    """Reference for the cone of frob.angle_cone, unverified, with its own
    direct sums and block differentials: C^k = X^{k+1} + Y^k for
    k = 0 .. n+2, differential [[-alpha^{k+1}, 0], [phi^{k+1}, beta^k]],
    and the last one, into Sigma X^1 + Sigma Y^0, glued to Sigma(C^0)."""
    n = ctx.n
    a, b = phi.source, phi.target
    alpha = a.all_maps() + [suspension_morphism(ctx, a.maps[0])]
    beta = b.all_maps()
    comps = list(phi.components) + [phi.suspended0]
    xs = list(a.objects) + [suspension(ctx, a.objects[0]),
                            suspension(ctx, a.objects[1])]
    ys = list(b.objects) + [suspension(ctx, b.objects[0])]
    sums = [direct_sum([xs[k + 1], ys[k]]) for k in range(n + 3)]
    gammas = [block_morphism(sums[k], sums[k + 1],
                             {(0, 0): alpha[k + 1].scale(-1),
                              (1, 0): comps[k + 1], (1, 1): beta[k]})
              for k in range(n + 2)]
    glue = stack_morphisms_from_sum([
        suspension_morphism(ctx, block_morphism(part, sums[0],
                                                {(i, 0): identity_morphism(part)}))
        for i, part in enumerate(sums[0].parts)])
    closing = gammas.pop().then(glue)
    return Angle([s.module for s in sums[:n + 2]], gammas, closing)


def same_angle(a, b):
    """The same objects, in order, and maps with the same endpoints and
    entries, closing included."""
    return (len(a.objects) == len(b.objects) and len(a.maps) == len(b.maps)
            and all(x is y for x, y in zip(a.objects, b.objects))
            and all(f.source is g.source and f.target is g.target
                    and f.vectorize() == g.vectorize()
                    for f, g in zip(a.all_maps(), b.all_maps())))


def stably_equal(f, g):
    """f - g factors through an injective: its stable rank is 0."""
    return stable_hom(None, f.source, f.target).rank([f.sub(g)]) == 0


def are_isomorphic(m, n, seed):
    """Probabilistic isomorphism test of any two modules: equal content
    (the identity map), then equal dimension vectors and random Hom
    elements sampled for vertex-wise invertibility, up to the package's
    retry bound reps.FITTING_RETRIES.  Package code decides isomorphism
    only to indecomposables, and exactly (_isomorphic_to_indecomposable);
    this is the general test, a reference for tests."""
    _require_same_algebra(m, n)
    if m.same_as(n):
        return True
    if m.dim_vector() != n.dim_vector():
        return False
    basis = hom_basis(m, n)
    if not basis:
        return False
    p = m.algebra.p
    rng = random.Random(seed)
    for _ in range(reps.FITTING_RETRIES):
        cand = assemble_from_span(basis, [rng.randrange(p) for _ in basis], m, n)
        if all(rank(cand.components[v]) == m.dims[v]
               for v in m.algebra.quiver.vertices):
            return True
    return False


def stably_isomorphic_objects(ctx, x, y, seed=0):
    """Compare non-injective indecomposable summand multisets."""
    def reduced_parts(z):
        out = []
        for part, count in split_indecomposables(z, seed + 31):
            if any(are_isomorphic(part, j, seed + 7)
                   for j in all_injectives(ctx.algebra)):
                continue
            out.append((part, count))
        return out

    px, py = reduced_parts(x), reduced_parts(y)
    if len(px) != len(py):
        return False
    used = set()
    for part, count in px:
        hit = None
        for i, (q, c) in enumerate(py):
            if i in used:
                continue
            if c == count and are_isomorphic(part, q, seed + 3):
                hit = i
                break
        if hit is None:
            return False
        used.add(hit)
    return True


def exhaustively_indecomposable(x, budget=1 << 16):
    """Reference oracle: scan End(x) for nontrivial idempotents when
    p^dim End is at most the budget; None when it is larger."""
    if x.total_dim == 0:
        return False
    basis = hom_basis(x, x)
    p = x.algebra.p
    if p ** len(basis) > budget:
        return None
    coeffs = [0] * len(basis)
    while True:
        e = assemble_from_span(basis, coeffs, x, x)
        if equals(e.then(e), e) and not e.is_zero() and not equals(e, identity_morphism(x)):
            return False
        i = 0
        while i < len(coeffs):
            coeffs[i] += 1
            if coeffs[i] < p:
                break
            coeffs[i] = 0
            i += 1
        else:
            return True


def identity_through(x, gens):
    """Reference membership test, the two-sided one: x lies in add(gens)
    iff id_x is in the span of the composites x -> G -> x over every
    generator.  Sound for decomposable generators too, since x may be a
    summand of copies of one that does not fit inside it."""
    composites = [row for g in gens for f in hom_basis(x, g)
                  for row in composite_rows(f, hom_basis(g, x), d_first=True)]
    return solve_rows([composites], [identity_morphism(x).vectorize()],
                      x.algebra.p) is not None


def mat_check_natural_batch(m, n, comps):
    """Reference for reps._check_natural_batch, with Mat products: per
    arrow and map, n's action times the component at the source against
    the component at the target times m's action; the same error as the
    package's."""
    for a in m.algebra.quiver.arrows:
        if n.dims[a.target] * m.dims[a.source] == 0:
            continue
        for c in comps:
            if n.action[a.name].mul(c[a.source]) != c[a.target].mul(m.action[a.name]):
                raise ValueError(f"naturality fails at arrow {a.name}")


def ref_composite_rows(d, basis, d_first):
    """Reference for reps.composite_rows: the entries of each composite,
    one Mat product per vertex."""
    verts = d.source.algebra.quiver.vertices
    if d_first:
        return [tuple(x for v in verts
                      for x in b.components[v].mul(d.components[v]).entries)
                for b in basis]
    return [tuple(x for v in verts
                  for x in d.components[v].mul(b.components[v]).entries)
            for b in basis]


def ref_radical_step(m, span):
    """Spanning matrices of rad^(l+1) m from those of rad^l m: at v, the
    actions of the arrows into v times the spans at their sources, side
    by side, after an empty first block."""
    alg = m.algebra
    return {v: Mat.hstack([Mat.zero(m.dims[v], 0, alg.p)]
                          + [m.action[a.name].mul(span[a.source])
                             for a in alg.quiver.arrows if a.target == v])
            for v in alg.quiver.vertices}


def in_random_basis(x, rng):
    """A module isomorphic to x, built by the checked constructor: each
    arrow acts by u_t A u_s^-1 for random invertible u_v, so a vector
    that is a coordinate vector of x need not be one of the result."""
    p = x.algebra.p
    u = {v: random_invertible(d, p, rng) for v, d in x.dims.items()}
    inv = {v: solve_linear(m, Mat.identity(m.rows, p)) for v, m in u.items()}
    return Module(x.algebra, dict(x.dims),
                  {a.name: u[a.target].mul(x.action[a.name]).mul(inv[a.source])
                   for a in x.algebra.quiver.arrows})


# Algebras on which D = Hom_F(-, F) and the envelope are checked against
# their references, built at a given prime; the first five are Nakayama.
DUALITY_ALGEBRAS = {
    "A5/J^2": lambda p: nakayama_algebra(5, 2, p=p),
    "A7/J^3": lambda p: nakayama_algebra(7, 3, p=p),
    "C5/J^3": lambda p: nakayama_algebra(5, 3, cyclic=True, p=p),
    "C6/J^4": lambda p: nakayama_algebra(6, 4, cyclic=True, p=p),
    "Pi_2": lambda p: gen_preprojective_A(2, p),
    "Pi_3": lambda p: gen_preprojective_A(3, p),
    "Aus(A_3)": lambda p: gen_auslander_linear_A(3, p),
}
DUALITY_CASES = [(name, p) for name in DUALITY_ALGEBRAS for p in (2, 101, 2**31 - 1)]


def random_quotient(x, rng):
    """x divided by the submodule random_submodule_span gives."""
    return quotient_by_submodule(x, random_submodule_span(x, rng))[0]


def random_submodule_span(x, rng):
    """Vertex spans, one basis each, of the submodule one random vector
    generates: the vector and its images under every arrow, closed up
    vertex by vertex.  The vector is the image of a random vector under a
    random arrow acting nonzero on x, so it lies in the radical and the
    quotient is nonzero; when every arrow acts by zero it is a random
    vector of x."""
    alg, p = x.algebra, x.algebra.p
    gens = {v: [] for v in x.dims}
    live = [a for a in alg.quiver.arrows if not x.action[a.name].is_zero()]
    if live:
        a = rng.choice(live)
        vec = mat_from_vector([rng.randrange(p) for _ in range(x.dims[a.source])],
                              x.dims[a.source], 1, p)
        todo = [(a.target, list(x.action[a.name].mul(vec).entries))]
    else:
        v = rng.choice([v for v, d in x.dims.items() if d])
        todo = [(v, [rng.randrange(p) for _ in range(x.dims[v])])]
    while todo:
        v, vec = todo.pop()
        if rank(Mat.from_rows(gens[v] + [vec], p, cols=x.dims[v])) == len(gens[v]):
            continue
        gens[v].append(vec)
        for a in alg.quiver.arrows:
            if a.source == v and x.dims[a.target]:
                image = x.action[a.name].mul(mat_from_vector(vec, len(vec), 1, p))
                todo.append((a.target, list(image.entries)))
    return {v: Mat.from_rows(rows, p, cols=x.dims[v]).transpose()
            for v, rows in gens.items()}


def stack_rows(mats, cols, p):
    """The matrices with cols columns over F_p, one below the other."""
    return Mat.from_rows([row for m in mats for row in m.to_lists()], p, cols=cols)


def full_ext_table(indecs, n):
    """dim Ext^{1..n-1} by ext_dim over every ordered pair of entries, none
    skipped: the modules, n, projs, injs, dims, out and into of a
    tilting._ExtTable whose rows are every position.  projs and injs pair
    each vertex with the position of the entry isomorphic to P_v (I_v),
    by Indecomposables.index_of, or with None."""
    alg, size = indecs[0].algebra, range(len(indecs))

    def positions(modules):
        found = []
        for v, x in zip(alg.quiver.vertices, modules):
            try:
                found.append((v, indecs.index_of(x)))
            except PreconditionError:
                found.append((v, None))
        return found

    dims = {(i, j): [ext_dim(indecs[i], indecs[j], deg) for deg in range(1, n)]
            for i in size for j in size}
    return SimpleNamespace(
        modules=indecs, n=n, dims=dims, projs=positions(all_projectives(alg)),
        injs=positions(all_injectives(alg)),
        out=[sum(1 << j for j in size if any(dims[i, j])) for i in size],
        into=[sum(1 << i for i in size if any(dims[i, j])) for j in size])


def sweep_generator_maps():
    """(label, M, d) over K A_3/J^2 and K A_4/J^2: M = add of every nonempty
    sublist of the indecomposables, d every Hom-basis map between two
    generators; the label names the algebra, sublist, generators and basis
    position."""
    for k in (3, 4):
        alg, _ = gen_linear_An_J2(1, k - 1)
        indecs = nakayama_indecomposables(alg)
        for r in range(1, len(indecs) + 1):
            for picked in combinations(range(len(indecs)), r):
                m = add_category(alg, pick(indecs, picked))
                for (i, g), (j, h) in product(enumerate(m.generators), repeat=2):
                    for b, d in enumerate(hom_basis(g, h)):
                        yield [k, list(picked), i, j, b], m, d


@pytest.fixture
def a3():
    return linear_a3_j2()


@pytest.fixture
def a3_mods(a3):
    return named_modules(a3)


@pytest.fixture
def m3(a3):
    """add(P0 + P1 + P2 + S2), the 2-CT subcategory of K A_3/J^2."""
    gens = [projective_module(a3, v) for v in "012"] + [simple_module(a3, "2")]
    return add_category(a3, gens, seed=1)


@pytest.fixture
def pi2():
    return preprojective_a2()
