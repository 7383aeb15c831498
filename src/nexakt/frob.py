"""Frobenius structure on an n-cluster-tilting subcategory of a
selfinjective algebra: stable Hom, suspension, standard (n+2)-angles,
rotation, completion of angle morphisms and mapping cones of angles.

A map x -> y factors through an injective iff it factors through the
injective envelope x -> E(x), so stable dimensions and stable ranks are
rank counts against the envelope composites (the ideal rows of
StableHom), and a map is stably zero when its stable rank is 0.

Suspension is computed from fixed minimal coresolutions, so it is a
genuine function on objects; everything it is compared against is taken
up to stable isomorphism, and certificates record stable ranks only.
Sigma on objects and maps and both kinds of angle read one closed
coresolution x -> I^1 -> ... -> I^n -> Sigma x, and Sigma(f) is the
chain-map completion of f along it (addcat._lift_along).
Sign conventions: an n-exact sequence induces an angle with closing sign
(-1)^n, and left rotation closes with (-1)^n times the suspended first
map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple

from .addcat import (AddCat, DomainError, HypothesisError, PreconditionError,
                     _lift_along, _require_in_add, verify_n_exact)
from .complexes import ComplexSeq, ComplexMorphism, _complex
from .fp import _reduce
from .pushout import _factor_pushout, _n_pushout
from .quivers import AlgebraBasis
from .reps import (Module, Morphism, all_injectives, assemble_from_span,
                   block_morphism, composite_rows, coordinate_length,
                   direct_sum, factor_through, hom_basis, identity_morphism,
                   in_add, rows_rank, solve_rows, stack_morphisms_from_sum,
                   zero_module, zero_morphism)
from .resolutions import _injective_chain, cosyzygy_of, is_projective, syzygy
from .tilting import NctReport, check_n_cluster_tilting


class SetupError(ValueError):
    pass


@dataclass
class FrobeniusCtx:
    algebra: AlgebraBasis
    m: AddCat
    n: int
    nct_report: NctReport


def check_frobenius_setup(alg: AlgebraBasis, m: AddCat, n: int,
                          indec_list: Sequence[Module],
                          seed: int = 0) -> FrobeniusCtx:
    """Verify the n-CT property, selfinjectivity and (co)syzygy closure.
    Selfinjectivity is read from the top: each I_v is indecomposable, so
    it is projective (is_projective) iff it is isomorphic to some P_w.
    The closure check tests Sigma^n C = C, C = add(M) in the stable category
    (Geiss-Keller-Oppermann, "n-angulated categories", J. reine angew. Math.
    675 (2013), Thm. 1): Omega^-n g (along the memoized coresolution the
    suspension uses) and Omega^n g lie in add(M) for each generator g."""
    report = check_n_cluster_tilting(m, n, indec_list, seed=seed)
    if not report.ok:
        raise SetupError(f"subcategory is not n-cluster-tilting: "
                         f"{report.to_dict()}")
    for v, iv in zip(alg.quiver.vertices, all_injectives(alg)):
        if not is_projective(iv):
            raise SetupError(f"algebra not selfinjective: I_{v} is not projective")
    for i, g in enumerate(m.generators):
        if not in_add(cosyzygy_of(g, n), m.generators):
            raise SetupError(f"cosyzygy closure fails at generator {i}")
        if not in_add(syzygy(g, n), m.generators):
            raise SetupError(f"syzygy closure fails at generator {i}")
    return FrobeniusCtx(alg, m, n, report)


def cosyzygy(ctx: FrobeniusCtx, x: Module, k: int) -> Module:
    if not in_add(x, ctx.m.generators):
        raise DomainError("cosyzygy input not in add(M)")
    return cosyzygy_of(x, k)


def suspension(ctx: FrobeniusCtx, x: Module) -> Module:
    """Sigma x = n-th cosyzygy along the fixed minimal coresolution."""
    return cosyzygy_of(x, ctx.n)


def _closed_coresolution(x: Module, n: int) -> list:
    """x -> I^1 -> ... -> I^n -> Sigma x: the memoized minimal
    coresolution of x, closed by its cosyzygy projection."""
    ch = _injective_chain(x, n)
    return ch.maps[:n] + [ch.links[n - 1]]


# -- stable Hom ----------------------------------------------------------


@dataclass
class StableHom:
    """Hom(source, target) and its ideal of maps through an injective:
    the envelope composed with each element of Hom(E, target).  The Hom
    basis is solved when first read: a stable rank reads only the ideal."""

    source: Module
    target: Module
    envelope: Morphism          # source -> E, the injective envelope

    @cached_property
    def hom(self) -> list:
        return hom_basis(self.source, self.target)

    @property
    def ideal(self) -> list:
        return [self.envelope.then(h) for h in self._from_envelope()]

    @cached_property
    def ideal_rows(self) -> list:
        return composite_rows(self.envelope, self._from_envelope(), d_first=True)

    def _from_envelope(self) -> list:
        return hom_basis(self.envelope.target, self.target)

    @cached_property
    def ideal_rank(self) -> int:
        return rows_rank(self.ideal_rows, self.source.algebra.p)

    @property
    def dim(self) -> int:
        return len(self.hom) - self.ideal_rank

    def rank(self, maps: Sequence[Morphism]) -> int:
        """Dimension of the span of maps in the stable quotient."""
        for f in maps:
            if not (f.source.same_as(self.source)
                    and f.target.same_as(self.target)):
                raise ValueError("map outside this stable Hom space")
        return self._quotient_rank([f.vectorize() for f in maps])

    def composite_rank(self, hom: Sequence[Morphism], u: Morphism) -> int:
        """rank of the maps h.then(u), for h in hom, which must run from
        this source to u.source; read as coordinate rows."""
        if not (u.target.same_as(self.target)
                and all(h.source.same_as(self.source) for h in hom)):
            raise ValueError("map outside this stable Hom space")
        return self._quotient_rank(composite_rows(u, hom, d_first=False))

    def _quotient_rank(self, rows: list) -> int:
        return rows_rank(rows + self.ideal_rows,
                         self.source.algebra.p) - self.ideal_rank


def _envelope(x: Module) -> Morphism:
    """The memoized injective envelope x -> E(x)."""
    return _injective_chain(x, 1).maps[0]


def _injective(x: Module) -> bool:
    """x is injective: its envelope, a mono, reaches x's dimension vector,
    so it is an isomorphism and stable Hom(x, -) = 0."""
    return _envelope(x).target.dim_vector() == x.dim_vector()


def stable_hom(ctx: FrobeniusCtx, m1: Module, m2: Module) -> StableHom:
    """Hom(m1, m2) with the ideal spanned by the envelope of m1 composed
    with Hom(E(m1), m2) (an injective extends along the envelope, a mono);
    kept in the algebra's store by the content ids of m1 and m2."""
    return m1.algebra.memoized(("stable", m1.cid, m2.cid), lambda: StableHom(
        m1, m2, _envelope(m1)))


def stable_hom_basis(ctx: FrobeniusCtx, m1: Module, m2: Module) \
        -> Tuple[int, list, list]:
    """(stable dimension, basis of the injective-factoring ideal, coset
    representatives).  Meaningful for arbitrary modules, not only add(M)."""
    sh = stable_hom(ctx, m1, m2)
    maps = sh.ideal + sh.hom    # the ideal's maps come first
    # with the coordinate rows as columns, the pivot columns are the maps
    # outside the span of those before them
    cols = [list(c) for c in zip(*(f.vectorize() for f in maps))]
    basis = [maps[j] for j in _reduce(cols, len(maps), m1.algebra.p)]
    return sh.dim, basis[:sh.ideal_rank], basis[sh.ideal_rank:]


# -- suspension on morphisms ----------------------------------------------


def suspension_morphism(ctx: FrobeniusCtx, f: Morphism) -> Morphism:
    """A representative of Sigma(f): the last component of the chain map
    extending f along the closed coresolutions."""
    return _lift_along(f, _closed_coresolution(f.source, ctx.n),
                       _closed_coresolution(f.target, ctx.n))[-1]


# -- angles ----------------------------------------------------------------


@dataclass
class Angle:
    """X^0 -> X^1 -> ... -> X^{n+1} with a closing morphism to Sigma X^0.

    Consecutive composites vanish stably.  make_angle checks that of an
    angle the caller brings; the angles built here (standard, trivial,
    from an n-exact sequence, rotated, cones) are angles by construction
    and are built directly, after the check of their input alone."""

    objects: list
    maps: list
    closing: Morphism
    pushout_map: Optional[ComplexMorphism] = None   # of a standard angle

    @property
    def n(self) -> int:
        return len(self.objects) - 2

    def all_maps(self) -> list:
        return list(self.maps) + [self.closing]


def make_angle(ctx: FrobeniusCtx, objects: Sequence[Module],
               maps: Sequence[Morphism], closing: Morphism) -> Angle:
    """The angle the caller brings, checked: n+2 objects in add(M), map i
    from object i to object i+1 and the closing map from object n+1 to
    Sigma X^0 (endpoints compared by content), every consecutive composite
    stably zero.  ValueError names the first position that fails."""
    n = ctx.n
    if len(objects) != n + 2 or len(maps) != n + 1:
        raise ValueError("angle must have n+2 objects and n+1 morphisms")
    for i, obj in enumerate(objects):
        if not in_add(obj, ctx.m.generators):
            raise DomainError(f"angle object {i} not in add(M)")
    for i, f in enumerate(maps):
        if not (f.source.same_as(objects[i]) and f.target.same_as(objects[i + 1])):
            raise ValueError(f"angle map {i} does not run from object {i} "
                             f"to object {i + 1}")
    if not closing.source.same_as(objects[n + 1]):
        raise ValueError(f"closing morphism must start at object {n + 1}")
    sx0 = suspension(ctx, objects[0])
    if not closing.target.same_as(sx0):
        raise ValueError("closing morphism must land in Sigma X^0")
    chain = list(maps) + [closing]
    for k in range(len(chain) - 1):
        u = chain[k].then(chain[k + 1])
        if not _injective(u.source) and \
                stable_hom(ctx, u.source, u.target).rank([u]):
            raise ValueError(f"consecutive composite at {k} not stably zero")
    return Angle(list(objects), list(maps), closing)


def trivial_angle(ctx: FrobeniusCtx, x: Module) -> Angle:
    n = ctx.n
    if not in_add(x, ctx.m.generators):
        raise DomainError("angle object 0 not in add(M)")
    z = zero_module(ctx.algebra)
    maps = [identity_morphism(x), zero_morphism(x, z)] + \
        [zero_morphism(z, z) for _ in range(n - 1)]
    return Angle([x, x] + [z] * n, maps, zero_morphism(z, suspension(ctx, x)))


def standard_angle(ctx: FrobeniusCtx, alpha0: Morphism) -> Angle:
    """The pushout of the fixed coresolution of X^0 along alpha0, closed by
    the induced map to Sigma X^0; both ends of alpha0 must lie in add(M)
    (DomainError naming the first that does not).  Built
    unchecked: the injective coresolution terms lie in add(M), which is
    cogenerating (n-CT), the coresolution is a complex (complexes._complex),
    Y is a complex, alpha0 d_Y^0 = d_X^0 f^1 factors through the envelope
    d_X^0, and d_Y^{n-1} closing = 0 is solved for."""
    n = ctx.n
    x0 = alpha0.source
    _require_in_add(alpha0, ctx.m, "standard_angle")
    *maps, proj = _closed_coresolution(x0, n)
    ix = _complex(0, [x0] + [d.target for d in maps], maps)
    y, f = _n_pushout(ix, alpha0, ctx.m)
    # closing: unique d with f^n.then(d) = proj and d_Y^{n-1}.then(d) = 0
    yn = y.term(n)
    basis = hom_basis(yn, proj.target)
    coeffs = solve_rows(
        [composite_rows(f.component(n), basis, d_first=True),
         composite_rows(y.diff(n - 1), basis, d_first=True)],
        [proj.vectorize(),
         (0,) * coordinate_length(y.term(n - 1), proj.target)], ctx.algebra.p)
    if coeffs is None:
        raise HypothesisError("standard angle: closing morphism not found")
    closing = assemble_from_span(basis, coeffs, yn, proj.target)
    return Angle([x0] + y.terms, [alpha0] + y.diffs, closing, f)


def angle_from_n_exact(ctx: FrobeniusCtx, x: ComplexSeq) -> Angle:
    """The angle induced by an admissible n-exact sequence, closed with
    sign (-1)^n by the comparison map into the fixed coresolution."""
    n = ctx.n
    cert = verify_n_exact(x, ctx.m, n)
    if not cert.ok:
        raise PreconditionError("input complex is not admissible n-exact")
    x0 = x.term(x.lo)
    lift = _lift_along(identity_morphism(x0), list(x.diffs),
                       _closed_coresolution(x0, n), x.lo)
    sign = 1 if n % 2 == 0 else -1
    return Angle([x.term(k) for k in x.degrees()],
                 [x.diff(k) for k in range(x.lo, x.lo + n + 1)],
                 lift[-1].scale(sign))


# -- exactness of angles -----------------------------------------------------


def verify_angle_exact(ctx: FrobeniusCtx, a: Angle) -> Tuple[bool, list]:
    """Exactness of the stable Hom(G, -) sequence over one full suspension
    period, for every generator G; returns (verdict, rank table).

    An injective G (_injective) has stable Hom(G, -) = 0, since every map
    out of G factors through the envelope; its rows are written as zero
    and exact, with no Hom space solved."""
    nodes = list(a.objects) + [suspension(ctx, obj) for obj in a.objects] \
        + [suspension(ctx, suspension(ctx, a.objects[0]))]
    chain = a.all_maps() + [suspension_morphism(ctx, u) for u in a.all_maps()]
    table = []
    ok = True
    for gi, g in enumerate(ctx.m.generators):
        if _injective(g):
            table.extend({"generator": gi, "position": i, "stable_dim": 0,
                          "rank_in": 0, "rank_out": 0, "exact": True}
                         for i in range(1, len(nodes) - 1))
            continue
        spaces = [stable_hom(ctx, g, node) for node in nodes]
        ranks = [spaces[k + 1].composite_rank(spaces[k].hom, u)
                 for k, u in enumerate(chain)]
        for i in range(1, len(nodes) - 1):
            exact = spaces[i].dim - ranks[i] == ranks[i - 1]
            table.append({"generator": gi, "position": i,
                          "stable_dim": spaces[i].dim, "rank_in": ranks[i - 1],
                          "rank_out": ranks[i], "exact": exact})
            ok = ok and exact
    return ok, table


def rotate_angle(ctx: FrobeniusCtx, a: Angle) -> Angle:
    """Left rotation, closing with (-1)^n times the suspended first map."""
    n = ctx.n
    sign = 1 if n % 2 == 0 else -1
    new_closing = suspension_morphism(ctx, a.maps[0]).scale(sign)
    return Angle(a.objects[1:] + [suspension(ctx, a.objects[0])],
                 a.maps[1:] + [a.closing], new_closing)


# -- completion of angle morphisms (axiom F3) and cones (axiom F4) ----------


@dataclass
class AngleMorphism:
    source: Angle
    target: Angle
    components: list            # phi^0 .. phi^{n+1}
    suspended0: Morphism        # representative of Sigma(phi^0)


def complete_angle_morphism(ctx: FrobeniusCtx, a: Angle, b: Angle,
                            phi0: Morphism, phi1: Morphism) -> AngleMorphism:
    """Complete a stably commuting first square to a full morphism of
    angles: phi^2 .. phi^{n+1} are the n-pushout factorization of a's
    pushout map f_a against psi^k g_b^k, started from phi^1 and the
    injectivity step h^1, where psi lifts phi0 along the coresolutions.

    Both angles must carry a pushout map (standard angles do)."""
    if a.pushout_map is None or b.pushout_map is None:
        raise PreconditionError(
            "completion needs standard angles with pushout provenance")
    n = ctx.n
    alpha = a.all_maps()
    beta = b.all_maps()
    gb = b.pushout_map
    # psi[k]: I^k(X^0) -> I^k(Y^0), psi[0] = phi0, psi[n+1] = Sigma(phi0)
    psi = _lift_along(phi0, _closed_coresolution(phi0.source, n),
                      _closed_coresolution(phi0.target, n))
    # h^1 from injectivity: d_IX^0 . h^1 = alpha^0 . phi1 - phi0 . beta^0
    h1 = factor_through(alpha[0].then(phi1).sub(phi0.then(beta[0])),
                        _envelope(a.objects[0]))
    if h1 is None:
        raise PreconditionError(
            "first square does not commute in the stable category")
    p, _ = _factor_pushout(a.pushout_map, gb.target,
                           lambda k: psi[k].then(gb.component(k)), phi1, h1)
    phis = [phi0] + [p[k] for k in range(n + 1)]       # p^k = phi^{k+1}
    # last square: alpha^{n+1} . Sigma(phi0) = phi^{n+1} . beta^{n+1}
    lhs = alpha[n + 1].then(psi[n + 1])
    rhs = phis[n + 1].then(beta[n + 1])
    if not lhs.sub(rhs).is_zero():
        raise HypothesisError("completion: closing square does not commute")
    return AngleMorphism(a, b, phis, psi[n + 1])


def angle_cone(ctx: FrobeniusCtx, phi: AngleMorphism) -> Tuple[Angle, list]:
    """Mapping cone of a completed angle morphism, with its verification
    table (the cone differential is [[-alpha^{k+1}, 0], [phi^{k+1}, beta^k]])."""
    n = ctx.n
    a, b = phi.source, phi.target
    alpha = a.all_maps() + [suspension_morphism(ctx, a.maps[0])]
    beta = b.all_maps()
    comps = list(phi.components) + [phi.suspended0]
    xs = list(a.objects) + [suspension(ctx, a.objects[0]),
                            suspension(ctx, a.objects[1])]
    ys = list(b.objects) + [suspension(ctx, b.objects[0])]
    # C^k = X^{k+1} + Y^k for k <= n+1; gamma^{n+1} lands in
    # Sigma X^1 + Sigma Y^0, identified with Sigma(C^0) by glue
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
    cone = Angle([s.module for s in sums[:n + 2]], gammas, closing)
    ok, table = verify_angle_exact(ctx, cone)
    if not ok:
        raise HypothesisError("angle cone failed exactness verification")
    return cone, table
