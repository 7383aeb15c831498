"""The additive subcategory M = add(generators) and its higher structure:
approximations, weak (co)kernels, n-(co)kernels, exactness certificates,
the comparison-homotopy solver and contractions.

A minimal approximation stacks the Hom bases between x and the
generators and drops, in one pass, each summand whose component factors
through the summands kept, solving only over Hom spaces between
generators.  The peel and the contract check read one table of
composites f_r.then(h), h in Hom(G_r, G_j) (dually h.then(f_r)), each
composed once.  The peel and the table (reps._peel_superfluous,
reps._composite_table) are the ones reps.in_add runs to decide
membership, which is the right approximation being an isomorphism.
Chain completion (_lift_along) and homotopies (_homotopy) are one loop
each, and each step is one reps.factor_through.

Each fact is checked once, where it is made.  An approximation checks
its contract (Hom(T, G) -> Hom(x, G) onto, or dually) when it is built,
for each generator G with Hom(x, G) (or Hom(G, x)) nonzero, from the
table's rows, so no Hom space of T is solved (_build_approximation).
It is kept in the algebra's store by side and by the content ids of x
and of the generators, and reused, unchecked, for every later x of that
content (_approximation); its sum T is the stored sum of direct_sum.
A weak (co)kernel and the Hom exactness of an n-(co)kernel ladder follow
from that contract and the exactness of (co)kernels, so they are not
checked again; what depends on M is that a ladder ends in add(M), and
n_cokernel / n_kernel check exactly that.  The ladder, a complex by
construction, is built unchecked (complexes._complex).
verify_n_cokernel, verify_n_kernel and verify_n_exact certify a given
sequence.

An n-cokernel ladder is n - 1 weak cokernels, each of the map before,
closed by a cokernel (n-kernels dually).  It is, byte for byte, the
ladder that takes the cokernel of each approximation: cokernel_morphism
reads only column spaces (in reduced row-echelon form) and proj is onto;
dually, kernel_morphism reads only row spaces and incl is mono.

All verification is Hom-level rank bookkeeping against the generator
list: reps.hom_dims_and_ranks reads each rank together with the
dimension of the Hom space the map leaves (the approximation contract
reads its ranks off the table instead).  Composites with a Hom basis
(in the table, the ranks and every factorization) are read as coordinate
rows by reps.composite_rows, one entry product per basis map and vertex.
Certificates are assembled in generator-list order.  Tie-breaking is
fixed everywhere: generators in the order listed, Hom bases in the
deterministic order of fp's canonical null basis.

The generator list is a reps.Indecomposables, checked once by
indecomposables(), which in_add runs on any other list; both are
exported here from reps, as are PreconditionError and DomainError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .complexes import ComplexSeq, ComplexMorphism, Homotopy, _complex
from .quivers import AlgebraBasis
from .reps import (DomainError, Indecomposables, Module, Morphism,
                   PreconditionError, _composite_table, _peel_superfluous,
                   cokernel_morphism, factor_through, hom_basis,
                   hom_dims_and_ranks, identity_morphism, in_add,
                   indecomposables, kernel_morphism, rows_rank,
                   stack_morphisms_from_sum, stack_morphisms_to_sum,
                   zero_module, zero_morphism)


class HypothesisError(ValueError):
    """A fact guaranteed by the ambient hypotheses failed: a factorization,
    or an n-(co)kernel ladder ending in add(M); ``degree`` names where."""

    def __init__(self, message: str, degree: Optional[int] = None):
        super().__init__(message)
        self.degree = degree


@dataclass
class AddCat:
    """M = add(G_1 + ... + G_r); the generators are checked indecomposable
    and pairwise non-isomorphic when the list is made (indecomposables())."""

    algebra: AlgebraBasis
    generators: Indecomposables


def add_category(alg: AlgebraBasis, generators: Sequence[Module],
                 seed: int = 0) -> AddCat:
    return AddCat(alg, indecomposables(generators, seed))


# -- approximations ------------------------------------------------------


def _approximation(x: Module, m: AddCat, left: bool) -> Morphism:
    """The minimal left (x -> T) or right (T -> x) approximation, kept in
    the algebra's store by side and the content ids of x and of the
    generators: it is built and its contract checked once per content
    (_build_approximation).  Like a stored Hom basis, the map starts (left)
    or ends (right) at the first module of x's content; every caller
    compares endpoints by content."""
    side = "left" if left else "right"
    return x.algebra.memoized(
        ("approx", side, x.cid, tuple(g.cid for g in m.generators)),
        lambda: _build_approximation(x, m, left))


def _build_approximation(x: Module, m: AddCat, left: bool) -> Morphism:
    """The approximation _approximation stores: the stacked Hom bases
    between x and the generators, less the summands _peel_superfluous
    drops.

    Contract (verified): Hom(T, G) -> Hom(x, G) is onto (left; dually
    Hom(G, T) -> Hom(G, x)) for every generator G with Hom(x, G) (or
    Hom(G, x)) nonzero; a map onto the zero space is onto, so the other
    generators need no check.  For T = sum of the kept G_r, Hom(T, G_j) is
    the sum of the Hom(G_r, G_j), so the image is spanned by the rows
    table(r, j) of the kept r, the rows the peel read: no Hom space of T
    is solved and nothing is composed through T."""
    gens = m.generators
    p = x.algebra.p
    homs = [hom_basis(x, g) if left else hom_basis(g, x) for g in gens]
    parts = [(j, f) for j, basis in enumerate(homs) for f in basis]
    table = _composite_table(gens, parts, left)
    kept = _peel_superfluous(parts, table, p)
    maps = [parts[r][1] for r in kept]
    if not maps:
        zero = zero_module(x.algebra)
        approx = zero_morphism(x, zero) if left else zero_morphism(zero, x)
    elif left:
        approx = stack_morphisms_to_sum(maps)
    else:
        approx = stack_morphisms_from_sum(maps)
    for j, basis in enumerate(homs):
        if basis and rows_rank([row for r in kept for row in table(r, j)],
                               p) != len(basis):
            side = "left" if left else "right"
            raise AssertionError(f"{side} approximation lost a Hom class")
    return approx


def minimal_left_approximation(x: Module, m: AddCat) -> Morphism:
    """Minimal left add(M)-approximation x -> T, its contract verified
    (_approximation)."""
    return _approximation(x, m, left=True)


def minimal_right_approximation(x: Module, m: AddCat) -> Morphism:
    """Minimal right add(M)-approximation T -> x, dual to the left one."""
    return _approximation(x, m, left=False)


# -- weak (co)kernels ----------------------------------------------------


def _require_in_add(f: Morphism, m: AddCat, name: str) -> None:
    """DomainError naming name and the first endpoint of f outside add(M)."""
    for end in ("source", "target"):
        if not in_add(getattr(f, end), m.generators):
            raise DomainError(f"{name}: {end} not in add(M)")


def weak_cokernel(f: Morphism, m: AddCat) -> Morphism:
    """Cokernel projection followed by a minimal left approximation, for f
    with both endpoints in add(M) (DomainError otherwise).

    Exact by construction: f g = 0 since g = proj.approx; a map B -> G
    that kills f factors through proj (the cokernel is exact), hence
    through g (Hom(T, G) -> Hom(C, G) is onto, which
    minimal_left_approximation verifies)."""
    _require_in_add(f, m, "weak_cokernel")
    return _weak_cokernel(f, m)


def _weak_cokernel(f: Morphism, m: AddCat) -> Morphism:
    """weak_cokernel past the add(M) checks of its endpoints."""
    coker, proj = cokernel_morphism(f)
    return proj.then(minimal_left_approximation(coker, m))


def weak_kernel(f: Morphism, m: AddCat) -> Morphism:
    """Kernel inclusion preceded by a minimal right approximation.

    Exact by construction, dually: g f = 0, and a map G -> A killed by f
    factors through the kernel, hence through the approximation, whose
    contract minimal_right_approximation verifies."""
    _require_in_add(f, m, "weak_kernel")
    return _weak_kernel(f, m)


def _weak_kernel(f: Morphism, m: AddCat) -> Morphism:
    """weak_kernel past the add(M) checks of its endpoints."""
    ker, incl = kernel_morphism(f)
    return minimal_right_approximation(ker, m).then(incl)


def hom_exact_at_middle(p: Module, f: Morphism, g: Morphism) -> Tuple[bool, dict]:
    """Exactness of Hom(p, L) -> Hom(p, M) -> Hom(p, N) at the middle."""
    (_, rank_alpha), (dim_m, rank_beta) = hom_dims_and_ranks(
        [f, g], p, contravariant=False)
    dim_ker = dim_m - rank_beta
    ranks = {"dim_hom_middle": dim_m, "rank_in": rank_alpha,
             "rank_out": rank_beta, "kernel_dim": dim_ker}
    return dim_ker == rank_alpha, ranks


# -- n-cokernels and n-kernels -------------------------------------------


def n_cokernel(d0: Morphism, m: AddCat, n: int) -> ComplexSeq:
    """The cokernel/approximation ladder: (d^1, ..., d^n) with d^n epic,
    the tail complex on degrees 1..n+1.  Its Hom(-, M) sequence is exact
    by construction (see weak_cokernel); the one fact that needs M to be
    n-cluster-tilting is that X^{n+1} lies in add(M), and
    HypothesisError (degree n + 1) says when it does not."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _require_in_add(d0, m, "n_cokernel")
    maps = [d0]
    for _ in range(1, n):
        maps.append(_weak_cokernel(maps[-1], m))
    end, proj = cokernel_morphism(maps[-1])
    if not in_add(end, m.generators):
        raise HypothesisError(
            f"n-cokernel ladder ends outside add(M) at degree {n + 1} "
            "(is M n-cluster-tilting?)", degree=n + 1)
    diffs = maps[1:] + [proj]
    return _complex(1, [diffs[0].source] + [d.target for d in diffs], diffs)


def n_kernel(dn: Morphism, m: AddCat, n: int) -> ComplexSeq:
    """Dual ladder: (d^0, ..., d^{n-1}) on degrees 0..n; X^0 must lie in
    add(M) (HypothesisError, degree 0, when it does not)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _require_in_add(dn, m, "n_kernel")
    maps = [dn]
    for _ in range(1, n):
        maps.insert(0, _weak_kernel(maps[0], m))
    end, incl = kernel_morphism(maps[0])
    if not in_add(end, m.generators):
        raise HypothesisError(
            "n-kernel ladder ends outside add(M) at degree 0 "
            "(is M n-cluster-tilting?)", degree=0)
    diffs = [incl] + maps[:-1]
    return _complex(0, [incl.source] + [d.target for d in diffs], diffs)


# -- exactness certificates ----------------------------------------------


@dataclass
class ExactnessRecord:
    position: int
    hom_dim: int
    rank_in: int
    rank_out: int
    exact: bool

    def to_dict(self):
        return {"position": self.position, "hom_dim": self.hom_dim,
                "rank_in": self.rank_in, "rank_out": self.rank_out,
                "exact": self.exact}


@dataclass
class HomExactnessFragment:
    direction: str              # "contravariant" or "covariant"
    per_generator: list         # list of (generator index, [ExactnessRecord])
    ok: bool

    def to_dict(self):
        return {"direction": self.direction, "ok": self.ok,
                "per_generator": [
                    {"generator": gi,
                     "records": [r.to_dict() for r in recs]}
                    for gi, recs in self.per_generator]}


@dataclass
class NExactCert:
    n: int
    term_dims: list
    membership: list
    cokernel_side: Optional[HomExactnessFragment]
    kernel_side: Optional[HomExactnessFragment]
    ok: bool = field(init=False)

    def __post_init__(self):
        self.ok = (all(ok for _, ok in self.membership)
                   and (self.cokernel_side is None or self.cokernel_side.ok)
                   and (self.kernel_side is None or self.kernel_side.ok))

    def to_dict(self):
        return {
            "n": self.n,
            "term_dims": [list(d) for d in self.term_dims],
            "membership": [{"degree": k, "in_add": ok} for k, ok in self.membership],
            "cokernel_side": self.cokernel_side.to_dict() if self.cokernel_side else None,
            "kernel_side": self.kernel_side.to_dict() if self.kernel_side else None,
            "verdict": self.ok,
        }


def contravariant_fragment(chain: List[Morphism], gens: Sequence[Module]) -> HomExactnessFragment:
    """Exactness of 0 -> Hom(X^{top}, G) -> ... -> Hom(X^0, G) per generator."""
    return _hom_fragment(chain, gens, contravariant=True)


def covariant_fragment(chain: List[Morphism], gens: Sequence[Module]) -> HomExactnessFragment:
    """Exactness of 0 -> Hom(G, X^0) -> ... -> Hom(G, X^{top}) per generator."""
    return _hom_fragment(chain, gens, contravariant=False)


def _hom_fragment(chain: List[Morphism], gens: Sequence[Module],
                  contravariant: bool) -> HomExactnessFragment:
    """One record per Hom term but the last, in the order the Hom sequence
    runs (X^{top} first when contravariant): rank_in is the rank of the map
    into the term (0 at the first, where exactness means injectivity) and
    rank_out that of the map out of it."""
    positions = list(range(len(chain) + 1))
    if contravariant:
        positions.reverse()
    per_gen = []
    ok = True
    for gi, g in enumerate(gens):
        # the dimension read with each rank is that of the term it leaves
        pairs = hom_dims_and_ranks(chain, g, contravariant)
        if contravariant:
            pairs.reverse()
        records = []
        rank_in = 0
        for k, (dim, rank_out) in zip(positions, pairs):
            exact = dim - rank_out == rank_in
            records.append(ExactnessRecord(k, dim, rank_in, rank_out, exact))
            ok = ok and exact
            rank_in = rank_out
        per_gen.append((gi, records))
    return HomExactnessFragment("contravariant" if contravariant else "covariant",
                                per_gen, ok)


def verify_n_cokernel(d0: Morphism, seq: ComplexSeq, m: AddCat) -> HomExactnessFragment:
    """Certificate fragment for (d^1..d^n) being an n-cokernel of d^0."""
    if not d0.target.same_as(seq.terms[0]):
        raise ValueError("chain endpoints mismatch")
    return contravariant_fragment([d0] + list(seq.diffs), m.generators)


def verify_n_kernel(dn: Morphism, seq: ComplexSeq, m: AddCat) -> HomExactnessFragment:
    """Certificate fragment for (d^0..d^{n-1}) being an n-kernel of d^n."""
    if not seq.terms[-1].same_as(dn.source):
        raise ValueError("chain endpoints mismatch")
    return covariant_fragment(list(seq.diffs) + [dn], m.generators)


def verify_n_exact(x: ComplexSeq, m: AddCat, n: int) -> NExactCert:
    """Full certificate: kernel side, cokernel side and add(M) membership."""
    if len(x.terms) != n + 2:
        raise PreconditionError(f"expected {n + 2} terms, got {len(x.terms)}")
    membership = [(k, bool(in_add(x.term(k), m.generators))) for k in x.degrees()]
    cok = contravariant_fragment(list(x.diffs), m.generators)
    ker = covariant_fragment(list(x.diffs), m.generators)
    return NExactCert(n, [t.dim_vector() for t in x.terms], membership, cok, ker)


# -- comparison homotopy and contractions ----------------------------------


def comparison_homotopy(f: ComplexMorphism, g: ComplexMorphism) -> Homotopy:
    """Homotopy h: f -> g with vanishing first component, built degreewise
    from u = f - g; requires f and g to agree in the lowest degree, and
    names the failing degree when the weak-cokernel hypothesis fails."""
    x = f.source
    if not f.component(x.lo).sub(g.component(x.lo)).is_zero():
        raise PreconditionError("comparison_homotopy requires equal lowest components")
    u = {k: f.component(k).sub(g.component(k)) for k in x.degrees()}
    return _homotopy(u, x, f.target, x.lo + 1)


def _homotopy(u: Dict[int, Morphism], x: ComplexSeq, y: ComplexSeq,
              start: int) -> Homotopy:
    """h with u^k = h^k d_y^{k-1} + d_x^k h^{k+1} for k >= start and
    h^start = 0: each step factors u^k - h^k d_y^{k-1} through d_x^k, and
    the top degree must close.  Raises HypothesisError naming the first
    degree that fails."""
    h: Dict[int, Morphism] = {}

    def rest(k):                # u^k - h^k d_y^{k-1}
        return u[k].sub(h[k].then(y.diff(k - 1))) if k in h else u[k]

    for k in range(start, x.hi):
        h[k + 1] = factor_through(rest(k), x.diff(k))
        if h[k + 1] is None:
            raise HypothesisError(
                f"homotopy step unsolvable at degree {k}", degree=k)
    if not rest(x.hi).is_zero():
        raise HypothesisError(
            f"homotopy step unsolvable at degree {x.hi}", degree=x.hi)
    return Homotopy(x, y, h)


def contract(x: ComplexSeq, m: AddCat) -> Optional[Homotopy]:
    """A contraction of x when d^lo splits, else None: the homotopy from
    the identity to zero, whose first step is a retraction of d^lo.  The
    cokernel side of x must verify beforehand."""
    frag = contravariant_fragment(list(x.diffs), m.generators)
    if not frag.ok:
        raise PreconditionError("contract: cokernel side does not verify")
    try:
        return _homotopy({k: identity_morphism(x.term(k)) for k in x.degrees()},
                         x, x, x.lo)
    except HypothesisError as exc:
        if exc.degree == x.lo:
            return None
        raise


def _lift_along(f0: Morphism, x_diffs: Sequence[Morphism],
                y_diffs: Sequence[Morphism], lo: int = 0) -> List[Morphism]:
    """[f^0, f^1, ...] with f^{k+1} = factor_through(f^k d_y^k, d_x^k): the
    components of a chain map from the maps x_diffs to the maps y_diffs
    extending f0, both read from degree lo.  Raises HypothesisError with
    the degree where a factorization fails."""
    comps = [f0]
    for k, (dx, dy) in enumerate(zip(x_diffs, y_diffs), lo):
        comps.append(factor_through(comps[-1].then(dy), dx))
        if comps[-1] is None:
            raise HypothesisError(f"chain completion stuck at degree {k}", degree=k)
    return comps
