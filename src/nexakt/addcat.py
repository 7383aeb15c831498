"""The additive subcategory M = add(generators) and its higher structure:
approximations, weak (co)kernels, n-(co)kernels, exactness certificates,
the comparison-homotopy solver and contractions.

A minimal approximation stacks the Hom bases between x and the
generators and drops, in one pass, each summand whose component factors
through the summands kept, solving only over Hom spaces between
generators.  Chain completion (_lift_along) and homotopies (_homotopy)
are one loop each, and each step is one reps.factor_through.

All verification is Hom-level rank bookkeeping against the generator
list: reps.hom_dims_and_ranks reads each rank together with the
dimension of the Hom space the map leaves.  Composites with a Hom basis
(in the peel, the ranks and every factorization) are read as coordinate
rows by reps.composite_rows, one stacked product per vertex.
Certificates are assembled in generator-list order.  Tie-breaking is
fixed everywhere: generators in the order listed, Hom bases in the
deterministic kernel_basis order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .complexes import ComplexSeq, ComplexMorphism, Homotopy, complex_from_maps
from .quivers import AlgebraBasis
from .reps import (Module, Morphism, are_isomorphic, cokernel_morphism,
                   composite_rows, factor_through, hom_basis,
                   hom_dims_and_ranks, hom_ranks, identity_morphism, in_add,
                   kernel_morphism, solve_rows, split_indecomposables,
                   stack_morphisms_from_sum, stack_morphisms_to_sum,
                   zero_module, zero_morphism)


class DomainError(ValueError):
    """An object required to lie in add(M) does not, or a list of
    indecomposables (such as the generators) has a decomposable or
    repeated entry."""


class PreconditionError(ValueError):
    pass


class HypothesisError(ValueError):
    """A factorization guaranteed by the ambient hypotheses failed."""

    def __init__(self, message: str, degree: Optional[int] = None):
        super().__init__(message)
        self.degree = degree


class Indecomposables(tuple):
    """Indecomposable, pairwise non-isomorphic modules, trusted as given:
    made by indecomposables(), which checks once, or, complete, by
    presets.nakayama_indecomposables.  ``complete`` means every
    indecomposable is listed up to isomorphism, so verdicts are absolute."""

    def __new__(cls, modules: Sequence[Module], complete: bool = False):
        self = super().__new__(cls, modules)
        self.complete = complete
        return self

    def index_of(self, x: Module, seed: int) -> int:
        """Position of the entry isomorphic to x (PreconditionError if none)."""
        for i, entry in enumerate(self):
            if are_isomorphic(x, entry, seed):
                return i
        raise PreconditionError(f"no entry is isomorphic to the module of "
                                f"dimension vector {list(x.dim_vector())}")

    def pick(self, indices: Sequence[int]) -> "Indecomposables":
        """The sublist at the given positions: checked, and not complete."""
        return Indecomposables([self[i] for i in indices])


def indecomposables(modules: Sequence[Module], seed: int = 0) -> Indecomposables:
    """Check once, by seeded splitting, that the modules are indecomposable
    and pairwise non-isomorphic (DomainError names the first bad entry); an
    Indecomposables is returned as it is."""
    if isinstance(modules, Indecomposables):
        return modules
    mods = tuple(modules)
    for i, x in enumerate(mods):
        parts = split_indecomposables(x, seed + i)
        if len(parts) != 1 or parts[0][1] != 1:
            raise DomainError(f"entry {i} is decomposable")
    for i in range(len(mods)):
        for j in range(i + 1, len(mods)):
            if are_isomorphic(mods[i], mods[j], seed + 101 * (i + j)):
                raise DomainError(f"entries {i} and {j} are isomorphic")
    return Indecomposables(mods)


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


def _peel_superfluous(parts: List[Tuple[Module, Morphism]],
                      left: bool) -> List[Tuple[Module, Morphism]]:
    """Drop, in one pass, each summand (G_i, f_i) whose component factors
    through the summands still kept.

    Factoring through the stacked map of the kept summands G_r means
    lying in the span of the f_r composed with Hom(G_r, G_i) (left; the
    right case is dual), so only generator Hom spaces are solved over.
    One pass keeps what restarting after each drop would: a map that
    does not factor through a set of maps does not factor through a
    subset of it.  Candidates are tracked by position, since
    content-equal generators share their memoized Hom lists."""
    kept = list(range(len(parts)))
    for i, (gi, fi) in enumerate(parts):
        span = []
        for r in kept:
            if r != i:
                gr, fr = parts[r]
                basis = hom_basis(gr, gi) if left else hom_basis(gi, gr)
                span.extend(composite_rows(fr, basis, d_first=left))
        if solve_rows([span], [fi.vectorize()], gi.algebra.p) is not None:
            kept.remove(i)
    return [parts[r] for r in kept]


def minimal_left_approximation(x: Module, m: AddCat) -> Morphism:
    """Minimal left add(M)-approximation x -> T: the stacked Hom bases
    from x to the generators, less each summand that factors through the
    others (_peel_superfluous).

    Contract (verified): Hom(T, G) -> Hom(x, G) is surjective for every
    generator G."""
    homs = [hom_basis(x, g) for g in m.generators]
    parts = _peel_superfluous([(g, f) for g, basis in zip(m.generators, homs)
                               for f in basis], left=True)
    if not parts:
        approx = zero_morphism(x, zero_module(x.algebra))
    else:
        approx = stack_morphisms_to_sum([f for _, f in parts])
    for g, basis in zip(m.generators, homs):
        if hom_ranks([approx], g, contravariant=True)[0] != len(basis):
            raise AssertionError("left approximation lost a Hom class")
    return approx


def minimal_right_approximation(x: Module, m: AddCat) -> Morphism:
    """Minimal right add(M)-approximation T -> x, dual to the left one."""
    homs = [hom_basis(g, x) for g in m.generators]
    parts = _peel_superfluous([(g, f) for g, basis in zip(m.generators, homs)
                               for f in basis], left=False)
    if not parts:
        approx = zero_morphism(zero_module(x.algebra), x)
    else:
        approx = stack_morphisms_from_sum([f for _, f in parts])
    for g, basis in zip(m.generators, homs):
        if hom_ranks([approx], g, contravariant=False)[0] != len(basis):
            raise AssertionError("right approximation lost a Hom class")
    return approx


# -- weak (co)kernels ----------------------------------------------------


def weak_cokernel(f: Morphism, m: AddCat) -> Morphism:
    """Cokernel projection followed by a minimal left approximation.

    Verified: f.then(g) = 0 and for every generator G the image of
    Hom(C, G) -> Hom(B, G) equals the kernel of Hom(B, G) -> Hom(A, G)."""
    if not in_add(f.source, m.generators):
        raise DomainError("weak_cokernel: source not in add(M)")
    if not in_add(f.target, m.generators):
        raise DomainError("weak_cokernel: target not in add(M)")
    coker, proj = cokernel_morphism(f)
    approx = minimal_left_approximation(coker, m)
    g = proj.then(approx)
    if not f.then(g).is_zero():
        raise AssertionError("weak cokernel does not kill f")
    for gen in m.generators:
        # Hom(C, gen) -> Hom(B, gen) -> Hom(A, gen) is exact at Hom(B, gen)
        (dim_b, rank_to_a), (_, rank_from_c) = hom_dims_and_ranks(
            [f, g], gen, contravariant=True)
        if rank_from_c != dim_b - rank_to_a:
            raise AssertionError("weak cokernel property failed")
    return g


def weak_kernel(f: Morphism, m: AddCat) -> Morphism:
    """Kernel inclusion preceded by a minimal right approximation."""
    if not in_add(f.source, m.generators):
        raise DomainError("weak_kernel: source not in add(M)")
    if not in_add(f.target, m.generators):
        raise DomainError("weak_kernel: target not in add(M)")
    ker, incl = kernel_morphism(f)
    approx = minimal_right_approximation(ker, m)
    g = approx.then(incl)
    if not g.then(f).is_zero():
        raise AssertionError("weak kernel composite nonzero")
    for gen in m.generators:
        if not hom_exact_at_middle(gen, g, f)[0]:
            raise AssertionError("weak kernel property failed")
    return g


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
    """The cokernel/approximation ladder: (d^1, ..., d^n) with d^n epic.

    Returns the tail complex on degrees 1..n+1; the result is
    self-certified via verify_n_cokernel."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not in_add(d0.source, m.generators) or not in_add(d0.target, m.generators):
        raise DomainError("n_cokernel: endpoints not in add(M)")
    coker, proj = cokernel_morphism(d0)
    maps: List[Morphism] = []
    connecting = proj                     # X^k -> C^k
    current = coker
    for _ in range(1, n):
        approx = minimal_left_approximation(current, m)
        maps.append(connecting.then(approx))
        current, connecting = cokernel_morphism(approx)
    maps.append(connecting)               # d^n = final cokernel projection
    seq = complex_from_maps(1, maps) if maps else None
    cert = verify_n_cokernel(d0, seq, m)
    if not cert.ok:
        raise HypothesisError(
            "constructed ladder fails n-cokernel verification "
            "(is M n-cluster-tilting?)")
    return seq


def n_kernel(dn: Morphism, m: AddCat, n: int) -> ComplexSeq:
    """Dual ladder: (d^0, ..., d^{n-1}) on degrees 0..n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not in_add(dn.source, m.generators) or not in_add(dn.target, m.generators):
        raise DomainError("n_kernel: endpoints not in add(M)")
    ker, incl = kernel_morphism(dn)
    maps: List[Morphism] = []
    connecting = incl                     # K^k -> X^k side
    current = ker
    for _ in range(1, n):
        approx = minimal_right_approximation(current, m)
        maps.append(approx.then(connecting))
        current, connecting = kernel_morphism(approx)
    maps.append(connecting)
    maps.reverse()
    seq = complex_from_maps(0, maps)
    cert = verify_n_kernel(dn, seq, m)
    if not cert.ok:
        raise HypothesisError(
            "constructed ladder fails n-kernel verification "
            "(is M n-cluster-tilting?)")
    return seq


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


def verify_n_cokernel(d0: Morphism, seq: Optional[ComplexSeq], m: AddCat) -> HomExactnessFragment:
    """Certificate fragment for (d^1..d^n) being an n-cokernel of d^0."""
    if seq is None:
        chain = [d0]
    else:
        chain = [d0] + list(seq.diffs)
        if not d0.target.same_as(seq.terms[0]):
            raise ValueError("chain endpoints mismatch")
    return contravariant_fragment(chain, m.generators)


def verify_n_kernel(dn: Morphism, seq: Optional[ComplexSeq], m: AddCat) -> HomExactnessFragment:
    """Certificate fragment for (d^0..d^{n-1}) being an n-kernel of d^n."""
    if seq is None:
        chain = [dn]
    else:
        chain = list(seq.diffs) + [dn]
        if not seq.terms[-1].same_as(dn.source):
            raise ValueError("chain endpoints mismatch")
    return covariant_fragment(chain, m.generators)


def verify_n_exact(x: ComplexSeq, m: AddCat, n: int) -> NExactCert:
    """Full certificate: kernel side, cokernel side and add(M) membership."""
    if len(x.terms) != n + 2:
        raise PreconditionError(f"expected {n + 2} terms, got {len(x.terms)}")
    membership = [(k, bool(in_add(x.term(k), m.generators))) for k in x.degrees()]
    cok = contravariant_fragment(list(x.diffs), m.generators)
    ker = covariant_fragment(list(x.diffs), m.generators)
    return NExactCert(n, [t.dim_vector() for t in x.terms], membership, cok, ker)


# -- comparison homotopy and contractions ----------------------------------


def comparison_homotopy(f: ComplexMorphism, g: ComplexMorphism,
                        m: AddCat) -> Homotopy:
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


def complete_to_chain_map(x: ComplexSeq, y: ComplexSeq,
                          f0: Morphism) -> ComplexMorphism:
    """Extend f0: x^lo -> y^lo to a chain map by weak-cokernel factorizations.

    Solvable whenever each d_x^{k+1} is a weak cokernel of d_x^k and y is a
    complex receiving the relevant composites; raises HypothesisError with
    the failing degree otherwise."""
    comps = _lift_along(f0, list(x.diffs),
                        [y.diff(k) for k in range(x.lo, x.hi)], x.lo)
    return ComplexMorphism(x, y, dict(enumerate(comps, x.lo)))


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
