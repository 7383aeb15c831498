"""The n-cluster-tilting certifier, the brute-force n-CT search, and the
Ext comparison along add(M)-resolutions.

Generating/cogenerating are checked as "all P_v (resp. I_v) lie in
add(M)": an epimorphism from add(M) onto the regular module splits, so
this is equivalent to the categorical condition in mod(Lambda).
Maximality is checked against an Indecomposables list, so the
verdict is relative to it unless the list is complete.  Functorial
finiteness is automatic for add of a finite-dimensional module and is
reported rather than tested.

The certifier and the brute-force search (brute_force_nct_search) share
one set-up, _ExtTable: it refuses n < 1, checks the list, finds the
entries isomorphic to each P_v and I_v (Indecomposables.index_of, which
decides isomorphism to an entry exactly, so the seed reaches a verdict
only through the splitting that checks a hand-made list), and fills its
Ext^{1..n-1} rows on request.  Ext^k(P, -) = 0 for a projective P and
Ext^k(-, I) = 0 for an injective I, k >= 1 (Auslander–Reiten–Smalø,
Ch. III), so the rows at P_v and the columns at I_v are zeros, with no
ext_dim call.  _nct_report reads a report from the table by position:
once for the certifier, once per clique for the search.

strong_projectivity_check decides that p is projective exactly, from its
top (resolutions.is_projective): p is projective iff
sum_v (dim top p)_v * dim P_v = dim p, with no Hom space solved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from .addcat import (AddCat, HypothesisError, PreconditionError,
                     hom_exact_at_middle, indecomposables,
                     minimal_right_approximation, weak_cokernel)
from .quivers import AlgebraBasis
from .reps import (Module, Morphism, all_injectives, all_projectives,
                   kernel_morphism)
from .resolutions import ext_dim, hom_cohomology_dim, is_projective

NCT_NOTES = ("add of a finite-dimensional module is functorially finite in "
             "mod(Lambda); reported, not tested",
             "membership checks are exact; indecomposability of inputs was "
             "certified by seeded Fitting splitting")


@dataclass
class NctReport:
    n: int
    generator_dims: list
    generating_failures: list
    cogenerating_failures: list
    rigidity_failures: list           # (i, j, degree, ext dimension)
    maximality_failures: list         # dicts with module index and the three flags
    complete_list: bool

    @property
    def ok(self) -> bool:
        return not (self.generating_failures or self.cogenerating_failures
                    or self.rigidity_failures or self.maximality_failures)

    @property
    def verdict(self) -> str:
        if not self.ok:
            return "not n-CT"
        return "n-CT" if self.complete_list else "n-CT (relative to supplied list)"

    def to_dict(self):
        return {
            "n": self.n,
            "generator_dims": [list(d) for d in self.generator_dims],
            "generating_failures": self.generating_failures,
            "cogenerating_failures": self.cogenerating_failures,
            "rigidity_failures": self.rigidity_failures,
            "maximality_failures": self.maximality_failures,
            "complete_list": self.complete_list,
            "verdict": self.verdict,
            "ok": self.ok,
            "notes": list(NCT_NOTES),
        }


def check_n_cluster_tilting(m: AddCat, n: int, indec_list: Sequence[Module],
                            seed: int = 0) -> NctReport:
    """Certify that add(generators) is n-cluster-tilting relative to
    indec_list (checked by reps.indecomposables() unless it is an
    Indecomposables), which must hold every generator."""
    table = _ExtTable(m.algebra, n, indec_list, seed)
    gens = [table.modules.index_of(g) for g in m.generators]
    table.fill(gens)
    return _nct_report(gens, table)


# exhaustive search tries at most 2^MAX_SEARCH_CANDIDATES subsets
MAX_SEARCH_CANDIDATES = 20


def brute_force_nct_search(alg: AlgebraBasis, n: int,
                           indec_list: Sequence[Module],
                           seed: int = 0) -> List[List[int]]:
    """Every subset of indec_list that contains all projectives and whose
    add-closure certifies as n-cluster-tilting, by size, then
    lexicographically.

    The list is checked once, up front, and no subset is checked again;
    one _ExtTable is filled between all entries.  A subset whose entries
    have nonzero Ext^{1..n-1} between two of them (or one with itself)
    fails the certifier's rigidity test, so only the Ext^{1..n-1}-
    orthogonal subsets are enumerated: the cliques of the compatibility
    graph read from the table.  Each clique gets the report
    check_n_cluster_tilting would give, read from the table by position as
    the search reaches it; the hits are then sorted once."""
    table = _ExtTable(alg, n, indec_list, seed)
    for pv, (_, i) in zip(all_projectives(alg), table.projs):
        if i is None:       # refused with index_of's error
            table.modules.index_of(pv)
    proj_set = sorted({i for _, i in table.projs})
    size = len(table.modules)
    table.fill(range(size))
    # bit j of clash[i]: some Ext^{1..n-1} between entries i and j is nonzero
    clash = [out | into for out, into in zip(table.out, table.into)]
    # Ext^{>=1}(P, -) = 0: the projectives are compatible with each other
    candidates = [i for i in range(size) if i not in proj_set
                  and not any(clash[i] >> j & 1 for j in proj_set + [i])]
    if len(candidates) > MAX_SEARCH_CANDIDATES:
        raise PreconditionError("too many candidates for exhaustive search")
    hits = []

    def grow(clique, start):
        subset = sorted(proj_set + list(clique))
        if _nct_report(subset, table).ok:
            hits.append(subset)
        for pos in range(start, len(candidates)):
            i = candidates[pos]
            if not any(clash[i] >> j & 1 for j in clique):
                grow(clique + (i,), pos + 1)

    grow((), 0)
    return sorted(hits, key=lambda s: (len(s), s))


class _ExtTable:
    """dim Ext^{1..n-1} between the positions of one Indecomposables list,
    with the positions of P_v and I_v: the set-up of the certifier and
    the search.

    Made from the algebra, n (refused below 1), the list (checked by
    reps.indecomposables() unless it is an Indecomposables; kept as
    modules) and the seed.  projs and injs pair each vertex v with the
    position of the entry isomorphic to P_v (resp. I_v), or with None
    when no entry is.  fill(rows) computes the pairs (i, j) and (j, i)
    with i in rows: dims[i, j] lists the degrees in order, and bit j of
    out[i] (of into[i]) is set when some Ext^{1..n-1}(L_i, L_j)
    (Ext^{1..n-1}(L_j, L_i)) is nonzero.  A row at the position of some
    P_v and a column at that of some I_v are written as zeros without
    calling ext_dim; a position of None skips nothing."""

    def __init__(self, alg: AlgebraBasis, n: int,
                 indec_list: Sequence[Module], seed: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.modules = mods = indecomposables(indec_list, seed)
        self.n = n

        def position(x):
            try:
                return mods.index_of(x)
            except PreconditionError:
                return None

        verts = alg.quiver.vertices
        self.projs = [(v, position(x)) for v, x in zip(verts, all_projectives(alg))]
        self.injs = [(v, position(x)) for v, x in zip(verts, all_injectives(alg))]
        self._projective = {i for _, i in self.projs if i is not None}
        self._injective = {i for _, i in self.injs if i is not None}
        self.dims = {}
        self.out = [0] * len(mods)
        self.into = [0] * len(mods)

    def fill(self, rows: Iterable[int]):
        for i in rows:
            for j in range(len(self.modules)):
                self._fill(i, j)
                self._fill(j, i)

    def _fill(self, i: int, j: int):
        if (i, j) in self.dims:
            return
        if i in self._projective or j in self._injective:
            self.dims[i, j] = [0] * (self.n - 1)
            return
        x, y = self.modules[i], self.modules[j]
        row = self.dims[i, j] = [ext_dim(x, y, deg) for deg in range(1, self.n)]
        if any(row):
            self.out[i] |= 1 << j
            self.into[j] |= 1 << i


def _nct_report(gens: Sequence[int], table: _ExtTable) -> NctReport:
    """The NctReport of add(L_g : g in gens), read from positions alone.

    By Krull-Schmidt, an indecomposable lies in add(gens) exactly when it
    is isomorphic to a generator, and the list holds each class once; so
    P_v, I_v or an entry lies in add(gens) exactly when its position is a
    generator's.  Ext is read from the table, which must hold the pairs
    (x, g) and (g, x) for every position x and generator g, and the
    positions of P_v and I_v from its projs and injs."""
    mods, n = table.modules, table.n
    mask = sum(1 << g for g in set(gens))
    generating = [v for v, i in table.projs if i is None or not mask >> i & 1]
    cogenerating = [v for v, i in table.injs if i is None or not mask >> i & 1]
    rigidity = [(a, b, deg, d) for a, i in enumerate(gens) if table.out[i] & mask
                for b, j in enumerate(gens) if table.out[i] >> j & 1
                for deg, d in enumerate(table.dims[i, j], 1) if d]
    maximality = []
    for idx, x in enumerate(mods):
        member = bool(mask >> idx & 1)
        left = not table.out[idx] & mask
        right = not table.into[idx] & mask
        if not (member == left == right):
            maximality.append({"index": idx, "dims": list(x.dim_vector()),
                               "in_add": member, "ext_to_M_vanishes": left,
                               "ext_from_M_vanishes": right})
    return NctReport(n, [mods[g].dim_vector() for g in gens], generating,
                     cogenerating, rigidity, maximality, mods.complete)


# -- Ext via add(M)-approximation resolutions ---------------------------


def approx_resolution(a: Module, m: AddCat, length: int) -> list:
    """The maps of an exact sequence M_length -> ... -> M_0 -> a built from
    minimal right approximations (maps[0]: M_0 -> a); raises when an
    approximation fails to be onto (then M is not generating and no such
    resolution exists)."""
    maps: List[Morphism] = []
    current = a
    incl: Optional[Morphism] = None
    for k in range(length + 1):
        approx = minimal_right_approximation(current, m)
        if not approx.is_surjective():
            raise HypothesisError(
                f"right approximation at stage {k} is not surjective")
        maps.append(approx if incl is None else approx.then(incl))
        ker, incl = kernel_morphism(approx)
        current = ker
    return maps


def ext_via_approx_resolution(a: Module, b: Module, m: AddCat, k: int,
                              n: int) -> int:
    """dim Ext^k(a, b) read off the Hom complex of an add(M)-resolution.

    Valid (and pre-checked) under Ext^{1..n-1}(M, b) = 0; equality with
    ext_dim is the content of the comparison theorem this realizes."""
    if not 1 <= k <= n - 1:
        raise PreconditionError("k must satisfy 1 <= k <= n-1")
    for i, g in enumerate(m.generators):
        for deg in range(1, n):
            d = ext_dim(g, b, deg)
            if d:
                raise HypothesisError(
                    f"Ext^{deg}(generator {i}, b) = {d} != 0; "
                    f"comparison hypothesis violated")
    return hom_cohomology_dim(approx_resolution(a, m, n), b, k)


# -- strong projectivity --------------------------------------------------


def strong_projectivity_check(p: Module, f: Morphism, m: AddCat) -> Tuple[bool, dict]:
    """For projective p, the Hom(p, -) sequence through a weak cokernel of
    f is exact at the middle; returns the verdict with its rank table.
    Projectivity is decided exactly from the top of p
    (resolutions.is_projective), with no Hom space solved."""
    if not is_projective(p):
        raise PreconditionError("p is not projective")
    g = weak_cokernel(f, m)
    ok, ranks = hom_exact_at_middle(p, f, g)
    ranks["weak_cokernel_target_dims"] = list(g.target.dim_vector())
    return ok, ranks
