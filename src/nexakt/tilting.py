"""The n-cluster-tilting certifier and the Ext comparison along
add(M)-resolutions.

Generating/cogenerating are checked as "all P_v (resp. I_v) lie in
add(M)": an epimorphism from add(M) onto the regular module splits, so
this is equivalent to the categorical condition in mod(Lambda).
Maximality is checked against an Indecomposables list, so the
verdict is relative to it unless the list is complete.  Functorial
finiteness is automatic for add of a finite-dimensional module and is
reported rather than tested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .addcat import (AddCat, HypothesisError, PreconditionError,
                     hom_exact_at_middle, indecomposables,
                     minimal_right_approximation, weak_cokernel)
from .reps import (Module, Morphism, all_injectives, all_projectives, in_add,
                   kernel_morphism)
from .resolutions import ext_dim, hom_cohomology_dim

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
    indec_list (checked by addcat.indecomposables() unless it is an
    Indecomposables), which must hold every generator."""
    if n < 1:
        raise ValueError("n must be >= 1")
    alg = m.algebra
    indec_list = indecomposables(indec_list, seed)
    gens = m.generators
    for g in gens:
        indec_list.index_of(g, seed + 13)
    generating = [v for v, pv in zip(alg.quiver.vertices, all_projectives(alg))
                  if not in_add(pv, gens)]
    cogenerating = [v for v, iv in zip(alg.quiver.vertices, all_injectives(alg))
                    if not in_add(iv, gens)]
    rigidity = []
    for i, g in enumerate(gens):
        for j, h in enumerate(gens):
            for deg in range(1, n):
                d = ext_dim(g, h, deg)
                if d:
                    rigidity.append((i, j, deg, d))
    maximality = []
    for idx, x in enumerate(indec_list):
        member = bool(in_add(x, gens))
        left = all(ext_dim(x, g, deg) == 0
                   for g in gens for deg in range(1, n))
        right = all(ext_dim(g, x, deg) == 0
                    for g in gens for deg in range(1, n))
        if not (member == left == right):
            maximality.append({"index": idx, "dims": list(x.dim_vector()),
                               "in_add": member, "ext_to_M_vanishes": left,
                               "ext_from_M_vanishes": right})
    return NctReport(n, [g.dim_vector() for g in gens], generating,
                     cogenerating, rigidity, maximality, indec_list.complete)


# -- Ext via add(M)-approximation resolutions ---------------------------


def approx_resolution(a: Module, m: AddCat, length: int) -> Tuple[list, list]:
    """Exact sequence M_length -> ... -> M_0 -> a built from minimal right
    approximations; raises when an approximation fails to be onto (then M
    is not generating and no such resolution exists)."""
    terms: List[Module] = []
    maps: List[Morphism] = []
    current = a
    incl: Optional[Morphism] = None
    for k in range(length + 1):
        approx = minimal_right_approximation(current, m)
        if not approx.is_surjective():
            raise HypothesisError(
                f"right approximation at stage {k} is not surjective")
        terms.append(approx.source)
        maps.append(approx if incl is None else approx.then(incl))
        ker, incl = kernel_morphism(approx)
        current = ker
    return terms, maps


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
    terms, maps = approx_resolution(a, m, n)
    return hom_cohomology_dim(terms, maps, b, k)


# -- strong projectivity --------------------------------------------------


def strong_projectivity_check(p: Module, f: Morphism, m: AddCat) -> Tuple[bool, dict]:
    """For projective p, the Hom(p, -) sequence through a weak cokernel of
    f is exact at the middle; returns the verdict with its rank table."""
    if not in_add(p, all_projectives(p.algebra)):
        raise PreconditionError("p is not projective")
    g = weak_cokernel(f, m)
    ok, ranks = hom_exact_at_middle(p, f, g)
    ranks["weak_cokernel_target_dims"] = list(g.target.dim_vector())
    return ok, ranks
