"""Minimal projective resolutions, injective coresolutions and Ext.

Covers are computed from top = m/rad m and envelopes dually via the
socle; path-algebra quotients over F_p are basic and split, so no
semisimple-algebra machinery is needed.  The minimal (co)resolution of a
module is memoised on it as one growing chain; each step is verified
once, when it is appended, and reuse verifies nothing again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from .fp import Mat, quotient_data, rank, solve_linear
from .reps import (Module, Morphism, _natural, _require_same_algebra,
                   all_injectives, all_projectives, basis_paths,
                   cokernel_morphism, hom_basis, hom_dims_and_ranks,
                   kernel_morphism, radical_span, socle_span,
                   stack_morphisms_from_sum, stack_morphisms_to_sum,
                   zero_module, zero_morphism)


@dataclass
class Resolution:
    """... -> Q_1 -> Q_0 -> m (maps[0] is the augmentation Q_0 -> m,
    maps[k]: Q_k -> Q_{k-1})."""

    module: Module
    terms: list
    maps: list


@dataclass
class Coresolution:
    """m -> I^1 -> I^2 -> ... (maps[0]: m -> I^1, maps[k]: I^k -> I^{k+1})."""

    module: Module
    terms: list
    maps: list


def projective_cover(m: Module) -> Morphism:
    """Minimal cover P -> m: one P_v per basis vector of top(m) at v."""
    alg = m.algebra
    p = alg.p
    if m.is_zero():
        return zero_morphism(zero_module(alg), m)
    rad = radical_span(m)
    gens: List[Tuple[str, Mat]] = []
    for v in alg.quiver.vertices:
        _, free = quotient_data(rad[v])
        for j in free:
            gens.append((v, Mat.from_rows([[1 if i == j else 0]
                                           for i in range(m.dims[v])], p, cols=1)))
    projs = dict(zip(alg.quiver.vertices, all_projectives(alg)))
    cover = stack_morphisms_from_sum([_map_from_projective(projs[v], v, vec, m)
                                      for v, vec in gens])
    if not cover.is_surjective():
        raise AssertionError("projective cover is not surjective")
    return cover


def _map_from_projective(pv: Module, v: str, vec: Mat, m: Module) -> Morphism:
    """The module map P_v -> m sending e_v to the column vector ``vec``."""
    alg = m.algebra
    by_vertex = basis_paths(alg, v, starting=True)
    comps = {}
    for w in alg.quiver.vertices:
        cols = [m.path_matrix(alg.basis[b]).mul(vec) for b in by_vertex[w]]
        comps[w] = Mat.hstack(cols) if cols else Mat.zero(m.dims[w], 0, alg.p)
    return _natural(pv, m, comps)


def injective_envelope(m: Module) -> Morphism:
    """Minimal envelope m -> E: one I_v per basis vector of soc(m) at v,
    each through the functional dual to that basis vector."""
    alg = m.algebra
    if m.is_zero():
        return zero_morphism(m, zero_module(alg))
    soc = socle_span(m)
    data: List[Tuple[str, Mat]] = []
    for v in alg.quiver.vertices:
        basis = soc[v]
        dual = solve_linear(basis.transpose(), Mat.identity(basis.cols, alg.p))
        for j in range(basis.cols):
            data.append((v, Mat.from_rows([[dual.at(i, j)]
                                           for i in range(m.dims[v])], alg.p, cols=1)))
    if not data:
        raise AssertionError("nonzero module with zero socle")
    injectives = dict(zip(alg.quiver.vertices, all_injectives(alg)))
    env = stack_morphisms_to_sum([_map_into_injective(m, v, vec, injectives[v])
                                  for v, vec in data])
    if not env.is_injective():
        raise AssertionError("injective envelope not injective")
    return env


def _map_into_injective(m: Module, v: str, functional: Mat, inj_v: Module) -> Morphism:
    """The map m -> I_v classifying the functional <functional, -> on m_v.

    I_v carries the basis dual to {paths w -> v}; the component at w sends
    x in m_w to the tuple (p |-> <functional, p.x>) over those paths."""
    alg = m.algebra
    by_vertex = basis_paths(alg, v, starting=False)
    comps = {}
    for w in alg.quiver.vertices:
        rows = [list(functional.transpose().mul(m.path_matrix(alg.basis[b])).row(0))
                for b in by_vertex[w]]
        comps[w] = Mat.from_rows(rows, alg.p, cols=m.dims[w])
    return _natural(m, inj_v, comps)


@dataclass
class _Chain:
    """A minimal (co)resolution of ends[0], grown one step at a time.

    ends[k] is the k-th (co)syzygy; links[k] joins terms[k] and ends[k+1]
    (the kernel inclusion into terms[k] of a resolution, the cokernel
    projection out of terms[k] of a coresolution)."""

    ends: list
    terms: list = field(default_factory=list)
    maps: list = field(default_factory=list)
    links: list = field(default_factory=list)


def _check_step(d_in: Morphism, d_out: Morphism, what: str):
    """Exactness of d_in then d_out at the middle: the composite vanishes
    and rank d_in = dim ker d_out at every vertex."""
    if not d_in.then(d_out).is_zero():
        raise AssertionError(f"{what} differentials do not compose to zero")
    for v, out in d_out.components.items():
        if rank(d_in.components[v]) != out.cols - rank(out):
            raise AssertionError(f"{what} not exact")


def _projective_chain(m: Module, length: int) -> _Chain:
    """The minimal resolution memoised on m, grown to Q_length.  A step is
    verified once, before it is appended: projective_cover checks the
    augmentation is onto, _check_step exactness at Q_{k-1}."""
    ch = m.memoized("projres", lambda: _Chain([m]))
    while len(ch.terms) <= length:
        cover = projective_cover(ch.ends[-1])
        d = cover.then(ch.links[-1]) if ch.links else cover
        if ch.maps:
            _check_step(d, ch.maps[-1], "resolution")
        ker, incl = kernel_morphism(cover)
        ch.terms.append(cover.source)
        ch.maps.append(d)
        ch.ends.append(ker)
        ch.links.append(incl)
    return ch


def _injective_chain(m: Module, length: int) -> _Chain:
    """The minimal coresolution memoised on m, grown to I^length; dual to
    _projective_chain (injective_envelope checks the coaugmentation)."""
    ch = m.memoized("injres", lambda: _Chain([m]))
    while len(ch.terms) < length:
        env = injective_envelope(ch.ends[-1])
        d = ch.links[-1].then(env) if ch.links else env
        if ch.maps:
            _check_step(ch.maps[-1], d, "coresolution")
        coker, proj = cokernel_morphism(env)
        ch.terms.append(env.target)
        ch.maps.append(d)
        ch.ends.append(coker)
        ch.links.append(proj)
    return ch


def min_projective_resolution(m: Module, length: int) -> Resolution:
    """Minimal resolution Q_length -> ... -> Q_0 -> m, exactness verified
    as it is built; repeated calls extend the same chain."""
    ch = _projective_chain(m, length)
    return Resolution(m, ch.terms[:length + 1], ch.maps[:length + 1])


def syzygy(m: Module, k: int) -> Module:
    """k-th syzygy along the minimal resolution."""
    return _projective_chain(m, k - 1).ends[k]


def min_injective_coresolution(m: Module, length: int) -> Coresolution:
    """Minimal coresolution m -> I^1 -> ... -> I^length, exactness
    verified as it is built."""
    ch = _injective_chain(m, length)
    return Coresolution(m, ch.terms[:length], ch.maps[:length])


def cosyzygy_of(m: Module, k: int) -> Module:
    """k-th cosyzygy along the minimal coresolution (deterministic)."""
    return _injective_chain(m, k).ends[k]


def cosyzygy_projection(m: Module, k: int) -> Morphism:
    """The epi I^k -> cosyzygy_of(m, k) closing the length-k coresolution."""
    return _injective_chain(m, k).links[k - 1]


# -- Ext dimensions -----------------------------------------------------


def hom_cohomology_dim(terms: list, maps: list, b: Module, k: int) -> int:
    """dim H^k of Hom(C, b) for C = ... -> terms[k] -> terms[k-1] -> ...
    with maps[j]: terms[j] -> terms[j-1]; needs 1 <= k < len(maps) - 1."""
    (_, rank_in), (dim, rank_out) = hom_dims_and_ranks(
        [maps[k], maps[k + 1]], b, contravariant=True)
    return dim - rank_out - rank_in


def ext_dim(m: Module, n: Module, k: int) -> int:
    """dim Ext^k(m, n) via Hom(minimal projective resolution of m, n).

    For k >= 1 the dimension is memoised on m by the content key of n and
    k: content-equal targets have equal Ext, and the entry keeps only the
    int, not the target."""
    if k < 0:
        raise ValueError("negative Ext degree")
    if k == 0:
        return len(hom_basis(m, n))
    _require_same_algebra(m, n)
    return m.memoized(("ext", n.key, k), lambda: _ext_dim(m, n, k))


def _ext_dim(m: Module, n: Module, k: int) -> int:
    res = min_projective_resolution(m, k + 1)
    return hom_cohomology_dim(res.terms, res.maps, n, k)
