"""Minimal projective resolutions, injective coresolutions and Ext.

Covers are computed from top = m/rad m, and envelopes as the dual of the
cover of D m (reps._dual); path-algebra quotients over F_p are basic and
split, so no semisimple-algebra machinery is needed.  The cover, the
envelope and the projectivity test (is_projective, also frob's
selfinjectivity test) read the top from one helper (_top_coordinates).
The minimal (co)resolution of a module is one record, Resolution, kept in
the algebra's store per content and direction and grown in place; each
step is verified once, when it is appended, and reuse verifies nothing
again.  min_projective_resolution and min_injective_coresolution hand
out copies of it cut to the asked length, (co)syzygies and links
included, and every reader outside this module goes through them, but
frob's envelope (frob._envelope), which reads the first map of the
stored coresolution in place (_injective_chain).  A negative degree or
length is refused with ValueError, since no resolution has one.

Ext^k (k >= 1) is read by dimension shifting from three Hom dimensions
along one cut resolution (see _ext_dim), with no rank taken, or is 0
with no Hom read where the k-th syzygy is zero; hom_cohomology_dim reads
H^k of a Hom complex for the Ext comparison along an add(M)-resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .fp import Mat, _empty, quotient_data, rank
from .reps import (Module, Morphism, _dual, _natural, _path_entries,
                   _require_same_algebra, all_injectives, all_projectives, basis_paths,
                   cokernel_morphism, hom_basis, hom_dims_and_ranks,
                   kernel_morphism, radical_span, stack_morphisms_from_sum,
                   stack_morphisms_to_sum, zero_module, zero_morphism)


@dataclass
class Resolution:
    """A minimal resolution ... -> Q_1 -> Q_0 -> m (terms[k] = Q_k,
    maps[0] the augmentation Q_0 -> m, maps[k]: Q_k -> Q_{k-1}), or a
    minimal coresolution m -> I^1 -> I^2 -> ... (terms[k] = I^{k+1},
    maps[0]: m -> I^1, maps[k]: I^k -> I^{k+1}).

    syzygies[k] is the k-th (co)syzygy, syzygies[0] = m; links[k] joins
    terms[k] and syzygies[k+1]: the kernel inclusion into Q_k of a
    resolution, the cokernel projection out of I^{k+1} of a
    coresolution."""

    module: Module
    terms: list
    maps: list
    syzygies: list
    links: list


def _top_coordinates(m: Module) -> Dict[str, List[int]]:
    """Per vertex v, the coordinates of m_v whose standard basis vectors
    lift a basis of top(m) = m/rad m at v: the free coordinates of
    rad m at v, as many as (dim top m)_v."""
    rad = radical_span(m)
    return {v: quotient_data(span)[1] if span.entries else list(range(span.rows))
            for v, span in rad.items()}


def _components_from_top(m: Module) -> List[Tuple[str, dict]]:
    """Per basis vector of top(m) at v, in vertex order, v and the
    components of the map P_v -> m sending e_v to the standard basis
    vector that lifts it."""
    p = m.algebra.p
    return [(v, _components_from_projective(v, Mat.from_rows(
                [[int(i == j)] for i in range(m.dims[v])], p, cols=1), m))
            for v, free in _top_coordinates(m).items() for j in free]


def projective_cover(m: Module) -> Morphism:
    """Minimal cover P -> m: one P_v per basis vector of top(m) at v."""
    alg = m.algebra
    if m.is_zero():
        return zero_morphism(zero_module(alg), m)
    projs = dict(zip(alg.quiver.vertices, all_projectives(alg)))
    cover = stack_morphisms_from_sum([_natural(projs[v], m, comps)
                                      for v, comps in _components_from_top(m)])
    if not cover.is_surjective():
        raise AssertionError("projective cover is not surjective")
    return cover


def is_projective(m: Module) -> bool:
    """m is projective, exactly: its projective cover P -> m is onto, so it
    is an isomorphism iff dim P = dim m, and dim P = sum_v (dim top m)_v *
    dim P_v is read off the top with no map built (frob._injective is this
    test on D x, read off the envelope)."""
    dims = [0] * len(m.dims)
    for pv, free in zip(all_projectives(m.algebra), _top_coordinates(m).values()):
        for i, d in enumerate(pv.dim_vector()):
            dims[i] += len(free) * d
    return tuple(dims) == m.dim_vector()


def _components_from_projective(v: str, vec: Mat, m: Module) -> dict:
    """The components of the map P_v -> m sending e_v to the column
    vector ``vec``: at w, one column per basis path b from v to w, b
    applied to vec on entry tuples (reps._path_entries)."""
    alg = m.algebra
    p, action = alg.p, m.action
    by_vertex = basis_paths(alg, v, starting=True)
    comps = {}
    for w, d in m.dims.items():
        paths = by_vertex[w]
        if not (d and paths):
            comps[w] = _empty(d, len(paths), p)
            continue
        columns = [_path_entries(action, alg.basis[b].arrows, vec.entries, 1, p)
                   for b in paths]
        comps[w] = Mat(d, len(paths), tuple(x for row in zip(*columns) for x in row), p)
    return comps


def injective_envelope(m: Module) -> Morphism:
    """Minimal envelope m -> E, the dual of the projective cover of D m:
    one I_v per basis vector of top(D m) at v, through the transpose of
    the map P_v -> D m over the opposite algebra (D P_v is I_v), so no
    module over the opposite is built but D m."""
    alg = m.algebra
    if m.is_zero():
        return zero_morphism(m, zero_module(alg))
    injectives = dict(zip(alg.quiver.vertices, all_injectives(alg)))
    env = stack_morphisms_to_sum([
        _natural(m, injectives[v], {w: c.transpose() for w, c in comps.items()})
        for v, comps in _components_from_top(_dual(m))])
    if not env.is_injective():
        raise AssertionError("injective envelope not injective")
    return env


def _check_step(d_in: Morphism, d_out: Morphism, what: str):
    """Exactness of d_in then d_out at the middle: the composite vanishes
    and rank d_in = dim ker d_out at every vertex."""
    if not d_in.then(d_out).is_zero():
        raise AssertionError(f"{what} differentials do not compose to zero")
    for v, out in d_out.components.items():
        if rank(d_in.components[v]) != out.cols - rank(out):
            raise AssertionError(f"{what} not exact")


def _projective_chain(m: Module, length: int) -> Resolution:
    """The stored minimal resolution of m, grown to Q_length.  A step is
    verified once, before it is appended: projective_cover checks the
    augmentation is onto, _check_step exactness at Q_{k-1}."""
    r = m.algebra.memoized(("projres", m.cid), lambda: Resolution(m, [], [], [m], []))
    while len(r.terms) <= length:
        cover = projective_cover(r.syzygies[-1])
        d = cover.then(r.links[-1]) if r.links else cover
        if r.maps:
            _check_step(d, r.maps[-1], "resolution")
        ker, incl = kernel_morphism(cover)
        r.terms.append(cover.source)
        r.maps.append(d)
        r.syzygies.append(ker)
        r.links.append(incl)
    return r


def _injective_chain(m: Module, length: int) -> Resolution:
    """The stored minimal coresolution of m, grown to I^length; dual to
    _projective_chain (injective_envelope checks the coaugmentation)."""
    r = m.algebra.memoized(("injres", m.cid), lambda: Resolution(m, [], [], [m], []))
    while len(r.terms) < length:
        env = injective_envelope(r.syzygies[-1])
        d = r.links[-1].then(env) if r.links else env
        if r.maps:
            _check_step(r.maps[-1], d, "coresolution")
        coker, proj = cokernel_morphism(env)
        r.terms.append(env.target)
        r.maps.append(d)
        r.syzygies.append(coker)
        r.links.append(proj)
    return r


def _cut(r: Resolution, k: int) -> Resolution:
    """A copy of r with its first k terms, maps and links and the
    (co)syzygies they reach."""
    return Resolution(r.module, r.terms[:k], r.maps[:k], r.syzygies[:k + 1],
                      r.links[:k])


def _require_degree(k: int, what: str):
    """ValueError for a negative degree, which no resolution has."""
    if k < 0:
        raise ValueError(f"negative {what} degree")


def min_projective_resolution(m: Module, length: int) -> Resolution:
    """Minimal resolution Q_length -> ... -> Q_0 -> m with its syzygies
    up to Omega^(length+1) m, exactness verified as it is built;
    repeated calls extend the same stored resolution."""
    _require_degree(length, "resolution")
    return _cut(_projective_chain(m, length), length + 1)


def syzygy(m: Module, k: int) -> Module:
    """k-th syzygy along the minimal resolution."""
    _require_degree(k, "syzygy")
    return _projective_chain(m, k - 1).syzygies[k]


def min_injective_coresolution(m: Module, length: int) -> Resolution:
    """Minimal coresolution m -> I^1 -> ... -> I^length with its
    cosyzygies up to Omega^(-length) m, exactness verified as it is
    built."""
    _require_degree(length, "coresolution")
    return _cut(_injective_chain(m, length), length)


def cosyzygy_of(m: Module, k: int) -> Module:
    """k-th cosyzygy along the minimal coresolution (deterministic)."""
    _require_degree(k, "cosyzygy")
    return _injective_chain(m, k).syzygies[k]


# -- Ext dimensions -----------------------------------------------------


def hom_cohomology_dim(maps: list, b: Module, k: int) -> int:
    """dim H^k of Hom(C, b) for C = ... -> C_k -> C_{k-1} -> ... with
    maps[j]: C_j -> C_{j-1}; ValueError unless 1 <= k <= len(maps) - 2."""
    if not 1 <= k <= len(maps) - 2:
        raise ValueError(f"Hom cohomology degree {k} outside 1..{len(maps) - 2}")
    (_, rank_in), (dim, rank_out) = hom_dims_and_ranks(
        [maps[k], maps[k + 1]], b, contravariant=True)
    return dim - rank_out - rank_in


def ext_dim(m: Module, n: Module, k: int) -> int:
    """dim Ext^k(m, n) by dimension shifting along the minimal projective
    resolution of m (see _ext_dim).

    Each degree reads three Hom dimensions from the Hom bases memoized by
    content, so a repeated question, or one about a content-equal
    target, solves no Hom again."""
    _require_degree(k, "Ext")
    if k == 0:
        return len(hom_basis(m, n))
    _require_same_algebra(m, n)
    return _ext_dim(m, n, k)


def _ext_dim(m: Module, n: Module, k: int) -> int:
    """dim Ext^k(m, n) for k >= 1 from three Hom dimensions.

    The minimal resolution gives 0 -> Omega^k m -> Q_{k-1} -> Omega^{k-1} m
    -> 0 with Q_{k-1} projective, so Ext^1(Q_{k-1}, n) = 0 and Hom(-, n)
    turns it into the exact 0 -> Hom(Omega^{k-1} m, n) -> Hom(Q_{k-1}, n)
    -> Hom(Omega^k m, n) -> Ext^1(Omega^{k-1} m, n) -> 0; and
    Ext^k(m, n) = Ext^1(Omega^{k-1} m, n).  All three modules are read
    from one resolution, cut at Q_{k-1}, and the Hom bases are memoised
    by content.  When Omega^k m is zero, Q_{k-1} -> Omega^{k-1} m is an
    isomorphism, so the two other dimensions cancel: 0, with no Hom space
    read."""
    r = min_projective_resolution(m, k - 1)
    omega = r.syzygies[k]
    if omega.is_zero():
        return 0
    return (len(hom_basis(omega, n)) - len(hom_basis(r.terms[k - 1], n))
            + len(hom_basis(r.syzygies[k - 1], n)))
