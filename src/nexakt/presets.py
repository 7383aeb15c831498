"""Desk-scale example families and the brute-force uniqueness oracle.

Families: the Nakayama algebras K A_k/J^l (linearly oriented, sink-first
so that P_0 = S_0) and C_k/J^l (one oriented cycle, selfinjective), both
from ``nakayama_algebra``; K A_{nm+1}/J^2 with its expected n-cluster-
tilting generators; small preprojective algebras of type A; and
Auslander algebras of linear A_m.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .addcat import Indecomposables, PreconditionError, indecomposables
from .fp import FieldSpec, rank
from .quivers import (AlgebraBasis, PathWord, Quiver, QuiverError, Relation,
                      build_algebra)
from .reps import (Module, _radical_step, all_projectives,
                   quotient_by_submodule, radical_span, simple_module)
from .tilting import _ExtTable, _nct_report, _vertex_positions

# exhaustive search tries at most 2^MAX_SEARCH_CANDIDATES subsets
MAX_SEARCH_CANDIDATES = 20


def nakayama_algebra(k: int, l: int, cyclic: bool = False,
                     p: int = 101) -> AlgebraBasis:
    """K A_k/J^l, or C_k/J^l when ``cyclic``: vertices "0" .. "k-1", every
    path of length l zero, nilpotency bound l.  Linear arrows run sink-first,
    a{i}: i -> i-1, with relations a{i} a{i-1} ... a{i-l+1} for i = l .. k-1;
    cyclic arrows run a{i}: i -> i+1 mod k, with relations
    a{i} a{i+1} ... a{i+l-1} (indices mod k) for i = 0 .. k-1."""
    if k < 1 or l < 2:
        raise ValueError("need k >= 1 and l >= 2")
    vertices = [str(i) for i in range(k)]
    if cyclic:
        arrows = [(f"a{i}", str(i), str((i + 1) % k)) for i in range(k)]
        words = [[(i + j) % k for j in range(l)] for i in range(k)]
    else:
        arrows = [(f"a{i}", str(i), str(i - 1)) for i in range(1, k)]
        words = [[i - j for j in range(l)] for i in range(l, k)]
    rels = [Relation(((1, PathWord(tuple(f"a{i}" for i in w))),)) for w in words]
    return build_algebra(Quiver.build(vertices, arrows), rels, l, FieldSpec(p))


def gen_linear_An_J2(n: int, m: int,
                     p: int = 101) -> Tuple[AlgebraBasis, List[Module]]:
    """K A_{nm+1} / J^2 with its expected n-cluster-tilting generators
    Lambda + S_n + S_{2n} + ... + S_{nm}."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    if n * m + 1 > 12:
        raise ValueError("supported range is nm + 1 <= 12")
    alg = nakayama_algebra(n * m + 1, 2, p=p)
    expected = list(all_projectives(alg))
    for j in range(1, m + 1):
        expected.append(simple_module(alg, str(j * n)))
    return alg, expected


def gen_preprojective_A(n: int, p: int = 101) -> AlgebraBasis:
    """Preprojective algebra of type A_n by doubled-quiver presentation."""
    if not 2 <= n <= 3:
        raise ValueError("supported range is 2 <= n <= 3")
    vertices = [str(i) for i in range(1, n + 1)]
    arrows = []
    for i in range(1, n):
        arrows.append((f"a{i}", str(i), str(i + 1)))
        arrows.append((f"b{i}", str(i + 1), str(i)))
    q = Quiver.build(vertices, arrows)
    rels = []
    # mesh relation at each vertex: compositions through adjacent vertices
    # sum to zero (sign conventions differ in the literature; for this
    # range either choice presents the same algebra)
    for i in range(1, n + 1):
        terms = []
        if i < n:
            terms.append((1, PathWord((f"a{i}", f"b{i}"))))     # i -> i+1 -> i
        if i > 1:
            terms.append((p - 1, PathWord((f"b{i-1}", f"a{i-1}"))))  # i -> i-1 -> i
        rels.append(Relation(tuple(terms)))
    bound = 2 if n == 2 else 3
    return build_algebra(q, rels, bound, FieldSpec(p))


def nakayama_indecomposables(alg: AlgebraBasis) -> Indecomposables:
    """All uniserial P_v / rad^l P_v: every indecomposable of a Nakayama
    algebra (linear A_k or one oriented cycle), exactly.  Each has a simple
    top (asserted), so is local; entries differ in top vertex or length."""
    _require_nakayama(alg.quiver)
    out = []
    for pv in all_projectives(alg):
        span = radical_span(pv)
        for _ in range(pv.total_dim + 1):
            x = quotient_by_submodule(pv, span)[0]
            # in-degree <= 1: rad x is one arrow's image at each vertex
            if x.total_dim - sum(rank(a) for a in x.action.values()) != 1:
                raise AssertionError("uniserial quotient without a simple top")
            out.append(x)
            if all(s.is_zero() for s in span.values()):
                break          # rad^l P_v = 0: l is the Loewy length
            span = _radical_step(pv, span)
        else:
            raise AssertionError("radical series does not terminate")
    return Indecomposables(out, complete=True)


def _require_nakayama(q: Quiver):
    out_deg = {v: 0 for v in q.vertices}
    in_deg = {v: 0 for v in q.vertices}
    for a in q.arrows:
        out_deg[a.source] += 1
        in_deg[a.target] += 1
    if any(d > 1 for d in out_deg.values()) or any(d > 1 for d in in_deg.values()):
        raise QuiverError("not a Nakayama quiver (degree > 1 somewhere)")
    n_arrows = len(q.arrows)
    if n_arrows == len(q.vertices):
        return  # single oriented cycle
    if n_arrows == len(q.vertices) - 1:
        return  # linear A_k
    raise QuiverError("not a Nakayama quiver (wrong arrow count)")


def gen_auslander_linear_A(m: int, p: int = 101) -> AlgebraBasis:
    """Auslander algebra of K(linear A_m): quiver = AR-quiver on interval
    modules [i,j], arrows extend the interval left or chop it right, mesh
    relations at each non-projective vertex."""
    if not 1 <= m <= 4:
        raise ValueError("supported range is 1 <= m <= 4")
    intervals = [(i, j) for i in range(1, m + 1) for j in range(i, m + 1)]
    name = {iv: f"m{iv[0]}_{iv[1]}" for iv in intervals}
    vertices = [name[iv] for iv in intervals]
    arrows = []
    for (i, j) in intervals:
        if i >= 2:
            arrows.append((f"L{i}_{j}", name[(i, j)], name[(i - 1, j)]))
        if j > i:
            arrows.append((f"R{i}_{j}", name[(i, j)], name[(i, j - 1)]))
    q = Quiver.build(vertices, arrows)
    rels = []
    # mesh at tau[i,j] = [i+1, j+1] for every non-injective [i,j] ... the
    # relation lives on paths [i+1,j+1] -> [i,j]
    for (i, j) in intervals:
        if j >= m:
            continue  # [i, j] with j = m has no mesh ending at it
        terms = []
        # through [i, j+1]: extend left then chop right
        terms.append((1, PathWord((f"L{i+1}_{j+1}", f"R{i}_{j+1}"))))
        # through [i+1, j]: chop right then extend left (absent when i+1 > j)
        if i + 1 <= j:
            terms.append((1, PathWord((f"R{i+1}_{j+1}", f"L{i+1}_{j}"))))
        rels.append(Relation(tuple(terms)))
    bound = max(2 * m - 1, 1)
    return build_algebra(q, rels, bound, FieldSpec(p))


def brute_force_nct_search(alg: AlgebraBasis, n: int,
                           indec_list: Sequence[Module],
                           seed: int = 0) -> List[List[int]]:
    """Every subset of indec_list that contains all projectives and whose
    add-closure certifies as n-cluster-tilting, by size, then
    lexicographically.

    The list is checked once, up front, and no subset is checked again.
    The positions of every P_v and I_v are found, then one Ext^{1..n-1}
    table between all entries; its rows at the P_v and columns at the I_v
    are zeros written without an ext_dim call, since Ext^k(P, -) = 0 =
    Ext^k(-, I) for k >= 1 (Auslander–Reiten–Smalø, Ch. III).  A subset
    whose entries have nonzero Ext^{1..n-1} between two of them (or one
    with itself) fails the certifier's rigidity test, so only the
    Ext^{1..n-1}-orthogonal subsets are enumerated: the cliques of the
    compatibility graph read from the table.  Each clique gets the report
    check_n_cluster_tilting would give, read from the table by position as
    the search reaches it; the hits are then sorted once."""
    if n < 1:
        raise ValueError("n must be >= 1")
    indec_list = indecomposables(indec_list, seed)
    projs, injs = _vertex_positions(alg, indec_list)
    for pv, (_, i) in zip(all_projectives(alg), projs):
        if i is None:       # refused with index_of's error
            indec_list.index_of(pv)
    proj_set = sorted({i for _, i in projs})
    table = _ExtTable(indec_list, n, range(len(indec_list)), projs, injs)
    # bit j of clash[i]: some Ext^{1..n-1} between entries i and j is nonzero
    clash = [out | into for out, into in zip(table.out, table.into)]
    # Ext^{>=1}(P, -) = 0: the projectives are compatible with each other
    candidates = [i for i in range(len(indec_list)) if i not in proj_set
                  and not any(clash[i] >> j & 1 for j in proj_set + [i])]
    if len(candidates) > MAX_SEARCH_CANDIDATES:
        raise PreconditionError("too many candidates for exhaustive search")
    hits = []

    def grow(clique, start):
        subset = sorted(proj_set + list(clique))
        if _nct_report(subset, table, projs, injs).ok:
            hits.append(subset)
        for pos in range(start, len(candidates)):
            i = candidates[pos]
            if not any(clash[i] >> j & 1 for j in clique):
                grow(clique + (i,), pos + 1)

    grow((), 0)
    return sorted(hits, key=lambda s: (len(s), s))
