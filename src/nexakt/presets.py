"""Desk-scale example families and the brute-force uniqueness oracle.

Families: the Nakayama algebras K A_k/J^l (linearly oriented, sink-first
so that P_0 = S_0) and C_k/J^l (one oriented cycle, selfinjective), both
from ``nakayama_algebra``; K A_{nm+1}/J^2 with its expected n-cluster-
tilting generators; small preprojective algebras of type A; and
Auslander algebras of linear A_m.

C_k/J^l has a d-cluster-tilting module exactly when l(d - 1) + 2 divides
2k or t*k, t = gcd(d + 1, 2(l - 1)) (Darpö–Iyama, "d-representation-
finite self-injective algebras", Adv. Math. 362 (2020)); tests pin it.
"""

from __future__ import annotations

from typing import List, Tuple

from .addcat import Indecomposables
from .fp import FieldSpec, rank
from .quivers import (AlgebraBasis, PathWord, Quiver, QuiverError, Relation,
                      build_algebra)
from .reps import Module, _path_module, all_projectives, simple_module


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
    alg = nakayama_algebra(n * m + 1, 2, p=p)
    expected = list(all_projectives(alg))
    for j in range(1, m + 1):
        expected.append(simple_module(alg, str(j * n)))
    return alg, expected


def gen_preprojective_A(n: int, p: int = 101) -> AlgebraBasis:
    """Preprojective algebra of type A_n (n >= 2) by doubled-quiver
    presentation, with nilpotency bound n (its Loewy length) and dimension
    n(n+1)(n+2)/6."""
    if n < 2:
        raise ValueError("need n >= 2")
    vertices = [str(i) for i in range(1, n + 1)]
    arrows = []
    for i in range(1, n):
        arrows.append((f"a{i}", str(i), str(i + 1)))
        arrows.append((f"b{i}", str(i + 1), str(i)))
    q = Quiver.build(vertices, arrows)
    rels = []
    # mesh relation at each vertex: compositions through adjacent vertices
    # sum to zero (sign conventions differ in the literature; the doubled
    # quiver of A_n is a tree, so rescaling arrows turns any choice of
    # signs into any other, and every choice presents the same algebra)
    for i in range(1, n + 1):
        terms = []
        if i < n:
            terms.append((1, PathWord((f"a{i}", f"b{i}"))))     # i -> i+1 -> i
        if i > 1:
            terms.append((p - 1, PathWord((f"b{i-1}", f"a{i-1}"))))  # i -> i-1 -> i
        rels.append(Relation(tuple(terms)))
    return build_algebra(q, rels, n, FieldSpec(p))


def nakayama_indecomposables(alg: AlgebraBasis) -> Indecomposables:
    """All uniserial P_v / rad^l P_v: every indecomposable of a Nakayama
    algebra (linear A_k or one oriented cycle), exactly.  Out of a vertex
    of a Nakayama quiver there is one path of each length, so an
    admissible ideal is generated by paths: the basis paths out of v are
    those of length < dim P_v, and rad^l P_v is spanned by the basis paths
    of length >= l.  So P_v / rad^l P_v (1 <= l < dim P_v) is P_v on its
    basis paths of length < l, built unchecked as P_v is; the stored
    P_v ends its block.  Each entry has a simple top (asserted), so is
    local; entries differ in top vertex or length."""
    _require_nakayama(alg.quiver)
    out = []
    for v, pv in zip(alg.quiver.vertices, all_projectives(alg)):
        out.extend(_path_module(alg, v, True, below=l) for l in range(1, pv.total_dim))
        out.append(pv)
    for x in out:
        # in-degree <= 1: rad x is one arrow's image at each vertex
        if x.total_dim - sum(rank(a) for a in x.action.values()) != 1:
            raise AssertionError("uniserial quotient without a simple top")
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
    relations at each non-projective vertex; nilpotency bound 2m - 1."""
    if m < 1:
        raise ValueError("need m >= 1")
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
    return build_algebra(q, rels, 2 * m - 1, FieldSpec(p))
