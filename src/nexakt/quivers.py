"""Quivers, admissible relations and finite-dimensional path-algebra bases.

A path is a word of arrows in traversal order (first-traversed first),
so the word [a, b] requires target(a) = source(b).  Representation
matrices act on column vectors, hence the matrix of the word [a, b] is
Mat(b) * Mat(a).  This convention is fixed here once and used
everywhere; mixing conventions is the dominant bug class in this
domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .fp import FieldSpec


class QuiverError(ValueError):
    pass


class AdmissibilityError(ValueError):
    pass


class BoundError(ValueError):
    """Raised when J^N is not contained in the relation ideal."""


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class Quiver:
    vertices: tuple
    arrows: tuple

    @staticmethod
    def build(vertices: Sequence[str], arrows: Sequence[Tuple[str, str, str]]) -> "Quiver":
        vs = tuple(vertices)
        if len(set(vs)) != len(vs):
            raise QuiverError("duplicate vertex names")
        ar = tuple(Arrow(*a) if not isinstance(a, Arrow) else a for a in arrows)
        names = [a.name for a in ar]
        if len(set(names)) != len(names):
            raise QuiverError("duplicate arrow names")
        vset = set(vs)
        for a in ar:
            if a.source not in vset or a.target not in vset:
                raise QuiverError(f"arrow {a.name} has undeclared endpoint")
        return Quiver(vs, ar)

    def arrow(self, name: str) -> Arrow:
        for a in self.arrows:
            if a.name == name:
                return a
        raise QuiverError(f"unknown arrow {name!r}")

    def vertex_index(self, v: str) -> int:
        try:
            return self.vertices.index(v)
        except ValueError:
            raise QuiverError(f"unknown vertex {v!r}") from None

    def opposite(self) -> "Quiver":
        return Quiver(self.vertices,
                      tuple(Arrow(a.name, a.target, a.source) for a in self.arrows))


@dataclass(frozen=True)
class PathWord:
    """A composable word of arrows; the empty word carries its base vertex."""

    arrows: tuple
    base: Optional[str] = None  # only for the empty word

    @staticmethod
    def trivial(v: str) -> "PathWord":
        return PathWord((), v)

    def is_trivial(self) -> bool:
        return not self.arrows

    def length(self) -> int:
        return len(self.arrows)


def path_endpoints(q: Quiver, w: PathWord) -> Tuple[str, str]:
    if w.is_trivial():
        if w.base is None:
            raise QuiverError("empty word without base vertex")
        q.vertex_index(w.base)
        return w.base, w.base
    arrs = [q.arrow(name) for name in w.arrows]
    for x, y in zip(arrs, arrs[1:]):
        if x.target != y.source:
            raise QuiverError(f"non-composable word {w.arrows}")
    return arrs[0].source, arrs[-1].target


@dataclass(frozen=True)
class Relation:
    """Linear combination of paths sharing one source and one target.

    Admissibility requires every term to have word length >= 2.
    """

    terms: tuple  # of (coefficient, PathWord)

    def validate(self, q: Quiver, p: int) -> Tuple[str, str]:
        if not self.terms:
            raise AdmissibilityError("empty relation")
        ends = None
        for coeff, word in self.terms:
            if word.length() < 2:
                raise AdmissibilityError(
                    f"relation term {word.arrows} has length < 2")
            e = path_endpoints(q, word)
            if ends is None:
                ends = e
            elif e != ends:
                raise AdmissibilityError("relation terms with mixed endpoints")
            if coeff % p == 0:
                raise AdmissibilityError("relation term with zero coefficient")
        return ends


def _enumerate_paths(q: Quiver, max_len: int) -> List[PathWord]:
    """All paths of length <= max_len, sorted by (length, arrow indices)."""
    arrow_index = {a.name: i for i, a in enumerate(q.arrows)}
    out: List[PathWord] = [PathWord.trivial(v) for v in q.vertices]
    frontier = [(PathWord.trivial(v), v) for v in q.vertices]
    for _ in range(max_len):
        nxt = []
        for word, tgt in frontier:
            for a in q.arrows:
                if a.source == tgt:
                    nxt.append((PathWord(word.arrows + (a.name,)), a.target))
        nxt.sort(key=lambda wt: tuple(arrow_index[x] for x in wt[0].arrows))
        out.extend(w for w, _ in nxt)
        frontier = nxt
        if not frontier:
            break
    return out


class Memo:
    """An object with a memo dict ``_memo``.  An algebra owns its dict; a
    module shares its record with every live module of its content, so an
    entry lives as long as the last of them.  reps lists the keys in use."""

    def memoized(self, key, make):
        """The value kept under key, made by make() on first use."""
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = make()
        return got


@dataclass
class AlgebraBasis(Memo):
    """A path algebra modulo an admissible ideal, with multiplication table.

    basis[i] is a PathWord whose residue is the i-th basis element;
    the table maps a pair of basis indices to a list of (index, coeff).
    """

    quiver: Quiver
    field: FieldSpec
    nilpotency_bound: int
    basis: tuple                      # PathWords, residues forming a basis
    source_of: tuple                  # vertex name per basis element
    target_of: tuple
    table: dict = field(repr=False, default_factory=dict)
    relations: tuple = ()
    _memo: dict = field(init=False, repr=False, compare=False,
                        default_factory=dict)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def p(self) -> int:
        return self.field.p

    def vertex_unit(self, v: str) -> int:
        """Basis index of the trivial path e_v."""
        for i, w in enumerate(self.basis):
            if w.is_trivial() and w.base == v:
                return i
        raise QuiverError(f"unknown vertex {v!r}")

    def block_indices(self, source: str, target: str) -> List[int]:
        return [i for i in range(self.dim)
                if self.source_of[i] == source and self.target_of[i] == target]

    def multiply(self, i: int, j: int) -> List[Tuple[int, int]]:
        """Residue of basis[i]*basis[j] (i traversed first) as (index, coeff)."""
        if self.target_of[i] != self.source_of[j]:
            return []
        return self.table.get((i, j), [])

    def arrow_basis_index(self, arrow_name: str) -> int:
        for i, w in enumerate(self.basis):
            if w.arrows == (arrow_name,):
                return i
        raise QuiverError(f"arrow {arrow_name!r} vanishes in the quotient")


def _closure_under_arrow_multiplication(q: Quiver, p: int, max_len: int,
                                        paths: List[PathWord],
                                        rel_vectors: List[Dict[PathWord, int]]):
    """Span of the two-sided ideal generated by the relations, truncated
    beyond ``max_len`` (legitimate: all longer paths are declared zero).
    Returns the reduced row basis as dicts path -> coefficient."""
    ends = {w: path_endpoints(q, w) for w in paths}
    path_pos = {w: k for k, w in enumerate(paths)}

    def extend_left(vec: Dict[PathWord, int], a: Arrow) -> Dict[PathWord, int]:
        out: Dict[PathWord, int] = {}
        for w, c in vec.items():
            if ends[w][0] != a.target:
                return {}
            nw = PathWord((a.name,) + w.arrows)
            if nw.length() <= max_len:
                out[nw] = c
        return out

    def extend_right(vec: Dict[PathWord, int], a: Arrow) -> Dict[PathWord, int]:
        out: Dict[PathWord, int] = {}
        for w, c in vec.items():
            if ends[w][1] != a.source:
                return {}
            nw = PathWord(w.arrows + (a.name,))
            if nw.length() <= max_len:
                out[nw] = c
        return out

    # Gaussian elimination state: pivot path -> normalized vector.
    pivot_rows: Dict[PathWord, Dict[PathWord, int]] = {}

    def reduce_vec(vec: Dict[PathWord, int]) -> Dict[PathWord, int]:
        vec = {w: c % p for w, c in vec.items() if c % p}
        while vec:
            lead = min(vec, key=lambda w: path_pos[w])
            row = pivot_rows.get(lead)
            if row is None:
                return vec
            c = vec[lead]
            vec = {w: (vec.get(w, 0) - c * row.get(w, 0)) % p
                   for w in set(vec) | set(row)}
            vec = {w: x for w, x in vec.items() if x}
        return vec

    def insert(vec: Dict[PathWord, int]) -> bool:
        vec = reduce_vec(vec)
        if not vec:
            return False
        lead = min(vec, key=lambda w: path_pos[w])
        inv = pow(vec[lead], p - 2, p)
        pivot_rows[lead] = {w: (c * inv) % p for w, c in vec.items()}
        # re-reduce earlier rows so the basis stays fully reduced
        for piv in list(pivot_rows):
            if piv == lead:
                continue
            row = pivot_rows[piv]
            if lead in row:
                c = row[lead]
                newrow = {w: (row.get(w, 0) - c * pivot_rows[lead].get(w, 0)) % p
                          for w in set(row) | set(pivot_rows[lead])}
                pivot_rows[piv] = {w: x for w, x in newrow.items() if x}
        return True

    worklist = [dict(v) for v in rel_vectors]
    for v in worklist:
        insert(v)
    changed = True
    while changed:
        changed = False
        current = [dict(v) for v in pivot_rows.values()]
        for vec in current:
            for a in q.arrows:
                for ext in (extend_left(vec, a), extend_right(vec, a)):
                    if ext and insert(ext):
                        changed = True
    return pivot_rows, path_pos


def build_algebra(q: Quiver, rels: Sequence[Relation], n_bound: int,
                  fld: FieldSpec) -> AlgebraBasis:
    """Basis and multiplication table of KQ/(relations + paths of length >= N).

    The bound is *verified*: every path of length exactly N must reduce to
    zero modulo the ideal generated by the relations, otherwise the ideal
    is not admissible with this bound and a BoundError is raised.
    """
    if n_bound < 1:
        raise ValueError("nilpotency bound must be >= 1")
    p = fld.p
    rels = tuple(rels)
    for r in rels:
        r.validate(q, p)

    paths = _enumerate_paths(q, n_bound)
    rel_vectors = [{word: coeff % p for coeff, word in r.terms} for r in rels]
    pivot_rows, path_pos = _closure_under_arrow_multiplication(
        q, p, n_bound, paths, rel_vectors)

    def normal_form(vec: Dict[PathWord, int]) -> Dict[PathWord, int]:
        vec = {w: c % p for w, c in vec.items() if c % p}
        again = True
        while again:
            again = False
            for w in sorted(vec, key=lambda w: path_pos[w]):
                row = pivot_rows.get(w)
                if row is not None and vec.get(w, 0):
                    c = vec[w]
                    vec = {u: (vec.get(u, 0) - c * row.get(u, 0)) % p
                           for u in set(vec) | set(row)}
                    vec = {u: x for u, x in vec.items() if x}
                    again = True
                    break
        return vec

    for w in paths:
        if w.length() == n_bound and w not in pivot_rows:
            if normal_form({w: 1}):
                raise BoundError(
                    f"path {w.arrows} of length {n_bound} is nonzero in the "
                    f"quotient; ideal not verified admissible with this bound")

    basis_words = [w for w in paths
                   if w.length() < n_bound and w not in pivot_rows]
    ends = {w: path_endpoints(q, w) for w in basis_words}
    basis_pos = {w: i for i, w in enumerate(basis_words)}

    table: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for i, wi in enumerate(basis_words):
        for j, wj in enumerate(basis_words):
            if ends[wi][1] != ends[wj][0]:
                continue
            if wi.length() + wj.length() >= n_bound:
                table[(i, j)] = []
                continue
            concat = PathWord(wi.arrows + wj.arrows,
                              wi.base if wi.is_trivial() and wj.is_trivial() else None)
            nf = normal_form({concat: 1})
            table[(i, j)] = sorted((basis_pos[w], c) for w, c in nf.items())

    alg = AlgebraBasis(
        quiver=q, field=fld, nilpotency_bound=n_bound,
        basis=tuple(basis_words),
        source_of=tuple(ends[w][0] for w in basis_words),
        target_of=tuple(ends[w][1] for w in basis_words),
        table=table, relations=rels)
    _spot_check_table(alg)
    return alg


def _spot_check_table(alg: AlgebraBasis, limit: int = 64):
    """Exhaustive associativity/unit check for small algebras."""
    if alg.dim > limit:
        return
    p = alg.p
    d = alg.dim

    def mul_vec(vec, j):
        out: Dict[int, int] = {}
        for i, c in vec:
            for k, c2 in alg.multiply(i, j):
                out[k] = (out.get(k, 0) + c * c2) % p
        return [(k, c) for k, c in sorted(out.items()) if c]

    for i in range(d):
        ev = alg.vertex_unit(alg.source_of[i])
        ew = alg.vertex_unit(alg.target_of[i])
        if alg.multiply(ev, i) != [(i, 1 % p)] or alg.multiply(i, ew) != [(i, 1 % p)]:
            raise AssertionError("multiplication table not unital")
    for i in range(d):
        for j in range(d):
            if alg.target_of[i] != alg.source_of[j]:
                continue
            ij = alg.multiply(i, j)
            for k in range(d):
                if alg.target_of[j] != alg.source_of[k]:
                    continue
                left = mul_vec(ij, k)
                right_jk = alg.multiply(j, k)
                out: Dict[int, int] = {}
                for m, c in right_jk:
                    for t, c2 in alg.multiply(i, m):
                        out[t] = (out.get(t, 0) + c * c2) % p
                right = [(t, c) for t, c in sorted(out.items()) if c]
                if left != right:
                    raise AssertionError(
                        f"multiplication table not associative at ({i},{j},{k})")


def opposite_algebra(alg: AlgebraBasis) -> AlgebraBasis:
    """Arrows reversed, relation words reversed; dimension is preserved."""
    q_op = alg.quiver.opposite()
    rels_op = tuple(
        Relation(tuple((c, PathWord(tuple(reversed(w.arrows)), w.base))
                       for c, w in r.terms))
        for r in alg.relations)
    return build_algebra(q_op, rels_op, alg.nilpotency_bound, alg.field)
