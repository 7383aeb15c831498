"""Quivers, admissible relations and finite-dimensional path-algebra bases.

A path is a word of arrows in traversal order (first-traversed first),
so the word [a, b] requires target(a) = source(b).  Representation
matrices act on column vectors, hence the matrix of the word [a, b] is
Mat(b) * Mat(a).  This convention is fixed here once and used
everywhere; mixing conventions is the dominant bug class in this
domain.

The ideal of an algebra with nilpotency bound N is one reduced row-echelon
form over the paths of length <= N, in their fixed order (by length, then
by arrow indices), made by fp's shared row reduction: its pivots are the
leading paths of the ideal, the other paths shorter than N are the basis,
and a path's normal form is read off its reduced row.

Each algebra indexes its basis once, when the index is first read
(``AlgebraBasis._index``): the basis paths starting and ending at each
vertex, grouped by their other end, the basis index of each arrow and
vertex unit, and the quiver's vertex and arrow names.  ``vertex_unit``,
``arrow_basis_index``, ``block_indices``, ``reps.basis_paths`` and the
table check read it and scan nothing.  The table check verifies each
fact once: the ends of every product's terms, in one pass over the
table, the vertex units, the composable triples of paths of positive
length, in index order, and the relations, multiplied through the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from types import MappingProxyType
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .fp import FieldSpec, _reduce


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
        seen = set()
        for coeff, word in self.terms:
            if word.length() < 2:
                raise AdmissibilityError(
                    f"relation term {word.arrows} has length < 2")
            if word.arrows in seen:
                raise AdmissibilityError(
                    f"relation term {word.arrows} is listed twice")
            seen.add(word.arrows)
            e = path_endpoints(q, word)
            if ends is None:
                ends = e
            elif e != ends:
                raise AdmissibilityError("relation terms with mixed endpoints")
            if coeff % p == 0:
                raise AdmissibilityError("relation term with zero coefficient")
        return ends


def _enumerate_paths(q: Quiver, max_len: int) -> Tuple[list, list]:
    """All paths of length <= max_len, sorted by (length, arrow indices),
    and the (source, target) of each: a path is grown from its source by
    the arrows out of its target."""
    arrow_index = {a.name: i for i, a in enumerate(q.arrows)}
    frontier = [(PathWord.trivial(v), (v, v)) for v in q.vertices]
    out = list(frontier)
    for _ in range(max_len):
        nxt = [(PathWord(word.arrows + (a.name,)), (src, a.target))
               for word, (src, tgt) in frontier
               for a in q.arrows if a.source == tgt]
        nxt.sort(key=lambda we: tuple(arrow_index[x] for x in we[0].arrows))
        out.extend(nxt)
        frontier = nxt
        if not frontier:
            break
    return [w for w, _ in out], [e for _, e in out]


class _lazy_property:
    """An attribute computed by its method on first read and kept in the
    instance's __dict__, which later reads find first (a non-data
    descriptor).  Unlike functools.cached_property, which takes a lock on
    every first read before Python 3.12, it takes none: a first read raced
    by two threads computes the value twice and keeps the last."""

    def __init__(self, method):
        self.method = method
        self.name = method.__name__
        self.__doc__ = method.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.method(obj)
        return value


class _BasisIndex(NamedTuple):
    """The index of an algebra's basis, as tuples in increasing basis
    order: starting[v][w] the basis paths from v to w, ending[v][w] those
    from w to v (starting[v] and ending[v] are read-only views, which
    reps.basis_paths hands out), out_of[v] the basis paths of positive
    length from v, which only the table check reads; the basis index of
    each arrow that survives in the quotient and of each vertex unit; and
    the quiver's vertex and arrow names."""

    starting: dict
    ending: dict
    out_of: dict
    arrows: dict
    units: dict
    vertex_names: frozenset
    arrow_names: frozenset


STORE_BOUND = 1 << 16
_next_id = count().__next__     # one counter for all algebras (see reps)


@dataclass
class AlgebraBasis:
    """A path algebra modulo an admissible ideal, with multiplication table.

    basis[i] is a PathWord whose residue is the i-th basis element;
    the table maps a pair of basis indices to a list of (index, coeff).
    store keeps the facts about modules over the algebra by operation and
    content ids (reps lists the keys), ids the id of each content key;
    both are cleared whole when either reaches STORE_BOUND, but not
    opposite, the link opposite_algebra sets both ways.
    """

    quiver: Quiver
    field: FieldSpec
    nilpotency_bound: int
    basis: tuple                      # PathWords, residues forming a basis
    source_of: tuple                  # vertex name per basis element
    target_of: tuple
    table: dict = field(repr=False, default_factory=dict)
    relations: tuple = ()
    store: dict = field(init=False, repr=False, compare=False,
                        default_factory=dict)
    ids: dict = field(init=False, repr=False, compare=False,
                      default_factory=dict)
    opposite: Optional["AlgebraBasis"] = field(init=False, repr=False,
                                                compare=False, default=None)

    def content_id(self, key: tuple) -> int:
        """The id of a module content key; a new key takes the next id."""
        got = self.ids.get(key)
        return self._keep(self.ids, key, _next_id()) if got is None else got

    def memoized(self, key, make):
        """The fact kept under key, made by make() on first use."""
        got = self.store.get(key)
        return self._keep(self.store, key, make()) if got is None else got

    def _keep(self, table: dict, key, value):
        """table[key] = value, once both tables are cleared if it is full."""
        if len(table) >= STORE_BOUND:
            self.store.clear()
            self.ids.clear()
        table[key] = value
        return value

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def p(self) -> int:
        return self.field.p

    @_lazy_property
    def _index(self) -> _BasisIndex:
        """The basis index, built in one pass over the basis; an empty
        group is the shared empty tuple."""
        vs = self.quiver.vertices
        starting = {v: {} for v in vs}
        ending = {v: {} for v in vs}
        out_of = {v: [] for v in vs}
        arrows, units = {}, {}
        for i, (w, s, t) in enumerate(zip(self.basis, self.source_of, self.target_of)):
            starting[s].setdefault(t, []).append(i)
            ending[t].setdefault(s, []).append(i)
            if not w.arrows:
                units[w.base] = i
                continue
            out_of[s].append(i)
            if len(w.arrows) == 1:
                arrows[w.arrows[0]] = i

        def grouped(by_end):
            return {v: MappingProxyType({w: tuple(by_end[v].get(w, ())) for w in vs})
                    for v in vs}
        return _BasisIndex(grouped(starting), grouped(ending),
                           {v: tuple(got) for v, got in out_of.items()}, arrows, units,
                           frozenset(vs), frozenset(a.name for a in self.quiver.arrows))

    def vertex_unit(self, v: str) -> int:
        """Basis index of the trivial path e_v."""
        got = self._index.units.get(v)
        if got is None:
            raise QuiverError(f"unknown vertex {v!r}")
        return got

    def block_indices(self, source: str, target: str) -> List[int]:
        return list(self._index.starting.get(source, {}).get(target, ()))

    def multiply(self, i: int, j: int) -> List[Tuple[int, int]]:
        """Residue of basis[i]*basis[j] (i traversed first) as (index, coeff);
        the table holds composable pairs only, so any other pair is []."""
        return self.table.get((i, j), [])

    def arrow_basis_index(self, arrow_name: str) -> int:
        got = self._index.arrows.get(arrow_name)
        if got is None:
            raise QuiverError(f"arrow {arrow_name!r} vanishes in the quotient")
        return got


def _reduced_ideal(rels: Sequence[Relation], rel_ends: Sequence[Tuple[str, str]],
                   paths: List[PathWord], ends: List[Tuple[str, str]],
                   max_len: int, p: int):
    """The two-sided ideal generated by rels, truncated beyond max_len
    (legitimate: all longer paths are declared zero), in reduced row-echelon
    form over the paths in their order.  It is spanned by the products
    u.r.w, u a path into r's source and w a path out of r's target, with
    every term longer than max_len dropped; a product whose shortest term
    is dropped is zero and is not written.  Returns the column of each
    nontrivial path, by its arrows, and the reduced row at each pivot."""
    column = {w.arrows: k for k, w in enumerate(paths) if w.arrows}
    into: Dict[str, list] = {}
    out_of: Dict[str, list] = {}
    for w, (s, t) in zip(paths, ends):       # by length, as paths are
        out_of.setdefault(s, []).append(w.arrows)
        into.setdefault(t, []).append(w.arrows)
    rows = []
    for r, (s, t) in zip(rels, rel_ends):
        terms = [(c % p, word.arrows) for c, word in r.terms]
        room = max_len - min(len(word) for _, word in terms)
        for u in into[s]:
            if len(u) > room:
                break
            for w in out_of[t]:
                if len(u) + len(w) > room:
                    break
                row = [0] * len(paths)
                for c, word in terms:
                    k = column.get(u + word + w)
                    if k is not None:
                        row[k] = c
                rows.append(row)
    pivots = _reduce(rows, len(paths), p)
    return column, dict(zip(pivots, rows))


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
    rel_ends = []
    for r in rels:
        rel_ends.append(r.validate(q, p))
        for _, word in r.terms:
            if word.length() > n_bound:
                raise AdmissibilityError(
                    f"relation term {word.arrows} is longer than the "
                    f"nilpotency bound {n_bound}")

    paths, ends = _enumerate_paths(q, n_bound)
    column, pivot_row = _reduced_ideal(rels, rel_ends, paths, ends, n_bound, p)
    for k, w in enumerate(paths):
        if w.length() == n_bound and k not in pivot_row:
            raise BoundError(
                f"path {w.arrows} of length {n_bound} is nonzero in the "
                f"quotient; ideal not verified admissible with this bound")

    basis_cols = [k for k, w in enumerate(paths)
                  if w.length() < n_bound and k not in pivot_row]
    basis_pos = {k: i for i, k in enumerate(basis_cols)}

    def normal_form(k: int) -> List[Tuple[int, int]]:
        """Path k is itself or, at a pivot, minus its row off the pivot;
        the row's other entries sit at basis columns, in order."""
        row = pivot_row.get(k)
        if row is None:
            return [(basis_pos[k], 1)]
        return [(basis_pos[c], -x % p) for c, x in enumerate(row) if x and c != k]

    basis_words = [paths[k] for k in basis_cols]
    table: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for i, wi in enumerate(basis_words):
        ti = ends[basis_cols[i]][1]
        for j, wj in enumerate(basis_words):
            if ti != ends[basis_cols[j]][0]:
                continue
            if wi.length() + wj.length() >= n_bound:
                table[(i, j)] = []
            elif not wi.arrows:
                table[(i, j)] = [(j, 1)]
            elif not wj.arrows:
                table[(i, j)] = [(i, 1)]
            else:
                table[(i, j)] = normal_form(column[wi.arrows + wj.arrows])

    alg = AlgebraBasis(
        quiver=q, field=fld, nilpotency_bound=n_bound,
        basis=tuple(basis_words),
        source_of=tuple(ends[k][0] for k in basis_cols),
        target_of=tuple(ends[k][1] for k in basis_cols),
        table=table, relations=rels)
    _spot_check_table(alg)
    return alg


def _spot_check_table(alg: AlgebraBasis):
    """Exhaustive check of the table, one fact at a time: every product's
    terms run between the ends of its factors; each vertex unit is a
    two-sided unit; every composable triple (i, j, k) of basis paths of
    positive length associates, visited in increasing order off the basis
    index (where b_i b_j and b_j b_k are both zero, both sides are); each
    relation, its words multiplied arrow by arrow, sums to zero.  A
    triple with a unit follows from the first two facts: (e_v b_j) b_k =
    b_j b_k = e_v (b_j b_k), since every term of b_j b_k starts at v, and
    the unit in the middle or last place likewise."""
    p = alg.p
    src, tgt = alg.source_of, alg.target_of
    out_of = alg._index.out_of
    for (i, j), prod in alg.table.items():
        s, t = src[i], tgt[j]
        for k, _ in prod:
            if src[k] != s or tgt[k] != t:
                raise AssertionError(
                    f"multiplication table term {k} of ({i},{j}) has other ends")

    def mul_vecs(u, v):
        """The product of two coefficient vectors, as sorted (index, coeff)."""
        out: Dict[int, int] = {}
        for i, c in u:
            for j, c2 in v:
                for k, c3 in alg.multiply(i, j):
                    out[k] = (out.get(k, 0) + c * c2 * c3) % p
        return [(k, c) for k, c in sorted(out.items()) if c]

    for i, (s, t) in enumerate(zip(src, tgt)):
        one = [(i, 1 % p)]
        if alg.multiply(alg.vertex_unit(s), i) != one \
                or alg.multiply(i, alg.vertex_unit(t)) != one:
            raise AssertionError("multiplication table not unital")
    for i in sorted(i for paths in out_of.values() for i in paths):
        for j in out_of[tgt[i]]:
            ij = alg.multiply(i, j)
            for k in out_of[tgt[j]]:
                jk = alg.multiply(j, k)
                if (ij or jk) and mul_vecs(ij, [(k, 1)]) != mul_vecs([(i, 1)], jk):
                    raise AssertionError(
                        f"multiplication table not associative at ({i},{j},{k})")
    arrows = alg._index.arrows
    for r, rel in enumerate(alg.relations):
        total: Dict[int, int] = {}
        for c, word in rel.terms:
            prod = [(arrows[word.arrows[0]], c)]
            for a in word.arrows[1:]:
                prod = mul_vecs(prod, [(arrows[a], 1)])
            for k, x in prod:
                total[k] = (total.get(k, 0) + x) % p
        if any(total.values()):
            raise AssertionError(f"multiplication table fails relation {r}")


def opposite_algebra(alg: AlgebraBasis) -> AlgebraBasis:
    """The opposite on the same basis indices: arrows, basis words and
    relation words reversed, and the table transposed, as b_j^op b_i^op =
    (b_i b_j)^op.  Built once, with no ideal reduced, and linked both ways:
    opposite_algebra(opposite_algebra(alg)) is alg."""
    if alg.opposite is None:
        op = AlgebraBasis(
            quiver=alg.quiver.opposite(), field=alg.field,
            nilpotency_bound=alg.nilpotency_bound,
            basis=tuple(PathWord(w.arrows[::-1], w.base) for w in alg.basis),
            source_of=alg.target_of, target_of=alg.source_of,
            table={(j, i): prod for (i, j), prod in alg.table.items()},
            relations=tuple(Relation(tuple((c, PathWord(w.arrows[::-1], w.base))
                                           for c, w in r.terms))
                            for r in alg.relations))
        op.opposite, alg.opposite = alg, op
    return alg.opposite
