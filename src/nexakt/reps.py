"""Modules over a path-algebra quotient and their morphisms.

A Module is a quiver representation: a vector space per vertex and a
matrix per arrow (shape dim(target) x dim(source), acting on column
vectors).  Morphisms are vertex-wise matrices satisfying naturality.
Both are immutable.  Each fact is checked once, when it is made: the
public ``Module(...)`` checks the relations and ``Morphism(...)``
naturality, of file data; both refuse an entry that is not an integer in
[0, p), which the raw ``Mat(...)`` stores as given.  The checks run on
entry tuples: names are subset tests against the name sets of the
algebra's basis index, the entry check is one pass, and each relation
term's path product is ``_path_entries``, one ``_mul_entries`` per
arrow, with no ``Mat`` built (the maps out of P_v in ``resolutions``
form their path products with it too).  What is derived from checked
objects is built unchecked: modules by ``_module``, which only wraps the
canonical form its builders make (dims in vertex order, an action for
every arrow in arrow order, each shaped and over F_p), maps by
``_natural``; a Hom basis is checked as one batch per arrow.  P_v, I_v
and P_v cut to its short paths are built unchecked too: they are read
off an algebra's table, whose relations ``quivers._spot_check_table``
verified (any other algebra is trusted as given).  Composites and linear
combinations of natural maps are natural, so ``then``, ``add``, ``sub``,
``scale`` and ``assemble_from_span`` check only their endpoints, by
content (``Module.same_as``).

The naturality system of a Hom space is written as entry rows: one list
per equation A x_s - x_t B = 0 and entry, with only its nonzero
coefficients set (reduced mod p as they are) and no row for an arrow
whose equations are empty.  fp's ``_null_space`` returns the null
vectors, each read straight into the components of one basis map.  The
batch check of naturality and the coordinate rows of composites with
every element of a Hom basis (``composite_rows``) form each per-vertex
product on entry tuples with fp's ``_mul_entries``, the kernel
``Mat.mul`` wraps, so no ``Mat`` is built for a system, its kernel or a
stack.  The linear problems in Hom spaces are solved on rows
(``solve_rows``, ``rows_rank``, by fp's in-place row reduction); a map
enters them as its ``vectorize()`` row.

Kernels and quotients read their actions, with no solve, at the free
coordinates of fp's canonical bases: a kernel's inclusion is the null
basis of ``_null_space`` (``kernel_morphism``), a quotient's projection
is ``quotient_data`` (``_quotient``, under ``cokernel_morphism`` and
``quotient_by_submodule``), and each is the identity there.

A direct sum (``direct_sum``) is the sum module with block-diagonal
action together with its summands.  Every map into, out of or between
direct sums is one ``block_morphism``: block (i, j) from source summand
j to target summand i, missing blocks zero; ``restrictions`` reads a map
out of a sum on each summand as its column block.  A stack of one map
(``stack_morphisms_to_sum``, ``stack_morphisms_from_sum``) is that map,
with no one-summand sum built.

A module carries its content key, the dimension vector plus the action
entries, its ``support``, the bitmask in vertex order of the vertices
where it is nonzero, and its content id ``cid``, interned by the algebra
when first read; each is computed on first use and kept on the module
with no lock (``quivers._lazy_property``).  Modules of one content
over one algebra share an id, and new contents take the next value of
one counter for all algebras, so modules over separately built equal
algebras never share one.  Every fact the package reuses is kept in the
algebra's store (``AlgebraBasis.memoized``) by operation and content
ids, until the store is cleared whole at ``STORE_BOUND``; stored maps
(Hom bases, chains, approximations) start and end at the first module of
each content, and every endpoint check compares content.
The keys are ("hom", m, n) for hom_basis, kept only for a pair that
shares a vertex, ("stable", m, n) for frob.stable_hom (the ideal of maps
through the injective envelope, and the Hom basis once it is read),
("in_add", x, ids of the generators) for the bool in_add returns,
("adjugate", ids of the generators that fit inside x) for the adjugate
and determinant of their Hom dimension matrix, ("sum",
ids of the operands) for the module direct_sum returns, ("summands", x)
for a proper decomposition direct_sum records with it (its nonzero
parts, when there are at least two, each of smaller dimension; in_add
decides the content by them, and solves for no zero module, generator or
sum), ("approx", side, x, ids of the generators) for the minimal
approximation built here (``_approximation``), its contract checked
once, for addcat and, over the generators that fit inside x, for in_add,
("indecomposables", ids of the entries, seed) for a list
indecomposables() passed, ("projres", x) and ("injres", x) for the
minimal (co)resolutions (one resolutions.Resolution each, grown in
place), and "projectives" and "injectives".

Only Hom spaces that can change a verdict are solved: ``in_add`` reads
only Hom(G, x), for the generators G that fit inside x (Krull-Schmidt).
Their dimensions fix a member's multiplicities, and a seeded map from
the sum those give proves x a member when bijective
(``_multiplicity_verdict``); else x is a member when the minimal right
approximation over those generators is an isomorphism
(``_approximation_is_iso``).  It is the stored map of the one builder,
``_approximation``, which addcat calls too (one map for both when every
generator fits inside x): one peel (``_peel_superfluous``) over one
table of composites through the generators (``_composite_table``).
The test is sound for indecomposable, pairwise non-isomorphic
generators, so in_add checks any list but an ``Indecomposables`` with
``indecomposables()`` (defined here, as is its ``DomainError``; addcat
re-exports both).

Hom spaces live on the joint support.  Hom between modules with disjoint
supports is zero, settled by ``hom_basis`` before the store: no content
id is read, no key built, nothing kept and nothing solved.  Any other
Hom space is solved over the shared vertices only: ``_solve_hom`` has
unknowns, equation rows and components there, and fills the other
vertices of each basis map from one template of fp's empty matrices.

The support rule: every per-vertex and per-arrow builder (the components
of ``then``, ``add``, ``scale``, zero and identity maps,
``_split_vector``, ``block_morphism``, ``restrictions``; the actions of
``direct_sum``, kernels and quotients; ``radical_span``,
``composite_rows``, the minimal polynomials and g(e) of
``_fitting_split``, and the maps out of P_v in ``resolutions``)
calls fp only on a slot whose two sides are nonzero.  A slot with a
zero side, read off the ``dims`` of its modules, is fp's shared empty
matrix of its shape (``_empty``), so every component dict still holds
every vertex.  Five builders leave that slot to fp's early returns,
which give the same shared matrix: the inclusion of ``kernel_morphism``
and the projection of ``_quotient`` take ``Mat.identity(0)`` where the
module is zero, ``_semisimple`` takes ``Mat.zero`` of an arrow with a
zero end, and ``_dual`` and ``resolutions.injective_envelope`` transpose
empty matrices.  Where
the sides are nonzero the result is what fp returns: a product with
inner dimension 0 is the zero matrix of its outer shape, the kernel of a
map into the zero space is the identity, a quotient by an empty span
keeps every coordinate.  A span given to ``quotient_by_submodule`` is
checked closed as the naturality of its projection
(``_check_natural_batch``), which also reads an arrow into a nonzero
quotient space from a zero one, on entry tuples.

Isomorphism to an indecomposable e is that membership test over the
one-entry list (e): x = e iff dim x = dim e and x lies in add(e)
(Krull-Schmidt).  ``Indecomposables.index_of`` is its public face;
``_isomorphic_to_indecomposable`` is the package-internal entry point,
which cli imports to compare with one module.  It is private because it
is only correct when e is indecomposable.  No package code compares
two arbitrary modules.

The duality D = Hom_F(-, F) is ``_dual``, over the opposite algebra,
which is linked both ways, so D D x is x's content over x's algebra.
D P_v is I_v, so ``resolutions.injective_envelope`` transposes the maps
out of P_v that cover D x.

Decomposition (``split_indecomposables``) splits a module along coprime
factors of the minimal polynomial of a random endomorphism e: if
mu = g*h with gcd(g, h) = 1, then x = ker g(e) + ker h(e), the primary
decomposition (im g(e) = ker h(e)).  The polynomial work (minimal
polynomials, factoring over F_p) is in ``polys``.  A module with dim End = 1 is indecomposable, exactly; any
other is declared indecomposable after FITTING_RETRIES failed attempts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import (Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence,
                    Tuple)

from . import polys
from .fp import (Mat, _empty, _mul_entries, _null_space, _reduce, mat_from_vector,
                 quotient_data, rank)
from .quivers import AlgebraBasis, _lazy_property, opposite_algebra

FITTING_RETRIES = 32


class ContextError(ValueError):
    """Operands live over different algebras."""


class PreconditionError(ValueError):
    pass


class DomainError(ValueError):
    """An object required to lie in add(M) does not, or a list of
    indecomposables (such as the generators) has a decomposable or
    repeated entry."""


@dataclass(frozen=True)
class Module:
    algebra: AlgebraBasis
    dims: dict                 # vertex name -> dimension
    action: dict               # arrow name -> Mat (dim target x dim source)

    def __post_init__(self):
        self._shape()
        self._check_relations()

    def _shape(self):
        """The checks of the public constructor: vertex and arrow names the
        algebra has (subset tests against the basis index's name sets),
        dimensions (plain ints, not negative), action shapes, field and
        entries; then the canonical form (dims in vertex order, an action
        for every arrow in arrow order)."""
        alg = self.algebra
        q, p, index = alg.quiver, alg.p, alg._index
        _require_known(self.dims, index.vertex_names, "vertex")
        _require_known(self.action, index.arrow_names, "arrow")
        dims = {v: self.dims.get(v, 0) for v in q.vertices}
        for v, d in dims.items():
            if type(d) is not int:      # a bool is no dimension
                raise ValueError(f"dimension at vertex {v!r} is not an integer: {d!r}")
            if d < 0:
                raise ValueError("negative dimension")
        action = {}
        for a in q.arrows:
            m = self.action.get(a.name)
            if m is None:
                m = Mat.zero(dims[a.target], dims[a.source], p)
            elif (m.rows, m.cols) != (dims[a.target], dims[a.source]):
                raise ValueError(f"action of {a.name} has wrong shape")
            elif m.p != p:
                raise ValueError("action matrix over wrong field")
            else:
                _require_reduced(m, f"action of {a.name}")
            action[a.name] = m
        self.__dict__.update(dims=dims, action=action)

    @_lazy_property
    def key(self) -> tuple:
        """The content key of the canonical form: the dimension vector and
        the action entries."""
        return (tuple(self.dims.values()),
                tuple(m.entries for m in self.action.values()))

    @_lazy_property
    def cid(self) -> int:
        """The content id, interned by the algebra when first read."""
        return self.algebra.content_id(self.key)

    @_lazy_property
    def support(self) -> int:
        """The vertices where the module is nonzero, as a bitmask in vertex
        order (bit i for the i-th vertex)."""
        bits = 0
        for i, d in enumerate(self.dims.values()):
            if d:
                bits |= 1 << i
        return bits

    def _check_relations(self):
        """Each relation vanishes, summed on entry tuples (_path_entries).
        The terms of one relation share their ends, so one from or to a
        zero space settles the relation.  Relation words are admissible, of
        length at least 2."""
        action, p = self.action, self.algebra.p
        for rel in self.algebra.relations:
            acc = None
            for coeff, word in rel.terms:
                first = action[word.arrows[0]]
                cols = first.cols
                if not (action[word.arrows[-1]].rows and cols):
                    break
                entries = _path_entries(action, word.arrows[1:], first.entries, cols, p)
                acc = ([coeff * x for x in entries] if acc is None
                       else [y + coeff * x for y, x in zip(acc, entries)])
            if acc is not None and any(y % p for y in acc):
                raise ValueError("relation does not vanish on module")

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def dim_vector(self) -> tuple:
        return self.key[0]

    def same_as(self, other: "Module") -> bool:
        """Equal content (identity is the fast path): the test every
        endpoint check uses, since equal dimension vectors are not enough."""
        return self is other or self.key == other.key


def _module(alg: AlgebraBasis, dims: dict, action: dict) -> Module:
    """A module known to satisfy the relations (a submodule, quotient or
    direct sum of modules that do, a semisimple module, a module read off
    the algebra's checked table), given by its builder in canonical form:
    dims in vertex order, an action for every arrow in arrow order, each
    of shape (dims[t], dims[s]) over F_p.  Nothing is checked."""
    m = object.__new__(Module)
    m.__dict__.update(algebra=alg, dims=dims, action=action)
    return m


def _semisimple(alg: AlgebraBasis, dims: dict) -> Module:
    """The module of dimension vector dims on which every arrow acts by 0."""
    return _module(alg, dims, {a.name: Mat.zero(dims[a.target], dims[a.source], alg.p)
                               for a in alg.quiver.arrows})


def _require_reduced(m: Mat, what: str):
    """Refuse an entry that the raw Mat(...) took but F_p lacks, in one
    pass: one whose class is not exactly int (a bool is refused, as a file
    refuses it) or that lies outside [0, p)."""
    p = m.p
    for x in m.entries:
        if x.__class__ is not int or not 0 <= x < p:
            raise ValueError(f"{what} has an entry that is not an integer in [0, {p})")


def _path_entries(action: dict, arrows: Sequence[str], entries: Sequence[int],
                  cols: int, p: int) -> Sequence[int]:
    """The path arrows (word [a,b] -> Mat(b)*Mat(a)) applied to the
    row-major entries of a matrix with cols columns, one _mul_entries per
    arrow on the actions' entries.  When an arrow starts at a zero space
    the result is zeros, with no product."""
    if not all(action[name].cols for name in arrows):
        return [0] * (action[arrows[-1]].rows * cols)
    for name in arrows:
        step = action[name]
        entries = _mul_entries(step.entries, entries, step.rows, step.cols, cols, p)
    return entries


def _require_known(names, allowed: frozenset, what: str):
    """Refuse a name (vertex or arrow) that allowed, one of the name sets
    of the algebra's basis index, lacks; the first unknown name in sorted
    order is named."""
    if not allowed.issuperset(names):
        unknown = sorted(set(names) - allowed)
        raise ValueError(f"the algebra has no {what} {unknown[0]!r}")


def zero_module(alg: AlgebraBasis) -> Module:
    return _semisimple(alg, {v: 0 for v in alg.quiver.vertices})


@dataclass(frozen=True)
class Morphism:
    source: Module
    target: Module
    components: dict            # vertex name -> Mat (dim target_v x dim source_v)

    def __post_init__(self):
        _require_same_algebra(self.source, self.target)
        alg = self.source.algebra
        p = alg.p
        _require_known(self.components, alg._index.vertex_names, "vertex")
        comps = {}
        for v in alg.quiver.vertices:
            m = self.components.get(v)
            if m is None:
                m = Mat.zero(self.target.dims[v], self.source.dims[v], p)
            if (m.rows, m.cols) != (self.target.dims[v], self.source.dims[v]):
                raise ValueError(f"component at {v} has wrong shape")
            if m.p != p:
                raise ValueError(f"component at {v} over wrong field")
            _require_reduced(m, f"component at {v}")
            comps[v] = m
        _check_natural_batch(self.source, self.target, [comps])
        object.__setattr__(self, "components", comps)

    def then(self, other: "Morphism") -> "Morphism":
        """Diagrammatic composition: self followed by other."""
        if not other.source.same_as(self.target):
            raise ValueError("non-composable morphisms")
        if self.target.algebra is not other.source.algebra:
            _require_same_algebra(self.target, other.source)
        sd, td, p = self.source.dims, other.target.dims, self.source.algebra.p
        return _natural(self.source, other.target,
                        {v: other.components[v].mul(m) if sd[v] and td[v]
                            else _empty(td[v], sd[v], p)
                         for v, m in self.components.items()})

    def _parallel(self, other: "Morphism") -> bool:
        return (self.source.same_as(other.source)
                and self.target.same_as(other.target))

    def add(self, other: "Morphism") -> "Morphism":
        if not self._parallel(other):
            raise ValueError("morphisms with different endpoints")
        sd, td, p = self.source.dims, self.target.dims, self.source.algebra.p
        return _natural(self.source, self.target,
                        {v: m.add(other.components[v]) if sd[v] and td[v]
                            else _empty(td[v], sd[v], p)
                         for v, m in self.components.items()})

    def sub(self, other: "Morphism") -> "Morphism":
        return self.add(other.scale(-1))

    def scale(self, c: int) -> "Morphism":
        sd, td, p = self.source.dims, self.target.dims, self.source.algebra.p
        return _natural(self.source, self.target,
                        {v: m.scale(c) if sd[v] and td[v] else _empty(td[v], sd[v], p)
                         for v, m in self.components.items()})

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.components.values())

    def is_injective(self) -> bool:
        sd, td = self.source.dims, self.target.dims
        return all(td[v] and rank(m) == sd[v]
                   for v, m in self.components.items() if sd[v])

    def is_surjective(self) -> bool:
        sd, td = self.source.dims, self.target.dims
        return all(sd[v] and rank(m) == td[v]
                   for v, m in self.components.items() if td[v])

    def vectorize(self) -> tuple:
        out = []
        for v in self.source.algebra.quiver.vertices:
            out.extend(self.components[v].entries)
        return tuple(out)


def zero_morphism(m: Module, n: Module) -> Morphism:
    """Natural by construction, so built unchecked."""
    _require_same_algebra(m, n)
    md, nd, p = m.dims, n.dims, m.algebra.p
    return _natural(m, n, {v: Mat.zero(nd[v], md[v], p) if md[v] and nd[v]
                           else _empty(nd[v], md[v], p)
                           for v in m.algebra.quiver.vertices})


def identity_morphism(m: Module) -> Morphism:
    """Natural by construction, so built unchecked."""
    p = m.algebra.p
    return _natural(m, m, {v: Mat.identity(d, p) if d else _empty(0, 0, p)
                           for v, d in m.dims.items()})


def _natural(source: Module, target: Module, components: dict) -> Morphism:
    """A map known to be natural (a composite or linear combination of
    natural maps, a Hom basis element checked in its batch, or a map
    natural by construction), built without the check; components has
    every vertex, shaped right."""
    f = object.__new__(Morphism)
    f.__dict__.update(source=source, target=target, components=components)
    return f


def _split_vector(m: Module, n: Module, vec: Sequence[int]) -> dict:
    """Vertex components of the Hom(m, n) element with coordinates vec."""
    p = m.algebra.p
    comps = {}
    pos = 0
    for v in m.algebra.quiver.vertices:
        r, c = n.dims[v], m.dims[v]
        if r and c:
            comps[v] = mat_from_vector(vec[pos:pos + r * c], r, c, p)
            pos += r * c
        else:
            comps[v] = _empty(r, c, p)
    return comps


def _require_same_algebra(m: Module, n: Module):
    """Raise ContextError unless m and n live over one algebra; algebras
    built separately count as one when quiver, p, relations and
    nilpotency bound agree.  The hot callers (hom_basis, in_add's
    generator loop, composite_rows, Morphism.then; about 93% of the checks
    of a pass) test ``is`` before the call, which saves a Python call on
    each; any other caller may rely on the test here."""
    a, b = m.algebra, n.algebra
    if a is not b and (a.quiver != b.quiver or a.p != b.p
                       or a.relations != b.relations
                       or a.nilpotency_bound != b.nilpotency_bound):
        raise ContextError("modules over different algebras")


def hom_basis(m: Module, n: Module) -> List[Morphism]:
    """Basis of Hom(m, n): kernel of the naturality system, every element
    checked natural in one batch per arrow.

    The basis order is the deterministic order of fp's canonical null
    basis, which every certificate downstream relies on.  Kept in the
    algebra's store by the content ids of m and n, so content-equal
    sources and targets built separately get the same list: its maps
    start at the first module of m's content and end at the first of n's.
    When no vertex carries both m and n, Hom(m, n) = 0 is returned before
    the store: no content id is read and nothing is kept.
    """
    if m.algebra is not n.algebra:
        _require_same_algebra(m, n)
    if not m.support & n.support:
        return []
    return m.algebra.memoized(("hom", m.cid, n.cid), lambda: _solve_hom(m, n))


def _solve_hom(m: Module, n: Module) -> List[Morphism]:
    """The naturality system of hom_basis, solved on entry rows over the
    shared vertices only: the unknowns are the blocks at the vertices that
    carry both m and n, so an arrow with neither end shared gives no row.
    Each basis map still has every vertex, in vertex order; the others are
    fp's shared empty matrices."""
    alg = m.algebra
    p = alg.p
    md, nd = m.dims, n.dims
    shared = m.support & n.support
    offsets = {}
    total = 0
    for i, v in enumerate(alg.quiver.vertices):
        if shared >> i & 1:
            offsets[v] = total
            total += nd[v] * md[v]
    # a row per arrow and entry (i, j), i < nt, j < ms, of A x_s - x_t B = 0
    # (A, B the actions on n, m); the x_s coefficients land at distinct
    # places, the x_t ones may meet them when the arrow is a loop, so are added
    rows = []
    for a in alg.quiver.arrows:
        s, t = a.source, a.target
        if s not in offsets and t not in offsets:
            continue
        nt, ns, mt, ms = nd[t], nd[s], md[t], md[s]
        if not nt * ms:
            continue
        A, B = n.action[a.name].entries, m.action[a.name].entries
        xs, xt = offsets.get(s), offsets.get(t)
        for i in range(nt):
            arow = A[i * ns:(i + 1) * ns]
            for j in range(ms):
                row = [0] * total
                for k, c in enumerate(arow):
                    if c:
                        row[xs + k * ms + j] = c
                for k in range(mt):
                    c = B[k * ms + j]
                    if c:
                        e = xt + i * mt + k
                        row[e] = (row[e] - c) % p
                rows.append(row)
    _, vecs = _null_space(rows, total, p)
    if not vecs:
        return []
    # every vertex in vertex order; the shared ones are set below
    empty = {v: None if v in offsets else _empty(nd[v], d, p) for v, d in md.items()}
    comps: List[dict] = [dict(empty) for _ in vecs]
    for v, at in offsets.items():
        r, c = nd[v], md[v]
        for vec, comp in zip(vecs, comps):
            comp[v] = Mat(r, c, tuple(vec[at:at + r * c]), p)
    _check_natural_batch(m, n, comps)
    return [_natural(m, n, c) for c in comps]


def _check_natural_batch(m: Module, n: Module, comps: List[dict]):
    """Naturality of every map m -> n with the given components, checked
    at once: per arrow, A x_s against x_t B for each map, with A and B the
    arrow's actions on n and m, as entry products (_mul_entries)."""
    p = m.algebra.p
    md, nd = m.dims, n.dims
    for a in m.algebra.quiver.arrows:
        s, t = a.source, a.target
        if not nd[t] * md[s]:
            continue
        A, B = n.action[a.name].entries, m.action[a.name].entries
        for c in comps:
            if _mul_entries(A, c[s].entries, nd[t], nd[s], md[s], p) != \
                    _mul_entries(c[t].entries, B, nd[t], md[t], md[s], p):
                raise ValueError(f"naturality fails at arrow {a.name}")


def kernel_morphism(f: Morphism) -> Tuple[Module, Morphism]:
    """Vertex-wise kernel with induced action and its inclusion.  The
    inclusion at v is the canonical null basis of f_v (fp._null_space),
    the identity at its free rows, so K(a), which solves incl_t K(a) =
    A(a) incl_s, is the rows of A(a) at the free rows of t times incl_s."""
    x, alg = f.source, f.source.algebra
    p = alg.p
    free, incl = {}, {}
    for v, m in f.components.items():
        d = x.dims[v]
        if m.entries:
            free[v], vecs = _null_space(m.to_lists(), d, p)
            incl[v] = Mat(d, len(vecs), tuple(c for row in zip(*vecs) for c in row),
                          p) if vecs else _empty(d, 0, p)
        else:
            free[v], incl[v] = range(d), Mat.identity(d, p)
    dims = {v: len(free[v]) for v in alg.quiver.vertices}
    action = {}
    for a in alg.quiver.arrows:
        s, t, act = a.source, a.target, x.action[a.name]
        if dims[s] and dims[t]:
            at_free = tuple(c for r in free[t] for c in act.row(r))
            action[a.name] = Mat(dims[t], act.cols, at_free, p).mul(incl[s])
        else:
            action[a.name] = _empty(dims[t], dims[s], p)
    k = _module(alg, dims, action)
    return k, _natural(k, x, incl)


def cokernel_morphism(f: Morphism) -> Tuple[Module, Morphism]:
    """Vertex-wise cokernel with induced action and its projection."""
    return _quotient(f.target, f.components)


def _quotient(x: Module, span: Dict[str, Mat]) -> Tuple[Module, Morphism]:
    """x divided by the column spaces of span, and the projection.  The
    projection at v is quotient_data(span[v]), the identity at its free
    columns, so Q(a), which solves Q(a) proj_s = proj_t A(a), is proj_t
    times the columns of A(a) at the free columns of s.  It solves it
    exactly when the spans are closed, as a cokernel's are."""
    alg = x.algebra
    p = alg.p
    quot = {v: quotient_data(span[v]) if span[v].entries
            else (Mat.identity(d, p), range(d)) for v, d in x.dims.items()}
    proj = {v: q[0] for v, q in quot.items()}
    dims = {v: proj[v].rows for v in proj}
    action = {}
    for a in alg.quiver.arrows:
        s, t, act = a.source, a.target, x.action[a.name]
        if dims[s] and dims[t]:
            free, cols = quot[s][1], act.cols
            at_free = tuple(act.entries[r * cols + j]
                            for r in range(act.rows) for j in free)
            action[a.name] = proj[t].mul(Mat(act.rows, dims[s], at_free, p))
        else:
            action[a.name] = _empty(dims[t], dims[s], p)
    c = _module(alg, dims, action)
    return c, _natural(x, c, proj)


def quotient_by_submodule(x: Module, span: Dict[str, Mat]) -> Tuple[Module, Morphism]:
    """Quotient of x by the submodule spanned vertex-wise by ``span``, with
    a matrix at every vertex v of x.dims[v] rows over x's field, each entry
    an integer in [0, p) (else ValueError).  The span is checked closed under the
    action as the naturality of the projection _quotient gives; a span of
    zero matrices gives a copy of x and its identity."""
    p = x.algebra.p
    for v, d in x.dims.items():
        if v not in span:
            raise ValueError(f"span has no matrix at vertex {v}")
        if span[v].rows != d:
            raise ValueError(f"span at vertex {v} has {span[v].rows} rows, "
                             f"not dim {d}")
        if span[v].p != p:
            raise ValueError(f"field mismatch: F_{p} vs F_{span[v].p}")
        _require_reduced(span[v], f"span at vertex {v}")
    quot, proj = _quotient(x, span)
    try:
        _check_natural_batch(x, quot, [proj.components])
    except ValueError:
        raise ValueError("vertex spans not closed under the action") from None
    return quot, proj


class DirectSum(NamedTuple):
    """A direct sum module and its summands, in order."""

    module: Module
    parts: tuple


def direct_sum(mods: Sequence[Module]) -> DirectSum:
    """The direct sum module, with block-diagonal action, and the parts
    given; maps into or out of it are built by block_morphism.

    The sum module is kept in the algebra's store by the content ids of
    the operands, so it is built, shape-checked and its "summands"
    recorded once per list of operand contents (_sum_module); the parts
    returned are always the caller's own."""
    if not mods:
        raise ValueError("empty direct sum; use zero_module")
    alg = mods[0].algebra
    for m in mods[1:]:
        _require_same_algebra(mods[0], m)
    total = alg.memoized(("sum", tuple(m.cid for m in mods)),
                         lambda: _sum_module(alg, mods))
    return DirectSum(total, tuple(mods))


def _sum_module(alg: AlgebraBasis, mods: Sequence[Module]) -> Module:
    """The module of direct_sum; its nonzero parts are recorded as
    "summands" when there are at least two (a content-equal sum recorded
    first keeps its own parts)."""
    dims = {v: sum(m.dims[v] for m in mods) for v in alg.quiver.vertices}
    action = {}
    for a in alg.quiver.arrows:
        s, t = dims[a.source], dims[a.target]
        if not (s and t):
            action[a.name] = _empty(t, s, alg.p)
            continue
        action[a.name] = Mat.from_blocks(
            [m.dims[a.target] for m in mods], [m.dims[a.source] for m in mods],
            {(i, i): m.action[a.name] for i, m in enumerate(mods)}, alg.p)
    total = _module(alg, dims, action)
    nonzero = tuple(m for m in mods if not m.is_zero())
    if len(nonzero) > 1:
        alg.memoized(("summands", total.cid), lambda: nonzero)
    return total


def block_morphism(source: DirectSum | Module, target: DirectSum | Module,
                   blocks: Dict[Tuple[int, int], Morphism]) -> Morphism:
    """The morphism between direct sums whose block (i, j), the map from
    source summand j to target summand i, is blocks[(i, j)]; a missing
    block is zero.  source and target are direct_sum results, or a plain
    Module, which counts as one summand.  The actions are block-diagonal
    and every block is natural, so the result is built unchecked; only
    the endpoints of each block are checked, by content."""
    src, src_parts = source if isinstance(source, DirectSum) else (source, (source,))
    tgt, tgt_parts = target if isinstance(target, DirectSum) else (target, (target,))
    for (i, j), f in blocks.items():
        if not (0 <= i < len(tgt_parts) and 0 <= j < len(src_parts)
                and f.source.same_as(src_parts[j]) and f.target.same_as(tgt_parts[i])):
            raise ValueError(f"block ({i}, {j}) does not join its summands")
    sd, td, p = src.dims, tgt.dims, src.algebra.p
    return _natural(src, tgt, {
        v: Mat.from_blocks([t.dims[v] for t in tgt_parts],
                           [s.dims[v] for s in src_parts],
                           {ij: f.components[v] for ij, f in blocks.items()}, p)
        if sd[v] and td[v] else _empty(td[v], sd[v], p)
        for v in src.algebra.quiver.vertices})


def restrictions(source: DirectSum, f: Morphism) -> List[Morphism]:
    """f, a map out of source's sum module, composed with each part's
    inclusion: at each vertex the part's column block of f, read off with
    no product and built unchecked."""
    if not f.source.same_as(source.module):
        raise ValueError("map does not start at the direct sum")
    p, out, at = f.source.algebra.p, [], dict.fromkeys(f.components, 0)
    for part in source.parts:
        comps = {}
        for v, m in f.components.items():
            r, c, k = m.rows, part.dims[v], at[v]
            comps[v] = Mat(r, c, tuple(x for i in range(k, r * m.cols, m.cols)
                                       for x in m.entries[i:i + c]), p) \
                if r and c else _empty(r, c, p)
            at[v] = k + c
        out.append(_natural(part, f.target, comps))
    return out


def stack_morphisms_to_sum(maps: Sequence[Morphism]) -> Morphism:
    """Assemble x -> sum(targets) from morphisms sharing the source.  One
    map is returned as it is, the map into its one-summand sum; no check
    is skipped, since block_morphism's one endpoint check, of that block,
    holds by construction."""
    if len(maps) == 1:
        return maps[0]
    target = direct_sum([f.target for f in maps])    # refuses an empty list
    return block_morphism(maps[0].source, target,
                          {(i, 0): f for i, f in enumerate(maps)})


def stack_morphisms_from_sum(maps: Sequence[Morphism]) -> Morphism:
    """Assemble sum(sources) -> x from morphisms sharing the target; one
    map is returned as it is, with no check skipped
    (stack_morphisms_to_sum)."""
    if len(maps) == 1:
        return maps[0]
    return block_morphism(direct_sum([f.source for f in maps]), maps[0].target,
                          {(0, j): f for j, f in enumerate(maps)})


# -- linear problems in Hom spaces -------------------------------------


def composite_rows(d: Morphism, basis: Sequence[Morphism],
                   d_first: bool) -> List[tuple]:
    """The coordinate rows (``vectorize()``) of d.then(b), or of b.then(d)
    when not d_first, for every b in basis, in order.

    The basis maps share source and target, and d joins them; both are
    checked once per call, by content.  At each vertex each block is one
    entry product (_mul_entries) of d's component with b's: b_v d_v when
    d comes first, d_v b_v otherwise."""
    if not basis:
        return []
    src, tgt = basis[0].source, basis[0].target
    for b in basis:
        if not (b.source.same_as(src) and b.target.same_as(tgt)):
            raise ValueError("basis maps with different endpoints")
    joint, end = (src, d.target) if d_first else (tgt, d.source)
    if not joint.same_as(end):
        raise ValueError("non-composable morphisms")
    if end.algebra is not joint.algebra:
        _require_same_algebra(end, joint)
    p = end.algebra.p
    rows: List[List[int]] = [[] for _ in basis]
    # the outer dimensions at each vertex, and the inner one
    rd, cd = (tgt.dims, d.source.dims) if d_first else (d.target.dims, src.dims)
    jd = joint.dims
    for v in d.source.algebra.quiver.vertices:
        r, c = rd[v], cd[v]
        if not (r and c):
            continue
        dv = d.components[v].entries
        for row, b in zip(rows, basis):
            bv = b.components[v].entries
            row.extend(_mul_entries(bv, dv, r, jd[v], c, p) if d_first
                       else _mul_entries(dv, bv, r, jd[v], c, p))
    return [tuple(row) for row in rows]


def solve_rows(equations: Sequence[Sequence[Sequence[int]]],
               targets: Sequence[Sequence[int]], p: int) -> Optional[List[int]]:
    """Coefficients c with sum(c_j * equations[i][j]) = targets[i] for
    every i at once (shared unknowns, one per column j), or None; every
    entry is a coordinate row, and each unknown's rows are read in
    equation order."""
    if not equations:
        raise ValueError("no equations to solve")
    ncand = len(equations[0])
    cols = [[x for eq in equations for x in eq[j]] for j in range(ncand)]
    rhs = [x for t in targets for x in t]
    if any(len(col) != len(rhs) for col in cols):
        raise ValueError("coordinate rows of different lengths")
    if ncand == 0:
        return [] if all(x % p == 0 for x in rhs) else None
    aug = [[x % p for x in row] for row in zip(*cols, rhs)]
    pivots = _reduce(aug, ncand, p)
    if any(row[ncand] for row in aug[len(pivots):]):
        return None
    sol = [0] * ncand
    for row, c in zip(aug, pivots):
        sol[c] = row[ncand]
    return sol


def rows_rank(rows: Sequence[Sequence[int]], p: int) -> int:
    """Dimension of the span of coordinate rows of one length."""
    if not rows:
        return 0
    ncols = len(rows[0])
    if any(len(row) != ncols for row in rows):
        raise ValueError("coordinate rows of different lengths")
    return len(_reduce([[x % p for x in row] for row in rows], ncols, p))


def coordinate_length(m: Module, n: Module) -> int:
    """Length of the coordinate row of a map m -> n."""
    return sum(n.dims[v] * m.dims[v] for v in m.algebra.quiver.vertices)


def hom_dims_and_ranks(chain: Sequence[Morphism], g: Module,
                       contravariant: bool) -> List[Tuple[int, int]]:
    """(dim, rank) of the map each d in chain induces on Hom(-, g), that
    is Hom(d.target, g) -> Hom(d.source, g) (contravariant), or on
    Hom(g, -), that is Hom(g, d.source) -> Hom(g, d.target); dim is that
    of the Hom space the map starts from."""
    p = g.algebra.p
    out = []
    for d in chain:
        basis = hom_basis(d.target, g) if contravariant else hom_basis(g, d.source)
        out.append((len(basis),
                    rows_rank(composite_rows(d, basis, contravariant), p)))
    return out


def assemble_from_span(candidates: Sequence[Morphism], coeffs: Sequence[int],
                       source: Module, target: Module) -> Morphism:
    """sum(coeffs_i * candidates_i), formed entrywise as one Morphism."""
    if len(coeffs) != len(candidates):
        raise ValueError(f"{len(coeffs)} coefficients for {len(candidates)} candidates")
    vec = [0] * coordinate_length(source, target)
    for c, cand in zip(coeffs, candidates):
        if not (cand.source.same_as(source) and cand.target.same_as(target)):
            raise ValueError("candidate does not join source and target")
        if c:
            vec = [a + c * b for a, b in zip(vec, cand.vectorize())]
    return _natural(source, target, _split_vector(source, target, vec))


def factor_through(f: Morphism, g: Morphism) -> Optional[Morphism]:
    """Some phi with g.then(phi) = f (domains: g: A -> B, f: A -> C)."""
    basis = hom_basis(g.target, f.target)
    coeffs = solve_rows([composite_rows(g, basis, d_first=True)],
                        [f.vectorize()], f.source.algebra.p)
    if coeffs is None:
        return None
    return assemble_from_span(basis, coeffs, g.target, f.target)


def lift_through(f: Morphism, g: Morphism) -> Optional[Morphism]:
    """Some phi with phi.then(g) = f (domains: g: B -> C, f: A -> C)."""
    basis = hom_basis(f.source, g.source)
    coeffs = solve_rows([composite_rows(g, basis, d_first=False)],
                        [f.vectorize()], f.source.algebra.p)
    if coeffs is None:
        return None
    return assemble_from_span(basis, coeffs, f.source, g.source)


# -- the peel: minimal approximations by indecomposables ----------------


def _composite_table(gens: Sequence[Module], parts: List[Tuple[int, Morphism]],
                     left: bool) -> Callable[[int, int], List[tuple]]:
    """The table of composites through the generators that the peel and
    the approximation contract read (_build_approximation): table(r, j) is
    the list of coordinate rows of f_r.then(h) for h in the basis of
    Hom(G_r, G_j) (left), or of h.then(f_r) for h in the basis of
    Hom(G_j, G_r) (right), where parts[r] = (index of G_r, f_r).  Each
    entry is composed once, when first read."""
    rows: Dict[Tuple[int, int], List[tuple]] = {}

    def table(r: int, j: int) -> List[tuple]:
        if (r, j) not in rows:
            jr, fr = parts[r]
            basis = (hom_basis(gens[jr], gens[j]) if left
                     else hom_basis(gens[j], gens[jr]))
            rows[r, j] = composite_rows(fr, basis, d_first=left)
        return rows[r, j]

    return table


def _peel_superfluous(parts: List[Tuple[int, Morphism]],
                      table: Callable[[int, int], List[tuple]],
                      p: int) -> List[int]:
    """The positions kept when, in one pass, each summand (G_j, f_i) is
    dropped whose component factors through the summands still kept.

    Factoring through the stacked map of the kept summands G_r means
    lying in the span of the f_r composed with Hom(G_r, G_j) (left; the
    right case is dual): the rows table(r, j) of _composite_table, so
    only generator Hom spaces are solved over, and one system per
    candidate.  One pass keeps what restarting after each drop would: a
    map that does not factor through a set of maps does not factor
    through a subset of it."""
    kept = list(range(len(parts)))
    for i, (j, fi) in enumerate(parts):
        span = [row for r in kept if r != i for row in table(r, j)]
        if solve_rows([span], [fi.vectorize()], p) is not None:
            kept.remove(i)
    return kept


def _approximation(x: Module, gens: Sequence[Module], left: bool) -> Morphism:
    """The minimal left (x -> T) or right (T -> x) add(gens)-approximation,
    kept in the algebra's store by side and the content ids of x and of the
    generators: it is built and its contract checked once per content
    (_build_approximation).  Like a stored Hom basis, the map starts (left)
    or ends (right) at the first module of x's content; every caller
    compares endpoints by content."""
    side = "left" if left else "right"
    return x.algebra.memoized(
        ("approx", side, x.cid, tuple(g.cid for g in gens)),
        lambda: _build_approximation(x, gens, left))


def _build_approximation(x: Module, gens: Sequence[Module], left: bool) -> Morphism:
    """The approximation _approximation stores: the stacked Hom bases
    between x and the generators, less the summands _peel_superfluous
    drops.

    Minimal (Auslander–Reiten–Smalø, Representation Theory of Artin
    Algebras, Ch. II §2; the left case is dual): the kept maps f_r: G_r -> x
    are homogeneous elements of N = Hom(M, x) as a right module over E =
    End(M), M the sum of the generators.  They generate N, since each
    dropped map lies in the span of the maps kept at its turn, and no kept
    f_i lies in the sum of the f_r E over the other kept r.  Were the
    images in top N = N / N rad E of the kept maps out of one G_j dependent
    over the division ring End(G_j)/rad End(G_j), some kept f_i would lie
    in N rad E plus the f_r E of the other kept r; those would then
    generate N modulo N rad E, hence generate N (Nakayama's lemma), and f_i
    would lie in their sum after all.  So the kept maps induce the
    projective cover of N over E, and their stacked map T -> x, T the sum
    of the kept G_r, is the minimal right approximation.

    Contract (verified): Hom(T, G) -> Hom(x, G) is onto (left; dually
    Hom(G, T) -> Hom(G, x)) for every generator G with Hom(x, G) (or
    Hom(G, x)) nonzero; a map onto the zero space is onto, so the other
    generators need no check.  For T = sum of the kept G_r, Hom(T, G_j) is
    the sum of the Hom(G_r, G_j), so the image is spanned by the rows
    table(r, j) of the kept r, the rows the peel read: no Hom space of T
    is solved and nothing is composed through T."""
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


# -- membership in add(generators) ------------------------------------


class Indecomposables(tuple):
    """Indecomposable, pairwise non-isomorphic modules, trusted as given:
    made by indecomposables(), which checks once, or, complete, by
    presets.nakayama_indecomposables.  ``complete`` means every
    indecomposable is listed up to isomorphism, so verdicts are absolute."""

    def __new__(cls, modules: Sequence[Module], complete: bool = False):
        self = super().__new__(cls, modules)
        self.complete = complete
        return self

    def index_of(self, x: Module) -> int:
        """Position of the entry isomorphic to x, decided exactly
        (_isomorphic_to_indecomposable); PreconditionError if none."""
        for i, entry in enumerate(self):
            if _isomorphic_to_indecomposable(x, entry):
                return i
        raise PreconditionError(f"no entry is isomorphic to the module of "
                                f"dimension vector {list(x.dim_vector())}")


def indecomposables(modules: Sequence[Module], seed: int = 0) -> Indecomposables:
    """Check once that the modules are indecomposable, by seeded
    splitting, and pairwise non-isomorphic, exactly (DomainError names the
    first bad entry), once per list of entry contents and seed (kept in
    the store); an Indecomposables is returned as it is."""
    if isinstance(modules, Indecomposables):
        return modules
    mods = tuple(modules)

    def check() -> bool:
        for i, x in enumerate(mods):
            parts = split_indecomposables(x, seed + i)
            if len(parts) != 1 or parts[0][1] != 1:
                raise DomainError(f"entry {i} is decomposable")
        for i in range(len(mods)):
            for j in range(i + 1, len(mods)):
                if _isomorphic_to_indecomposable(mods[i], mods[j]):
                    raise DomainError(f"entries {i} and {j} are isomorphic")
        return True
    if mods:
        mods[0].algebra.memoized(("indecomposables", tuple(x.cid for x in mods), seed),
                                 check)
    return Indecomposables(mods)


def in_add(x: Module, gens: Sequence[Module]) -> bool:
    """x lies in add(gens), decided by _approximation_is_iso; gens that
    are not an Indecomposables are checked by indecomposables() (seed 0)
    first, so a decomposable or repeated entry raises DomainError."""
    alg = x.algebra
    for g in gens:
        if g.algebra is not alg:
            _require_same_algebra(x, g)
    gens = indecomposables(gens)
    return _membership(x, gens, tuple(g.cid for g in gens))


def _membership(x: Module, gens: Indecomposables, cids: tuple) -> bool:
    """in_add past the checks; cids are the generators' ids."""
    if x.is_zero() or x.cid in cids:
        return True
    parts = x.algebra.store.get(("summands", x.cid))
    if parts is not None:
        return all(_membership(part, gens, cids) for part in parts)
    return x.algebra.memoized(("in_add", x.cid, cids),
                              lambda: _approximation_is_iso(x, gens))


def _approximation_is_iso(x: Module, gens: Indecomposables) -> bool:
    """x in add(gens), from the Hom spaces G -> x alone.

    Only the G that fit inside x (support inside x's, then dimension
    vector at most x's at every vertex) are read: by Krull-Schmidt a
    member x is a sum of generators, each of which fits inside it, so x
    lies in add(gens) iff it lies in add(M') for the sum M' of those.
    Most x are decided exactly by their multiplicities, which the Hom
    dimensions fix (_multiplicity_verdict).  What those leave open is
    decided by the stored minimal right add(M')-approximation T -> x
    (_approximation; the one addcat reads when every generator fits):
    if x lies in add(M'), id_x is a right-minimal approximation, so
    T -> x is an isomorphism.  Conversely, its kept maps generate
    Hom(M', x) over End(M'), so its image is the trace of M' in x, and
    T -> x onto with dim T = dim x is an isomorphism.  No Hom space out
    of x is solved."""
    dims, outside = x.dim_vector(), ~x.support
    fit = [g for g in gens if not g.support & outside
           and all(a <= b for a, b in zip(g.dim_vector(), dims))]
    verdict = _multiplicity_verdict(x, fit, [hom_basis(g, x) for g in fit])
    if verdict is not None:
        return verdict
    t = _approximation(x, fit, left=False)
    return t.source.dim_vector() == dims and t.is_surjective()


def _multiplicity_verdict(x: Module, fit: List[Module],
                          homs: List[List[Morphism]]) -> Optional[bool]:
    """x in add(fit) read off Hom dimensions, or None if they leave it open.

    A member x = sum of G_j^mu_j has h = H mu, h_j = dim Hom(G_j, x) =
    len(homs[j]), H[i][j] = dim Hom(G_i, G_j), and mu is unique
    (Krull-Schmidt).  So for H invertible x is refused, exactly, when m =
    adj(H) h / det H (adj H and det H are kept per fit list) is not a
    vector of nonnegative integers, or when a vertex shows that the m_j
    dim G_j do not sum to dim x.  Else m_j <= H[j][j] m_j <= h_j, and x is
    a member when the map from the sum of the G_j^m_j given by m_j seeded
    combinations of each Hom basis (the basis itself when m_j = h_j) is
    bijective at every vertex.  A singular H, or a draw that is not
    bijective (likelier at small p), leaves x open."""
    alg, p = x.algebra, x.algebra.p
    adj, det = alg.memoized(
        ("adjugate", tuple(g.cid for g in fit)),
        lambda: _adjugate([[len(hom_basis(g, e)) for e in fit] for g in fit]))
    if not det:
        return None
    m = [sum([a * len(b) for a, b in zip(row, homs)]) for row in adj]
    if any(s % det or s * det < 0 for s in m):
        return False
    m = [s // det for s in m]
    # one map per copy of G_j, as a list of (coefficient, basis map)
    rng = random.Random(0) if any(0 < q < len(b) for q, b in zip(m, homs)) else None
    draws = [[(1, f)] for q, b in zip(m, homs) if q == len(b) for f in b] + [
        [(rng.randrange(p), f) for f in b]
        for q, b in zip(m, homs) if q < len(b) for _ in range(q)]
    for v, d in x.dims.items():
        if not d:
            continue
        cols = []
        for draw in draws:
            g, e = draw[0][1].source.dims[v], draw[0][1].components[v].entries
            if len(draw) > 1:
                e = [sum(t) % p for t in zip(*([c * y for y in f.components[v].entries]
                                               for c, f in draw))]
            cols += (e[k::g] for k in range(g))
        if len(cols) != d:
            return False
        if len(_reduce(cols, d, p)) < d:
            return None
    return True


def _adjugate(h: List[List[int]]) -> Tuple[List[List[int]], int]:
    """(adj H, det H) for a square integer matrix H, by Gauss-Jordan
    elimination over the rationals; ([], 0) when H is singular."""
    k, det = len(h), Fraction(1)
    rows = [[Fraction(a) for a in row] + [int(i == j) for j in range(k)]
            for i, row in enumerate(h)]
    for c in range(k):
        i = next((i for i in range(c, k) if rows[i][c]), None)
        if i is None:
            return [], 0
        rows[c], rows[i], det = rows[i], rows[c], det if i == c else -det
        det *= rows[c][c]
        top = [y / rows[c][c] for y in rows[c]]
        rows = [top if i == c else [a - row[c] * b for a, b in zip(row, top)]
                for i, row in enumerate(rows)]
    return [[int(y * det) for y in row[k:]] for row in rows], int(det)


# -- isomorphism testing and decomposition ----------------------------


def _isomorphic_to_indecomposable(x: Module, e: Module) -> bool:
    """x = e for an indecomposable e, exactly: by Krull-Schmidt, x in
    add(e) means x = e^k, and equal dimension vectors force k = 1."""
    return x.dim_vector() == e.dim_vector() and in_add(x, Indecomposables((e,)))


def _fitting_split(x: Module, rng: random.Random) -> Optional[Tuple[Module, Module]]:
    """One splitting attempt (Lux–Szőke, Exp. Math. 2007): draw e in
    End(x), take its minimal polynomial mu (the lcm of the vertex-wise
    ones) and a monic factor g of mu coprime to h = mu/g; then
    x = ker g(e) + ker h(e), both nonzero.  This is the primary
    decomposition: gcd(g, h) = 1 and mu(e) = 0, so im g(e) = ker h(e).

    Fails (None) only when mu is a power of one irreducible, which holds
    for every e when x is indecomposable (End(x) is local).  Only the
    slots in x's support are read: a 0 x 0 slot is its own g(e)."""
    basis = hom_basis(x, x)
    p = x.algebra.p
    e = assemble_from_span(basis, [rng.randrange(p) for _ in basis], x, x)
    mu = [1]
    for m in e.components.values():
        if m.rows:
            mu = polys.lcm(mu, polys.minpoly(m), p)
    g = polys.coprime_factor(mu, p, rng)
    if g is None:
        return None
    return tuple(kernel_morphism(_natural(x, x, {v: polys.at_matrix(f, m) if m.rows else m
                                                 for v, m in e.components.items()}))[0]
                 for f in (g, polys.quo(mu, g, p)))


def split_indecomposables(x: Module, seed: int) -> List[Tuple[Module, int]]:
    """Decomposition into indecomposables with multiplicities.

    Deterministic given the seed.  A summand with dim End = 1 has
    End = F_p and is indecomposable, exactly.  Any other summand is
    declared indecomposable after FITTING_RETRIES consecutive failed
    splitting attempts, so that verdict is probabilistic.  Isomorphic
    summands are grouped exactly (_isomorphic_to_indecomposable).
    """
    rng = random.Random(seed)
    parts: List[Module] = []

    def work(m: Module):
        if m.total_dim == 0:
            return
        if len(hom_basis(m, m)) > 1:        # else End(m) = F_p: indecomposable
            for _ in range(FITTING_RETRIES):
                split = _fitting_split(m, rng)
                if split is not None:
                    work(split[0])
                    work(split[1])
                    return
        parts.append(m)

    work(x)
    grouped: List[Tuple[Module, int]] = []
    for part in parts:
        for i, (rep, count) in enumerate(grouped):
            if _isomorphic_to_indecomposable(part, rep):
                grouped[i] = (rep, count + 1)
                break
        else:
            grouped.append((part, 1))
    return grouped


# -- projective, injective and simple modules -------------------------


def simple_module(alg: AlgebraBasis, v: str) -> Module:
    alg.quiver.vertex_index(v)
    return _semisimple(alg, {w: int(w == v) for w in alg.quiver.vertices})


def basis_paths(alg: AlgebraBasis, v: str,
                starting: bool) -> Mapping[str, Tuple[int, ...]]:
    """Indices of the basis paths that start at v (or end at v), grouped
    by the vertex at their other end: a read-only view of the algebra's
    basis index, so a write raises TypeError; for a vertex the quiver
    lacks, a new dict of no paths."""
    index = alg._index
    got = (index.starting if starting else index.ending).get(v)
    return {w: () for w in alg.quiver.vertices} if got is None else got


def projective_module(alg: AlgebraBasis, v: str) -> Module:
    """Indecomposable projective P_v: basis paths starting at v, graded by
    target vertex, arrows acting by right concatenation.  Built
    unchecked: the table check verified the relations in the table."""
    return _path_module(alg, v, starting=True)


def injective_module(alg: AlgebraBasis, v: str) -> Module:
    """Indecomposable injective I_v: dual of P_v over the opposite algebra,
    realized on basis paths ending at v, each arrow acting by the
    transpose of left concatenation.  Built unchecked, as P_v is."""
    return _path_module(alg, v, starting=False)


def _path_module(alg: AlgebraBasis, v: str, starting: bool,
                 below: Optional[int] = None) -> Module:
    """P_v (starting) or I_v on the basis paths starting (ending) at v.
    With ``below``, only the paths of length < below are kept, and a
    product that lands outside them is dropped: P_v / rad^below P_v when
    rad^below P_v is spanned by basis paths, as over a Nakayama algebra."""
    alg.quiver.vertex_index(v)
    by_vertex = basis_paths(alg, v, starting)
    if below is not None:
        by_vertex = {w: [i for i in idx if alg.basis[i].length() < below]
                     for w, idx in by_vertex.items()}
    p = alg.p
    dims = {w: len(by_vertex[w]) for w in alg.quiver.vertices}
    action = {}
    for a in alg.quiver.arrows:
        src_idx, tgt_idx = by_vertex[a.source], by_vertex[a.target]
        aj = alg.arrow_basis_index(a.name)
        rows, cols = len(tgt_idx), len(src_idx)
        if not (rows and cols):
            action[a.name] = _empty(rows, cols, p)
            continue
        flat = [0] * (rows * cols)
        if starting:                    # b goes to b.a
            pos = {b: i * cols for i, b in enumerate(tgt_idx)}
            for j, b in enumerate(src_idx):
                for k, coeff in alg.multiply(b, aj):
                    at = pos.get(k)
                    if at is not None:
                        flat[at + j] = coeff % p
        else:                           # the transpose of b going to a.b
            pos = {b: j for j, b in enumerate(src_idx)}
            for i, b in enumerate(tgt_idx):
                for k, coeff in alg.multiply(aj, b):
                    at = pos.get(k)
                    if at is not None:
                        flat[i * cols + at] = coeff % p
        action[a.name] = Mat(rows, cols, tuple(flat), p)
    return _module(alg, dims, action)


def all_projectives(alg: AlgebraBasis) -> Tuple[Module, ...]:
    """P_v in vertex order, built once per algebra and kept on it."""
    return alg.memoized("projectives", lambda: tuple(
        projective_module(alg, v) for v in alg.quiver.vertices))


def all_injectives(alg: AlgebraBasis) -> Tuple[Module, ...]:
    """I_v in vertex order, built once per algebra and kept on it."""
    return alg.memoized("injectives", lambda: tuple(
        injective_module(alg, v) for v in alg.quiver.vertices))


def regular_module(alg: AlgebraBasis) -> Module:
    return direct_sum(all_projectives(alg))[0]


def _dual(x: Module) -> Module:
    """D x = Hom_F(x, F) over the opposite algebra: the same dimensions,
    every arrow acting by the transpose of its action on x.  Built
    unchecked, since the transposes satisfy the reversed relations."""
    return _module(opposite_algebra(x.algebra), x.dims,
                   {a: m.transpose() for a, m in x.action.items()})


# -- radical and top --------------------------------------------------


def radical_span(m: Module) -> Dict[str, Mat]:
    """rad m = sum of images of all arrow actions, vertex-wise: at v, the
    actions of the arrows into v side by side, one column per vector at
    their sources."""
    alg, dims = m.algebra, m.dims
    span = {}
    for v, d in dims.items():
        into = [a for a in alg.quiver.arrows if a.target == v and dims[a.source]]
        if d and into:
            span[v] = Mat.hstack([m.action[a.name] for a in into])
        else:
            span[v] = _empty(d, sum(dims[a.source] for a in into), alg.p)
    return span
