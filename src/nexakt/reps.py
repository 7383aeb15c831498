"""Modules over a path-algebra quotient and their morphisms.

A Module is a quiver representation: a vector space per vertex and a
matrix per arrow (shape dim(target) x dim(source), acting on column
vectors).  Morphisms are vertex-wise matrices satisfying naturality.
Both are immutable.  Each fact is checked once, when it is made: the
public ``Module(...)`` checks the relations (of file data, and of P_v
and I_v, read off the algebra's table), ``Morphism(...)`` naturality
(of file data).  What is derived from checked objects is built unchecked:
modules by ``_module`` (shape checks only), maps by ``_natural``; a Hom
basis is checked as one batch per arrow.  Composites and linear
combinations of natural maps are natural, so ``then``, ``add``, ``sub``,
``scale`` and ``assemble_from_span`` check only their endpoints, by
content (``Module.same_as``).

Composites of one map with every element of a Hom basis are read as
coordinate rows (``composite_rows``: one stacked product per vertex),
and the linear problems in Hom spaces are solved on rows
(``solve_rows``, ``rows_rank``, which hand the rows to the in-place row
reduction of ``fp`` with no ``Mat`` in between); ``solve_jointly``,
``solve_in_span`` and ``span_rank`` are their forms on Morphisms.

A direct sum (``direct_sum``) is the sum module with block-diagonal
action together with its summands.  Every map into, out of or between
direct sums is one ``block_morphism``: block (i, j) from source summand
j to target summand i, missing blocks zero.

A module carries its content key, the dimension vector plus the action
entries.  The one memo of the package is ``Memo.memoized``.  Every live
module of one content shares one memo record: the constructor takes it
from the algebra's "records" table, which holds records weakly by
content key, so a record lives as long as the last live module of its
content.  Memoized maps (Hom bases, chains) start and end at the first
live module of each content; every endpoint check compares content.
The keys are ("hom", key of the target) for hom_basis, ("stable", key
of the target) for frob.stable_hom (the Hom basis and the ideal of maps
through the injective envelope), ("ext", key of the target, k) for the
int resolutions.ext_dim keeps for k >= 1, ("in_add", keys of the
generators) for an in_add verdict, "summands" for a proper
decomposition direct_sum records (its nonzero parts, when there are at
least two, each of smaller dimension; in_add decides the content by
them, and solves for no zero module, generator or sum), "projres" and
"injres" for the growing minimal (co)resolutions, and, on an algebra
(whose memo is its own), "records", "projectives" and "injectives".

Decomposition (``split_indecomposables``) splits a module along coprime
factors of the minimal polynomial of a random endomorphism e: if
mu = g*h with gcd(g, h) = 1, then x = ker g(e) + im g(e).  The
polynomial work (minimal polynomials, factoring over F_p) is in
``polys``.  A module with dim End = 1 is indecomposable, exactly; any
other is declared indecomposable after FITTING_RETRIES failed attempts.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import polys
from .fp import (Mat, _reduce, column_space_basis, kernel_basis,
                 mat_from_vector, quotient_projection, rank, solve_linear)
from .quivers import AlgebraBasis, Memo, PathWord

FITTING_RETRIES = 32


class ContextError(ValueError):
    """Operands live over different algebras."""


class _Record(dict):
    """The memo shared by every live module of one content (a dict that
    can be weakly referenced)."""

    __slots__ = ("__weakref__",)


@dataclass(frozen=True)
class Module(Memo):
    algebra: AlgebraBasis
    dims: dict                 # vertex name -> dimension
    action: dict               # arrow name -> Mat (dim target x dim source)
    key: tuple = field(init=False, repr=False, compare=False)
    _memo: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._shape()
        self._check_relations()

    def _shape(self):
        """The checks every module gets: dimensions, action shapes and
        field; then the content key and the shared memo record."""
        q = self.algebra.quiver
        p = self.algebra.p
        for v in q.vertices:
            if self.dims.get(v, 0) < 0:
                raise ValueError("negative dimension")
        dims = {v: self.dims.get(v, 0) for v in q.vertices}
        action = {}
        for a in q.arrows:
            m = self.action.get(a.name)
            if m is None:
                m = Mat.zero(dims[a.target], dims[a.source], p)
            if (m.rows, m.cols) != (dims[a.target], dims[a.source]):
                raise ValueError(f"action of {a.name} has wrong shape")
            if m.p != p:
                raise ValueError("action matrix over wrong field")
            action[a.name] = m
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "key", (tuple(dims.values()),
                                         tuple(m.entries for m in action.values())))
        records = self.algebra.memoized("records", weakref.WeakValueDictionary)
        object.__setattr__(self, "_memo", records.setdefault(self.key, _Record()))

    def _check_relations(self):
        p = self.algebra.p
        for rel in self.algebra.relations:
            acc = None
            for coeff, word in rel.terms:
                m = self.path_matrix(word)
                m = m.scale(coeff)
                acc = m if acc is None else acc.add(m)
            if acc is not None and not acc.is_zero():
                raise ValueError("relation does not vanish on module")

    def path_matrix(self, word: PathWord) -> Mat:
        """Matrix of a path acting on the module (word [a,b] -> Mat(b)*Mat(a))."""
        q = self.algebra.quiver
        p = self.algebra.p
        if word.is_trivial():
            return Mat.identity(self.dims[word.base], p)
        m = None
        for name in word.arrows:
            step = self.action[name]
            m = step if m is None else step.mul(m)
        return m

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
    direct sum of modules that do, a simple or the zero module), built
    with the shape checks only."""
    m = object.__new__(Module)
    m.__dict__.update(algebra=alg, dims=dims, action=action)
    m._shape()
    return m


def zero_module(alg: AlgebraBasis) -> Module:
    return _module(alg, {v: 0 for v in alg.quiver.vertices}, {})


@dataclass(frozen=True)
class Morphism:
    source: Module
    target: Module
    components: dict            # vertex name -> Mat (dim target_v x dim source_v)

    def __post_init__(self):
        _require_same_algebra(self.source, self.target)
        alg = self.source.algebra
        p = alg.p
        comps = {}
        for v in alg.quiver.vertices:
            m = self.components.get(v)
            if m is None:
                m = Mat.zero(self.target.dims[v], self.source.dims[v], p)
            if (m.rows, m.cols) != (self.target.dims[v], self.source.dims[v]):
                raise ValueError(f"component at {v} has wrong shape")
            comps[v] = m
        for a in alg.quiver.arrows:
            lhs = self.target.action[a.name].mul(comps[a.source])
            rhs = comps[a.target].mul(self.source.action[a.name])
            if lhs.entries != rhs.entries:
                raise ValueError(f"naturality fails at arrow {a.name}")
        object.__setattr__(self, "components", comps)

    def then(self, other: "Morphism") -> "Morphism":
        """Diagrammatic composition: self followed by other."""
        if not other.source.same_as(self.target):
            raise ValueError("non-composable morphisms")
        _require_same_algebra(self.target, other.source)
        return _natural(self.source, other.target,
                        {v: other.components[v].mul(m)
                         for v, m in self.components.items()})

    def _parallel(self, other: "Morphism") -> bool:
        return (self.source.same_as(other.source)
                and self.target.same_as(other.target))

    def add(self, other: "Morphism") -> "Morphism":
        if not self._parallel(other):
            raise ValueError("morphisms with different endpoints")
        return _natural(self.source, self.target,
                        {v: m.add(other.components[v])
                         for v, m in self.components.items()})

    def sub(self, other: "Morphism") -> "Morphism":
        return self.add(other.scale(-1))

    def scale(self, c: int) -> "Morphism":
        return _natural(self.source, self.target,
                        {v: m.scale(c) for v, m in self.components.items()})

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.components.values())

    def equals(self, other: "Morphism") -> bool:
        return self._parallel(other) and self.vectorize() == other.vectorize()

    def is_injective(self) -> bool:
        return all(rank(m) == m.cols for m in self.components.values())

    def is_surjective(self) -> bool:
        return all(rank(m) == m.rows for m in self.components.values())

    def vectorize(self) -> tuple:
        out = []
        for v in self.source.algebra.quiver.vertices:
            out.extend(self.components[v].entries)
        return tuple(out)


def zero_morphism(m: Module, n: Module) -> Morphism:
    """Natural by construction, so built unchecked."""
    _require_same_algebra(m, n)
    p = m.algebra.p
    return _natural(m, n, {v: Mat.zero(n.dims[v], m.dims[v], p)
                           for v in m.algebra.quiver.vertices})


def identity_morphism(m: Module) -> Morphism:
    """Natural by construction, so built unchecked."""
    p = m.algebra.p
    return _natural(m, m, {v: Mat.identity(m.dims[v], p)
                           for v in m.algebra.quiver.vertices})


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
        comps[v] = mat_from_vector(vec[pos:pos + r * c], r, c, p)
        pos += r * c
    return comps


def _require_same_algebra(m: Module, n: Module):
    """Raise ContextError unless m and n live over one algebra; algebras
    built separately count as one when quiver, p, relations and
    nilpotency bound agree."""
    a, b = m.algebra, n.algebra
    if a is not b and (a.quiver != b.quiver or a.p != b.p
                       or a.relations != b.relations
                       or a.nilpotency_bound != b.nilpotency_bound):
        raise ContextError("modules over different algebras")


def hom_basis(m: Module, n: Module) -> List[Morphism]:
    """Basis of Hom(m, n): kernel of the naturality system, every element
    checked natural in one batch per arrow.

    The basis order is the deterministic kernel_basis order, which every
    certificate downstream relies on.  Memoised in the record of m's
    content by the content key of n, so content-equal sources and targets
    built separately get the same list: its maps start at the first live
    module of m's content and end at the first of n's.
    """
    _require_same_algebra(m, n)
    return m.memoized(("hom", n.key), lambda: _solve_hom(m, n))


def _solve_hom(m: Module, n: Module) -> List[Morphism]:
    alg = m.algebra
    p = alg.p
    verts = alg.quiver.vertices
    offsets = {}
    pos = 0
    for v in verts:
        offsets[v] = pos
        pos += n.dims[v] * m.dims[v]
    total = pos
    rows: List[List[int]] = []
    for a in alg.quiver.arrows:
        A = n.action[a.name].entries  # n_s -> n_t
        B = m.action[a.name].entries  # m_s -> m_t
        s, t = a.source, a.target
        nt, ns = n.dims[t], n.dims[s]
        mt, ms = m.dims[t], m.dims[s]
        xs, xt = offsets[s], offsets[t]
        # equation: A * x_s - x_t * B = 0, entry (i, j) with i < nt, j < ms;
        # Mat.from_rows reduces the entries mod p
        for i in range(nt):
            for j in range(ms):
                row = [0] * total
                for k in range(ns):
                    row[xs + k * ms + j] += A[i * ns + k]
                for k in range(mt):
                    row[xt + i * mt + k] -= B[k * ms + j]
                rows.append(row)
    kernel = kernel_basis(Mat.from_rows(rows, p, cols=total))
    size = kernel.cols
    if not size:
        return []
    # kernel vector j is column j of the kernel matrix, read straight into
    # components; the empty ones are shared
    comps: List[dict] = [{} for _ in range(size)]
    for v in verts:
        r, c = n.dims[v], m.dims[v]
        if r * c == 0:
            empty = Mat(r, c, (), p)
            for comp in comps:
                comp[v] = empty
            continue
        start = offsets[v] * size
        for j, comp in enumerate(comps):
            comp[v] = Mat(r, c, kernel.entries[start + j:start + r * c * size:size], p)
    _check_natural_batch(m, n, comps)
    return [_natural(m, n, c) for c in comps]


def _check_natural_batch(m: Module, n: Module, comps: List[dict]):
    """Naturality of every map m -> n with the given components, checked
    at once: per arrow, n's action times the components at the source set
    side by side, against the components at the target stacked, times m's
    action, compared block by block."""
    for a in m.algebra.quiver.arrows:
        if n.dims[a.target] * m.dims[a.source] == 0:
            continue
        lhs = n.action[a.name].mul(Mat.hstack([c[a.source] for c in comps]))
        rhs = Mat.vstack([c[a.target] for c in comps]).mul(m.action[a.name])
        if _column_blocks(lhs, len(comps)) != _row_blocks(rhs, len(comps)):
            raise ValueError(f"naturality fails at arrow {a.name}")


def _row_blocks(m: Mat, k: int) -> List[tuple]:
    """The entries of the k row blocks of m, of equal height."""
    size = len(m.entries) // k
    return [m.entries[i * size:(i + 1) * size] for i in range(k)]


def _column_blocks(m: Mat, k: int) -> List[tuple]:
    """The row-major entries of the k column blocks of m, of equal width."""
    w = m.cols // k
    return [tuple(x for r in range(m.rows)
                  for x in m.entries[r * m.cols + i * w:r * m.cols + (i + 1) * w])
            for i in range(k)]


def _induced_action_on_sub(x: Module, incl_cols: Dict[str, Mat]) -> Module:
    """Module structure on vertex-wise column spans closed under the action."""
    alg = x.algebra
    dims = {v: incl_cols[v].cols for v in alg.quiver.vertices}
    action = {}
    for a in alg.quiver.arrows:
        rhs = x.action[a.name].mul(incl_cols[a.source])
        sol = solve_linear(incl_cols[a.target], rhs)
        if sol is None:
            raise ValueError("vertex spans not closed under the action")
        action[a.name] = sol
    return _module(alg, dims, action)


def kernel_morphism(f: Morphism) -> Tuple[Module, Morphism]:
    """Vertex-wise kernel with induced action and its inclusion."""
    incl = {v: kernel_basis(f.components[v]) for v in f.components}
    k = _induced_action_on_sub(f.source, incl)
    return k, _natural(k, f.source, incl)


def image_morphism(f: Morphism) -> Tuple[Module, Morphism]:
    """Vertex-wise image submodule of the target and its inclusion."""
    incl = {v: column_space_basis(f.components[v]) for v in f.components}
    im = _induced_action_on_sub(f.target, incl)
    return im, _natural(im, f.target, incl)


def cokernel_morphism(f: Morphism) -> Tuple[Module, Morphism]:
    """Vertex-wise cokernel with induced action and its projection."""
    alg = f.source.algebra
    proj = {v: quotient_projection(f.components[v]) for v in f.components}
    dims = {v: proj[v].rows for v in proj}
    action = {}
    for a in alg.quiver.arrows:
        # solve Q(a) * proj_s = proj_t * action_t(a); proj_s is surjective
        rhs = proj[a.target].mul(f.target.action[a.name])
        sol = solve_linear(proj[a.source].transpose(), rhs.transpose())
        if sol is None:
            raise AssertionError("cokernel action not induced")
        action[a.name] = sol.transpose()
    c = _module(alg, dims, action)
    return c, _natural(f.target, c, proj)


def quotient_by_submodule(x: Module, span: Dict[str, Mat]) -> Tuple[Module, Morphism]:
    """Quotient of x by the submodule spanned vertex-wise by ``span``."""
    cols = {v: column_space_basis(span[v]) for v in span}
    return cokernel_morphism(_natural(_induced_action_on_sub(x, cols), x, cols))


class DirectSum(NamedTuple):
    """A direct sum module and its summands, in order."""

    module: Module
    parts: tuple


def direct_sum(mods: Sequence[Module]) -> DirectSum:
    """The direct sum module, with block-diagonal action, and the parts
    given; maps into or out of it are built by block_morphism.  The nonzero
    parts are recorded as "summands" when there are at least two; a
    content-equal sum recorded first keeps its own parts."""
    if not mods:
        raise ValueError("empty direct sum; use zero_module")
    alg = mods[0].algebra
    for m in mods[1:]:
        _require_same_algebra(mods[0], m)
    dims = {v: sum(m.dims[v] for m in mods) for v in alg.quiver.vertices}
    action = {}
    for a in alg.quiver.arrows:
        action[a.name] = Mat.from_blocks(
            [m.dims[a.target] for m in mods], [m.dims[a.source] for m in mods],
            {(i, i): m.action[a.name] for i, m in enumerate(mods)}, alg.p)
    total = _module(alg, dims, action)
    nonzero = tuple(m for m in mods if not m.is_zero())
    if len(nonzero) > 1:
        total.memoized("summands", lambda: nonzero)
    return DirectSum(total, tuple(mods))


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
    return _natural(src, tgt, {
        v: Mat.from_blocks([t.dims[v] for t in tgt_parts],
                           [s.dims[v] for s in src_parts],
                           {ij: f.components[v] for ij, f in blocks.items()},
                           src.algebra.p)
        for v in src.algebra.quiver.vertices})


def stack_morphisms_to_sum(maps: Sequence[Morphism]) -> Morphism:
    """Assemble x -> sum(targets) from morphisms sharing the source."""
    return block_morphism(maps[0].source, direct_sum([f.target for f in maps]),
                          {(i, 0): f for i, f in enumerate(maps)})


def stack_morphisms_from_sum(maps: Sequence[Morphism]) -> Morphism:
    """Assemble sum(sources) -> x from morphisms sharing the target."""
    return block_morphism(direct_sum([f.source for f in maps]), maps[0].target,
                          {(0, j): f for j, f in enumerate(maps)})


# -- linear problems in Hom spaces -------------------------------------


def composite_rows(d: Morphism, basis: Sequence[Morphism],
                   d_first: bool) -> List[tuple]:
    """The coordinate rows (``vectorize()``) of d.then(b), or of b.then(d)
    when not d_first, for every b in basis, in order.

    The basis maps share source and target, and d joins them; both are
    checked once per call, by content.  At each vertex this is one product
    of d's component with the basis components stacked into one matrix
    (one above the other when d comes first, side by side otherwise)."""
    if not basis:
        return []
    src, tgt = basis[0].source, basis[0].target
    for b in basis:
        if not (b.source.same_as(src) and b.target.same_as(tgt)):
            raise ValueError("basis maps with different endpoints")
    joint, end = (src, d.target) if d_first else (tgt, d.source)
    if not joint.same_as(end):
        raise ValueError("non-composable morphisms")
    _require_same_algebra(end, joint)
    k = len(basis)
    rows: List[List[int]] = [[] for _ in basis]
    for v in d.source.algebra.quiver.vertices:
        dv = d.components[v]
        comps = [b.components[v] for b in basis]
        if d_first:                 # b_v * d_v for each b: row blocks
            if comps[0].rows * dv.cols == 0:
                continue
            blocks = _row_blocks(Mat.vstack(comps).mul(dv), k)
        else:                       # d_v * b_v for each b: column blocks
            if dv.rows * comps[0].cols == 0:
                continue
            blocks = _column_blocks(dv.mul(Mat.hstack(comps)), k)
        for row, block in zip(rows, blocks):
            row.extend(block)
    return [tuple(row) for row in rows]


def solve_rows(equations: Sequence[Sequence[Sequence[int]]],
               targets: Sequence[Sequence[int]], p: int) -> Optional[List[int]]:
    """Coefficients c with sum(c_j * equations[i][j]) = targets[i] for
    every i at once (shared unknowns, one per column j), or None; every
    entry is a coordinate row, and each unknown's rows are read in
    equation order."""
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


def solve_jointly(equations: Sequence[Sequence[Morphism]],
                  targets: Sequence[Morphism]) -> Optional[List[int]]:
    """solve_rows on the coordinate rows of the maps."""
    return solve_rows([[f.vectorize() for f in eq] for eq in equations],
                      [t.vectorize() for t in targets],
                      targets[0].source.algebra.p)


def solve_in_span(candidates: Sequence[Morphism], target: Morphism) -> Optional[List[int]]:
    """Coefficients c with sum(c_i * candidates_i) = target, or None."""
    return solve_jointly([candidates], [target])


def span_rank(maps: Sequence[Morphism]) -> int:
    """Dimension of the span of morphisms that share source and target."""
    if not maps:
        return 0
    return rows_rank([f.vectorize() for f in maps], maps[0].source.algebra.p)


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


def hom_ranks(chain: Sequence[Morphism], g: Module,
              contravariant: bool) -> List[int]:
    """The ranks of hom_dims_and_ranks."""
    return [r for _, r in hom_dims_and_ranks(chain, g, contravariant)]


def assemble_from_span(candidates: Sequence[Morphism], coeffs: Sequence[int],
                       source: Module, target: Module) -> Morphism:
    """sum(coeffs_i * candidates_i), formed entrywise as one Morphism."""
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


# -- membership in add(generators) ------------------------------------


@dataclass
class MembershipWitness:
    member: bool
    detail: dict

    def __bool__(self) -> bool:
        return self.member


def in_add(x: Module, gens: Sequence[Module]) -> MembershipWitness:
    """x lies in add(gens) iff id_x is spanned by composites through the
    generators inside End(x)."""
    for g in gens:
        _require_same_algebra(x, g)
    return _membership(x, gens, tuple(g.key for g in gens))


def _membership(x: Module, gens: Sequence[Module], keys: tuple) -> MembershipWitness:
    """in_add past the algebra check; keys are the generators' keys."""
    if x.is_zero() or x.key in keys:
        return MembershipWitness(True, {"reason": "zero module or generator"})
    parts = x._memo.get("summands")
    if parts is not None:
        out = [i for i, part in enumerate(parts) if not _membership(part, gens, keys)]
        return MembershipWitness(not out, {"reason": "summands", "outside": out})
    return x.memoized(("in_add", keys), lambda: _solve_membership(x, gens))


def _solve_membership(x: Module, gens: Sequence[Module]) -> MembershipWitness:
    """The full test: id_x in the span of the composites x -> G -> x."""
    composites = [row for g in gens for f in hom_basis(x, g)
                  for row in composite_rows(f, hom_basis(g, x), d_first=True)]
    coeffs = solve_rows([composites], [identity_morphism(x).vectorize()],
                        x.algebra.p)
    return MembershipWitness(coeffs is not None,
                             {"reason": "solved", "coefficients": coeffs})


# -- isomorphism testing and decomposition ----------------------------


def are_isomorphic(m: Module, n: Module, seed: int) -> bool:
    """Probabilistic isomorphism test: equal content (the identity map),
    then equal dimension vectors and random Hom elements sampled for
    vertex-wise invertibility."""
    _require_same_algebra(m, n)
    if m.same_as(n):
        return True
    if m.dim_vector() != n.dim_vector():
        return False
    if m.total_dim == 0:
        return True
    basis = hom_basis(m, n)
    if not basis:
        return False
    p = m.algebra.p
    rng = random.Random(seed)
    for _ in range(FITTING_RETRIES):
        cand = assemble_from_span(basis, [rng.randrange(p) for _ in basis], m, n)
        if all(rank(cand.components[v]) == m.dims[v]
               for v in m.algebra.quiver.vertices):
            return True
    return False


def _fitting_split(x: Module, rng: random.Random) -> Optional[Tuple[Module, Module]]:
    """One splitting attempt (Lux–Szőke, Exp. Math. 2007): draw e in
    End(x), take its minimal polynomial mu (the lcm of the vertex-wise
    ones) and a monic factor g of mu coprime to mu/g; then
    x = ker g(e) + im g(e), both nonzero.

    Fails (None) only when mu is a power of one irreducible, which holds
    for every e when x is indecomposable (End(x) is local)."""
    basis = hom_basis(x, x)
    p = x.algebra.p
    e = assemble_from_span(basis, [rng.randrange(p) for _ in basis], x, x)
    mu = [1]
    for m in e.components.values():
        mu = polys.lcm(mu, polys.minpoly(m), p)
    g = polys.coprime_factor(mu, p, rng)
    if g is None:
        return None
    ge = _natural(x, x, {v: polys.at_matrix(g, m) for v, m in e.components.items()})
    return kernel_morphism(ge)[0], image_morphism(ge)[0]


def split_indecomposables(x: Module, seed: int) -> List[Tuple[Module, int]]:
    """Decomposition into indecomposables with multiplicities.

    Deterministic given the seed.  A summand with dim End = 1 has
    End = F_p and is indecomposable, exactly.  Any other summand is
    declared indecomposable after FITTING_RETRIES consecutive failed
    splitting attempts, so that verdict is probabilistic.
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
            if are_isomorphic(rep, part, rng.randrange(2**32)):
                grouped[i] = (rep, count + 1)
                break
        else:
            grouped.append((part, 1))
    return grouped


# -- projective, injective and simple modules -------------------------


def simple_module(alg: AlgebraBasis, v: str) -> Module:
    alg.quiver.vertex_index(v)
    dims = {w: (1 if w == v else 0) for w in alg.quiver.vertices}
    return _module(alg, dims, {})


def basis_paths(alg: AlgebraBasis, v: str, starting: bool) -> Dict[str, List[int]]:
    """Indices of the basis paths that start at v (or end at v), grouped
    by the vertex at their other end."""
    at, other = ((alg.source_of, alg.target_of) if starting
                 else (alg.target_of, alg.source_of))
    out: Dict[str, List[int]] = {w: [] for w in alg.quiver.vertices}
    for i in range(alg.dim):
        if at[i] == v:
            out[other[i]].append(i)
    return out


def projective_module(alg: AlgebraBasis, v: str) -> Module:
    """Indecomposable projective P_v: basis paths starting at v, graded by
    target vertex, arrows acting by right concatenation.  Checked: it is
    read off the multiplication table, which build_algebra checks only up
    to dimension 64."""
    alg.quiver.vertex_index(v)
    by_vertex = basis_paths(alg, v, starting=True)
    dims = {w: len(by_vertex[w]) for w in alg.quiver.vertices}
    p = alg.p
    action = {}
    for a in alg.quiver.arrows:
        src_idx = by_vertex[a.source]
        tgt_idx = by_vertex[a.target]
        tgt_pos = {b: r for r, b in enumerate(tgt_idx)}
        aj = alg.arrow_basis_index(a.name)
        rows = [[0] * len(src_idx) for _ in tgt_idx]
        for cpos, b in enumerate(src_idx):
            for k, coeff in alg.multiply(b, aj):
                rows[tgt_pos[k]][cpos] = coeff
        action[a.name] = Mat.from_rows(rows, p, cols=len(src_idx))
    return Module(alg, dims, action)


def injective_module(alg: AlgebraBasis, v: str) -> Module:
    """Indecomposable injective I_v: dual of P_v over the opposite algebra,
    realized on basis paths ending at v."""
    alg.quiver.vertex_index(v)
    by_vertex = basis_paths(alg, v, starting=False)
    dims = {w: len(by_vertex[w]) for w in alg.quiver.vertices}
    p = alg.p
    action = {}
    for a in alg.quiver.arrows:
        # action = transpose of left concatenation by a on paths ending at v
        src_idx = by_vertex[a.source]   # paths a.source -> v
        tgt_idx = by_vertex[a.target]   # paths a.target -> v
        src_pos = {b: r for r, b in enumerate(src_idx)}
        aj = alg.arrow_basis_index(a.name)
        left = [[0] * len(tgt_idx) for _ in src_idx]
        for cpos, b in enumerate(tgt_idx):
            for k, coeff in alg.multiply(aj, b):
                left[src_pos[k]][cpos] = coeff
        lm = Mat.from_rows(left, p, cols=len(tgt_idx))
        action[a.name] = lm.transpose()
    return Module(alg, dims, action)


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


# -- radical, top, socle ----------------------------------------------


def radical_span(m: Module) -> Dict[str, Mat]:
    """rad m = sum of images of all arrow actions, vertex-wise."""
    alg = m.algebra
    p = alg.p
    span = {}
    for v in alg.quiver.vertices:
        cols = [Mat.zero(m.dims[v], 0, p)]
        for a in alg.quiver.arrows:
            if a.target == v:
                cols.append(m.action[a.name])
        span[v] = Mat.hstack(cols)
    return span


def socle_span(m: Module) -> Dict[str, Mat]:
    """soc m = joint kernel of all arrow actions, vertex-wise."""
    alg = m.algebra
    p = alg.p
    span = {}
    for v in alg.quiver.vertices:
        rows = [Mat.zero(0, m.dims[v], p)]
        for a in alg.quiver.arrows:
            if a.source == v:
                rows.append(m.action[a.name])
        span[v] = kernel_basis(Mat.vstack(rows))
    return span
