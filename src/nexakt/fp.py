"""Exact dense linear algebra over a prime field F_p.

Everything downstream (Hom spaces, resolutions, certificates) reduces to
the solvers in this module.  They share one row reduction, ``_reduce``,
which works in place on lists of rows: ``rref`` wraps it in a ``Mat``;
``rank``, ``solve_linear``, the coordinate-row solvers of ``reps`` and
``quivers.build_algebra`` call it directly.  Null spaces come from one
routine on rows, ``_null_space`` (the canonical basis, one vector per
free column, the identity at the free columns): ``kernel_basis`` is its
thin ``Mat`` wrapper, ``quotient_data`` reads a projection off it, and
``reps`` (Hom spaces and kernels), ``complexes.chain_map_space`` and
``polys.minpoly`` call it with no ``Mat`` in or out.  No package code
calls ``solve_linear`` or ``kernel_basis``; they stay public, and
benchmark metrics count their calls.  Products
come from one kernel on row-major entry tuples, ``_mul_entries``:
``Mat.mul`` wraps it, and ``reps`` calls it on component entries.  ``det``
keeps an elimination of its own; nothing in the package calls it, and
it stays only because a benchmark metric counts its calls.  All
arithmetic is exact.  ``Mat`` uses ``__slots__``, is immutable, and
checks its shape when made.  Pivoting is deterministic (first nonzero
entry), so every certificate derived from these routines is
bit-reproducible.

Most vertex spaces of the modules nexakt works with are zero, so most
matrices have a zero side.  Every operation but ``rref`` and ``det``
returns at once when an operand or its result has a zero side, after the
shape and field checks it makes on any operand; it builds no rows and
runs no reduction.  Each such empty result is the one shared ``Mat`` of
its shape and field (``_empty``).  The solvers read their answer off the
shape: with no unknowns, ``solve_linear`` solves exactly when b is zero;
with no equations the zero matrix solves; ``kernel_basis`` of a map from
the zero space is 0x0, and of a map to it the identity; ``quotient_data``
by an empty span is the identity, every coordinate free.  A product with
inner dimension 0 is the zero matrix of its outer shape.  Most builders
of ``reps`` and ``resolutions`` take ``_empty`` themselves for a slot
with a zero side, read off the dimension vectors, but five reach these
returns: ``reps.kernel_morphism`` and ``reps._quotient`` (``identity``
of 0), ``reps._semisimple`` (``zero``), ``reps._dual`` and
``resolutions.injective_envelope`` (``transpose``); so does the
exactness check ``resolutions._check_step`` (``rank``).  The early
returns serve them and every other caller (files, users, ``addcat``,
``complexes``, ``frob``, ``polys``, ``fileio``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Optional, Sequence

DEFAULT_PRIME = 101


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p in (2, 3):
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A prime field F_p; p is verified prime at construction."""

    p: int = DEFAULT_PRIME

    def __post_init__(self):
        if not isinstance(self.p, int) or not 2 <= self.p < 2**31:
            raise ValueError(f"modulus must be an integer in [2, 2^31): {self.p!r}")
        if not is_prime(self.p):
            raise ValueError(f"modulus is not prime: {self.p}")


class Mat:
    """Dense row-major matrix over F_p.

    0xn and nx0 matrices are legal and represent maps to/from the zero
    space.  Entries are stored in a flat tuple, row by row.  The raw
    constructor trusts them to lie in [0, p): it neither reduces nor
    checks them, so ``rank(Mat(1, 1, (5,), 5))`` is 1.  ``Mat.from_rows``
    and ``mat_from_vector`` reduce them modulo p.  A Mat
    is immutable: setting or deleting an attribute raises.  Equality and
    hashing read (rows, cols, entries, p).
    """

    __slots__ = ("rows", "cols", "entries", "p")

    def __init__(self, rows: int, cols: int, entries: tuple, p: int):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(entries) != rows * cols:
            raise ValueError(f"entry count {len(entries)} != {rows}x{cols}")
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_entries(self, entries)
        _set_p(self, p)

    def __setattr__(self, name, value):
        raise AttributeError(f"Mat is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Mat is immutable: cannot delete {name!r}")

    def _key(self) -> tuple:
        return (self.rows, self.cols, self.entries, self.p)

    def __eq__(self, other):
        if other.__class__ is not Mat:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"Mat(rows={self.rows!r}, cols={self.cols!r}, "
                f"entries={self.entries!r}, p={self.p!r})")

    # pickle and copy rebuild a Mat through __init__: its slots cannot be
    # set on an instance afterwards
    def __reduce__(self):
        return Mat, self._key()

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], p: int, cols: Optional[int] = None) -> "Mat":
        nrows = len(rows)
        if nrows == 0:
            return _empty(0, 0 if cols is None else cols, p)
        ncols = len(rows[0]) if cols is None else cols
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            flat.extend(x % p for x in r)
        if not flat:
            return _empty(nrows, ncols, p)
        return Mat(nrows, ncols, tuple(flat), p)

    @staticmethod
    def zero(rows: int, cols: int, p: int) -> "Mat":
        if rows == 0 or cols == 0:
            return _empty(rows, cols, p)
        return Mat(rows, cols, (0,) * (rows * cols), p)

    @staticmethod
    def identity(n: int, p: int) -> "Mat":
        if n == 0:
            return _empty(0, 0, p)
        flat = [0] * (n * n)
        for i in range(n):
            flat[i * n + i] = 1 % p
        return Mat(n, n, tuple(flat), p)

    # -- element access ----------------------------------------------

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_lists(self) -> list:
        cols, ent = self.cols, self.entries
        return [list(ent[i * cols:(i + 1) * cols]) for i in range(self.rows)]

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    # -- arithmetic ---------------------------------------------------

    def _check_p(self, other: "Mat"):
        if self.p != other.p:
            raise ValueError(f"field mismatch: F_{self.p} vs F_{other.p}")

    def add(self, other: "Mat") -> "Mat":
        self._check_p(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        p = self.p
        if not self.entries:
            return _empty(self.rows, self.cols, p)
        return Mat(self.rows, self.cols,
                   tuple((a + b) % p for a, b in zip(self.entries, other.entries)), p)

    def scale(self, c: int) -> "Mat":
        p = self.p
        c %= p
        if not self.entries:
            return _empty(self.rows, self.cols, p)
        return Mat(self.rows, self.cols, tuple((c * a) % p for a in self.entries), p)

    def mul(self, other: "Mat") -> "Mat":
        """Matrix product self * other (self applied after other on columns)."""
        self._check_p(other)
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch in mul: {self.rows}x{self.cols} * {other.rows}x{other.cols}"
            )
        p = self.p
        n, k, m = self.rows, self.cols, other.cols
        if n == 0 or m == 0:
            return _empty(n, m, p)
        return Mat(n, m, tuple(_mul_entries(self.entries, other.entries, n, k, m, p)), p)

    def transpose(self) -> "Mat":
        if not self.entries:
            return _empty(self.cols, self.rows, self.p)
        return Mat(self.cols, self.rows,
                   tuple(self.entries[i * self.cols + j]
                         for j in range(self.cols) for i in range(self.rows)),
                   self.p)

    @staticmethod
    def hstack(mats: Sequence["Mat"]) -> "Mat":
        if not mats:
            raise ValueError("hstack of nothing")
        rows = mats[0].rows
        p = mats[0].p
        if any(m.rows != rows or m.p != p for m in mats):
            raise ValueError("hstack shape/field mismatch")
        if len(mats) == 1:
            return mats[0]
        cols = sum(m.cols for m in mats)
        if rows == 0 or cols == 0:
            return _empty(rows, cols, p)
        out = []
        for i in range(rows):
            for m in mats:
                out.extend(m.row(i))
        return Mat(rows, cols, tuple(out), p)

    @staticmethod
    def from_blocks(row_sizes: Sequence[int], col_sizes: Sequence[int],
                    blocks: dict, p: int) -> "Mat":
        """Block matrix with the given block row and column sizes;
        ``blocks[(i, j)]`` fills block row i, block column j, and a missing
        block is zero.  A block that does not fit its slot raises."""
        row_at, col_at = [0, *accumulate(row_sizes)], [0, *accumulate(col_sizes)]
        ncols = col_at[-1]
        flat = [0] * (row_at[-1] * ncols)
        for (i, j), b in blocks.items():
            if not (0 <= i < len(row_sizes) and 0 <= j < len(col_sizes)) \
                    or (b.rows, b.cols) != (row_sizes[i], col_sizes[j]) or b.p != p:
                raise ValueError(f"block ({i}, {j}) does not fit its slot")
            for r in range(b.rows):
                start = (row_at[i] + r) * ncols + col_at[j]
                flat[start:start + b.cols] = b.entries[r * b.cols:(r + 1) * b.cols]
        if not flat:
            return _empty(row_at[-1], ncols, p)
        return Mat(row_at[-1], ncols, tuple(flat), p)


_set_rows = Mat.rows.__set__
_set_cols = Mat.cols.__set__
_set_entries = Mat.entries.__set__
_set_p = Mat.p.__set__


@lru_cache(maxsize=1024)
def _empty(rows: int, cols: int, p: int) -> Mat:
    """The one shared rows x cols Mat over F_p with a zero side: a Mat is
    immutable, so every empty result of one shape and field can be the same
    object.  Made through ``Mat``, so a negative side still raises.  The
    cache is bounded; a shape with a zero side is fixed by its other side,
    so few are in use."""
    return Mat(rows, cols, (), p)


def _reduce(rows: list, ncols: int, p: int) -> "list[int]":
    """Row-reduce ``rows`` (lists of entries reduced mod p) in place and
    return the pivot columns.  Pivots are sought in the first ``ncols``
    columns only, the first nonzero entry of each column in turn; the row
    operations act on whole rows, so columns past ``ncols`` ride along as
    an augmented part.  On return the rows are in reduced row-echelon form
    over the first ``ncols`` columns, and rows ``len(pivots):`` are zero
    there."""
    nrows = len(rows)
    pivots: list = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        pivot_row = rows[i]
        if i != r:
            rows[i] = rows[r]
        lead = pivot_row[c]
        if lead != 1:
            inv = pow(lead, p - 2, p)
            pivot_row = [(y * inv) % p for y in pivot_row]
        rows[r] = pivot_row
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = [(x - f * y) % p for x, y in zip(row, pivot_row)]
        pivots.append(c)
        r += 1
    return pivots


def _null_space(rows: list, n: int, p: int) -> "tuple[list, list]":
    """Null space of the rows (lists of width n, entries reduced mod p),
    which are row-reduced in place: the free columns, and for each one the
    null vector with a 1 there and minus the reduced column at the
    pivots.  This is the canonical basis, in free-column order, that
    ``kernel_basis`` returns as the columns of a ``Mat``."""
    pivots = _reduce(rows, n, p)
    free = [j for j in range(n) if j not in pivots]
    vecs = []
    for j in free:
        v = [0] * n
        v[j] = 1
        for row, c in zip(rows, pivots):
            v[c] = (-row[j]) % p
        vecs.append(v)
    return free, vecs


def _mul_entries(a: tuple, b: tuple, n: int, k: int, m: int, p: int) -> list:
    """Row-major entries, reduced mod p, of the n x m product of the n x k
    and k x m matrices with row-major entries a and b (zero when k = 0).
    ``Mat.mul`` wraps it; ``reps`` calls it on component entries."""
    out = []
    for i in range(n):
        row = [0] * m
        for t in range(k):
            x = a[i * k + t]
            if x:
                base = t * m
                for j in range(m):
                    row[j] += x * b[base + j]
        out.extend([y % p for y in row])
    return out


def rref(a: Mat) -> "tuple[Mat, list[int]]":
    """Reduced row-echelon form and pivot columns, deterministic pivoting."""
    rows = a.to_lists()
    pivots = _reduce(rows, a.cols, a.p)
    return Mat(a.rows, a.cols, tuple(x for row in rows for x in row), a.p), pivots


def rank(a: Mat) -> int:
    if not a.entries:
        return 0
    return len(_reduce(a.to_lists(), a.cols, a.p))


def solve_linear(a: Mat, b: Mat) -> Optional[Mat]:
    """One solution x of a*x = b (columns independently), or None."""
    if a.p != b.p:
        raise ValueError("field mismatch in solve_linear")
    if a.rows != b.rows:
        raise ValueError(f"shape mismatch: a has {a.rows} rows, b has {b.rows}")
    n, m = a.cols, b.cols
    if m == 0:
        return _empty(n, 0, a.p)
    if n == 0:
        # no unknowns: solvable exactly when b is zero
        return _empty(0, m, a.p) if b.is_zero() else None
    if a.rows == 0:
        return Mat.zero(n, m, a.p)
    rows = [ra + rb for ra, rb in zip(a.to_lists(), b.to_lists())]
    pivots = _reduce(rows, n, a.p)
    if any(any(row[n:]) for row in rows[len(pivots):]):
        return None
    x = [0] * (n * m)
    for row, c in zip(rows, pivots):
        x[c * m:(c + 1) * m] = row[n:]
    return Mat(n, m, tuple(x), a.p)


def kernel_basis(a: Mat) -> Mat:
    """Columns form a basis of the null space {x : a*x = 0}."""
    if a.cols == 0:
        return _empty(0, 0, a.p)
    if a.rows == 0:
        return Mat.identity(a.cols, a.p)
    _, vecs = _null_space(a.to_lists(), a.cols, a.p)
    return Mat(a.cols, len(vecs), tuple(x for coords in zip(*vecs) for x in coords),
               a.p)


def quotient_data(span: Mat) -> "tuple[Mat, list[int]]":
    """Projection F^n -> F^n/colspace(span) plus its free coordinates.

    Rows of the projection express the quotient coordinates (indexed by
    the non-pivot positions of the reduced span) of an input vector; the
    kernel is exactly the column space of ``span``.  The standard basis
    vectors at the free coordinates lift the quotient basis.
    """
    p, n, cols = span.p, span.rows, span.cols
    if not span.entries:
        # nothing to divide by: every coordinate is free
        return Mat.identity(n, p), list(range(n))
    rows = [list(span.entries[j::cols]) for j in range(cols)]
    free, proj_rows = _null_space(rows, n, p)
    return Mat(len(free), n, tuple(x for row in proj_rows for x in row), p), free


def det(a: Mat) -> int:
    """Determinant by fraction-free elimination over F_p."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    p = a.p
    rows = [list(a.row(i)) for i in range(a.rows)]
    sign = 1
    acc = 1
    for c in range(a.cols):
        pr = None
        for i in range(c, a.rows):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            return 0
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            sign = -sign
        acc = (acc * rows[c][c]) % p
        inv = pow(rows[c][c], p - 2, p)
        for i in range(c + 1, a.rows):
            if rows[i][c]:
                f = (rows[i][c] * inv) % p
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[c])]
    return (acc * sign) % p


def mat_from_vector(vec: Iterable[int], rows: int, cols: int, p: int) -> Mat:
    flat = tuple(x % p for x in vec)
    if len(flat) != rows * cols:
        raise ValueError("vector length does not match shape")
    if not flat:
        return _empty(rows, cols, p)
    return Mat(rows, cols, flat, p)
