"""Bounded cochain complexes of modules, their morphisms and homotopies.

The checked constructors take what the caller brings: ``ComplexSeq(...)``
and ``complex_from_maps`` check that consecutive differentials compose
to zero, ``ComplexMorphism(...)`` and ``ComplexMorphism.then`` that every
square commutes.  A complex or chain map that holds by construction (a
padding, a mapping cone, a solution of chain_map_space, an n-(co)kernel
ladder, the n-pushout and its factorization, a coresolution) is built
unchecked by ``_complex`` or ``_chain_map``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from .fp import _null_space
from .reps import (Module, Morphism, assemble_from_span, block_morphism,
                   composite_rows, coordinate_length, direct_sum, hom_basis,
                   zero_module, zero_morphism)


@dataclass
class ComplexSeq:
    """Complex X^lo -> ... -> X^hi; differentials d^k: X^k -> X^{k+1}.

    Out-of-range terms read as the zero module, so boundary bookkeeping
    in cones and homotopies needs no special cases.
    """

    lo: int
    terms: list                 # Modules, degrees lo .. lo+len-1
    diffs: list                 # Morphisms, diffs[k]: terms[k] -> terms[k+1]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a complex needs at least one term")
        if len(self.diffs) != len(self.terms) - 1:
            raise ValueError("differential count mismatch")
        for k, d in enumerate(self.diffs):
            if not (d.source.same_as(self.terms[k])
                    and d.target.same_as(self.terms[k + 1])):
                raise ValueError(f"differential {k} endpoints mismatch")
        for k in range(len(self.diffs) - 1):
            if not self.diffs[k].then(self.diffs[k + 1]).is_zero():
                raise ValueError(f"d^{self.lo + k + 1} after d^{self.lo + k} is nonzero")

    @property
    def hi(self) -> int:
        return self.lo + len(self.terms) - 1

    @property
    def algebra(self):
        return self.terms[0].algebra

    def term(self, k: int) -> Module:
        if self.lo <= k <= self.hi:
            return self.terms[k - self.lo]
        return zero_module(self.algebra)

    def diff(self, k: int) -> Morphism:
        """d^k: X^k -> X^{k+1}, zero outside the stored range."""
        i = k - self.lo
        if 0 <= i < len(self.diffs):
            return self.diffs[i]
        return zero_morphism(self.term(k), self.term(k + 1))

    def degrees(self) -> range:
        return range(self.lo, self.hi + 1)


def _complex(lo: int, terms: list, diffs: list) -> ComplexSeq:
    """A complex known to be one (diffs join the terms, d d = 0 by
    construction), built without the checks."""
    x = object.__new__(ComplexSeq)
    x.__dict__.update(lo=lo, terms=terms, diffs=diffs)
    return x


def complex_from_maps(lo: int, maps: Sequence[Morphism]) -> ComplexSeq:
    terms = [maps[0].source] + [f.target for f in maps]
    return ComplexSeq(lo, terms, list(maps))


def pad_complex(x: ComplexSeq, lo: int, hi: int) -> ComplexSeq:
    """Extend the stored range with zero terms (contents unchanged)."""
    if lo > x.lo or hi < x.hi:
        raise ValueError("pad_complex only extends the range")
    return _complex(lo, [x.term(k) for k in range(lo, hi + 1)],
                    [x.diff(k) for k in range(lo, hi)])


@dataclass
class ComplexMorphism:
    source: ComplexSeq
    target: ComplexSeq
    components: dict            # degree -> Morphism X^k -> Y^k

    def __post_init__(self):
        for k in self.source.degrees():
            f = self.component(k)
            if not (f.source.same_as(self.source.term(k))
                    and f.target.same_as(self.target.term(k))):
                raise ValueError(f"component at degree {k} has wrong endpoints")
        lo = min(self.source.lo, self.target.lo)
        hi = max(self.source.hi, self.target.hi)
        for k in range(lo, hi):
            lhs = self.component(k).then(self.target.diff(k))
            rhs = self.source.diff(k).then(self.component(k + 1))
            if not lhs.sub(rhs).is_zero():
                raise ValueError(f"square at degree {k} does not commute")

    def component(self, k: int) -> Morphism:
        f = self.components.get(k)
        if f is None:
            return zero_morphism(self.source.term(k), self.target.term(k))
        return f

    def then(self, other: "ComplexMorphism") -> "ComplexMorphism":
        return ComplexMorphism(self.source, other.target,
                               {k: self.component(k).then(other.component(k))
                                for k in self.source.degrees()})


def _chain_map(source: ComplexSeq, target: ComplexSeq,
               components: dict) -> ComplexMorphism:
    """A chain map known to be one (components join the terms, every
    square commutes by construction), built without the checks."""
    f = object.__new__(ComplexMorphism)
    f.__dict__.update(source=source, target=target, components=components)
    return f


@dataclass
class Homotopy:
    """Degreewise maps h^k: X^k -> Y^{k-1}; a witness only, validity is the
    equation checked by verify_homotopy."""

    source: ComplexSeq
    target: ComplexSeq
    components: dict            # degree k -> Morphism X^k -> Y^{k-1}

    def component(self, k: int) -> Morphism:
        h = self.components.get(k)
        if h is None:
            return zero_morphism(self.source.term(k), self.target.term(k - 1))
        return h


def _content(x: ComplexSeq) -> tuple:
    """lo, the content keys of the terms and the differentials' components."""
    return x.lo, [t.key for t in x.terms], [d.components for d in x.diffs]


def verify_homotopy(f: ComplexMorphism, g: ComplexMorphism, h: Homotopy) -> bool:
    """True iff (f-g)^k = h^k d_Y^{k-1} + d_X^k h^{k+1} holds degreewise;
    ValueError unless g and h join f's source and target complexes."""
    x, y = f.source, f.target
    if not (_content(g.source) == _content(h.source) == _content(x)
            and _content(g.target) == _content(h.target) == _content(y)):
        raise ValueError("homotopy endpoints mismatch")
    for k in range(x.lo, x.hi + 1):
        lhs = f.component(k).sub(g.component(k))
        rhs = h.component(k).then(y.diff(k - 1)) \
            .add(x.diff(k).then(h.component(k + 1)))
        if not lhs.sub(rhs).is_zero():
            return False
    return True


def chain_map_space(x: ComplexSeq, y: ComplexSeq) -> List[ComplexMorphism]:
    """Basis of the space of chain maps x -> y (degreewise Hom coordinates,
    commuting constraints solved as one kernel computation)."""
    p = x.algebra.p
    blocks = []
    offsets = []
    pos = 0
    for k in x.degrees():
        basis = hom_basis(x.term(k), y.term(k))
        blocks.append(basis)
        offsets.append(pos)
        pos += len(basis)
    total = pos
    rows: List[List[int]] = []
    # the square at x.hi reads f^hi d_Y^hi = 0, with no rows when Y^{hi+1} = 0
    for idx, k in enumerate(x.degrees()):
        tgt_len = coordinate_length(x.term(k), y.term(k + 1))
        contrib = [[0] * total for _ in range(tgt_len)]
        for i, vec in enumerate(composite_rows(y.diff(k), blocks[idx],
                                               d_first=False)):
            for r in range(tgt_len):
                contrib[r][offsets[idx] + i] = vec[r]
        if k < x.hi:
            for i, vec in enumerate(composite_rows(x.diff(k), blocks[idx + 1],
                                                   d_first=True)):
                for r in range(tgt_len):
                    contrib[r][offsets[idx + 1] + i] = (-vec[r]) % p
        rows.extend(contrib)
    out = []
    for col in _null_space(rows, total, p)[1]:
        comps = {k: assemble_from_span(
                     blocks[idx], col[offsets[idx]:offsets[idx] + len(blocks[idx])],
                     x.term(k), y.term(k))
                 for idx, k in enumerate(x.degrees())}
        out.append(_chain_map(x, y, comps))
    return out


def mapping_cone(f: ComplexMorphism) -> ComplexSeq:
    """Cone with terms X^{k+1} + Y^k and differential
    [[-d_X^{k+1}, 0], [f^{k+1}, d_Y^k]]."""
    x, y = f.source, f.target
    lo = min(x.lo, y.lo) - 1
    hi = max(x.hi, y.hi)
    sums = [direct_sum([x.term(k + 1), y.term(k)]) for k in range(lo, hi + 1)]
    diffs = [block_morphism(sums[k - lo], sums[k - lo + 1],
                            {(0, 0): x.diff(k + 1).scale(-1),
                             (1, 0): f.component(k + 1), (1, 1): y.diff(k)})
             for k in range(lo, hi)]
    return _complex(lo, [s.module for s in sums], diffs)
