"""n-pushout diagrams: existence, good versions, universal property.

An n-pushout of X along f0 is a chain map f: X -> Y extending f0 whose
mapping cone has an n-cokernel tail; iterating weak cokernels of the cone
differentials makes the cone exact below its top, which alone is checked,
from stored Hom dimensions (_n_pushout).  Y, f, the padding of a good
n-pushout and the factorization p of the universal property are
complexes and chain maps by construction, so they are built unchecked
(complexes._complex, complexes._chain_map).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from .addcat import (AddCat, DomainError, HypothesisError, PreconditionError,
                     minimal_left_approximation)
from .complexes import (ComplexSeq, ComplexMorphism, Homotopy, _chain_map,
                        _complex, _content)
from .reps import (Module, Morphism, assemble_from_span, block_morphism,
                   cokernel_morphism, composite_rows, coordinate_length,
                   direct_sum, hom_basis, identity_morphism, in_add,
                   restrictions, solve_rows, zero_module, zero_morphism)


def n_pushout(x: ComplexSeq, f0: Morphism, m: AddCat) -> Tuple[ComplexSeq, ComplexMorphism]:
    """Pushout of the (n+1)-term complex x along f0 (see _n_pushout), for x
    and the target of f0 in add(M) (DomainError otherwise)."""
    if len(x.terms) < 2:
        raise PreconditionError("pushout needs at least two terms")
    for k in x.degrees():
        if not in_add(x.term(k), m.generators):
            raise DomainError(f"pushout input term {k} not in add(M)")
    if not f0.source.same_as(x.terms[0]):
        raise PreconditionError("f0 must start at the degree-0 term")
    if not in_add(f0.target, m.generators):
        raise DomainError("pushout target of f0 not in add(M)")
    return _n_pushout(x, f0, m)


def _n_pushout(x: ComplexSeq, f0: Morphism, m: AddCat) -> Tuple[ComplexSeq, ComplexMorphism]:
    """n_pushout past the add(M) checks of its inputs.  Its cone X^0 -> C^0
    -> ... -> C^{n-1} -> Y^n is Hom(-, G) exact at each C^k by construction:
    the Y-row w of each cone differential is the weak cokernel of the one
    before, so a map killing that one factors through w, hence the next.
    Only the top depends on M: Hom(w, G) must be injective on Hom(Y^n, G).
    As w = proj.approx, Hom(w, G) is Hom(approx, G), onto by the verified
    contract, then Hom(proj, G), mono as proj is onto: its rank is dim
    Hom(coker, G), a space the approximation solved, so no rank is taken.
    Y and f need no check either: w kills the cone differential before it,
    whose blocks give d_Y^{k-1} d_Y^k = 0 and f^k d_Y^k = d_X^k f^{k+1}."""
    n = len(x.terms) - 1
    lo = x.lo
    y_terms: List[Module] = [f0.target]
    y_diffs: List[Morphism] = []
    f_comps: List[Morphism] = [f0]
    # cone differential d_C^{-1} = [-d_X^0; f^0] into C^0 = X^1 + Y^0
    c_k = direct_sum([x.terms[1], y_terms[0]])
    d_prev = block_morphism(x.terms[0], c_k,
                            {(0, 0): x.diff(lo).scale(-1), (1, 0): f0})
    for k in range(n):
        # w, the weak cokernel of d_prev (which joins checked inputs and
        # approximation targets), on the summands X^{k+1} and Y^k of C^k
        coker, proj = cokernel_morphism(d_prev)
        w = proj.then(minimal_left_approximation(coker, m))
        f_next, d_y = restrictions(c_k, w)
        y_terms.append(w.target)
        y_diffs.append(d_y)
        f_comps.append(f_next)
        if k == n - 1:
            break
        # next cone differential [[-d_X^{k+1}, 0], [f^{k+1}, d_Y^k]]
        c_next = direct_sum([x.terms[k + 2], y_terms[-1]])
        d_prev = block_morphism(c_k, c_next, {(0, 0): x.diff(lo + k + 1).scale(-1),
                                              (1, 0): f_next, (1, 1): d_y})
        c_k = c_next
    if any(len(hom_basis(w.target, g)) != len(hom_basis(coker, g))
           for g in m.generators):
        raise HypothesisError("pushout cone fails n-cokernel verification",
                              degree=lo + n)
    y = _complex(lo, y_terms, y_diffs)
    f = _chain_map(x, y, {lo + i: f_comps[i] for i in range(n + 1)})
    if x.diff(lo).is_injective() and not y.diff(lo).is_injective():
        raise AssertionError("monomorphism not preserved by pushout")
    return y, f


def good_n_pushout(x: ComplexSeq, f0: Morphism, m: AddCat) \
        -> Tuple[ComplexSeq, ComplexMorphism, ComplexSeq]:
    """Pushout padded with the contractible pieces i_{k-1}(X^k), 2 <= k <= n.

    Returns (padded complex, padded chain map, contractible padding), good
    by construction: components in degrees >= 2 split by their identity
    blocks, and the cone is f's plus split-exact X^k -> X^k up to isomorphism.
    All three are built unchecked: each identity block lands in a slot that
    no differential leaves, and the slot X^{l+1} of f~^l carries d_X^l."""
    n = len(x.terms) - 1
    y, f = n_pushout(x, f0, m)
    lo = x.lo
    if n < 2:
        return y, f, _complex(lo, [zero_module(x.algebra)], [])
    alg = x.algebra
    # padded degree l carries [Y^l, X^l (target slot), X^{l+1} (source slot)]
    ident = {l: identity_morphism(x.term(lo + l)) for l in range(2, n + 1)}
    sums = [direct_sum([y.term(lo + l)] + [x.term(lo + j) for j in (l, l + 1)
                                           if j in ident])
            for l in range(n + 1)]
    # the source slot X^{l+1} (last) at degree l maps identically onto the
    # target slot X^{l+1} (second) at degree l+1; blocks in padding slots
    pad_blocks = [{(0, len(sums[l].parts) - 2): ident[l + 1]} if l + 1 in ident
                  else {} for l in range(n)]
    diffs = []
    for l in range(n):
        blocks = {(i + 1, j + 1): b for (i, j), b in pad_blocks[l].items()}
        blocks[(0, 0)] = y.diff(lo + l)
        diffs.append(block_morphism(sums[l], sums[l + 1], blocks))
    padded = _complex(lo, [s.module for s in sums], diffs)
    comps = {}
    for l in range(n + 1):
        blocks = {(0, 0): f.component(lo + l)}
        if l in ident:
            blocks[(1, 0)] = ident[l]
        if l + 1 in ident:
            blocks[(len(sums[l].parts) - 1, 0)] = x.diff(lo + l)
        comps[lo + l] = block_morphism(x.term(lo + l), sums[l], blocks)
    ftilde = _chain_map(x, padded, comps)
    # the padding itself, as a complex (for contractibility checks)
    pads = [direct_sum(s.parts[1:] or (zero_module(alg),)) for s in sums]
    padding = _complex(lo, [t.module for t in pads],
                       [block_morphism(pads[l], pads[l + 1], pad_blocks[l])
                        for l in range(n)])
    return padded, ftilde, padding


def pushout_factorization(f: ComplexMorphism, g: ComplexMorphism) \
        -> Tuple[ComplexMorphism, Homotopy]:
    """Universal property: p: Y -> Z with p^0 = 1 and a homotopy
    h: f.then(p) -> g with vanishing first component, for g into a
    complex of add(M); PreconditionError, before any solve, unless g
    starts at f's source complex (by content) and shares f's degree-0
    component.  Both are built unchecked: _factor_pushout solves
    for every homotopy equation and every square of p but the one at the
    top degree t = x.hi, p^t d_Z^t = 0.  That one holds because p^t d_Z^t
    kills both blocks f^t and d_Y^{t-1} of the top w of f's cone, and
    n_pushout checked that no nonzero map from Y^t into add(M) kills w."""
    x, y, z = f.source, f.target, g.target
    lo = x.lo
    if _content(g.source) != _content(x):
        raise PreconditionError("g must start at the source complex of f")
    if not y.term(lo).same_as(z.term(lo)):
        raise PreconditionError("degree-0 targets differ")
    if not f.component(lo).sub(g.component(lo)).is_zero():
        raise PreconditionError("f and g must share the degree-0 component")
    p_comps, h_comps = _factor_pushout(
        f, z, g.component, identity_morphism(z.term(lo)),
        zero_morphism(x.term(lo + 1), z.term(lo)))
    p = _chain_map(y, z, p_comps)
    h = Homotopy(x, z, {k: v for k, v in h_comps.items() if not v.is_zero()})
    return p, h


def _factor_pushout(f: ComplexMorphism, z: ComplexSeq,
                    g_at: Callable[[int], Morphism], p0: Morphism,
                    h1: Morphism) -> Tuple[Dict[int, Morphism], Dict[int, Morphism]]:
    """The degreewise solve behind the universal property of the n-pushout
    f: X -> Y.  From p^lo = p0 and h^{lo+1} = h1, solve jointly for each k
    in turn p^{k+1}: Y^{k+1} -> Z^{k+1} and h^{k+2}: X^{k+2} -> Z^{k+1} with
      (A) d_Y^k p^{k+1} = p^k d_Z^k,
      (B) f^{k+1} p^{k+1} - d_X^{k+1} h^{k+2} = g^{k+1} + h^{k+1} d_Z^k,
    where g^k = g_at(k): X^k -> Z^k.  Returns ({k: p^k}, {k: h^k})."""
    x, y = f.source, f.target
    p = x.algebra.p
    p_comps: Dict[int, Morphism] = {x.lo: p0}
    h_comps: Dict[int, Morphism] = {x.lo + 1: h1}
    for k in range(x.lo, x.hi):
        basis_p = hom_basis(y.term(k + 1), z.term(k + 1))
        basis_h = hom_basis(x.term(k + 2), z.term(k + 1))
        zero_a = (0,) * coordinate_length(y.term(k), z.term(k + 1))
        eq_a = composite_rows(y.diff(k), basis_p, d_first=True) + \
            [zero_a for _ in basis_h]
        tgt_a = p_comps[k].then(z.diff(k))
        eq_b = composite_rows(f.component(k + 1), basis_p, d_first=True) + \
            [tuple(-c % p for c in row)
             for row in composite_rows(x.diff(k + 1), basis_h, d_first=True)]
        tgt_b = g_at(k + 1).add(h_comps[k + 1].then(z.diff(k)))
        coeffs = solve_rows([eq_a, eq_b], [tgt_a.vectorize(), tgt_b.vectorize()], p)
        if coeffs is None:
            raise HypothesisError(f"factorization stuck at degree {k}", degree=k)
        p_comps[k + 1] = assemble_from_span(
            basis_p, coeffs[:len(basis_p)], y.term(k + 1), z.term(k + 1))
        h_comps[k + 2] = assemble_from_span(
            basis_h, coeffs[len(basis_p):], x.term(k + 2), z.term(k + 1))
    return p_comps, h_comps
