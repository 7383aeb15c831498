"""n-pushout diagrams: existence, good versions, universal property.

An n-pushout of X along f0 is a chain map f: X -> Y extending f0 whose
mapping cone has an n-cokernel tail; the construction iterates weak
cokernels of the cone differentials and certifies the cone it built.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from .addcat import (AddCat, DomainError, HypothesisError, PreconditionError,
                     contravariant_fragment, weak_cokernel)
from .complexes import (ComplexSeq, ComplexMorphism, Homotopy, mapping_cone,
                        verify_homotopy)
from .reps import (Module, Morphism, assemble_from_span, block_morphism,
                   composite_rows, coordinate_length, direct_sum,
                   factor_through, hom_basis, identity_morphism, in_add,
                   solve_rows, zero_module, zero_morphism)


def n_pushout(x: ComplexSeq, f0: Morphism, m: AddCat) -> Tuple[ComplexSeq, ComplexMorphism]:
    """Pushout of the (n+1)-term complex x along f0, built per the iterated
    weak-cokernel recipe; the mapping cone is verified to carry an
    n-cokernel tail and, when d_x^0 is monic, d_y^0 is verified monic."""
    n = len(x.terms) - 1
    if n < 1:
        raise PreconditionError("pushout needs at least two terms")
    for k in x.degrees():
        if not in_add(x.term(k), m.generators):
            raise DomainError(f"pushout input term {k} not in add(M)")
    if not f0.source.same_as(x.terms[0]):
        raise PreconditionError("f0 must start at the degree-0 term")
    if not in_add(f0.target, m.generators):
        raise DomainError("pushout target of f0 not in add(M)")
    lo = x.lo
    y_terms: List[Module] = [f0.target]
    y_diffs: List[Morphism] = []
    f_comps: List[Morphism] = [f0]
    # cone differential d_C^{-1} = [-d_X^0; f^0] into C^0 = X^1 + Y^0
    c_k = direct_sum([x.terms[1], y_terms[0]])
    d_prev = block_morphism(x.terms[0], c_k,
                            {(0, 0): x.diff(lo).scale(-1), (1, 0): f0})
    cone: List[Morphism] = []
    for k in range(n):
        cone.append(d_prev)
        w = weak_cokernel(d_prev, m)
        # restrict w: C^k -> Y^{k+1} to the summands X^{k+1} and Y^k
        f_next, d_y = (block_morphism(part, c_k, {(i, 0): identity_morphism(part)})
                       .then(w) for i, part in enumerate(c_k.parts))
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
    y = ComplexSeq(lo, y_terms, y_diffs)
    f = ComplexMorphism(x, y, {lo + i: f_comps[i] for i in range(n + 1)})
    # the cone of f is the built differentials closed by the last weak
    # cokernel [f^n, d_Y^{n-1}]: C^{n-1} -> Y^n
    frag = contravariant_fragment(cone + [w], m.generators)
    if not frag.ok:
        raise HypothesisError("pushout cone fails n-cokernel verification")
    if x.diff(lo).is_injective() and not y.diff(lo).is_injective():
        raise AssertionError("monomorphism not preserved by pushout")
    return y, f


def good_n_pushout(x: ComplexSeq, f0: Morphism, m: AddCat) \
        -> Tuple[ComplexSeq, ComplexMorphism, ComplexSeq]:
    """Pushout padded with the contractible pieces i_{k-1}(X^k), 2 <= k <= n.

    Returns (padded complex, padded chain map, the contractible padding);
    the components in degrees >= 2 are verified split monomorphisms."""
    n = len(x.terms) - 1
    y, f = n_pushout(x, f0, m)
    lo = x.lo
    if n < 2:
        return y, f, ComplexSeq(lo, [zero_module(x.algebra)], [])
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
    padded = ComplexSeq(lo, [s.module for s in sums], diffs)
    comps = {}
    for l in range(n + 1):
        blocks = {(0, 0): f.component(lo + l)}
        if l in ident:
            blocks[(1, 0)] = ident[l]
        if l + 1 in ident:
            blocks[(len(sums[l].parts) - 1, 0)] = x.diff(lo + l)
        comps[lo + l] = block_morphism(x.term(lo + l), sums[l], blocks)
    ftilde = ComplexMorphism(x, padded, comps)
    for l in range(2, n + 1):
        comp = ftilde.component(lo + l)
        if factor_through(identity_morphism(comp.source), comp) is None:
            raise AssertionError(f"padded component at degree {l} not split monic")
    cone = mapping_cone(ftilde)
    frag = contravariant_fragment(list(cone.diffs), m.generators)
    if not frag.ok:
        raise HypothesisError("good pushout cone fails verification")
    # the padding itself, as a complex (for contractibility checks)
    pads = [direct_sum(s.parts[1:] or (zero_module(alg),)) for s in sums]
    padding = ComplexSeq(lo, [t.module for t in pads],
                         [block_morphism(pads[l], pads[l + 1], pad_blocks[l])
                          for l in range(n)])
    return padded, ftilde, padding


def pushout_factorization(f: ComplexMorphism, g: ComplexMorphism) \
        -> Tuple[ComplexMorphism, Homotopy]:
    """Universal property: p: Y -> Z with p^0 = 1 and a homotopy
    h: f.then(p) -> g with vanishing first component."""
    x, y, z = f.source, f.target, g.target
    lo = x.lo
    if not y.term(lo).same_as(z.term(lo)):
        raise PreconditionError("degree-0 targets differ")
    if not f.component(lo).sub(g.component(lo)).is_zero():
        raise PreconditionError("f and g must share the degree-0 component")
    p_comps, h_comps = _factor_pushout(
        f, z, g.component, identity_morphism(z.term(lo)),
        zero_morphism(x.term(lo + 1), z.term(lo)))
    p = ComplexMorphism(y, z, p_comps)
    h = Homotopy(x, z, {k: v for k, v in h_comps.items() if not v.is_zero()})
    if not verify_homotopy(f.then(p), g, h):
        raise AssertionError("factorization homotopy failed to verify")
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
