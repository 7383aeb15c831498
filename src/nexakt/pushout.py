"""n-pushout diagrams: existence, good versions, universal property.

An n-pushout of X along f0 is a chain map f: X -> Y extending f0 whose
mapping cone has an n-cokernel tail; the construction iterates weak
cokernels of the cone differentials and certifies the result.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .addcat import (AddCat, DomainError, HypothesisError, PreconditionError,
                     contravariant_fragment, weak_cokernel)
from .complexes import ComplexSeq, ComplexMorphism, Homotopy, mapping_cone
from .fp import Mat
from .reps import (Module, Morphism, assemble_from_span, direct_sum,
                   hom_basis, identity_morphism, in_add, solve_in_span,
                   zero_module, zero_morphism)


def _pair_solve(blocks: List[List[Morphism]], targets: List[Morphism]):
    """Solve several simultaneous Hom equations sharing unknown blocks.

    blocks[i] lists, per unknown basis element, its contribution to
    equation i (same order across equations); targets[i] is the wanted
    value.  Returns one coefficient vector or None."""
    p = targets[0].source.algebra.p
    ncand = len(blocks[0])
    cols = []
    for j in range(ncand):
        vec: List[int] = []
        for eq in blocks:
            vec.extend(eq[j].vectorize())
        cols.append(vec)
    rhs: List[int] = []
    for t in targets:
        rhs.extend(t.vectorize())
    if ncand == 0:
        return [] if all(x == 0 for x in rhs) else None
    mat = Mat.from_rows([[col[i] for col in cols] for i in range(len(rhs))],
                        p, cols=ncand)
    b = Mat.from_rows([[x] for x in rhs], p, cols=1)
    from .fp import solve_linear
    sol = solve_linear(mat, b)
    if sol is None:
        return None
    return [sol.at(i, 0) for i in range(ncand)]


def n_pushout(x: ComplexSeq, f0: Morphism, m: AddCat) -> Tuple[ComplexSeq, ComplexMorphism]:
    """Pushout of the (n+1)-term complex x along f0, built per the iterated
    weak-cokernel recipe; the mapping cone is verified to carry an
    n-cokernel tail and, when d_x^0 is monic, d_y^0 is verified monic."""
    n = len(x.terms) - 1
    if n < 1:
        raise ValueError("pushout needs at least two terms")
    for k in x.degrees():
        if not in_add(x.term(k), m.generators):
            raise DomainError(f"pushout input term {k} not in add(M)")
    if f0.source.dims != x.terms[0].dims:
        raise PreconditionError("f0 must start at the degree-0 term")
    if not in_add(f0.target, m.generators):
        raise DomainError("pushout target of f0 not in add(M)")
    lo = x.lo
    y_terms: List[Module] = [f0.target]
    y_diffs: List[Morphism] = []
    f_comps: List[Morphism] = [f0]
    # cone differential d_C^{-1} = [-d_X^0; f^0] into X^1 + Y^0
    _, injs, prjs = direct_sum([x.terms[1], y_terms[0]])
    d_prev = x.diff(lo).scale(-1).then(injs[0]).add(f0.then(injs[1]))
    for k in range(n):
        w = weak_cokernel(d_prev, m)
        f_next = injs[0].then(w)          # X^{k+1} -> Y^{k+1}
        d_y = injs[1].then(w)             # Y^k -> Y^{k+1}
        y_terms.append(w.target)
        y_diffs.append(d_y)
        f_comps.append(f_next)
        if k == n - 1:
            break
        # next cone differential [[-d_X^{k+1}, 0], [f^{k+1}, d_Y^k]]
        _, nxt_injs, nxt_prjs = direct_sum([x.terms[k + 2], y_terms[-1]])
        d_prev = prjs[0].then(x.diff(lo + k + 1).scale(-1)).then(nxt_injs[0]) \
            .add(prjs[0].then(f_next).then(nxt_injs[1])) \
            .add(prjs[1].then(d_y).then(nxt_injs[1]))
        injs, prjs = nxt_injs, nxt_prjs
    y = ComplexSeq(lo, y_terms, y_diffs)
    f = ComplexMorphism(x, y, {lo + i: f_comps[i] for i in range(n + 1)})
    cone = mapping_cone(f)
    frag = contravariant_fragment(list(cone.diffs), m.generators)
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
    slot_mods: Dict[int, List[Module]] = {}
    for l in range(n + 1):
        mods = [y.term(lo + l)]
        if 2 <= l <= n:
            mods.append(x.term(lo + l))
        if 2 <= l + 1 <= n:
            mods.append(x.term(lo + l + 1))
        slot_mods[l] = mods
    sums = {l: direct_sum(slot_mods[l]) for l in range(n + 1)}
    terms = [sums[l][0] for l in range(n + 1)]
    diffs = []
    for l in range(n):
        total_src, injs_src, prjs_src = sums[l]
        total_tgt, injs_tgt, _ = sums[l + 1]
        d = prjs_src[0].then(y.diff(lo + l)).then(injs_tgt[0])
        # source slot X^{l+1} at degree l maps identically to the target
        # slot X^{l+1} at degree l+1
        if 2 <= l + 1 <= n:
            src_slot = 1 + (1 if 2 <= l <= n else 0)
            d = d.add(prjs_src[src_slot]
                      .then(identity_morphism(x.term(lo + l + 1)))
                      .then(injs_tgt[1]))
        diffs.append(d)
    padded = ComplexSeq(lo, terms, diffs)
    comps = {}
    for l in range(n + 1):
        _, injs_tgt, _ = sums[l]
        c = f.component(lo + l).then(injs_tgt[0])
        if 2 <= l <= n:
            c = c.add(identity_morphism(x.term(lo + l)).then(injs_tgt[1]))
        if 2 <= l + 1 <= n:
            slot = 1 + (1 if 2 <= l <= n else 0)
            c = c.add(x.diff(lo + l).then(injs_tgt[slot]))
        comps[lo + l] = c
    ftilde = ComplexMorphism(x, padded, comps)
    for l in range(2, n + 1):
        comp = ftilde.component(lo + l)
        basis = hom_basis(comp.target, comp.source)
        coeffs = solve_in_span([comp.then(b) for b in basis],
                               identity_morphism(comp.source))
        if coeffs is None:
            raise AssertionError(f"padded component at degree {l} not split monic")
    cone = mapping_cone(ftilde)
    frag = contravariant_fragment(list(cone.diffs), m.generators)
    if not frag.ok:
        raise HypothesisError("good pushout cone fails verification")
    # the padding itself, as a complex (for contractibility checks)
    pad_terms = []
    pad_diffs = []
    for l in range(n + 1):
        mods = slot_mods[l][1:]
        pad_terms.append(direct_sum(mods)[0] if mods else zero_module(alg))
    for l in range(n):
        src_mods = slot_mods[l][1:]
        tgt_mods = slot_mods[l + 1][1:]
        src = pad_terms[l]
        tgt = pad_terms[l + 1]
        if not src_mods or not tgt_mods:
            pad_diffs.append(zero_morphism(src, tgt))
            continue
        _, s_injs, s_prjs = direct_sum(src_mods)
        _, t_injs, _ = direct_sum(tgt_mods)
        d = zero_morphism(src, tgt)
        if 2 <= l + 1 <= n:
            src_slot = 1 if 2 <= l <= n else 0
            d = d.add(s_prjs[src_slot]
                      .then(identity_morphism(x.term(lo + l + 1)))
                      .then(t_injs[0]))
        pad_diffs.append(d)
    padding = ComplexSeq(lo, pad_terms, pad_diffs)
    return padded, ftilde, padding


def pushout_factorization(f: ComplexMorphism, g: ComplexMorphism) \
        -> Tuple[ComplexMorphism, Homotopy]:
    """Universal property: p: Y -> Z with p^0 = 1 and a homotopy
    h: f.then(p) -> g with vanishing first component."""
    x = f.source
    y = f.target
    z = g.target
    lo, hi = x.lo, x.hi
    if y.term(lo).dims != z.term(lo).dims:
        raise PreconditionError("degree-0 targets differ")
    if not f.component(lo).sub(g.component(lo)).is_zero():
        raise PreconditionError("f and g must share the degree-0 component")
    p_comps: Dict[int, Morphism] = {lo: identity_morphism(z.term(lo))}
    h_comps: Dict[int, Morphism] = {}

    def h_at(k):
        got = h_comps.get(k)
        return got if got is not None else zero_morphism(x.term(k), z.term(k - 1))

    for k in range(lo, hi):
        basis_p = hom_basis(y.term(k + 1), z.term(k + 1))
        basis_h = hom_basis(x.term(k + 2), z.term(k + 1))
        # (A) d_Y^k p^{k+1} = p^k d_Z^k
        eq_a = [y.diff(k).then(b) for b in basis_p] + \
               [zero_morphism(y.term(k), z.term(k + 1)) for _ in basis_h]
        tgt_a = p_comps[k].then(z.diff(k))
        # (B) f^{k+1} p^{k+1} - d_X^{k+1} h^{k+2} = g^{k+1} + h^{k+1} d_Z^k
        eq_b = [f.component(k + 1).then(b) for b in basis_p] + \
               [x.diff(k + 1).then(b).scale(-1) for b in basis_h]
        tgt_b = g.component(k + 1).add(h_at(k + 1).then(z.diff(k)))
        coeffs = _pair_solve([eq_a, eq_b], [tgt_a, tgt_b])
        if coeffs is None:
            raise HypothesisError(f"factorization stuck at degree {k}", degree=k)
        p_comps[k + 1] = assemble_from_span(
            basis_p, coeffs[:len(basis_p)], y.term(k + 1), z.term(k + 1))
        h_comps[k + 2] = assemble_from_span(
            basis_h, coeffs[len(basis_p):], x.term(k + 2), z.term(k + 1))
    p = ComplexMorphism(y, z, p_comps)
    h = Homotopy(x, z, {k: v for k, v in h_comps.items() if not v.is_zero()})
    from .complexes import verify_homotopy
    if not verify_homotopy(f.then(p), g, h):
        raise AssertionError("factorization homotopy failed to verify")
    return p, h
