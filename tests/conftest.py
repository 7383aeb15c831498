from itertools import combinations, product

import pytest

from nexakt.addcat import add_category
from nexakt.fp import FieldSpec, Mat
from nexakt.presets import gen_linear_An_J2, nakayama_indecomposables
from nexakt.quivers import PathWord, Quiver, Relation, build_algebra
from nexakt.reps import Module, assemble_from_span, hom_basis, identity_morphism


def linear_a3_j2(p=101):
    """Vertices 0 <- 1 <- 2, all length-2 paths zero."""
    q = Quiver.build(["0", "1", "2"], [("a", "1", "0"), ("b", "2", "1")])
    rel = Relation(((1, PathWord(("b", "a"))),))
    return build_algebra(q, [rel], 2, FieldSpec(p))


def preprojective_a2(p=101):
    """Doubled A_2: arrows a: 1->2 and b: 2->1 with ab = ba = 0."""
    q = Quiver.build(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    rels = [Relation(((1, PathWord(("a", "b"))),)),
            Relation(((1, PathWord(("b", "a"))),))]
    return build_algebra(q, rels, 2, FieldSpec(p))


def cyclic_nakayama_j2(k, p=101):
    """Selfinjective Nakayama algebra: cycle i -> i+1 (mod k), J^2 = 0."""
    q = Quiver.build([str(i) for i in range(k)],
                     [(f"a{i}", str(i), str((i + 1) % k)) for i in range(k)])
    rels = [Relation(((1, PathWord((f"a{i}", f"a{(i + 1) % k}"))),))
            for i in range(k)]
    return build_algebra(q, rels, 2, FieldSpec(p))


def exhaustively_indecomposable(x, budget=1 << 16):
    """Reference oracle: scan End(x) for nontrivial idempotents when
    p^dim End is at most the budget; None when it is larger."""
    if x.total_dim == 0:
        return False
    basis = hom_basis(x, x)
    p = x.algebra.p
    if p ** len(basis) > budget:
        return None
    coeffs = [0] * len(basis)
    while True:
        e = assemble_from_span(basis, coeffs, x, x)
        if e.then(e).equals(e) and not e.is_zero() and not e.equals(identity_morphism(x)):
            return False
        i = 0
        while i < len(coeffs):
            coeffs[i] += 1
            if coeffs[i] < p:
                break
            coeffs[i] = 0
            i += 1
        else:
            return True


def in_random_basis(x, rng):
    """A module isomorphic to x, built by the checked constructor: at each
    vertex v, new basis vector i is scale[v][i] times old basis vector
    perm[v][i]."""
    p = x.algebra.p
    perm = {v: rng.sample(range(d), d) for v, d in x.dims.items()}
    scale = {v: [rng.randrange(1, p) for _ in range(d)] for v, d in x.dims.items()}
    action = {}
    for a in x.algebra.quiver.arrows:
        s, t, m = a.source, a.target, x.action[a.name]
        action[a.name] = Mat.from_rows(
            [[scale[s][j] * m.entries[perm[t][i] * m.cols + perm[s][j]]
              * pow(scale[t][i], p - 2, p) for j in range(m.cols)]
             for i in range(m.rows)], p, cols=m.cols)
    return Module(x.algebra, dict(x.dims), action)


def sweep_generator_maps():
    """(label, M, d) over K A_3/J^2 and K A_4/J^2: M = add of every nonempty
    sublist of the indecomposables, d every Hom-basis map between two
    generators; the label names the algebra, sublist, generators and basis
    position."""
    for k in (3, 4):
        alg, _ = gen_linear_An_J2(1, k - 1)
        indecs = nakayama_indecomposables(alg)
        for r in range(1, len(indecs) + 1):
            for picked in combinations(range(len(indecs)), r):
                m = add_category(alg, indecs.pick(picked))
                for (i, g), (j, h) in product(enumerate(m.generators), repeat=2):
                    for b, d in enumerate(hom_basis(g, h)):
                        yield [k, list(picked), i, j, b], m, d


@pytest.fixture
def a3():
    return linear_a3_j2()


@pytest.fixture
def pi2():
    return preprojective_a2()
