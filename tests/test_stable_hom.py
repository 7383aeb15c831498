"""Stable Hom against the all-injectives construction it replaced.

The reference sums the composites through every indecomposable
injective I_v of the algebra and solves for their coordinates in the Hom
basis; frob.stable_hom spans the same ideal by the composites through
the injective envelope alone.  stable_hom reads nothing from its
context, so these checks pass None and also cover a non-selfinjective
algebra."""

import random
from itertools import combinations_with_replacement

import pytest

from nexakt.fp import Mat, quotient_data
from nexakt.frob import stable_hom, stable_hom_basis
from nexakt.presets import (gen_linear_An_J2, nakayama_algebra,
                            nakayama_indecomposables)
from nexakt.reps import (Module, all_injectives, assemble_from_span,
                         direct_sum, hom_basis, rows_rank, solve_rows)

from conftest import preprojective_a2


def reference_stable_hom(m1, m2):
    """(stable dimension, stably-zero test) from every I_v of the algebra."""
    p = m1.algebra.p
    basis = hom_basis(m1, m2)
    rows = [b.vectorize() for b in basis]
    ideal_cols = [solve_rows([rows], [f.then(g).vectorize()], p)
                  for j in all_injectives(m1.algebra)
                  for f in hom_basis(m1, j) for g in hom_basis(j, m2)]
    if basis:
        mat = Mat.from_rows([[col[i] for col in ideal_cols]
                             for i in range(len(basis))], p, cols=len(ideal_cols))
    else:
        mat = Mat.zero(0, 0, p)
    proj, free = quotient_data(mat)

    def stably_zero(f):
        cs = solve_rows([rows], [f.vectorize()], p)
        col = proj.mul(Mat.from_rows([[c] for c in cs], p, cols=1))
        return all(col.at(i, 0) == 0 for i in range(col.rows))

    return len(free), stably_zero


ALGEBRAS = {
    "6-cycle/J^2": lambda p: nakayama_algebra(6, 2, cyclic=True, p=p),
    "Pi_2": preprojective_a2,
    "A_5/J^2": lambda p: gen_linear_An_J2(2, 2, p)[0],
}


def with_sums_of_two(alg):
    indecs = nakayama_indecomposables(alg)
    return [*indecs, *(direct_sum([x, y]).module
                       for x, y in combinations_with_replacement(indecs, 2))]


@pytest.mark.parametrize("p", [2, 5, 101])
@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_envelope_ideal_matches_all_injectives(name, p):
    mods = with_sums_of_two(ALGEBRAS[name](p))
    rng = random.Random(p)
    for m1 in mods:
        for m2 in mods:
            dim, stably_zero = reference_stable_hom(m1, m2)
            sh = stable_hom(None, m1, m2)
            assert sh.dim == dim
            # each Hom basis element, and one random element of Hom and
            # of the ideal
            probes = list(sh.hom)
            for span in (sh.hom, sh.ideal):
                if span:
                    probes.append(assemble_from_span(
                        span, [rng.randrange(p) for _ in span], m1, m2))
            for f in probes:
                assert (sh.rank([f]) == 0) == stably_zero(f)


def test_stable_hom_basis_spans_hom(pi2):
    s1, s2 = nakayama_indecomposables(pi2)[:2]
    x = direct_sum([s1, s2]).module
    dim, ideal, reps = stable_hom_basis(None, x, x)
    sh = stable_hom(None, x, x)
    assert dim == len(reps) == sh.dim
    def span_rank(maps):
        return rows_rank([f.vectorize() for f in maps], pi2.p)
    assert span_rank(ideal) == len(ideal) == sh.ideal_rank
    assert span_rank(ideal + reps) == len(ideal) + len(reps) == span_rank(sh.hom)


def test_stable_rank_rejects_maps_between_other_modules():
    # a map from S_1 into a module with P_0's dimension vector but other
    # content is not an element of the stable Hom space of S_1 and P_0
    alg = nakayama_algebra(3, 2, cyclic=True, p=101)
    indecs = nakayama_indecomposables(alg)
    s1 = next(m for m in indecs if m.dim_vector() == (0, 1, 0))
    p0 = next(m for m in indecs if m.dim_vector() == (1, 1, 0))
    twin = Module(alg, dict(p0.dims), {"a0": p0.action["a0"].scale(2)})
    assert twin.dim_vector() == p0.dim_vector() and not twin.same_as(p0)
    into_twin = hom_basis(s1, twin)
    assert into_twin
    sh = stable_hom(None, s1, p0)
    assert sh.rank(sh.hom) == sh.dim
    with pytest.raises(ValueError):
        sh.rank(into_twin)
