import random

import pytest

from nexakt.fp import (FieldSpec, Mat, kernel_basis, quotient_data, rank,
                       rref, solve_linear)


def mat(rows, p=101):
    return Mat.from_rows(rows, p)


def test_fieldspec_rejects_composites():
    FieldSpec(2)
    FieldSpec(101)
    with pytest.raises(ValueError):
        FieldSpec(4)
    with pytest.raises(ValueError):
        FieldSpec(1)
    with pytest.raises(ValueError):
        FieldSpec(2**31 + 11)


def test_rref_identity_is_fixed():
    a = Mat.identity(2, 5)
    red, piv = rref(a)
    assert red.entries == a.entries
    assert piv == [0, 1]


def test_rref_zero():
    a = Mat.zero(3, 3, 7)
    red, piv = rref(a)
    assert red.is_zero()
    assert piv == []


def test_rref_hand_example_mod5():
    a = mat([[2, 4], [1, 2]], p=5)
    red, piv = rref(a)
    # hand row-reduction: R1 <- R1/2 = [1, 2]; R2 <- R2 - R1 = [0, 0]
    assert red.to_lists() == [[1, 2], [0, 0]]
    assert piv == [0]


def test_solve_identity():
    b = mat([[3], [4], [5]])
    x = solve_linear(Mat.identity(3, 101), b)
    assert x.to_lists() == b.to_lists()


def test_solve_inconsistent():
    a = mat([[1], [0]])
    b = mat([[0], [1]])
    assert solve_linear(a, b) is None


def test_solve_f2_exhaustive():
    a = mat([[1, 1]], p=2)
    b = mat([[0]], p=2)
    x = solve_linear(a, b)
    assert x is not None
    assert a.mul(x).is_zero()
    # exhaustive check over F_2^2: returned x solves, and so do all solutions
    sols = [(x0, x1) for x0 in (0, 1) for x1 in (0, 1) if (x0 + x1) % 2 == 0]
    assert (x.at(0, 0), x.at(1, 0)) in sols


def test_kernel_identity_empty():
    k = kernel_basis(Mat.identity(4, 13))
    assert k.cols == 0


def test_kernel_zero_map_full():
    k = kernel_basis(Mat.zero(1, 3, 7))
    assert k.cols == 3
    assert rank(k) == 3


def test_kernel_f2_example():
    k = kernel_basis(mat([[1, 1]], p=2))
    assert k.cols == 1
    assert k.col(0) == (1, 1)


def test_zero_by_n_matrices_are_legal():
    a = Mat.zero(0, 3, 5)
    red, piv = rref(a)
    assert piv == []
    assert kernel_basis(a).cols == 3
    b = Mat.zero(3, 0, 5)
    assert kernel_basis(b).cols == 0
    x = solve_linear(b, Mat.zero(3, 2, 5))
    assert x is not None and x.rows == 0 and x.cols == 2
    assert solve_linear(b, mat([[1], [0], [0]], p=5)) is None


def test_rank_nullity_on_random_matrices():
    rng = random.Random(20260808)
    for p in (2, 5, 101):
        for _ in range(25):
            r = rng.randrange(0, 6)
            c = rng.randrange(0, 6)
            a = Mat.from_rows([[rng.randrange(p) for _ in range(c)]
                               for _ in range(r)], p, cols=c)
            assert rank(a) + kernel_basis(a).cols == c


def test_rref_idempotent_on_random_matrices():
    rng = random.Random(7)
    for _ in range(25):
        a = Mat.from_rows([[rng.randrange(101) for _ in range(4)]
                           for _ in range(3)], 101, cols=4)
        red, _ = rref(a)
        red2, _ = rref(red)
        assert red2.entries == red.entries


def test_solve_is_exact_on_random_solvable_systems():
    rng = random.Random(99)
    for p in (2, 5, 101):
        for _ in range(20):
            a = Mat.from_rows([[rng.randrange(p) for _ in range(3)]
                               for _ in range(4)], p, cols=3)
            x0 = Mat.from_rows([[rng.randrange(p)] for _ in range(3)], p, cols=1)
            b = a.mul(x0)
            x = solve_linear(a, b)
            assert x is not None
            assert a.mul(x).entries == b.entries


def test_quotient_data_projection_kills_span():
    span = mat([[1, 0], [1, 0], [0, 1]], p=5)
    proj, free = quotient_data(span)
    assert proj.mul(span).is_zero()
    assert proj.rows == 1 and len(free) == 1


def test_shape_errors():
    with pytest.raises(ValueError):
        solve_linear(mat([[1, 2]]), mat([[1], [2]]))
    with pytest.raises(ValueError):
        mat([[1]]).mul(mat([[1, 2], [3, 4]]))


def test_from_blocks_rejects_a_block_of_the_wrong_shape():
    one = Mat.identity(1, 101)
    grid = Mat.from_blocks([1, 2], [2, 1], {(1, 1): Mat.from_rows([[3], [4]], 101)}, 101)
    assert grid.to_lists() == [[0, 0, 0], [0, 0, 3], [0, 0, 4]]
    with pytest.raises(ValueError):
        Mat.from_blocks([1, 2], [2, 1], {(0, 0): one}, 101)
    with pytest.raises(ValueError):
        Mat.from_blocks([1], [1], {(0, 1): one}, 101)
