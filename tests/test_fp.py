import itertools
import random

import pytest

from nexakt.fp import (FieldSpec, Mat, _empty, is_prime,
                       kernel_basis, mat_from_vector, quotient_data, rank,
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
    for composite in (4, 9, 2**31 - 2):
        with pytest.raises(ValueError, match=f"modulus is not prime: {composite}"):
            FieldSpec(composite)


def test_is_prime_below_2_and_on_odd_composites():
    # FieldSpec refuses p < 2 before asking is_prime, so only a direct
    # call reaches that branch
    assert [p for p in range(-2, 30) if is_prime(p)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not any(is_prime(q) for q in (1, 9, 25, 49, 91, 2**31 - 3))


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


# -- reference tests -------------------------------------------------------
#
# A plain copy of the row reduction, the solvers and the product as they
# were written on row lists before the shared in-place reduction; every
# public routine must agree with it exactly (the reduced matrix, the
# pivots, the chosen solution and the basis order), because certificates
# hash what these routines return.

REF_PRIMES = (2, 3, 101, 65537, 2147483647)


def ref_rref(rows, ncols, p):
    rows = [[x % p for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def ref_solve(a, ncols_a, b, ncols_b, p):
    aug = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    red, pivots = ref_rref(aug, ncols_a + ncols_b, p)
    if any(c >= ncols_a for c in pivots):
        return None
    x = [[0] * ncols_b for _ in range(ncols_a)]
    for r, c in enumerate(pivots):
        for j in range(ncols_b):
            x[c][j] = red[r][ncols_a + j]
    return x


def ref_kernel(a, ncols, p):
    red, pivots = ref_rref(a, ncols, p)
    vecs = []
    for j in (j for j in range(ncols) if j not in pivots):
        v = [0] * ncols
        v[j] = 1
        for r, c in enumerate(pivots):
            v[c] = (-red[r][j]) % p
        vecs.append(v)
    return [[v[i] for v in vecs] for i in range(ncols)], len(vecs)


def ref_column_space(a, ncols, p):
    _, pivots = ref_rref(a, ncols, p)
    return [[r[j] % p for j in pivots] for r in a], len(pivots)


def ref_quotient(span, ncols, p):
    n = len(span)
    red, pivots = ref_rref([[span[i][j] for i in range(n)] for j in range(ncols)],
                           n, p)
    free = [j for j in range(n) if j not in pivots]
    proj = []
    for j in free:
        row = [0] * n
        row[j] = 1
        for r, c in enumerate(pivots):
            row[c] = (-red[r][j]) % p
        proj.append(row)
    return proj, free


def ref_mul(a, b, k, m, p):
    return [[sum(a[i][t] * b[t][j] for t in range(k)) % p for j in range(m)]
            for i in range(len(a))]


def rows_of(m):
    return [list(m.row(i)) for i in range(m.rows)]


def random_rows(rng, r, c, p):
    """A random r x c matrix, often of low rank and often sparse."""
    kind = rng.randrange(4)
    if kind == 0 and r and c:          # rank at most k < min(r, c)
        k = rng.randrange(min(r, c))
        left = [[rng.randrange(p) for _ in range(k)] for _ in range(r)]
        right = [[rng.randrange(p) for _ in range(c)] for _ in range(k)]
        return ref_mul(left, right, k, c, p)
    if kind == 1:                      # mostly zeros
        return [[rng.randrange(p) if rng.random() < 0.25 else 0
                 for _ in range(c)] for _ in range(r)]
    if kind == 2 and r > 1:            # repeated and scaled rows
        base = [[rng.randrange(p) for _ in range(c)] for _ in range(r // 2 + 1)]
        return [[(rng.randrange(1, p) * x) % p for x in rng.choice(base)]
                for _ in range(r)]
    return [[rng.randrange(p) for _ in range(c)] for _ in range(r)]


def random_shapes(rng, count):
    yield from ((0, 3), (3, 0), (0, 0), (1, 1))
    for _ in range(count):
        yield rng.randrange(0, 7), rng.randrange(0, 7)


@pytest.mark.parametrize("p", REF_PRIMES)
def test_rref_rank_kernel_and_column_space_match_the_reference(p):
    rng = random.Random(1400 + p)
    for r, c in random_shapes(rng, 60):
        rows = random_rows(rng, r, c, p)
        a = Mat.from_rows(rows, p, cols=c)
        red_ref, piv_ref = ref_rref(rows, c, p)
        red, piv = rref(a)
        assert (red.rows, red.cols) == (r, c)
        assert rows_of(red) == red_ref and piv == piv_ref
        assert rank(a) == len(piv_ref)
        ker, nker = ref_kernel(rows, c, p)
        k = kernel_basis(a)
        assert (k.rows, k.cols) == (c, nker) and rows_of(k) == ker
        # the column space is the kernel of the quotient projection
        col, ncol = ref_column_space(rows, c, p)
        s = kernel_basis(quotient_data(a)[0])
        assert (s.rows, s.cols) == (r, ncol)
        assert rank(Mat.hstack([s, Mat.from_rows(col, p, cols=ncol)])) == ncol


@pytest.mark.parametrize("p", REF_PRIMES)
def test_solve_linear_matches_the_reference(p):
    rng = random.Random(2400 + p)
    solvable = unsolvable = 0
    for r, c in random_shapes(rng, 60):
        rows = random_rows(rng, r, c, p)
        nb = rng.randrange(0, 3)
        if rng.random() < 0.5:         # b in the column space of a
            x0 = [[rng.randrange(p) for _ in range(nb)] for _ in range(c)]
            rhs = ref_mul(rows, x0, c, nb, p)
        else:
            rhs = [[rng.randrange(p) for _ in range(nb)] for _ in range(r)]
        a, b = Mat.from_rows(rows, p, cols=c), Mat.from_rows(rhs, p, cols=nb)
        want = ref_solve(rows, c, rhs, nb, p)
        got = solve_linear(a, b)
        if want is None:
            unsolvable += 1
            assert got is None
        else:
            solvable += 1
            assert (got.rows, got.cols) == (c, nb) and rows_of(got) == want
    assert solvable and unsolvable


@pytest.mark.parametrize("p", REF_PRIMES)
def test_quotient_data_matches_the_reference(p):
    rng = random.Random(3400 + p)
    for n, k in random_shapes(rng, 40):
        span = random_rows(rng, n, k, p)
        proj_ref, free_ref = ref_quotient(span, k, p)
        proj, free = quotient_data(Mat.from_rows(span, p, cols=k))
        assert free == free_ref
        assert (proj.rows, proj.cols) == (len(free_ref), n)
        assert rows_of(proj) == proj_ref


@pytest.mark.parametrize("p", REF_PRIMES)
def test_mat_mul_matches_the_reference(p):
    rng = random.Random(4400 + p)
    shapes = [(0, 0, 0), (0, 3, 2), (2, 0, 3), (2, 3, 0), (0, 0, 4), (3, 0, 0)]
    shapes += [tuple(rng.randrange(0, 6) for _ in range(3)) for _ in range(60)]
    for n, k, m in shapes:
        a, b = random_rows(rng, n, k, p), random_rows(rng, k, m, p)
        prod = Mat.from_rows(a, p, cols=k).mul(Mat.from_rows(b, p, cols=m))
        assert (prod.rows, prod.cols, prod.p) == (n, m, p)
        assert rows_of(prod) == ref_mul(a, b, k, m, p)


# -- checks that Mat and the row core make -----------------------------------

def test_mat_checks_its_shape_when_made():
    with pytest.raises(ValueError):
        Mat(-1, 0, (), 5)
    with pytest.raises(ValueError):
        Mat(0, -2, (), 5)
    with pytest.raises(ValueError):
        Mat(2, 2, (1, 2, 3), 5)
    with pytest.raises(ValueError):
        Mat(1, 2, (1, 2, 3), 5)
    assert Mat(0, 4, (), 5).cols == 4


def test_mat_is_immutable():
    a = Mat(1, 2, (1, 2), 5)
    for attr, value in (("rows", 2), ("cols", 1), ("entries", (3, 4)),
                        ("p", 7), ("extra", 0)):
        with pytest.raises(AttributeError):
            setattr(a, attr, value)
    for attr in ("rows", "cols", "entries", "p"):
        with pytest.raises(AttributeError):
            delattr(a, attr)
    assert (a.rows, a.cols, a.entries, a.p) == (1, 2, (1, 2), 5)


def test_mat_equality_and_hash_read_shape_entries_and_field():
    a = Mat(2, 1, (1, 0), 5)
    b = Mat.from_rows([[1], [0]], 5)
    assert a == b and hash(a) == hash(b)
    assert a != Mat(2, 1, (1, 0), 7)
    assert a != Mat(1, 2, (1, 0), 5)
    assert a != Mat(2, 1, (0, 1), 5)
    assert len({a, b, Mat(2, 1, (1, 0), 7)}) == 2


def test_row_core_refuses_rows_of_different_lengths():
    from nexakt.reps import rows_rank, solve_rows
    with pytest.raises(ValueError):
        rows_rank([(1, 2), (1,)], 5)
    with pytest.raises(ValueError):
        solve_rows([[(1, 2), (1,)]], [(1, 2)], 5)
    with pytest.raises(ValueError):
        solve_rows([[(1, 2), (0, 1)]], [(1, 2, 3)], 5)


def test_mat_survives_pickle_and_copy():
    import copy
    import pickle
    a = Mat(2, 1, (1, 0), 5)
    for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert b == a and b.p == 5


# -- empty operands ------------------------------------------------------------
#
# Every shape with a zero side up to 3, against a plain copy of the generic
# code each operation runs on nonempty operands; "key" compares
# (rows, cols, entries, p).

SWEEP_PRIMES = (2, 101, 2**31 - 1)
ZERO_SIDED = [(r, c) for r in range(4) for c in range(4) if r == 0 or c == 0]


def key(m):
    return (m.rows, m.cols, m.entries, m.p)


def ref_key(rows, r, c, p):
    return (r, c, tuple(x % p for row in rows for x in row), p)


def generic_transpose(a):
    return Mat(a.cols, a.rows,
               tuple(a.entries[i * a.cols + j]
                     for j in range(a.cols) for i in range(a.rows)), a.p)


def generic_stack(mats, horizontal):
    if len(mats) == 1:
        return mats[0]
    if horizontal:
        out = [x for i in range(mats[0].rows) for m in mats for x in m.row(i)]
        return Mat(mats[0].rows, sum(m.cols for m in mats), tuple(out), mats[0].p)
    out = [x for m in mats for x in m.entries]
    return Mat(sum(m.rows for m in mats), mats[0].cols, tuple(out), mats[0].p)


def generic_blocks(row_sizes, col_sizes, blocks, p):
    nrows, ncols = sum(row_sizes), sum(col_sizes)
    grid = [[0] * ncols for _ in range(nrows)]
    for (i, j), b in blocks.items():
        for r in range(b.rows):
            for c in range(b.cols):
                grid[sum(row_sizes[:i]) + r][sum(col_sizes[:j]) + c] = b.at(r, c)
    return ref_key(grid, nrows, ncols, p)


def rand_mat(rng, r, c, p):
    return Mat.from_rows(random_rows(rng, r, c, p), p, cols=c)


@pytest.mark.parametrize("p", SWEEP_PRIMES)
def test_empty_products_and_transposes_match_the_generic_code(p):
    rng = random.Random(5400 + p)
    for n in range(4):
        for k in range(4):
            for m in range(4):
                if n * m and k:
                    continue
                a, b = random_rows(rng, n, k, p), random_rows(rng, k, m, p)
                prod = Mat.from_rows(a, p, cols=k).mul(Mat.from_rows(b, p, cols=m))
                # inner dimension 0 gives the n x m zero matrix
                assert key(prod) == ref_key(ref_mul(a, b, k, m, p), n, m, p)
    for r, c in ZERO_SIDED:
        a = rand_mat(rng, r, c, p)
        assert key(a.transpose()) == key(generic_transpose(a))


@pytest.mark.parametrize("p", SWEEP_PRIMES)
def test_empty_elementwise_and_constructors_match_the_generic_code(p):
    rng = random.Random(6400 + p)
    for r, c in ZERO_SIDED:
        a, b = rand_mat(rng, r, c, p), rand_mat(rng, r, c, p)
        assert key(a.add(b)) == (r, c, (), p)
        for s in (0, 1, -1, p + 3):
            assert key(a.scale(s)) == (r, c, (), p)
        assert key(Mat.zero(r, c, p)) == (r, c, (), p)
        assert key(mat_from_vector([], r, c, p)) == (r, c, (), p)
        assert key(mat_from_vector(iter(()), r, c, p)) == (r, c, (), p)
    assert key(Mat.identity(0, p)) == (0, 0, (), p)


@pytest.mark.parametrize("p", SWEEP_PRIMES)
def test_empty_stacks_and_blocks_match_the_generic_code(p):
    rng = random.Random(7400 + p)
    for count in (1, 2, 3):
        for widths in itertools.product(range(4), repeat=count):
            for r in range(4):
                if r and sum(widths):
                    continue
                mats = [rand_mat(rng, r, w, p) for w in widths]
                assert key(Mat.hstack(mats)) == key(generic_stack(mats, True))
                tmats = [m.transpose() for m in mats]
                assert key(Mat.from_blocks([m.rows for m in tmats], [r],
                                           {(i, 0): m for i, m in enumerate(tmats)}, p)) \
                    == key(generic_stack(tmats, False))
    for row_sizes, col_sizes in (([0], [0]), ([0, 0], [1, 3]), ([2, 1], [0]),
                                 ([0, 3], [0, 0]), ([], [2]), ([3], [])):
        blocks = {(i, j): rand_mat(rng, r, c, p)
                  for i, r in enumerate(row_sizes)
                  for j, c in enumerate(col_sizes) if rng.random() < 0.7}
        got = Mat.from_blocks(row_sizes, col_sizes, blocks, p)
        assert key(got) == generic_blocks(row_sizes, col_sizes, blocks, p)


@pytest.mark.parametrize("p", SWEEP_PRIMES)
def test_empty_solvers_match_the_generic_code(p):
    rng = random.Random(8400 + p)
    nones = 0
    for r, c in ZERO_SIDED:
        rows = random_rows(rng, r, c, p)
        a = Mat.from_rows(rows, p, cols=c)
        assert rank(a) == len(ref_rref(rows, c, p)[1]) == 0
        ker, nker = ref_kernel(rows, c, p)
        assert key(kernel_basis(a)) == ref_key(ker, c, nker, p)
        proj, free = quotient_data(a)
        proj_ref, free_ref = ref_quotient(rows, c, p)
        assert free == free_ref
        assert key(proj) == ref_key(proj_ref, len(free_ref), r, p)
    # every a*x = b with no equations, no unknowns or no right-hand
    # columns; b is zero or random (so often nonzero)
    for r in range(4):
        for n in range(4):
            for m in range(4):
                if r and n and m:
                    continue
                for zero_b in (True, False):
                    rows = random_rows(rng, r, n, p)
                    rhs = [[0 if zero_b else rng.randrange(1, p)
                            for _ in range(m)] for _ in range(r)]
                    want = ref_solve(rows, n, rhs, m, p)
                    got = solve_linear(Mat.from_rows(rows, p, cols=n),
                                       Mat.from_rows(rhs, p, cols=m))
                    if want is None:
                        nones += 1
                        assert got is None
                    else:
                        assert key(got) == ref_key(want, n, m, p)
    # no unknowns with a nonzero b: r, m in 1..3
    assert nones == 9


@pytest.mark.parametrize("p", SWEEP_PRIMES)
def test_solve_linear_with_no_unknowns_is_none_exactly_for_nonzero_b(p):
    a = Mat.zero(2, 0, p)
    assert key(solve_linear(a, Mat.zero(2, 3, p))) == (0, 3, (), p)
    assert solve_linear(a, Mat.from_rows([[0], [1]], p)) is None


# -- error paths on empty operands --------------------------------------------

def test_empty_operands_keep_their_errors():
    p = 101
    with pytest.raises(ValueError, match=r"shape mismatch in mul: 0x2 \* 3x0"):
        Mat.zero(0, 2, p).mul(Mat.zero(3, 0, p))
    with pytest.raises(ValueError, match="field mismatch: F_101 vs F_2"):
        Mat.zero(0, 2, p).mul(Mat.zero(2, 0, 2))
    with pytest.raises(ValueError, match="shape mismatch in add"):
        Mat.zero(0, 2, p).add(Mat.zero(0, 3, p))
    with pytest.raises(ValueError, match="field mismatch"):
        Mat.zero(0, 2, p).add(Mat.zero(0, 2, 2))
    with pytest.raises(ValueError, match="field mismatch in solve_linear"):
        solve_linear(Mat.zero(2, 0, p), Mat.zero(2, 1, 2))
    with pytest.raises(ValueError, match="a has 2 rows, b has 0"):
        solve_linear(Mat.zero(2, 0, p), Mat.zero(0, 0, p))
    with pytest.raises(ValueError, match="negative matrix dimensions"):
        Mat.zero(0, -1, p)
    with pytest.raises(ValueError, match="negative matrix dimensions"):
        Mat.identity(-1, p)


def test_from_blocks_refuses_a_misfit_block_when_the_total_is_empty():
    p = 101
    for row_sizes, col_sizes, blocks in (
            ([0], [0, 0], {(0, 1): Mat.zero(0, 1, p)}),
            ([0, 0], [3], {(1, 0): Mat.zero(1, 3, p)}),
            ([2], [0], {(0, 0): Mat.zero(2, 0, 2)}),
            ([0], [2], {(0, 1): Mat.zero(0, 2, p)})):
        with pytest.raises(ValueError, match="does not fit its slot"):
            Mat.from_blocks(row_sizes, col_sizes, blocks, p)


def test_stacks_refuse_mixed_primes_on_empty_operands():
    with pytest.raises(ValueError, match="hstack shape/field mismatch"):
        Mat.hstack([Mat.zero(0, 1, 2), Mat.zero(0, 2, 3)])
    with pytest.raises(ValueError, match="hstack of nothing"):
        Mat.hstack([])


def test_mat_from_vector_checks_length_and_takes_a_generator():
    p = 101
    for vec in ([1], (x for x in [1]), (0, 0)):
        with pytest.raises(ValueError, match="vector length does not match shape"):
            mat_from_vector(vec, 0, 2, p)
    assert key(mat_from_vector((x for x in []), 3, 0, p)) == (3, 0, (), p)
    assert key(mat_from_vector((x for x in [1, 102]), 1, 2, p)) == (1, 2, (1, 1), p)


def test_empty_results_never_cross_primes():
    for r, c in ZERO_SIDED:
        got = {q: (Mat.zero(r, c, q), Mat.zero(c, r, q).transpose(),
                   kernel_basis(Mat.zero(c, r, q)) if not r else
                   quotient_data(Mat.zero(r, c, q))[0])
               for q in SWEEP_PRIMES}
        for q, mats in got.items():
            assert all(m.p == q for m in mats)
        assert got[2][0] != got[101][0]


def test_empty_results_are_one_shared_mat_per_shape_and_field():
    for q in SWEEP_PRIMES:
        for r, c in ZERO_SIDED:
            e = _empty(r, c, q)
            a, b = Mat(r, c, (), q), Mat(r, c, (), q)
            shared = [Mat.zero(r, c, q), Mat.zero(c, r, q).transpose(),
                      Mat.from_rows([], q, cols=c) if not r else e,
                      a.add(b), a.scale(3), mat_from_vector([], r, c, q),
                      Mat.hstack([a, Mat(r, 0, (), q)]),
                      Mat.from_blocks([r], [c], {(0, 0): a}, q),
                      Mat.zero(r, 2, q).mul(Mat.zero(2, c, q))]
            assert all(m is e for m in shared)
            assert _empty(r, c, q) is not _empty(r, c, 2 if q != 2 else 101)
        zero_eqs, zero_unknowns = Mat.zero(0, 3, q), Mat.zero(3, 0, q)
        assert Mat.identity(0, q) is _empty(0, 0, q)
        assert kernel_basis(zero_unknowns) is _empty(0, 0, q)
        assert quotient_data(Mat.zero(0, 2, q))[0] is _empty(0, 0, q)
        assert solve_linear(zero_unknowns, Mat.zero(3, 2, q)) is _empty(0, 2, q)
        assert solve_linear(zero_eqs, Mat.zero(0, 0, q)) is _empty(3, 0, q)
