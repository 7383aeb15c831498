import random

import pytest

from nexakt import polys
from nexakt.fp import Mat, rank

PRIMES = [2, 3, 101, 65537]


def rand_poly(rng, p, deg):
    """A random polynomial of exactly the given degree."""
    return [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]


def evaluate(f, c, p):
    acc = 0
    for x in reversed(f):
        acc = (acc * c + x) % p
    return acc


def irreducible(rng, p, deg):
    """A random monic irreducible of degree 1, 2 or 3: for these degrees,
    irreducible means having no root, which is checked over all of F_p."""
    while True:
        f = [rng.randrange(p) for _ in range(deg)] + [1]
        if deg == 1 or all(evaluate(f, c, p) for c in range(p)):
            return f


def power(f, k, p):
    out = [1]
    for _ in range(k):
        out = polys.mul(out, f, p)
    return out


@pytest.mark.parametrize("p", PRIMES)
def test_divmod_reconstructs(p):
    rng = random.Random(p)
    for _ in range(20):
        a = rand_poly(rng, p, rng.randrange(0, 9))
        b = rand_poly(rng, p, rng.randrange(0, 5))
        q, r = polys.divmod(a, b, p)
        assert polys.add(polys.mul(q, b, p), r, p) == a
        assert polys.degree(r) < polys.degree(b)


@pytest.mark.parametrize("p", PRIMES)
def test_gcd_divides_both_and_lcm_is_a_common_multiple(p):
    rng = random.Random(p + 1)
    for _ in range(20):
        common = rand_poly(rng, p, rng.randrange(0, 3))
        a = polys.mul(common, rand_poly(rng, p, rng.randrange(0, 4)), p)
        b = polys.mul(common, rand_poly(rng, p, rng.randrange(0, 4)), p)
        g = polys.gcd(a, b, p)
        assert g[-1] == 1
        assert polys.rem(a, g, p) == [] and polys.rem(b, g, p) == []
        assert polys.rem(g, polys.monic(common, p), p) == []
        m = polys.lcm(a, b, p)
        assert polys.rem(m, a, p) == [] and polys.rem(m, b, p) == []
        assert polys.degree(m) == polys.degree(a) + polys.degree(b) - polys.degree(g)


@pytest.mark.parametrize("p", PRIMES)
def test_powmod_agrees_with_repeated_multiplication(p):
    rng = random.Random(p + 2)
    for e in [0, 1, 2, 7, 16, 33]:
        base = rand_poly(rng, p, rng.randrange(0, 5))
        mod = rand_poly(rng, p, rng.randrange(1, 5))
        slow = [1]
        for _ in range(e):
            slow = polys.rem(polys.mul(slow, base, p), mod, p)
        assert polys.powmod(base, e, mod, p) == polys.rem(slow, mod, p)


def block_diagonal(blocks, p):
    sizes = [b.rows for b in blocks]
    return Mat.from_blocks(sizes, sizes, dict(((i, i), b) for i, b in enumerate(blocks)), p)


def companion(f, p):
    """The companion matrix of monic f: its minimal polynomial is f."""
    n = polys.degree(f)
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = -f[i] % p
    return Mat.from_rows(rows, p, cols=n)


@pytest.mark.parametrize("p", PRIMES)
def test_minpoly_annihilates_and_is_minimal(p):
    rng = random.Random(p + 3)
    cases = [Mat.zero(0, 0, p), Mat.zero(3, 3, p), Mat.identity(4, p).scale(5)]
    for _ in range(6):
        n = rng.randrange(1, 6)
        cases.append(Mat.from_rows([[rng.randrange(p) for _ in range(n)]
                                    for _ in range(n)], p, cols=n))
    f = irreducible(rng, p, 2)
    cases.append(block_diagonal([companion(f, p), companion(f, p),
                                 companion(power(f, 2, p), p)], p))
    for a in cases:
        mu = polys.minpoly(a)
        assert mu[-1] == 1
        assert polys.at_matrix(mu, a).is_zero()
        # no nonzero polynomial of lower degree annihilates a:
        # I, a, ..., a^(deg mu - 1) are linearly independent
        powers, x = [], Mat.identity(a.rows, p)
        for _ in range(polys.degree(mu)):
            powers.append(x.entries)
            x = x.mul(a)
        assert rank(Mat.from_rows(powers, p, cols=a.rows ** 2)) == len(powers)
    assert polys.minpoly(cases[-1]) == power(f, 2, p)


@pytest.mark.parametrize("p", PRIMES)
def test_coprime_factor_of_a_product_of_irreducibles(p):
    rng = random.Random(p + 4)
    for _ in range(8):
        degs = [rng.randrange(1, 4) for _ in range(rng.randrange(2, 4))]
        factors = [irreducible(rng, p, d) for d in degs]
        f = [1]
        for q in factors:
            f = polys.mul(f, power(q, rng.randrange(1, 3), p), p)
        g = polys.coprime_factor(f, p, rng)
        distinct = {tuple(q) for q in factors}
        if len(distinct) == 1:
            assert g is None
            continue
        assert g is not None and g[-1] == 1
        assert 0 < polys.degree(g) < polys.degree(f)
        cofactor, r = polys.divmod(f, g, p)
        assert r == []
        assert polys.gcd(g, cofactor, p) == [1]


@pytest.mark.parametrize("p", PRIMES)
def test_coprime_factor_of_two_equal_degree_irreducibles(p):
    """Distinct-degree factorization cannot separate these; equal-degree
    splitting (the trace map at p = 2) must."""
    rng = random.Random(p + 5)
    for d in (1, 2, 3):
        if (p, d) == (2, 2):
            continue          # x^2 + x + 1 is the only one
        q1 = irreducible(rng, p, d)
        q2 = irreducible(rng, p, d)
        while q2 == q1:
            q2 = irreducible(rng, p, d)
        f = polys.mul(q1, q2, p)
        g = polys.coprime_factor(f, p, rng)
        assert g in (q1, q2)


@pytest.mark.parametrize("p", PRIMES)
def test_prime_powers_have_no_coprime_factor(p):
    rng = random.Random(p + 6)
    assert polys.coprime_factor([1], p, rng) is None
    for d in (1, 2, 3):
        q = irreducible(rng, p, d)
        for k in (1, 2, 3):
            assert polys.coprime_factor(power(q, k, p), p, rng) is None
    # multiplicity p: the derivative vanishes and the p-th root is taken
    if p <= 3:
        for d in (1, 2):
            q = irreducible(rng, p, d)
            assert polys.coprime_factor(power(q, p, p), p, rng) is None
            other = irreducible(rng, p, 3)
            f = polys.mul(power(q, p, p), other, p)
            assert polys.coprime_factor(f, p, rng) in (power(q, p, p), other)
