"""Polynomial arithmetic over a prime field F_p.

A polynomial is a list of coefficients in [0, p), listed from the lowest
degree up, with no trailing zeros; the zero polynomial is [].  The
module holds what module decomposition needs: division with remainder,
gcd, lcm and modular powers; the minimal polynomial of a square matrix;
and a coprime factor of a polynomial, found by distinct-degree
factorization and Cantor–Zassenhaus equal-degree splitting (Math. Comp.
1981), with the trace map in place of the half-order power at p = 2.
"""

from __future__ import annotations

import random
from typing import List, Optional

from .fp import Mat

Poly = List[int]


def _trim(f: Poly) -> Poly:
    while f and f[-1] == 0:
        f.pop()
    return f


def degree(f: Poly) -> int:
    """Degree of f; -1 for the zero polynomial."""
    return len(f) - 1


def monic(f: Poly, p: int) -> Poly:
    inv = pow(f[-1], p - 2, p)
    return [c * inv % p for c in f]


def add(a: Poly, b: Poly, p: int) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    return _trim([(x + (b[i] if i < len(b) else 0)) % p for i, x in enumerate(a)])


def sub(a: Poly, b: Poly, p: int) -> Poly:
    return add(a, [-c % p for c in b], p)


def mul(a: Poly, b: Poly, p: int) -> Poly:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return [c % p for c in out]


def divmod(a: Poly, b: Poly, p: int) -> "tuple[Poly, Poly]":
    """(q, r) with a = q*b + r and deg r < deg b."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = degree(b)
    inv = pow(b[-1], p - 2, p)
    r = list(a)
    q = [0] * max(len(a) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + db] * inv % p
        q[k] = c
        if c:
            for j in range(db + 1):
                r[k + j] = (r[k + j] - c * b[j]) % p
    return _trim(q), _trim(r[:db])


def quo(a: Poly, b: Poly, p: int) -> Poly:
    return divmod(a, b, p)[0]


def rem(a: Poly, b: Poly, p: int) -> Poly:
    return divmod(a, b, p)[1]


def gcd(a: Poly, b: Poly, p: int) -> Poly:
    """Monic greatest common divisor; [] only when a = b = 0."""
    while b:
        a, b = b, rem(a, b, p)
    return monic(a, p) if a else []


def lcm(a: Poly, b: Poly, p: int) -> Poly:
    """Monic least common multiple of nonzero a and b."""
    return monic(quo(mul(a, b, p), gcd(a, b, p), p), p)


def powmod(base: Poly, e: int, mod: Poly, p: int) -> Poly:
    """base^e modulo mod, by repeated squaring."""
    out = rem([1], mod, p)
    base = rem(base, mod, p)
    while e:
        if e & 1:
            out = rem(mul(out, base, p), mod, p)
        e >>= 1
        if e:
            base = rem(mul(base, base, p), mod, p)
    return out


def derivative(f: Poly, p: int) -> Poly:
    return _trim([i * c % p for i, c in enumerate(f)][1:])


def at_matrix(f: Poly, a: Mat) -> Mat:
    """f(a) for a square matrix a, by Horner's rule."""
    n, p = a.rows, a.p
    eye = Mat.identity(n, p)
    out = Mat.zero(n, n, p)
    for c in reversed(f):
        out = out.mul(a).add(eye.scale(c))
    return out


# -- the minimal polynomial of a matrix ------------------------------------


def _reduce(v: list, echelon: list, p: int) -> list:
    """v minus its part in the span of echelon: (pivot, row) pairs in
    insertion order, each row 1 at its pivot and 0 at earlier pivots."""
    for piv, row in echelon:
        c = v[piv]
        if c:
            v = [(x - c * y) % p for x, y in zip(v, row)]
    return v


def minpoly(a: Mat) -> Poly:
    """Monic minimal polynomial of a square matrix: the lcm of the local
    minimal polynomials of the unit vectors, found from Krylov sequences.
    A unit vector inside the invariant subspace already spanned adds no
    factor and is skipped."""
    if a.rows != a.cols:
        raise ValueError("minimal polynomial of a non-square matrix")
    n, p, ent = a.rows, a.p, a.entries
    mu: Poly = [1]
    spanned: list = []
    for i in range(n):
        unit = [0] * n
        unit[i] = 1
        if not any(_reduce(unit, spanned, p)):
            continue
        # w = poly(a) unit throughout; each stored w is reduced and scaled
        krylov: list = []
        w, poly = unit, [1]
        while True:
            for piv, row, tag in krylov:
                c = w[piv]
                if c:
                    w = [(x - c * y) % p for x, y in zip(w, row)]
                    poly = sub(poly, [c * t % p for t in tag], p)
            piv = next((j for j, x in enumerate(w) if x), None)
            if piv is None:
                break
            inv = pow(w[piv], p - 2, p)
            w = [x * inv % p for x in w]
            poly = [t * inv % p for t in poly]
            krylov.append((piv, w, poly))
            w = [sum(ent[r * n + c] * w[c] for c in range(n)) % p for r in range(n)]
            poly = [0] + poly
        mu = lcm(mu, monic(poly, p), p)
        for _, row, _ in krylov:
            rest = _reduce(row, spanned, p)
            piv = next((j for j, x in enumerate(rest) if x), None)
            if piv is not None:
                inv = pow(rest[piv], p - 2, p)
                spanned.append((piv, [x * inv % p for x in rest]))
    return mu


# -- coprime factors ----------------------------------------------------------


def _strip(t: Poly, s: Poly, p: int) -> Poly:
    """t with every irreducible factor of s removed."""
    while degree(c := gcd(t, s, p)) > 0:
        t = quo(t, c, p)
    return t


def _radical(f: Poly, p: int) -> Poly:
    """The product of the distinct monic irreducible factors of monic f."""
    if degree(f) <= 0:
        return [1]
    df = derivative(f, p)
    if not df:
        return _radical(f[::p], p)       # f = h(x^p) = h(x)^p over F_p
    g = gcd(f, df, p)
    s = quo(f, g, p)                     # the factors of multiplicity prime to p
    return mul(s, _radical(_strip(g, s, p), p), p)


def _equal_degree_split(r: Poly, k: int, p: int, rng: random.Random) -> Poly:
    """A proper factor of squarefree r, all of whose irreducible factors
    have degree k (there are at least two)."""
    d = degree(r)
    while True:
        a = _trim([rng.randrange(p) for _ in range(d)])
        if degree(a) <= 0:
            continue
        if p == 2:
            # trace map a + a^2 + ... + a^(2^(k-1)): uniform in F_2 per factor
            b, t = a, a
            for _ in range(k - 1):
                t = rem(mul(t, t, p), r, p)
                b = add(b, t, p)
        else:
            b = sub(powmod(a, (p ** k - 1) // 2, r, p), [1], p)
        h = gcd(r, b, p)
        if 0 < degree(h) < d:
            return h


def _split_squarefree(r: Poly, p: int, rng: random.Random) -> Optional[Poly]:
    """A proper factor of squarefree monic r, or None when r is irreducible.

    Distinct-degree step k takes gcd(r, x^(p^k) - x), the product of the
    factors of degree dividing k.  Earlier steps found no factor of lower
    degree, so when it is all of r, every factor has degree k, and
    equal-degree splitting separates them.  With no factor of degree at
    most deg r / 2, r is irreducible."""
    d = degree(r)
    x = [0, 1]
    xq = x
    for k in range(1, d // 2 + 1):
        xq = powmod(xq, p, r, p)
        h = gcd(r, sub(xq, x, p), p)
        if degree(h) == d:
            return _equal_degree_split(r, k, p, rng)
        if degree(h) > 0:
            return h
    return None


def coprime_factor(f: Poly, p: int, rng: random.Random) -> Optional[Poly]:
    """A monic g dividing monic f, with 0 < deg g < deg f and
    gcd(g, f/g) = 1; None exactly when f is a power of one irreducible
    (or constant).  Randomness (equal-degree splitting) comes from rng."""
    s = _split_squarefree(_radical(f, p), p, rng)
    if s is None:
        return None
    return quo(f, _strip(f, s, p), p)
