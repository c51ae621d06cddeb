"""Univariate polynomials over k, as coefficient lists lowest degree first.

All the factoring the engine does is univariate: the branches are the
linear factors of one binary form, and ``decompose`` splits minimal
polynomials of degree at most dim A, the top algebra of a module.  [] is
the zero polynomial.  Coefficients are combined with Python's operators
and put in canonical form by trim, which every result passes through.
Square-free parts come from gcd(f, f') in every characteristic; over
F_ell the factors whose multiplicity ell divides are left over as a
polynomial in T^ell, an ell-th power.  Over F_ell the roots of f are
those of gcd(f, T^ell - T), and factors come from distinct-degree then
Cantor-Zassenhaus splitting.  Over Q the rational roots are roots
modulo a good prime, Hensel-lifted and read back by rational
reconstruction, each checked exactly; a factor without them is
irreducible at degree 2 or 3, and at degree >= 4 only when it is
irreducible modulo a good prime, else InconclusiveSplitError.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice
from math import gcd as igcd, lcm

from .errors import InconclusiveSplitError
from .fields import QQ, PrimeField, is_prime

# Good primes tried before a factor of degree >= 4 over Q is given up on.
_CERTIFICATE_PRIMES = 20


def trim(f, K):
    """f with canonical coefficients and no leading zero."""
    f = [K(c) for c in f]
    while f and not f[-1]:
        f.pop()
    return f


def monic(f, K):
    inv = K.inv(f[-1])
    return [K(c * inv) for c in f]


def sub(f, g, K):
    out = list(f) + [0] * (len(g) - len(f))
    for i, b in enumerate(g):
        out[i] -= b
    return trim(out, K)


def mul(f, g, K):
    out = [0] * max(len(f) + len(g) - 1, 0)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return trim(out, K)


def divmod_(f, g, K):
    """(q, r) with f = q g + r and deg r < deg g, for g nonzero."""
    r, g = trim(f, K), trim(g, K)
    q = [K.zero] * max(len(r) - len(g) + 1, 0)
    inv = K.inv(g[-1])
    while len(r) >= len(g):
        s, c = len(r) - len(g), K(r[-1] * inv)
        q[s] = c
        for t, b in enumerate(g):
            r[s + t] = K(r[s + t] - c * b)
        while r and not r[-1]:
            r.pop()
    return q, r


def gcdex(f, g, K):
    """(t, h) with h the monic gcd of f and g, not both zero, and
    t g = h modulo f."""
    r0, r1, t0, t1 = trim(f, K), trim(g, K), [], [K.one]
    while r1:
        q, r = divmod_(r0, r1, K)
        r0, r1, t0, t1 = r1, r, t1, sub(t0, mul(q, t1, K), K)
    inv = K.inv(r0[-1])
    return [K(inv * c) for c in t0], monic(r0, K)


def gcd(f, g, K):
    return gcdex(f, g, K)[1]


def powmod(f, e, m, K):
    """f^e modulo m."""
    result, base = divmod_([K.one], m, K)[1], divmod_(f, m, K)[1]
    while e:
        if e & 1:
            result = divmod_(mul(result, base, K), m, K)[1]
        e >>= 1
        base = divmod_(mul(base, base, K), m, K)[1]
    return result


def derivative(f, K):
    return trim([i * f[i] for i in range(1, len(f))], K)


def squarefree_parts(f, K):
    """[(P_i, i)] with f = lc(f) prod P_i^i, P_i monic, square-free,
    pairwise coprime and nonconstant, by increasing i.

    c = gcd(f, f') holds each P_i to the power i - 1, or i when char k
    divides i, and w = f / c is the product of the other P_i; each pass
    w <- gcd(w, c), c <- c / w drops the P_i of the next i from w.  What
    is left of c is the product of the P_i^i with ell = char k dividing
    i, a polynomial in T^ell: over F_ell it is the ell-th power of the
    polynomial of its every ell-th coefficient, whose parts count ell
    times.
    """
    f = monic(trim(f, K), K)
    c = gcd(f, derivative(f, K), K)
    w = divmod_(f, c, K)[0]
    out, i = [], 1
    while len(w) > 1:
        y = gcd(w, c, K)
        z = divmod_(w, y, K)[0]
        if len(z) > 1:
            out.append((z, i))
        w, c, i = y, divmod_(c, y, K)[0], i + 1
    if len(c) > 1:
        ell = K.char
        out += [(P, m * ell) for P, m in squarefree_parts(c[::ell], K)]
    return sorted(out, key=lambda part: part[1])


def _equal_degree(g, d, K, rng):
    """Cantor-Zassenhaus: the factors of g, a monic product of distinct
    irreducibles of degree d over F_ell."""
    while len(g) - 1 > d:
        a = trim([K(rng.randrange(K.char)) for _ in range(len(g) - 1)], K)
        h = gcd(g, sub(powmod(a, (K.char ** d - 1) // 2, g, K), [K.one], K), K)
        if 1 < len(h) < len(g):
            return (_equal_degree(h, d, K, rng)
                    + _equal_degree(divmod_(g, h, K)[0], d, K, rng))
    return [g]


def _distinct_degree(f, K):
    """[(g_d, d)]: g_d the product of the degree-d irreducible factors of
    f, monic and square-free over F_ell."""
    x = [K.zero, K.one]
    out, h, d = [], x, 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = powmod(h, K.char, f, K)
        g = gcd(f, sub(h, x, K), K)
        if len(g) > 1:
            out.append((g, d))
            f = divmod_(f, g, K)[0]
            h = divmod_(h, f, K)[1]
    return out + ([(f, len(f) - 1)] if len(f) > 1 else [])


def _good_primes(f):
    """(F_ell, f mod ell, ints) for the odd primes ell that keep the
    degree of f over Q and its square-freeness, ints being f cleared to a
    primitive integer polynomial."""
    den = lcm(*(c.denominator for c in f))
    ints = [int(c * den) for c in f]
    content = igcd(*ints)
    ints = [c // content for c in ints]
    ell = 2
    while True:
        ell += 1
        if ints[-1] % ell and is_prime(ell):
            Fl = PrimeField(ell)
            image = [Fl(c) for c in ints]
            if len(gcd(image, derivative(image, Fl), Fl)) == 1:
                yield Fl, image, ints


def _value(ints, x):
    return sum(c * x**i for i, c in enumerate(ints))


def _rational_roots(f):
    """The rational roots of f over Q, square-free with f(0) nonzero."""
    Fl, image, ints = next(_good_primes(f))
    dints = [i * c for i, c in enumerate(ints)][1:]
    bound = abs(ints[0])
    found = []
    for r in roots(image, Fl):
        M = Fl.char
        while M <= 2 * bound * abs(ints[-1]):
            # Newton: f'(r) is a unit mod ell, so r lifts from M to M^2.
            M *= M
            r = (r - _value(ints, r) * pow(_value(dints, r), -1, M)) % M
        # The first remainder of (M, r) within |a_0| and its cofactor
        # give the only u/v = r mod M with |u| <= |a_0|, 0 < v <= |a_n|.
        r0, r1, t0, t1 = M, r, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        if t1 and _value(ints, root := QQ(Fraction(r1, t1))) == 0:
            found.append(root)
    return found


def roots(f, K):
    """The distinct roots of f in K, ascending; over Q f is square-free."""
    if K.char == 0:
        if not f[0]:
            return sorted(roots(f[1:], K) + [K.zero])
        return sorted(_rational_roots(f)) if len(f) > 1 else []
    x = [K.zero, K.one]
    g = gcd(f, sub(powmod(x, K.char, f, K), x, K), K)
    rng = random.Random(0)
    return sorted(K(-h[0]) for h in _equal_degree(g, 1, K, rng) if len(h) > 1)


def linear_factors(f, K):
    """([(root, multiplicity)], whether f is a product of linear factors)."""
    out, split = [], True
    for part, m in squarefree_parts(f, K):
        rs = roots(part, K)
        out.extend((r, m) for r in rs)
        split = split and len(rs) == len(part) - 1
    return out, split


def _irreducible_factors(part, K):
    if K.char:
        return [h for g, d in _distinct_degree(part, K)
                for h in _equal_degree(g, d, K, random.Random(0))]
    rs = roots(part, K)
    rest = part
    for r in rs:
        rest = divmod_(rest, [-r, K.one], K)[0]
    if len(rest) > 4 and not any(
            [d for _, d in _distinct_degree(monic(image, Fl), Fl)] == [len(rest) - 1]
            for Fl, image, _ in islice(_good_primes(rest), _CERTIFICATE_PRIMES)):
        raise InconclusiveSplitError(
            f"cannot certify that {to_text(rest, K)} is irreducible over Q")
    return [[K(-r), K.one] for r in rs] + ([rest] if len(rest) > 1 else [])


def to_text(f, K):
    """A monic f highest degree first: 'T**2 - 1/3*T + 5/7' over Q, with
    coefficients as residues in [0, ell) over F_ell."""
    text = ""
    for s in range(len(f) - 1, -1, -1):
        neg = K.char == 0 and f[s] < 0
        c = str(-f[s] if neg else f[s])
        mono = "" if s == 0 else "T" if s == 1 else f"T**{s}"
        term = c if not mono else mono if c == "1" else f"{c}*{mono}"
        text += "" if not f[s] else (" - " if neg else " + ") + term
    return text[3:]


def factor(f, K):
    """[(monic irreducible factor, multiplicity)] of f, sorted.

    The order is part of the output: the first factor picks the
    idempotent that splits a module, so it shapes every presentation
    ``decompose`` and ``push`` print; the list also decides whether a
    split part needs its own top algebra.  Factors sort by degree, then by
    string order on to_text followed by ',', so 'T + 10' < 'T + 100' <
    'T + 3', and 'T' comes after every 'T + c' and 'T - c'.
    """
    out = [(h, m) for part, m in squarefree_parts(f, K)
           for h in _irreducible_factors(part, K)]
    return sorted(out, key=lambda hm: (len(hm[0]), to_text(hm[0], K) + ","))


def idempotent(f, factors, K):
    """e with e = 1 mod f1^e1, e = 0 mod f / f1^e1 and deg e < deg f.

    e = t (f / f1^e1) with t the gcdex cofactor, deg t < deg f1^e1.
    The factors are distinct monic irreducibles, so f1^e1 and f / f1^e1
    are coprime and t (f / f1^e1) = 1 modulo f1^e1.
    """
    f1, e1 = factors[0]
    block = [K.one]
    for _ in range(e1):
        block = mul(block, f1, K)
    rest = divmod_(f, block, K)[0]
    t, _ = gcdex(block, rest, K)
    return mul(t, rest, K)
