"""Univariate polynomials over k, and primality of the field size.

The factoring is checked against sympy, the factoring backend the
package used before it had its own, as a differential oracle: the
reference functions below are that code, kept here verbatim so the
factor order, the CRT idempotent and the least p-th root stay what they
were.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcurves import InconclusiveSplitError, InputError, upoly
from arcurves.branches import _pth_root
from arcurves.fields import QQ, PrimeField, is_prime

sympy = pytest.importorskip("sympy")
from sympy.ntheory.residue_ntheory import nthroot_mod  # noqa: E402


# ----------------------------------------------------------------------
# the reference: the sympy-backed factoring code, verbatim


def _to_sympy_poly(coeffs, K, T):
    if K.char == 0:
        expr = sum((sympy.Rational(str(c)) * T**s
                    for s, c in enumerate(coeffs)), sympy.Integer(0))
        return sympy.Poly(expr, T, domain="QQ")
    expr = sum((sympy.Integer(int(str(c))) * T**s
                for s, c in enumerate(coeffs)), sympy.Integer(0))
    return sympy.Poly(expr, T, modulus=K.char, symmetric=False)


def _from_sympy_univariate(poly, K):
    return [K(str(c)) for c in reversed(poly.all_coeffs())]


def _factor_min_poly(coeffs, K):
    T = sympy.Symbol("T")
    poly = _to_sympy_poly(coeffs, K, T)
    _, factors = poly.factor_list()
    out = [(fac.monic(), mult) for fac, mult in factors]
    out.sort(key=lambda fm: (fm[0].degree(), str(fm[0])))
    return poly, out


def _crt_idempotent_coeffs(poly, factors, K):
    f1, e1 = factors[0]
    block = f1**e1
    rest = poly.div(block)[0]
    s, t, h = block.gcdex(rest)
    assert h.degree() == 0
    scaled = (t * rest).div(h)[0].rem(poly)
    return _from_sympy_univariate(scaled, K)


def _reference_pth_root(K, value, p):
    roots = nthroot_mod(value, p, K.char, all_roots=True)
    return min(roots) if roots else None


# ----------------------------------------------------------------------
# random products of linear and quadratic factors with multiplicities


SMALL_PRIMES = (13, 17, 19, 23)  # above every degree drawn below (<= 12)
TINY_PRIMES = (3, 5, 7)  # at most the multiplicities drawn over them


@st.composite
def products(draw):
    """(K, f): f = c * prod h_i^m_i, deg h_i in {1, 2}, m_i in {1, 2};
    over F3, F5 and F7 m_i runs up to ell + 1, so ell can divide it."""
    name = draw(st.sampled_from(["Q", "F101", "F1000000007", "small", "tiny"]))
    top = 2
    if name == "Q":
        K = QQ
        coeff = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 8))
    else:
        if name == "tiny":
            K = PrimeField(draw(st.sampled_from(TINY_PRIMES)))
            top = K.char + 1
        else:
            K = PrimeField(draw(st.sampled_from(SMALL_PRIMES))
                           if name == "small" else int(name[1:]))
        coeff = st.integers(-10**12, 10**12).map(K)
    f = [draw(coeff.filter(lambda c: c != 0))]
    for _ in range(draw(st.integers(1, 3))):
        h = [draw(coeff) for _ in range(draw(st.integers(1, 2)))] + [K.one]
        for _ in range(draw(st.integers(1, top))):
            f = upoly.mul(f, h, K)
    return K, f


def _reference_factors(f, K):
    poly, factors = _factor_min_poly(f, K)
    return poly, [(_from_sympy_univariate(h, K), m) for h, m in factors]


def _two_irrational_factors_share_a_multiplicity(factors):
    # Over Q such a square-free part is a product of quadratics: it has
    # no rational root and is reducible modulo every prime, so it cannot
    # be certified irreducible and factor() must give up on it.
    degrees = {}
    for h, m in factors:
        if len(h) > 2:
            degrees[m] = degrees.get(m, 0) + len(h) - 1
    return any(d >= 4 for d in degrees.values())


@settings(derandomize=True, max_examples=100, deadline=None)
@given(products())
def test_factor_matches_reference(case):
    K, f = case
    poly, expected = _reference_factors(f, K)
    if K.char == 0 and _two_irrational_factors_share_a_multiplicity(expected):
        with pytest.raises(InconclusiveSplitError):
            upoly.factor(f, K)
        return
    assert upoly.factor(f, K) == expected
    roots, split = upoly.linear_factors(f, K)
    assert sorted(roots) == sorted((K(-h[0]), m)
                                   for h, m in expected if len(h) == 2)
    assert split == all(len(h) == 2 for h, _ in expected)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(products())
def test_idempotent_matches_reference(case):
    K, f = case
    f = upoly.monic(f, K)
    poly, expected = _reference_factors(f, K)
    if len(expected) < 2 or (
            K.char == 0 and _two_irrational_factors_share_a_multiplicity(expected)):
        return
    _, sym_factors = _factor_min_poly(f, K)
    assert (upoly.idempotent(f, upoly.factor(f, K), K)
            == _crt_idempotent_coeffs(poly, sym_factors, K))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from([1000000007, 1000000009]), st.integers(3, 8),
       st.integers(1, 10**9), st.booleans())
def test_least_pth_root_matches_reference(ell, p, x, is_power):
    K = PrimeField(ell)
    value = K(x ** p) if is_power else K(x)
    assert _pth_root(K, value, p) == _reference_pth_root(K, value, p)


@pytest.mark.parametrize("value, p, root", [
    (Fraction(16, 81), 4, Fraction(2, 3)), (Fraction(-8, 27), 3, Fraction(-2, 3)),
    (Fraction(-16), 4, None), (Fraction(2), 3, None), (Fraction(1, 32), 5, Fraction(1, 2))])
def test_pth_root_over_q_is_the_real_root(value, p, root):
    assert _pth_root(QQ, value, p) == root


@pytest.mark.parametrize("f, ell, expected", [
    ([2, 0, 0, 1], 3, [([2, 1], 3)]),
    ([0, 0, 0, 1], 3, [([0, 1], 3)]),
    ([0, 1, 0, 0, 1, 0, 0, 1], 3, [([2, 1], 6), ([0, 1], 1)]),
    ([0, 1, 0, 0, 0, 0, 1], 5, [([1, 1], 5), ([0, 1], 1)]),
    ([0, 1, 2, 0, 2, 1], 3, [([2, 1], 4), ([0, 1], 1)]),
], ids=["(T-1)^3/F3", "T^3/F3", "T(T-1)^6/F3", "T(T+1)^5/F5", "T(T-1)^4/F3"])
def test_factor_keeps_multiplicities_divisible_by_ell(f, ell, expected):
    K = PrimeField(ell)
    assert upoly.factor(f, K) == expected


@pytest.mark.parametrize("f", [[1, 0, 0, 0, 1], [2, 0, 3, 0, 1]],
                         ids=["T^4+1", "(T^2+1)(T^2+2)"])
def test_uncertified_quartic_over_q_is_inconclusive(f):
    # Over Q a rest of degree >= 4 without rational roots is kept only
    # when it is irreducible modulo some good prime; these two are
    # reducible modulo every prime.
    with pytest.raises(InconclusiveSplitError):
        upoly.factor([QQ(c) for c in f], QQ)


def test_quartic_irreducible_mod_a_prime_is_certified():
    f = [QQ(c) for c in (-1, -1, 0, 0, 1)]  # T^4 - T - 1, irreducible mod 3
    assert upoly.factor(f, QQ) == [(f, 1)]


def test_factor_order_is_string_order_of_the_printed_factor():
    K = PrimeField(101)
    f = [K.one]
    for c in (3, 100, 10, 0):
        f = upoly.mul(f, [c, 1], K)
    assert [upoly.to_text(h, K) for h, _ in upoly.factor(f, K)] == [
        "T + 10", "T + 100", "T + 3", "T"]
    g = upoly.mul([QQ(1), QQ(0), QQ(1)], [Fraction(-5, 3), QQ(1)], QQ)
    assert [upoly.to_text(h, QQ) for h, _ in upoly.factor(g, QQ)] == [
        "T - 5/3", "T**2 + 1"]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(["Q", "F3", "F5", "F101"]))
def test_divmod_gives_canonical_quotient_and_remainder(data, name):
    # inputs may carry leading zeros and non-canonical coefficients:
    # integral Fractions over Q, integers outside [0, ell) over F_ell
    if name == "Q":
        K = QQ
        coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    else:
        K = PrimeField(int(name[1:]))
        coeff = st.integers(-300, 300)
    f = data.draw(st.lists(coeff, max_size=8))
    g = data.draw(st.lists(coeff, min_size=1, max_size=5).filter(
        lambda g: upoly.trim(g, K)))
    q, r = upoly.divmod_(f, g, K)
    assert upoly.sub(f, upoly.mul(q, g, K), K) == r
    assert len(r) < len(upoly.trim(g, K))
    for part in (q, r):
        assert not part or part[-1]
        assert all(type(c) is type(K(c)) and c == K(c) for c in part)


# ----------------------------------------------------------------------
# primality of the field size


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_agrees_with_trial_division():
    assert all(is_prime(n) == _trial_division(n) for n in range(20000))


@pytest.mark.parametrize("n", [561, 41041, 3215031751])
def test_is_prime_rejects_carmichael_numbers(n):
    assert not is_prime(n)


def test_is_prime_certifies_large_primes_and_refuses_beyond_its_range():
    assert is_prime(2**61 - 1) and is_prime(1000000007)
    assert not is_prime((2**31 - 1) * 1000000007)
    with pytest.raises(InputError):
        is_prime(2**127 - 1)
