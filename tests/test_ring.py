"""Weighted polynomials, normal forms, graded pieces, field coercion."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcurves import (HypersurfaceRing, InputError, PrimeField, QQ,
                      field_from_string, poly_from_string, random_ring,
                      semigroup_member)
from arcurves.ring import WPoly


def test_rational_field_coercion():
    assert QQ("2/3") == Fraction(2, 3)
    assert QQ(Fraction(5, 1)) == 5
    assert QQ(QQ.one * QQ.inv(QQ(4))) == Fraction(1, 4)
    assert QQ.char == 0


def test_prime_field_arithmetic():
    F = PrimeField(5)
    assert F("2/3") == F(F(2) * F.inv(F(3)))
    assert F(F(4) + F(3)) == F(2)
    assert F.char == 5
    with pytest.raises(ValueError):
        PrimeField(2)
    with pytest.raises(ValueError):
        PrimeField(9)


def test_wpoly_stores_canonical_coefficients():
    # A coefficient is normalised where it is stored: 7 over F5 as 2,
    # Fraction(4, 2) over Q as the int 2, and one that is 0 in the field
    # is dropped, so equality and hashing see canonical values only.
    F5 = PrimeField(5)
    p = WPoly(F5, 4, 3, {(3, 0): 7, (0, 4): 5})
    assert p.terms == {(3, 0): 2}
    assert p == WPoly(F5, 4, 3, {(3, 0): 2})
    assert hash(p) == hash(WPoly(F5, 4, 3, {(3, 0): 2}))
    assert (-p).terms == {(3, 0): 3}
    q = WPoly(QQ, 4, 3, {(3, 0): Fraction(4, 2), (0, 4): Fraction(0, 3)})
    assert q.terms == {(3, 0): 2} and type(q.terms[(3, 0)]) is int
    assert WPoly(QQ, 4, 3, {(3, 0): Fraction(1, 2)}) * 4 == q
    assert type((q * Fraction(1, 2)).terms[(3, 0)]) is int
    assert (q - q).is_zero()


def test_field_from_string():
    assert field_from_string("Q") is QQ
    assert field_from_string("QQ") is QQ
    assert field_from_string("F7").char == 7
    with pytest.raises(ValueError):
        field_from_string("R")


def test_poly_parse_roundtrip():
    f = poly_from_string(QQ, 4, 3, "2*x^3*y^0 - 1*x^0*y^4")
    assert f.to_string() == "-1*x^0*y^4+2*x^3*y^0"
    with pytest.raises(InputError):
        poly_from_string(QQ, 4, 3, "x + +")
    with pytest.raises(InputError):
        poly_from_string(QQ, 4, 3, "")
    with pytest.raises(InputError):
        # mixed weighted degrees
        poly_from_string(QQ, 4, 3, "1*x^1*y^0+1*x^0*y^1")


def test_poly_parse_plus_minus_is_minus():
    f = poly_from_string(QQ, 5, 3, "1*x^0*y^5 + -1*x^3*y^0")
    assert f == poly_from_string(QQ, 5, 3, "1*x^0*y^5 - 1*x^3*y^0")
    assert f.to_string() == "1*x^0*y^5+-1*x^3*y^0"
    assert poly_from_string(QQ, 4, 3, "-x^3") == poly_from_string(
        QQ, 4, 3, "-1*x^3*y^0")
    for bad in ("x ++ y", "1*x^0*y^0 -", "x^3 - - y^4"):
        with pytest.raises(InputError):
            poly_from_string(QQ, 4, 3, bad)


@pytest.mark.parametrize("field", [QQ, PrimeField(101)])
def test_poly_parse_zero_denominator(field):
    with pytest.raises(InputError, match="zero denominator"):
        poly_from_string(field, 4, 3, "1/0*x^0*y^1")


def test_weighted_degrees(two_branch_ring):
    r = two_branch_ring
    assert r.wdeg(1, 0) == 4 and r.wdeg(0, 1) == 3
    assert r.deg_g == 15
    assert r.gamma_degree == 8
    assert r.ybound == 5


def test_normal_form_kills_high_y(two_branch_ring):
    r = two_branch_ring
    # y^5 = -x^3 y modulo g = x^3 y + y^5
    nf = r.normal_form(r.monomial(0, 5))
    assert nf == r.monomial(3, 1, QQ(-1))
    assert r.normal_form(r.g) == r.zero_poly()


def test_poly_division(two_branch_ring):
    r = two_branch_ring
    prod = r.g * r.monomial(2, 1)
    assert prod.div_exact(r.g) == r.monomial(2, 1)
    with pytest.raises(InputError):
        r.monomial(1, 0).div_exact(r.monomial(0, 1))


def test_quotient_field_elements(cusp_ring):
    from arcurves import QElement
    r = cusp_ring
    # y^3/x is not in R, x y^3 / x is
    assert r.q_membership(r.monomial(0, 3), r.x_poly()) is None
    assert r.q_membership(r.monomial(1, 3), r.x_poly()) == r.monomial(0, 3)
    gamma = QElement(r, r.monomial(0, 3), r.x_poly())
    assert gamma.degree == 5
    assert gamma.in_ring() is None
    xx = QElement(r, r.monomial(2, 0), r.x_poly())
    assert xx.in_ring() == r.x_poly()


def test_q_membership_divides_by_the_denominator_coefficient(two_branch_ring):
    r = two_branch_ring
    two_x = r.monomial(1, 0, 2)
    for num in (r.monomial(1, 3), r.monomial(4, 0) + r.monomial(1, 4, 5),
                r.monomial(0, 5)):
        # y^5 = -x^3 y in R, so y^5 / x = -x^2 y although y^5 has no x
        half = r.q_membership(num, r.x_poly()) * Fraction(1, 2)
        assert not half.is_zero()
        assert r.q_membership(num, two_x) == half
    assert r.q_membership(r.monomial(0, 5), r.x_poly()) == r.monomial(2, 1, -1)
    for num in (r.monomial(0, 3), r.monomial(3, 0) + r.monomial(0, 4, 5)):
        assert r.q_membership(num, two_x) is None
    assert r.q_membership(r.zero_poly(), two_x) == r.zero_poly()


def test_fraction_denominator_must_be_a_power_of_x(cusp_ring):
    from arcurves import QElement
    r = cusp_ring
    for den in (r.y_poly(), r.zero_poly(), r.x_poly() * r.y_poly()):
        with pytest.raises(InputError, match="not a power of x"):
            QElement(r, r.one(), den)
        with pytest.raises(InputError, match="not a power of x"):
            r.q_membership(r.monomial(1, 3), den)


def test_ring_constructor_rejects_bad_weights():
    f = poly_from_string(QQ, 4, 2, "1*x^0*y^0")
    with pytest.raises(InputError):
        HypersurfaceRing = __import__("arcurves").HypersurfaceRing
        HypersurfaceRing(QQ, p=2, q=4, b=QQ(1), f=f)


def test_ring_constructor_rejects_noncoprime():
    from arcurves import HypersurfaceRing
    f = poly_from_string(QQ, 6, 4, "1*x^0*y^0")
    with pytest.raises(InputError):
        HypersurfaceRing(QQ, p=4, q=6, b=QQ(1), f=f)


_Y = WPoly.monomial(QQ, 4, 3, 0, 1)


# Per input check the library API reaches and no config does: the call
# and its message.
@pytest.mark.parametrize("call, message", [
    (lambda: _Y.shift_monomial(-1, 0), "negative monomial shift"),
    (lambda: _Y.div_exact_x(1), "not divisible by the requested power of x"),
    (lambda: _Y.div_exact(WPoly.zero(QQ, 4, 3)), "division by zero polynomial"),
    # f = y weighted (4, 1), not (q, p) = (4, 3): deg f = 1, not p v = 3
    (lambda: HypersurfaceRing(QQ, p=3, q=4, b=QQ(1),
                              f=WPoly(QQ, 4, 1, {(0, 1): 1})),
     "deg f must equal p*v"),
])
def test_ring_input_exits(call, message):
    with pytest.raises(InputError) as exc:
        call()
    assert (exc.type, str(exc.value)) == (InputError, message)


def test_window_parameter_bounds(cusp_ring):
    from arcurves import HypersurfaceRing
    f = poly_from_string(QQ, 4, 3, "1*x^0*y^0")
    with pytest.raises(InputError):
        HypersurfaceRing(QQ, p=3, q=4, b=QQ(1), f=f, m=2, n=2)
    with pytest.raises(InputError):
        HypersurfaceRing(QQ, p=3, q=4, b=QQ(1), f=f, m=1, n=4)


@settings(derandomize=True)
@given(st.integers(min_value=0, max_value=60))
def test_graded_piece_matches_semigroup_count(d):
    # monomial count in degree d with the y-exponent below q + v
    ring = _cusp()
    basis = ring.graded_piece(d)
    count = sum(1 for i in range(d // 4 + 1) for j in range(4)
                if 4 * i + 3 * j == d)
    assert len(basis) == count


def _cusp():
    f = poly_from_string(QQ, 4, 3, "1*x^0*y^0")
    from arcurves import HypersurfaceRing
    return HypersurfaceRing(QQ, p=3, q=4, b=QQ(1), f=f)


@settings(derandomize=True)
@given(st.sampled_from([(3, 4), (3, 5), (4, 5), (5, 7)]),
       st.integers(min_value=0, max_value=80))
def test_semigroup_membership_above_frobenius(pq, d):
    p, q = pq
    frob = p * q - p - q
    member = semigroup_member(d, p, q)
    if d > frob:
        assert member
    if member:
        assert any(d == a * p + b * q
                   for a in range(d // p + 1) for b in range(d // q + 1))


@settings(derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=2**30))
def test_random_ring_always_valid(seed):
    import random
    ring = random_ring(random.Random(seed))
    assert ring.p >= 3 and ring.q >= 3
    assert 1 <= ring.m <= ring.p - 2
    assert 2 <= ring.n <= ring.q - 1
    # the defining shape: f - y^v lies in (x)
    diff = ring.f - ring.monomial(0, ring.v)
    assert all(i > 0 for (i, j) in diff.terms)
