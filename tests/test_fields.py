"""Canonical field elements: QQ keeps an integral rational as an int
and any other one as a Fraction, a prime field keeps residues in
[0, ell), and Python's operators followed by K(...) agree with Fraction
arithmetic.  A field only normalises and inverts.  That elimination
returns canonical entries is checked in test_linalg."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcurves import QQ, PrimeField
from arcurves.fields import RationalField

# Integral values (denominator 1), zero and negatives come up often.
_RATIONALS = st.one_of(
    st.integers(-20, 20),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),
).map(QQ)


def _check(result, expected: Fraction):
    """result equals expected and is an int exactly when its denominator
    is 1, a Fraction otherwise: never a float."""
    assert result == expected
    integral = expected.denominator == 1
    assert type(result) is (int if integral else Fraction), repr(result)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_RATIONALS, _RATIONALS, st.integers(0, 4))
def test_qq_arithmetic_matches_fraction_and_stays_canonical(a, b, n):
    fa, fb = Fraction(a), Fraction(b)
    _check(a, fa)
    _check(b, fb)
    _check(QQ(a + b), fa + fb)
    _check(QQ(a - b), fa - fb)
    _check(QQ(a * b), fa * fb)
    _check(QQ(-a), -fa)
    _check(QQ(a ** n), fa ** n)
    if b:
        _check(QQ(a * QQ.inv(b)), fa / fb)
    else:
        with pytest.raises(ZeroDivisionError):
            QQ.inv(b)
    if a:
        _check(QQ.inv(a), 1 / fa)
        _check(QQ(QQ.inv(a) ** n), fa ** -n)
    else:
        with pytest.raises(ZeroDivisionError):
            QQ.inv(a)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.sampled_from([3, 5, 7, 101, 1000000007]),
       st.integers(-10**12, 10**12), st.integers(-10**12, 10**12),
       st.integers(0, 4))
def test_prime_field_arithmetic_matches_residues_and_stays_canonical(
        ell, x, y, n):
    F = PrimeField(ell)
    a, b = F(x), F(y)

    def check(result, expected):
        assert type(result) is int and 0 <= result < ell, repr(result)
        assert result == expected % ell

    check(a, x)
    check(F(a + b), x + y)
    check(F(a - b), x - y)
    check(F(a * b), x * y)
    check(F(-a), -x)
    check(F(a ** n), x ** n)
    check(F(F(Fraction(x, 2)) * 2), x)
    if b:
        check(F(F(a * F.inv(b)) * b), x)
        check(F(F.inv(b) * b), 1)
    else:
        with pytest.raises(ZeroDivisionError):
            F.inv(b)


@pytest.mark.parametrize("cls", [RationalField, PrimeField])
def test_fields_only_normalise_and_invert(cls):
    """The arithmetic is Python's: no field carries wrapper methods."""
    for name in ("add", "sub", "mul", "neg", "div", "pow", "is_zero", "eq",
                 "to_str"):
        assert not hasattr(cls, name), name


def test_qq_coerces_to_canonical_form():
    assert type(QQ("6/3")) is int and QQ("6/3") == 2
    assert QQ("-4/6") == Fraction(-2, 3) and type(QQ("-4/6")) is Fraction
    assert type(QQ(Fraction(8, 4))) is int and QQ(Fraction(8, 4)) == 2
    assert type(QQ(True)) is int
    assert QQ.zero == 0 and type(QQ.zero) is int
    assert QQ.one == 1 and type(QQ.one) is int
    assert str(QQ("6/3")) == str(Fraction(2)) == "2"
    with pytest.raises(TypeError):
        QQ(0.5)


def test_prime_field_rejects_floats():
    with pytest.raises(TypeError, match="cannot coerce"):
        PrimeField(101)(0.5)
