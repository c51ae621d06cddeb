"""Canonical rationals: QQ keeps an integral rational as an int and any
other one as a Fraction, and its arithmetic agrees with Fraction's.
That elimination returns canonical entries is checked in test_linalg."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcurves import QQ

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
    _check(QQ.add(a, b), fa + fb)
    _check(QQ.sub(a, b), fa - fb)
    _check(QQ.mul(a, b), fa * fb)
    _check(QQ.neg(a), -fa)
    _check(QQ.pow(a, n), fa ** n)
    if b:
        _check(QQ.div(a, b), fa / fb)
    else:
        with pytest.raises(ZeroDivisionError):
            QQ.div(a, b)
    if a:
        _check(QQ.inv(a), 1 / fa)
        _check(QQ.pow(a, -n), fa ** -n)
    else:
        with pytest.raises(ZeroDivisionError):
            QQ.inv(a)
        if n:
            with pytest.raises(ZeroDivisionError):
                QQ.pow(a, -n)


def test_qq_coerces_to_canonical_form():
    assert type(QQ("6/3")) is int and QQ("6/3") == 2
    assert QQ("-4/6") == Fraction(-2, 3) and type(QQ("-4/6")) is Fraction
    assert type(QQ(Fraction(8, 4))) is int and QQ(Fraction(8, 4)) == 2
    assert type(QQ(True)) is int
    assert QQ.zero == 0 and type(QQ.zero) is int
    assert QQ.one == 1 and type(QQ.one) is int
    assert QQ.to_str(QQ("6/3")) == str(Fraction(2)) == "2"
    with pytest.raises(TypeError):
        QQ(0.5)

