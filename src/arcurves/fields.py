"""Exact coefficient fields: the rationals and odd prime fields.

Every computation in this package is exact.  Field elements are plain
Python objects, and arithmetic on them is Python's own +, -, * and **:
a field object only puts a value in canonical form (K(value)) and
inverts (K.inv), so the linear algebra layer stays generic without
wrapper classes.  A value is normalised once, where it is stored.  A
rational is kept in canonical form: an ``int`` when it is integral and
a ``Fraction`` only when its denominator exceeds 1, so the integral
coefficients that make up most of the data stay on native int
arithmetic.  A prime field element is an ``int`` in ``[0, ell)``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError


def _canonical(c):
    """The rational c as an int when it is integral."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


class RationalField:
    """The field of rational numbers, elements in canonical form: an int
    when integral, else a Fraction.  int op int stays native; inverses
    go through Fraction, so a quotient a * Q.inv(b) never makes a float.
    """

    char = 0
    zero = 0
    one = 1

    def __call__(self, value):
        if type(value) is int:
            return value
        if isinstance(value, (int, Fraction)):
            return _canonical(value)
        if isinstance(value, str):
            return _canonical(Fraction(value))
        raise TypeError(f"cannot coerce {value!r} into Q")

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _canonical(1 / Fraction(a))

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")


class PrimeField:
    """The field with ell elements, ell an odd prime; elements are ints in [0, ell)."""

    zero = 0
    one = 1

    def __init__(self, ell: int):
        if ell < 3 or not is_prime(ell):
            raise ValueError(f"{ell} is not an odd prime")
        self.ell = ell
        self.char = ell

    def __call__(self, value):
        if isinstance(value, int):
            return value % self.ell
        if isinstance(value, Fraction):
            return self(value.numerator) * self.inv(self(value.denominator)) % self.ell
        if isinstance(value, str):
            if "/" in value:
                num, den = value.split("/")
                return self(int(num)) * self.inv(self(int(den))) % self.ell
            return int(value) % self.ell
        raise TypeError(f"cannot coerce {value!r} into F_{self.ell}")

    def inv(self, a):
        if a % self.ell == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.ell)

    def __repr__(self):
        return f"F{self.ell}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.ell == self.ell

    def __hash__(self):
        return hash(("PrimeField", self.ell))


# Miller-Rabin with these bases decides primality exactly below
# _MR_LIMIT (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; InputError from 3.3e24 up."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_LIMIT:
        raise InputError(f"{n} is too large to certify as a prime")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


QQ = RationalField()


def field_from_string(name: str):
    """Parse a field name: "Q" for the rationals, "F<ell>" for a prime field."""
    name = name.strip()
    if name in ("Q", "QQ"):
        return QQ
    if name.startswith("F") and name[1:].isdigit():
        return PrimeField(int(name[1:]))
    raise ValueError(f"unknown field {name!r}; expected Q or F<prime>")
