"""Weighted-homogeneous polynomial arithmetic and graded hypersurface rings.

The ambient ring is S = k[x, y] graded by deg x = q and deg y = p for a
coprime pair p, q >= 3.  A curve instance is R = S/(g) with
g = (b x^p + y^q) f, where f is homogeneous, not divisible by x, and
f - y^v lies in xS for v = deg(f)/p.  Then g is monic in y of y-degree
q + v, which gives a normal form with y-exponents below q + v and the
monomial k-basis {x^i y^j : j < q + v} in each degree.

Elements of the total quotient ring are kept as exact fractions u/(c x^e).
Since g is monic in y, R is free over k[x] on 1, y, ..., y^(q+v-1), so
u/x^e lies in R exactly when every term of the normal form of u carries
x^e; membership is read off the normal form, never computed numerically.

Coefficients are combined with Python's + and *; the field only puts a
value in canonical form and inverts (see fields), and a WPoly does the
first for every coefficient it is built with.
"""

from __future__ import annotations

import re
from math import gcd

from . import upoly
from .errors import InputError, NotSquarefreeError
from .fields import QQ


class WPoly:
    """Sparse weighted-homogeneous polynomial in x and y.

    terms maps (i, j) exponent pairs to nonzero coefficients in the
    field's canonical form; all terms share the same weighted degree
    q*i + p*j (wx = q weights x, wy = p weights y).  The constructor
    normalises each coefficient it is given and drops the zeros, so the
    arithmetic below sums with native + and * and leaves that to it.
    The zero polynomial has empty terms and degree None.
    """

    __slots__ = ("field", "wx", "wy", "terms")

    def __init__(self, field, wx: int, wy: int, terms: dict):
        self.field = field
        self.wx = wx
        self.wy = wy
        clean = {}
        deg = None
        for (i, j), c in terms.items():
            c = field(c)
            if not c:
                continue
            d = wx * i + wy * j
            if deg is None:
                deg = d
            elif d != deg:
                raise InputError("polynomial is not weighted-homogeneous")
            clean[(i, j)] = c
        self.terms = clean

    @classmethod
    def zero(cls, field, wx, wy):
        return cls(field, wx, wy, {})

    @classmethod
    def monomial(cls, field, wx, wy, i, j, coeff=None):
        c = field.one if coeff is None else coeff
        return cls(field, wx, wy, {(i, j): c})

    @property
    def degree(self):
        if not self.terms:
            return None
        i, j = next(iter(self.terms))
        return self.wx * i + self.wy * j

    def is_zero(self) -> bool:
        return not self.terms

    def _like(self, terms):
        return WPoly(self.field, self.wx, self.wy, terms)

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return self._like(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        K = self.field
        if not isinstance(other, WPoly):
            c = K(other)
            if not c:
                return self._like({})
            return self._like({k: v * c for k, v in self.terms.items()})
        out = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
        return self._like(out)

    __rmul__ = __mul__

    def shift_monomial(self, di: int, dj: int):
        """Multiply by x^di y^dj (di, dj may not be negative)."""
        if di < 0 or dj < 0:
            raise InputError("negative monomial shift")
        return self._like({(i + di, j + dj): c for (i, j), c in self.terms.items()})

    def coeff(self, i: int, j: int):
        return self.terms.get((i, j), self.field.zero)

    def min_x_exponent(self):
        return min(i for i, _ in self.terms) if self.terms else None

    def min_y_exponent(self):
        return min(j for _, j in self.terms) if self.terms else None

    def max_y_exponent(self):
        return max(j for _, j in self.terms) if self.terms else None

    def div_exact_x(self, power: int):
        """Exact division by x^power; raises if some term is not divisible."""
        for (i, _j) in self.terms:
            if i < power:
                raise InputError("not divisible by the requested power of x")
        return self._like({(i - power, j): c for (i, j), c in self.terms.items()})

    def _leading(self):
        # Lex order with y ahead of x; multiplicative, so exact division
        # of a product always finds a divisible leading term.
        return max(self.terms, key=lambda ij: (ij[1], ij[0]))

    def div_exact(self, divisor: "WPoly") -> "WPoly":
        """Exact polynomial division in S; raises InputError on nonzero remainder."""
        K = self.field
        if divisor.is_zero():
            raise InputError("division by zero polynomial")
        rem = dict(self.terms)
        quot = {}
        di, dj = divisor._leading()
        dc_inv = K.inv(divisor.terms[(di, dj)])
        while rem:
            li, lj = max(rem, key=lambda ij: (ij[1], ij[0]))
            if li < di or lj < dj:
                raise InputError("polynomial division left a remainder")
            qi, qj = li - di, lj - dj
            qc = K(rem[(li, lj)] * dc_inv)
            quot[(qi, qj)] = qc
            for (i, j), c in divisor.terms.items():
                key = (i + qi, j + qj)
                new = K(rem.get(key, 0) - qc * c)
                if new:
                    rem[key] = new
                else:
                    rem.pop(key, None)
        return self._like(quot)

    def __eq__(self, other):
        if not isinstance(other, WPoly):
            return NotImplemented
        return ((self.wx, self.wy) == (other.wx, other.wy)
                and self.terms == other.terms)

    def __hash__(self):
        return hash(tuple(sorted((k, str(c)) for k, c in self.terms.items())))

    def to_string(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (i, j) in sorted(self.terms):
            parts.append(f"{self.terms[(i, j)]}*x^{i}*y^{j}")
        return "+".join(parts)

    def __repr__(self):
        return f"WPoly({self.to_string()})"


_TERM_PART = re.compile(r"^(?:(?P<coeff>[+-]?\d+(?:/\d+)?)|(?P<var>[xy])(?:\^(?P<exp>\d+))?)$")


def poly_from_string(field, wx: int, wy: int, text: str) -> WPoly:
    """Parse "coeff*x^i*y^j" terms joined by "+" or "-" ("+ -" means "-").

    A leading "-" is also accepted; an empty term, as in "x ++ y" or a
    trailing "-", is malformed.
    """
    cleaned = text.replace(" ", "")
    if not cleaned:
        raise InputError("empty polynomial string")
    cleaned = cleaned.replace("+-", "-").replace("-", "+-")
    if cleaned.startswith("+"):
        cleaned = cleaned[1:]
    terms: dict[tuple[int, int], object] = {}
    for chunk in cleaned.split("+"):
        negate = chunk.startswith("-")
        if not chunk[negate:]:
            raise InputError(f"malformed polynomial string {text!r}")
        coeff = field.one
        i = j = 0
        for part in chunk[negate:].split("*"):
            m = _TERM_PART.match(part)
            if m is None:
                raise InputError(f"malformed term {chunk!r} in {text!r}")
            if m.group("coeff") is not None:
                try:
                    coeff = coeff * field(m.group("coeff"))
                except ZeroDivisionError:
                    raise InputError(f"zero denominator in term {chunk!r} "
                                     f"of {text!r}") from None
            else:
                exp = int(m.group("exp") or 1)
                if m.group("var") == "x":
                    i += exp
                else:
                    j += exp
        if negate:
            coeff = -coeff
        terms[(i, j)] = terms.get((i, j), 0) + coeff
    return WPoly(field, wx, wy, terms)


def semigroup_member(d: int, p: int, q: int) -> bool:
    """Whether d lies in the numerical semigroup generated by p and q."""
    if d < 0:
        return False
    for a in range(d // q + 1):
        if (d - a * q) % p == 0:
            return True
    return False


def _strip_monomial(poly: WPoly):
    i0 = poly.min_x_exponent()
    j0 = poly.min_y_exponent()
    stripped = WPoly(poly.field, poly.wx, poly.wy,
                     {(i - i0, j - j0): c for (i, j), c in poly.terms.items()})
    return i0, j0, stripped


def _dehomogenized_form(poly: WPoly, p: int):
    """Coefficient list of the binary form underlying a monomial-free poly.

    poly is homogeneous for the weights (q, p), coprime, with x- and
    y-exponent minimum zero: it has terms x^0 y^b and x^a y^0, so every
    term x^i y^j has q i = p (b - j) and p j = q (a - i), whence p | i
    and q | j.  So it is a form in (x^p, y^q).  Returns the coefficients
    of T^s for the substitution T = x^p.
    """
    K = poly.field
    degT = max(i for i, _ in poly.terms) // p
    coeffs = [K.zero] * (degT + 1)
    for (i, _j), c in poly.terms.items():
        coeffs[i // p] = c
    return coeffs


def _x_power(den: WPoly):
    """(e, c) with den = c x^e, the only denominators a fraction may have."""
    if len(den.terms) == 1:
        (e, j), c = next(iter(den.terms.items()))
        if j == 0:
            return e, c
    raise InputError("denominator is not a power of x")


class HypersurfaceRing:
    """The graded curve R = k[x, y]/((b x^p + y^q) f), deg x = q, deg y = p."""

    def __init__(self, field, p: int, q: int, b, f, m: int | None = None,
                 n: int | None = None):
        # The fields are QQ and PrimeField, which refuses every ell < 3,
        # so the characteristic is never 2.
        if p < 3 or q < 3:
            raise InputError("p and q must both be at least 3")
        if gcd(p, q) != 1:
            raise InputError("p and q must be coprime")
        self.field = field
        self.p = p
        self.q = q
        self.b = field(b)
        if isinstance(f, str):
            f = poly_from_string(field, q, p, f)
        if f.is_zero():
            raise InputError("f must be nonzero")
        self.f = f
        # x must not divide f, and the sole x-free term must be y^v with
        # coefficient 1; that makes g monic in y.
        pure = [(i, j) for (i, j) in f.terms if i == 0]
        if len(pure) != 1:
            raise InputError("f must have exactly one term free of x")
        v = pure[0][1]
        if f.terms[(0, v)] != 1:
            raise InputError("the y^v coefficient of f must be 1")
        if f.degree != p * v:
            raise InputError("deg f must equal p*v")
        self.v = v
        binomial = WPoly(field, q, p, {(p, 0): self.b, (0, q): field.one})
        self.binomial = binomial
        self.g = binomial * f
        self.deg_g = p * (q + v)
        self.ybound = q + v
        self.gamma_degree = self.deg_g - p - q
        if m is not None and not (1 <= m <= p - 2):
            raise InputError(f"m must satisfy 1 <= m <= {p - 2}")
        if n is not None and not (2 <= n <= q - 1):
            raise InputError(f"n must satisfy 2 <= n <= {q - 1}")
        self.m = m
        self.n = n
        self.is_reduced = self._squarefree(self.g)
        if self.b and not self.is_reduced:
            raise NotSquarefreeError("defining polynomial has a repeated factor")
        # y^(q+v) reduces to y^(q+v) - g, whose terms all carry an x factor.
        self._ytop_tail = WPoly(field, q, p, {(0, self.ybound): field.one}) - self.g
        self._nf_cache: dict[int, dict] = {}
        self._piece_cache: dict[int, list] = {}
        self._s_piece_cache: dict[int, list] = {}
        self._branches_cache = None  # branches.factor_hypersurface
        self._annihilators: dict = {}  # traceoracle._in_ring

    # ------------------------------------------------------------------
    # construction helpers

    def zero_poly(self) -> WPoly:
        return WPoly.zero(self.field, self.q, self.p)

    def monomial(self, i: int, j: int, coeff=None) -> WPoly:
        return WPoly.monomial(self.field, self.q, self.p, i, j, coeff)

    def x_poly(self) -> WPoly:
        return self.monomial(1, 0)

    def y_poly(self) -> WPoly:
        return self.monomial(0, 1)

    def one(self) -> WPoly:
        return self.monomial(0, 0)

    def wdeg(self, i: int, j: int) -> int:
        return self.q * i + self.p * j

    # ------------------------------------------------------------------
    # normal form

    def _monomial_nf(self, j: int) -> dict:
        """Normal form of y^j as a dict (i, j') -> coeff with j' < ybound."""
        cached = self._nf_cache.get(j)
        if cached is not None:
            return cached
        K = self.field
        if j < self.ybound:
            result = {(0, j): K.one}
        else:
            sums = {}
            for (a, c2), coeff in self._ytop_tail.terms.items():
                sub = self._monomial_nf(j - self.ybound + c2)
                for (i2, j2), c3 in sub.items():
                    key = (i2 + a, j2)
                    sums[key] = sums.get(key, 0) + coeff * c3
            result = {key: c for key, v in sums.items() if (c := K(v))}
        self._nf_cache[j] = result
        return result

    def normal_form(self, poly: WPoly) -> WPoly:
        """The representative with all y-exponents below q + v."""
        top = poly.max_y_exponent()
        if top is None or top < self.ybound:
            return poly
        out: dict[tuple[int, int], object] = {}
        for (i, j), c in poly.terms.items():
            if j < self.ybound:
                out[(i, j)] = out.get((i, j), 0) + c
                continue
            for (a, b2), c2 in self._monomial_nf(j).items():
                key = (a + i, b2)
                out[key] = out.get(key, 0) + c * c2
        return WPoly(self.field, self.q, self.p, out)

    # ------------------------------------------------------------------
    # graded pieces

    def graded_piece(self, d: int) -> list:
        """Sorted monomial k-basis of R_d, as (i, j) pairs with j < q + v."""
        cached = self._piece_cache.get(d)
        if cached is None:
            cached = self._lattice_points(d, self.ybound - 1)
            self._piece_cache[d] = cached
        return cached

    def s_piece(self, d: int) -> list:
        """Sorted monomial basis of the ambient polynomial ring in degree d."""
        cached = self._s_piece_cache.get(d)
        if cached is None:
            cached = self._lattice_points(d, None)
            self._s_piece_cache[d] = cached
        return cached

    def _lattice_points(self, d: int, jmax: int | None) -> list:
        if d < 0:
            return []
        top = d // self.p
        if jmax is not None:
            top = min(top, jmax)
        out = []
        for j in range(top + 1):
            rest = d - self.p * j
            if rest % self.q == 0:
                out.append((rest // self.q, j))
        out.sort(key=lambda ij: (ij[1], ij[0]))
        return out

    # ------------------------------------------------------------------
    # squarefreeness via the binary-form gcd

    def _squarefree(self, gpoly: WPoly) -> bool:
        i0, j0, stripped = _strip_monomial(gpoly)
        if i0 > 1 or j0 > 1:
            return False
        if stripped.degree == 0:
            return True
        coeffs = _dehomogenized_form(stripped, self.p)
        K = self.field
        return len(upoly.gcd(coeffs, upoly.derivative(coeffs, K), K)) <= 1

    # ------------------------------------------------------------------
    # membership in R for fractions

    def q_membership(self, num: WPoly, den: WPoly):
        """The r in R with r * den = num, in normal form, or None.

        den must be c x^e.  x times a normal form is again one, so r
        exists exactly when every term of NF(num) carries x^e.
        """
        e, c = _x_power(den)
        num = self.normal_form(num)
        if any(i < e for i, _ in num.terms):
            return None
        return num.div_exact_x(e) * self.field.inv(c)

    def describe(self) -> dict:
        return {
            "field": repr(self.field),
            "p": self.p,
            "q": self.q,
            "b": str(self.b),
            "f": self.f.to_string(),
            "v": self.v,
            "g": self.g.to_string(),
            "deg_g": self.deg_g,
            "gamma_degree": self.gamma_degree,
            "reduced": self.is_reduced,
            "m": self.m,
            "n": self.n,
        }

    def __repr__(self):
        return (f"HypersurfaceRing({self.field!r}, p={self.p}, q={self.q}, "
                f"b={self.b}, f={self.f.to_string()})")


class QElement:
    """An element of the total quotient ring, as an exact fraction.

    The numerator is homogeneous and the denominator c x^e, a
    nonzerodivisor, so equality, arithmetic, and membership in R are all
    decided exactly.
    """

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring: HypersurfaceRing, num: WPoly, den: WPoly):
        _x_power(den)
        self.ring = ring
        self.num = ring.normal_form(num)
        self.den = den

    @property
    def degree(self):
        if self.num.is_zero():
            return None
        return self.num.degree - self.den.degree

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def in_ring(self):
        """The element of R this fraction equals, in normal form, or None."""
        return self.ring.q_membership(self.num, self.den)

    def __mul__(self, other):
        """The fraction times a polynomial or a scalar."""
        return QElement(self.ring, self.num * other, self.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, QElement):
            return NotImplemented
        cross = self.num * other.den - other.num * self.den
        return self.ring.normal_form(cross).is_zero()

    def __hash__(self):
        raise TypeError("QElement is unhashable")

    def to_string(self) -> str:
        return f"({self.num.to_string()})/({self.den.to_string()})"

    def __repr__(self):
        return f"QElement({self.to_string()})"


def random_ring(rng, field=QQ, with_ideal=True):
    """A random valid curve instance whose branches split over the field.

    The binomial coefficient is +/-1 chosen so that c^p = -1/b has a
    rational root (p odd allows b = 1, otherwise b = -1), keeping every
    branch parametrizable without extensions.  For v < q homogeneity
    forces f = y^v, so f is drawn from {1, y} plus, for odd p, the
    two-branch shape y^q - b x^p.
    """
    pairs = [(3, 4), (3, 5), (3, 7), (4, 5), (4, 7), (5, 6), (5, 7), (6, 7),
             (4, 3), (5, 3), (7, 3), (5, 4), (7, 4), (7, 5), (7, 6)]
    p, q = pairs[rng.randrange(len(pairs))]
    b = 1 if p % 2 == 1 else -1
    choices = ["1*x^0*y^0", "1*x^0*y^1"]
    if p % 2 == 1:
        # b = 1 for odd p, so this is y^q - x^p, coprime to b x^p + y^q
        choices.append(f"1*x^0*y^{q}-1*x^{p}*y^0")
    f = choices[rng.randrange(len(choices))]
    kwargs = {}
    if with_ideal:
        kwargs["m"] = rng.randrange(1, p - 1)
        kwargs["n"] = rng.randrange(2, q)
    return HypersurfaceRing(field, p, q, b, f, **kwargs)
