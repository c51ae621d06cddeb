"""Branch decomposition of the curve and parametrization data.

Over a splitting field the defining polynomial factors as a monomial
part times a product of binomials a x^p + b y^q.  Each irreducible
factor h cuts out a branch R' = S/(h), parametrized inside k[t]:

  y-axis branch (h = y):    x -> t,        y -> 0,        R' = k[x]
  binomial branch:          x -> c t^q,    y -> t^p,      a c^p = -b

The t-degree of a parametrized monomial equals its weighted degree
divided by the branch scale (1 for binomials, q for the y-axis branch),
so value semigroups, Frobenius numbers, and integrality of fractions
are all decided by integer arithmetic on t-exponents.
"""

from __future__ import annotations

from . import upoly
from .errors import FormSplitError, InputError, NotSquarefreeError
from .ring import (HypersurfaceRing, QElement, WPoly, _dehomogenized_form,
                   _strip_monomial)


class Branch:
    """One analytic branch of the curve, with its k[t] parametrization."""

    def __init__(self, ring: HypersurfaceRing, kind: str, h: WPoly,
                 cx, ex: int, cy, ey: int, scale: int):
        self.ring = ring
        self.kind = kind
        self.h = h
        self.cx = cx
        self.ex = ex
        self.cy = cy
        self.ey = ey
        self.scale = scale
        gens = [ex]
        if cy:
            gens.append(ey)
        self.generators = tuple(sorted(set(gens)))
        self.frobenius = _frobenius_closed_form(self.generators)
        self.conductor = self.frobenius + 1
        # Multiplicity of the branch: smallest positive t-degree of a
        # parameter image, i.e. the least semigroup generator.
        self.multiplicity = min(self.generators)
        self._piece_rows: dict = {}

    def evaluate(self, poly: WPoly):
        """Image of a homogeneous polynomial, as (coeff, t-degree) or None."""
        if poly.is_zero():
            return None
        total = 0
        tdeg = None
        for (i, j), c in poly.terms.items():
            if j > 0 and not self.cy:
                continue
            total += c * self.cx ** i * self.cy ** j
            tdeg = self.ex * i + self.ey * j
        total = self.ring.field(total)
        if tdeg is None or not total:
            return None
        return total, tdeg

    def piece_row(self, w: int):
        """Images of the monomial basis of R_w, cached per w.

        Returns ({basis index: coeff}, t-degree); every monomial of degree
        w has the same t-degree, None when all of them vanish here.
        """
        cached = self._piece_rows.get(w)
        if cached is None:
            ring = self.ring
            row = {}
            tdeg = None
            for t, mono in enumerate(ring.graded_piece(w)):
                ev = self.evaluate(ring.monomial(*mono))
                if ev is not None:
                    row[t], tdeg = ev
            cached = self._piece_rows[w] = (row, tdeg)
        return cached

    def evaluate_q(self, qe: QElement):
        """Image of a fraction as (coeff, t-degree) or None."""
        num_img = self.evaluate(qe.num)
        if num_img is None:
            return None
        den_img = self.evaluate(qe.den)
        K = self.ring.field
        return K(num_img[0] * K.inv(den_img[0])), num_img[1] - den_img[1]

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "h": self.h.to_string(),
            "parametrization": {
                "x": f"{self.cx}*t^{self.ex}",
                "y": f"{self.cy}*t^{self.ey}",
            },
            "semigroup_generators": list(self.generators),
            "frobenius": self.frobenius,
            "conductor": self.conductor,
            "multiplicity": self.multiplicity,
        }

    def __repr__(self):
        return f"Branch({self.kind}, h={self.h.to_string()})"


def _frobenius_closed_form(gens) -> int:
    """The largest gap of the semigroup the generators span: -1 for (1,),
    Sylvester's a b - a - b for a pair (q, p), coprime as the ring checks."""
    if gens == (1,):
        return -1
    if len(gens) == 2:
        a, b = gens
        return a * b - a - b
    raise InputError(f"unsupported semigroup generators {gens}")


def _axis_branch(ring: HypersurfaceRing) -> Branch:
    # h = y: the branch is the x-axis line parametrized by x -> t.  Its
    # twin h = x never occurs: g contains y^(q+v), so x does not divide g.
    K = ring.field
    return Branch(ring, "y-axis", ring.y_poly(), K.one, 1, K.zero, 0, ring.q)


def _binomial_branch(ring: HypersurfaceRing, alpha, beta) -> Branch:
    """Branch of alpha x^p + beta y^q, normalized so y -> t^p."""
    K = ring.field
    alpha = K(alpha * K.inv(beta))
    h = WPoly(K, ring.q, ring.p, {(ring.p, 0): alpha, (0, ring.q): K.one})
    target = K(-K.inv(alpha))
    cx = _pth_root(K, target, ring.p)
    if cx is None:
        raise FormSplitError(
            f"form does not split over k: no p-th root of {target}")
    return Branch(ring, "binomial", h, cx, ring.q, K.one, ring.p, 1)


def _pth_root(K, value, p: int):
    # The least root over F_ell; over Q the real root, the positive one
    # when there are two (-r and r).  So the branch does not depend on
    # the algorithm.
    rs = upoly.roots([K(-value)] + [K.zero] * (p - 1) + [K.one], K)
    if not rs:
        return None
    return rs[-1] if K.char == 0 else rs[0]


def factor_hypersurface(ring: HypersurfaceRing) -> list[Branch]:
    """All branches of the curve, in a deterministic order.

    Raises NotSquarefreeError when g has a repeated factor and
    FormSplitError when some binomial factor has no root in k.  The
    branches multiply back to g up to a scalar, so they are not
    multiplied out.  g = x^i0 y^j0 F, where the stripped F has x- and
    y-exponent minimum zero and is the binary form y^(qN) P(x^p / y^q)
    with P of degree N and P(0) != 0 (_factor_binary_form).  When
    upoly.linear_factors reports split, its exact roots r fill every
    squarefree part of P, so P = lc(P) prod (T - r)^mult and F is a
    scalar times the product of the x^p - r y^q, each a scalar times its
    binomial branch's h.  Every mult is 1: ring.is_reduced found
    gcd(P, P') = 1 on this same P.  x does not divide g (it contains
    y^(q+v)), so i0 = 0, and g squarefree leaves j0 <= 1, the y-axis
    branch h = y when j0 = 1.
    """
    if ring._branches_cache is not None:
        return ring._branches_cache
    if not ring.is_reduced:
        raise NotSquarefreeError("not squarefree")
    K = ring.field
    _, j0, stripped = _strip_monomial(ring.g)
    branches = []
    if j0 >= 1:
        branches.append(_axis_branch(ring))
    if stripped.degree > 0:
        pairs = _factor_binary_form(ring, stripped)
        pairs.sort(key=lambda ab: str(K(ab[0] * K.inv(ab[1]))))
        for alpha, beta in pairs:
            branches.append(_binomial_branch(ring, alpha, beta))
    ring._branches_cache = branches
    return branches


def _factor_binary_form(ring: HypersurfaceRing, stripped: WPoly):
    """Linear factors (alpha, beta) of the form in (x^p, y^q).

    Each root r gives T - r with T = x^p / y^q: alpha = 1, beta = -r.
    No root is 0: stripped has an x-free term, so the T^0 coefficient of
    its dehomogenized form is nonzero and T = 0 is no root.
    """
    K = ring.field
    coeffs = _dehomogenized_form(stripped, ring.p)
    roots, split = upoly.linear_factors(coeffs, K)
    if not split:
        raise FormSplitError("form does not split over k")
    return [(K.one, K(-root)) for root, _ in roots]


def singular_branch(ring: HypersurfaceRing) -> Branch:
    """The default branch carrying the conductor: the form factor's branch.

    b x^p + y^q always divides g, so among the binomial branches the one
    it cuts out is the canonical default.  For b = 0 the curve is y^q f = 0
    and never squarefree, so the y-axis branch is built directly without
    factoring.
    """
    if not ring.b:
        return _axis_branch(ring)
    # Exactly one branch kills the form.  b != 0, so g is squarefree
    # (HypersurfaceRing) and its branches are distinct factors of g.  The
    # y-axis branch (x -> t, y -> 0) sends the form to b t^p != 0.  A
    # binomial branch, h = a x^p + y^q with x -> c t^q, y -> t^p and
    # a c^p = -1, sends it to (b c^p + 1) t^(pq), zero exactly when a = b,
    # that is when h is the form itself, a factor of g.
    form = (ring.monomial(ring.p, 0, ring.b) + ring.monomial(0, ring.q))
    return next(br for br in factor_hypersurface(ring)
                if br.evaluate(form) is None)


def gamma_prime(branch: Branch) -> QElement:
    """A degree-maximal element of the inverse different of the branch.

    Returns y^{q-1}/x on a binomial branch and 1/x on the y-axis branch,
    fractions over x, which vanishes on no branch.  The image is a
    nonzero multiple of t^F, F the branch's Frobenius number: on a
    binomial branch (x -> c t^q, y -> t^p) it is t^(pq - p - q) / c, and
    pq - p - q is Sylvester's largest gap of <q, p>
    (_frobenius_closed_form); on the y-axis branch (x -> t) it is t^-1,
    and F = -1.  F is the largest gap, so gamma' is not in the branch
    ring, while F + s is in the semigroup for every s > 0 in it: gamma'
    times the maximal ideal lands in the branch ring.
    """
    ring = branch.ring
    binomial = branch.kind == "binomial"
    num = ring.monomial(0, ring.q - 1) if binomial else ring.one()
    return QElement(ring, num, ring.x_poly())
