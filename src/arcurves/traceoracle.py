"""Traces of endomorphisms over the total quotient ring.

After inverting the nonzerodivisors, a module over the curve splits
along the branches into vector spaces over Laurent-series-free fields
k(t), and every endomorphism has an honest matrix trace there.  The
trace detects stable vanishing: h factors through a free module exactly
when trace(g h) lands in R for every endomorphism g, and by R-linearity
it suffices to test a generating set of End(M) as an R-module.

Two independent stable-vanishing oracles live here: the trace criterion
and a brute-force lift through the free cover (re-exported from the
module layer).  Tests confront them on whole corpora.
"""

from __future__ import annotations

from .branches import Branch, factor_hypersurface
from .errors import CertificationError, InputError, WindowNotSaturatedError
from .linalg import SparseRREF, solve_sparse_system
from .modmat import (EndAlgebra, GradedHom, GradedModule, _coefficient_matrix,
                     algebra_radical, hom_graded, stably_zero_bruteforce)
from .ring import QElement, WPoly

__all__ = [
    "trace_Q", "branch_images", "is_integral", "min_t_valuation",
    "end_generators", "EndGenerators", "stably_zero_trace",
    "stably_zero_bruteforce", "socle_test", "trace_report",
]


def _require_endo(h: GradedHom) -> GradedModule:
    if h.source is not h.target:
        raise InputError("trace is defined for endomorphisms only")
    return h.source


def _cokernel_trace(branch: Branch, M: GradedModule, h: GradedHom):
    """Trace of h on the branch cokernel, as (coeff, t-degree) or None.

    Scaling the i-th coordinate by t to the power deg(gen_i)/scale turns
    both the presentation and the endomorphism matrix into constant
    matrices over k (each entry is a single power of t, forced by
    homogeneity), so the cokernel trace is plain linear algebra over k;
    the grading contributes one overall factor t^(deg h / scale).
    """
    ring = M.ring
    K = ring.field
    ca = _coefficient_matrix(branch, M.matrix)
    ch = _coefficient_matrix(branch, h.H)
    ngens = len(M.gens)

    # Echelon form of the presentation image.  Each generator is keyed by
    # its rank in row_order, so the pivot chosen is the lowest generator
    # degree first, then the lowest index (deterministic).
    row_order = sorted(range(ngens), key=lambda i: (M.gens[i], i))
    rank = {i: r for r, i in enumerate(row_order)}
    image = SparseRREF(K)
    for j in range(len(M.rels)):
        image.insert({rank[i]: ca[i][j] for i in range(ngens)
                      if not K.is_zero(ca[i][j])})

    total = K.zero
    for j in range(ngens):
        if rank[j] in image.pivots:
            continue
        val = ch[j][j]
        for prank, pcol in image.pivots.items():
            c = pcol.get(rank[j])
            if c is not None:
                val = K.sub(val, K.mul(ch[row_order[prank]][j], c))
        total = K.add(total, val)
    if K.is_zero(total):
        return None
    if h.degree % branch.scale != 0:
        raise CertificationError(
            "branch trace acquired a fractional t-degree")
    return total, h.degree // branch.scale


def _ring_preimage(ring, branches, images, w):
    """The element of R_w with the given branch images, or None.

    R is reduced, so evaluation on all branches is injective and the
    preimage is unique when it exists.  Every monomial of degree w has
    one t-degree on a branch; an image of another t-degree has none.
    """
    K = ring.field
    basis = ring.graded_piece(w)
    rows = []
    for branch, img in zip(branches, images):
        row = {}
        tdeg = None
        for t, mono in enumerate(basis):
            ev = branch.evaluate(ring.monomial(*mono))
            if ev is not None:
                row[t], tdeg = ev
        if img is not None:
            if img[1] != tdeg:
                return None
            row[len(basis)] = K.neg(img[0])
        rows.append(row)
    sol, _ = solve_sparse_system(rows, len(basis), K, const_index=len(basis))
    if sol is None:
        return None
    return WPoly(K, ring.q, ring.p,
                 {mono: sol[t] for t, mono in enumerate(basis) if t in sol})


def _reconstruct_fraction(ring, branches, images, degree):
    """The element of Q with the given branch images, as u / x^e.

    Powers of x suffice as denominators: x is a nonzerodivisor and R
    modulo any homogeneous nonzerodivisor has finite length, so some
    x^e lies in every such principal ideal.
    """
    K = ring.field
    for e in range(0, 4 * ring.deg_g + abs(degree) + 1):
        den = ring.monomial(e, 0)
        scaled = []
        for branch, img in zip(branches, images):
            x_img = branch.evaluate(den)
            scaled.append(None if img is None else
                          (K.mul(img[0], x_img[0]), img[1] + x_img[1]))
        num = _ring_preimage(ring, branches, scaled, degree + e * ring.q)
        if num is not None:
            return QElement(ring, num, den)
    raise CertificationError(
        "trace fraction reconstruction exhausted the denominator bound")


def trace_Q(h: GradedHom, branches=None) -> QElement:
    """Trace of an endomorphism after base change to the quotient ring.

    Per branch the trace is computed on the k(t)-cokernel; the tuple is
    then lifted back to a single exact fraction over R, whose branch
    images are cached so later membership tests reuse them.
    """
    M = _require_endo(h)
    ring = M.ring
    if branches is None:
        branches = factor_hypersurface(ring)
    images = [_cokernel_trace(b, M, h) for b in branches]
    frac = _reconstruct_fraction(ring, branches, images, h.degree)
    for branch, img in zip(branches, images):
        frac._image_cache[id(branch)] = img
    return frac


def branch_images(tr: QElement, branches=None):
    if branches is None:
        branches = factor_hypersurface(tr.ring)
    return [b.evaluate_q(tr) for b in branches]


def is_integral(tr: QElement, branches=None) -> bool:
    """Whether every branch image is a polynomial in t (no pole at 0)."""
    return all(img is None or img[1] >= 0
               for img in branch_images(tr, branches))


def min_t_valuation(tr: QElement, branches=None):
    """Smallest branch t-valuation, or None when the element is zero."""
    vals = [img[1] for img in branch_images(tr, branches) if img is not None]
    return min(vals) if vals else None


# ----------------------------------------------------------------------
# generators of End(M) as an R-module


class EndGenerators:
    """A certified generating set of End(M) over R, with its window."""

    __slots__ = ("module", "gens", "lo", "hi", "strip_hi", "dims")

    def __init__(self, module, gens, lo, hi, strip_hi, dims):
        self.module = module
        self.gens = gens
        self.lo = lo
        self.hi = hi
        self.strip_hi = strip_hi
        self.dims = dims

    def describe(self) -> dict:
        return {
            "window": [self.lo, self.hi],
            "certified_through": self.strip_hi,
            "generator_degrees": [g.degree for g in self.gens],
            "hom_dims": {str(d): n for d, n in sorted(self.dims.items())},
        }


def end_generators(M: GradedModule, cache=True) -> EndGenerators:
    """Minimal R-module generators of End(M), collected degreewise.

    Degrees run from -spread (below which Hom vanishes) to
    B = 2 deg(g) + spread; new generators in degree d are hom-basis
    elements outside x Hom_{d-q} + y Hom_{d-p}.  A strip of width deg(g)
    above B then certifies the window: if the R-span of the generators
    fills every hom space on the strip the set is accepted, otherwise
    WindowNotSaturatedError is raised.  The window is heuristic; the
    certificate is per-run.
    """
    if cache:
        cached = getattr(M, "_end_generators", None)
        if cached is not None:
            return cached
    ring = M.ring
    K = ring.field
    spread = max(M.gens) - min(M.gens)
    lo = -spread
    hi = 2 * ring.deg_g + spread
    strip_hi = hi + ring.deg_g

    gens = []
    dims = {}
    for d in range(lo, hi + 1):
        space = hom_graded(M, M, d)
        if space.dim == 0:
            continue
        dims[d] = space.dim
        span = SparseRREF(K)
        for dd, mono in ((d - ring.q, (1, 0)), (d - ring.p, (0, 1))):
            if dd < lo:
                continue
            for b in hom_graded(M, M, dd).basis:
                span.insert(dict(b.times_monomial(*mono).coords))
        for b in space.basis:
            vec = dict(b.coords)
            if not span.contains(vec):
                span.insert(vec)
                gens.append(b)

    for d in range(hi + 1, strip_hi + 1):
        space = hom_graded(M, M, d)
        span = SparseRREF(K)
        for g in gens:
            for mono in ring.graded_piece(d - g.degree):
                span.insert(dict(g.times_monomial(*mono).coords))
        if span.rank != space.dim:
            raise WindowNotSaturatedError(
                f"endomorphism generators are not certified in degree {d}")
    result = EndGenerators(M, gens, lo, hi, strip_hi, dims)
    if cache:
        M._end_generators = result
    return result


# ----------------------------------------------------------------------
# stable vanishing and the socle test


def stably_zero_trace(h: GradedHom, branches=None) -> bool:
    """Whether h factors through a free module, by the trace criterion.

    h is stably zero exactly when trace(g h over Q) lies in R for every
    endomorphism g; R-linearity of the trace reduces the test to the
    generators of End(M).  The trace lies in R when its branch images
    have a preimage in R.
    """
    M = _require_endo(h)
    if branches is None:
        branches = factor_hypersurface(M.ring)
    for g in end_generators(M).gens:
        gh = g.compose(h)
        images = [_cokernel_trace(b, M, gh) for b in branches]
        if _ring_preimage(M.ring, branches, images, gh.degree) is None:
            return False
    return True


def _nonunit_generators(M: GradedModule):
    """R-module generators of the homogeneous nonunit part of End(M).

    The nonunits form the two-sided ideal J with J_0 the radical of the
    degree-zero part and J_d the whole of End_d for d nonzero; as an
    R-module J is generated by a basis of J_0, the nonzero-degree End
    generators, and x g, y g for each degree-zero generator g.
    """
    eg = end_generators(M)
    out = [g for g in eg.gens if g.degree != 0]
    for g in (g for g in eg.gens if g.degree == 0):
        out.append(g.times_monomial(1, 0))
        out.append(g.times_monomial(0, 1))
    alg = EndAlgebra(M)
    for vec in algebra_radical(alg):
        out.append(alg.hom(vec))
    return out


def socle_test(h: GradedHom, branches=None) -> bool:
    """Whether h spans the socle of the stable endomorphism ring.

    True exactly when h is not stably zero while g h is stably zero for
    every generator g of the nonunit part of End(M); the module must be
    graded-indecomposable for the socle statement to be meaningful.
    """
    M = _require_endo(h)
    if branches is None:
        branches = factor_hypersurface(M.ring)
    if stably_zero_trace(h, branches):
        return False
    for g in _nonunit_generators(M):
        if g.is_zero():
            continue
        if not stably_zero_trace(g.compose(h), branches):
            return False
    return True


def trace_report(h: GradedHom, branches=None) -> dict:
    """Serializable trace data: exact fraction plus branch monomials."""
    M = _require_endo(h)
    if branches is None:
        branches = factor_hypersurface(M.ring)
    tr = trace_Q(h, branches)
    K = M.ring.field
    per_branch = []
    for branch, img in zip(branches, branch_images(tr, branches)):
        per_branch.append({
            "branch": branch.kind,
            "image": None if img is None
            else f"{K.to_str(img[0])}*t^{img[1]}",
        })
    lifted = tr.in_ring()
    return {
        "degree": h.degree,
        "numerator": tr.num.to_string(),
        "denominator": tr.den.to_string(),
        "in_ring": None if lifted is None else lifted.to_string(),
        "branches": per_branch,
        "integral": is_integral(tr, branches),
    }
