"""Traces of endomorphisms over the total quotient ring.

After inverting the nonzerodivisors, a module over the curve splits
along the branches into vector spaces over the fields k(t), and every
endomorphism has an honest matrix trace there.  The trace detects
stable vanishing: h factors through a free module exactly when
trace(g h) lands in R for every endomorphism g, and by R-linearity it
suffices to test a generating set of End(M) as an R-module.

On one branch the trace is a linear map on constant matrices.
Evaluating the entries of h gives a constant matrix C_b(h) over k, and
the branch trace is tr(P_b C_b(h)), where P_b projects onto the
cokernel of the evaluated presentation.  C_b(h) is read off the
coordinates of h, each weighted by the branch image of its monomial
(GradedHom._coefficients), so no matrix of h is built and no entry is
evaluated.  Evaluation is a ring map and P_b kills the presentation, so
the trace of g h is the pairing of tau_{g,b} = P_b C_b(g) with C_b(h):
no composite is ever formed.  P_b and the tau of every End generator are
built once per module and branch (cached on the module).  The trace lies
in R_w when its vector of branch coefficients is killed by the
annihilator of the span of R_w's branch images, one kernel per degree
(cached on the ring), so "the trace lies in R" is a few products per
generator and no elimination (_in_ring).  The End generators are
collected only up to the conductor bound a(R) + spread (see
end_generators).

A trace is its tuple of images on every branch of factor_hypersurface,
in that order: Q is the product of the fields k(t) over all branches,
so no function here takes a list of them.  A fraction over R is made
only where a report prints one (trace_Q, trace_report).

Two independent stable-vanishing oracles live here: the trace criterion
and a brute-force lift through the free cover (re-exported from the
module layer).  Tests confront them on whole corpora.
"""

from __future__ import annotations

from .branches import Branch, factor_hypersurface
from .errors import CertificationError, InputError
from .homs import GradedHom, hom_graded
from .linalg import SparseRREF, kernel_sparse, solve_sparse_system
from .matfact import GradedModule, _canonical, _coefficient_matrix
from .modmat import TopAlgebra, stably_zero_bruteforce
from .ring import QElement, WPoly

__all__ = [
    "trace_images", "trace_Q", "branch_images", "is_integral",
    "min_t_valuation", "end_generators", "EndGenerators", "stably_zero_trace",
    "stably_zero_bruteforce", "socle_test", "trace_report",
]


def _require_endo(h: GradedHom) -> GradedModule:
    if h.source is not h.target:
        raise InputError("trace is defined for endomorphisms only")
    return h.source


class _BranchTrace:
    """The cokernel trace of endomorphisms of M on one branch.

    Scaling the i-th coordinate by t to the power deg(gen_i)/scale turns
    the presentation and an endomorphism matrix into constant matrices
    over k (each entry is a single power of t, forced by homogeneity);
    the grading contributes one overall factor t^(deg h / scale).  A
    functional is a dict {(i, j): c}, read as X -> sum of c X[i][j] on
    the coefficient matrix X = C_b(h); the trace itself is the projector.
    """

    __slots__ = ("branch", "module", "projector", "_generators")

    def __init__(self, branch: Branch, M: GradedModule):
        K = M.ring.field
        ca = _coefficient_matrix(branch, M.matrix)
        ngens = len(M.gens)

        # Echelon form of the presentation image.  Each generator is keyed by
        # its rank in row_order, so the pivot chosen is the lowest generator
        # degree first, then the lowest index (deterministic).
        row_order = sorted(range(ngens), key=lambda i: (M.gens[i], i))
        rank = {i: r for r, i in enumerate(row_order)}
        image = SparseRREF(K)
        for j in range(len(M.rels)):
            image.insert({rank[i]: ca[i][j] for i in range(ngens)
                          if ca[i][j]})

        # The nonpivot generators span the cokernel; the diagonal entry of
        # generator j there is X[j][j] minus the pivot rows' share of X e_j.
        projector = {}
        for j in range(ngens):
            if rank[j] in image.rows:
                continue
            projector[(j, j)] = K.one
            for prank, pcol in image.pivots.items():
                c = pcol.get(rank[j])
                if c is not None:
                    projector[(row_order[prank], j)] = K(-c)
        self.branch = branch
        self.module = M
        self.projector = projector
        self._generators = None

    def functional(self, G):
        """tau = P_b G, so that tr_b(g h) = <tau, C_b(h)> when G = C_b(g).
        G is in canonical form, so a zero entry is 0."""
        tau: dict = {}
        for (i, j), c in self.projector.items():
            for k, gik in enumerate(G[i]):
                if gik:
                    tau[(k, j)] = tau.get((k, j), 0) + c * gik
        return _canonical(tau, self.module.ring.field)

    def generator_functionals(self):
        """The functionals of the End generators, in their order."""
        if self._generators is None:
            self._generators = [
                self.functional(g._coefficients(self.branch))
                for g in end_generators(self.module).gens]
        return self._generators

    def image(self, functional, X, degree):
        """<functional, X> as a branch image (coeff, t-degree) or None;
        degree is the degree of the endomorphism whose trace it is.  X is
        in canonical form, so its zeros are skipped by their truth value:
        a Fraction times 0 would still cost a Fraction operation.  A
        nonzero trace is homogeneous of that degree in k(t), where t has
        degree scale, so scale divides the degree."""
        total = 0
        for (i, j), c in functional.items():
            x = X[i][j]
            if x:
                total += c * x
        total = self.module.ring.field(total)
        if not total:
            return None
        return total, degree // self.branch.scale


def _branch_trace(branch: Branch, M: GradedModule) -> _BranchTrace:
    """The trace functionals of M on a branch, built once and cached on M."""
    bt = M._trace_cache.get(branch)
    if bt is None:
        bt = M._trace_cache[branch] = _BranchTrace(branch, M)
    return bt


def _cokernel_trace(branch: Branch, M: GradedModule, h: GradedHom):
    """Trace of h on the branch cokernel, as (coeff, t-degree) or None."""
    bt = _branch_trace(branch, M)
    return bt.image(bt.projector, h._coefficients(branch), h.degree)


def _in_ring(ring, images, w) -> bool:
    """Whether the branch images are those of an element of R_w.

    Every monomial of degree w has one t-degree on a branch, so the
    images must sit there.  Their coefficients, a vector v indexed by the
    branches, must lie in the span S of the monomials' images
    (Branch.piece_row); v lies in S exactly when v a = 0 for every a in
    a basis of the annihilator of S.  That basis is one kernel_sparse per
    w, kept on the ring, so a test is a product with each of its vectors
    and no elimination.
    """
    cache = ring._annihilators
    if w not in cache:
        rows = [b.piece_row(w) for b in factor_hypersurface(ring)]
        images_of = [{b: row[t] for b, (row, _) in enumerate(rows) if t in row}
                     for t in range(len(ring.graded_piece(w)))]
        cache[w] = (kernel_sparse(images_of, len(rows), ring.field),
                    [tdeg for _, tdeg in rows])
    annihilator, tdegs = cache[w]
    if any(img is not None and img[1] != tdeg
           for img, tdeg in zip(images, tdegs)):
        return False
    K = ring.field
    for a in annihilator:
        total = 0
        for b, c in a.items():
            if images[b] is not None:
                total += images[b][0] * c
        if K(total):
            return False
    return True


def _ring_preimage(ring, images, w):
    """The element of R_w with the given branch images, or None.

    R is reduced, so evaluation on all branches is injective and the
    preimage is unique when it exists (_in_ring decides whether it does).
    """
    if not _in_ring(ring, images, w):
        return None
    K = ring.field
    basis = ring.graded_piece(w)
    rows = []
    for branch, img in zip(factor_hypersurface(ring), images):
        row = dict(branch.piece_row(w)[0])
        if img is not None:
            row[len(basis)] = -img[0]
        rows.append(row)
    sol = solve_sparse_system(rows, len(basis), K)
    return WPoly(K, ring.q, ring.p,
                 {mono: sol[t] for t, mono in enumerate(basis) if t in sol})


def _reconstruct_fraction(ring, images, degree):
    """The element of Q with the given branch images, as u / x^e.

    Powers of x suffice as denominators: x is a nonzerodivisor and R
    modulo any homogeneous nonzerodivisor has finite length, so some
    x^e lies in every such principal ideal.
    """
    K = ring.field
    for e in range(0, 4 * ring.deg_g + abs(degree) + 1):
        den = ring.monomial(e, 0)
        scaled = []
        for branch, img in zip(factor_hypersurface(ring), images):
            x_img = branch.evaluate(den)
            scaled.append(None if img is None else
                          (K(img[0] * x_img[0]), img[1] + x_img[1]))
        num = _ring_preimage(ring, scaled, degree + e * ring.q)
        if num is not None:
            return QElement(ring, num, den)
    raise CertificationError(
        "trace fraction reconstruction exhausted the denominator bound")


def trace_images(h: GradedHom):
    """The trace of an endomorphism over Q: on every branch, in order, the
    (coeff, t-degree) of its trace on the k(t)-cokernel, or None."""
    M = _require_endo(h)
    return [_cokernel_trace(b, M, h) for b in factor_hypersurface(M.ring)]


def trace_Q(h: GradedHom) -> QElement:
    """The trace as the exact fraction over R whose images on every
    branch are trace_images(h); only reports need it."""
    return _reconstruct_fraction(h.source.ring, trace_images(h), h.degree)


def branch_images(tr: QElement):
    """The images of a fraction on every branch of its ring, in order."""
    return [b.evaluate_q(tr) for b in factor_hypersurface(tr.ring)]


def is_integral(images) -> bool:
    """Whether every branch image is a polynomial in t (no pole at 0);
    images are those on every branch, from trace_images or branch_images."""
    return all(img is None or img[1] >= 0 for img in images)


def min_t_valuation(images):
    """Smallest branch t-valuation, or None when the element is zero."""
    vals = [img[1] for img in images if img is not None]
    return min(vals) if vals else None


# ----------------------------------------------------------------------
# generators of End(M) as an R-module


class EndGenerators:
    """A generating set of End(M) over R modulo stably zero maps."""

    __slots__ = ("module", "gens", "lo", "hi", "dims")

    def __init__(self, module, gens, lo, hi, dims):
        self.module = module
        self.gens = gens
        self.lo = lo
        self.hi = hi
        self.dims = dims

    def describe(self) -> dict:
        return {
            "window": [self.lo, self.hi],
            "certified_through": self.hi,
            "generator_degrees": [g.degree for g in self.gens],
            "hom_dims": {str(d): n for d, n in sorted(self.dims.items())},
        }


def end_generators(M: GradedModule) -> EndGenerators:
    """Minimal R-module generators of End(M) modulo stably zero maps.

    Degrees run from -spread, below which End(M) vanishes, to
    a(R) + spread; new generators in degree d are hom-basis elements
    outside x End_{d-q} + y End_{d-p}, so the set generates End(M) in
    every degree of the window.  Every endomorphism f above the window
    is stably zero: for any g the trace of g f has degree at least
    a(R) + 1, the conductor degree, where R_w is the whole degree-w
    piece of the integral closure (the value-semigroup theorem of Kunz
    for Gorenstein curves), and traces of endomorphisms of maximal
    Cohen-Macaulay modules are integral, so trace(g f) lies in R.  The
    set therefore generates End(M) modulo maps through frees, which is
    all the trace and socle tests need.
    """
    if M._end_generators is not None:
        return M._end_generators
    ring = M.ring
    K = ring.field
    spread = max(M.gens) - min(M.gens)
    lo = -spread
    hi = ring.gamma_degree + spread

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
            if span.insert(dict(b.coords)) is not None:
                gens.append(b)
    result = EndGenerators(M, gens, lo, hi, dims)
    M._end_generators = result
    return result


# ----------------------------------------------------------------------
# stable vanishing and the socle test


def _traces_in_ring(M: GradedModule, degree: int, coefficients) -> bool:
    """Whether trace(g X) lies in R for every End generator g.

    X is an endomorphism of M of the given degree, given by its
    coefficient matrix on a branch, coefficients(branch), for every
    branch.  Each trace is read off the generator functionals and tested
    for membership in R (_in_ring).
    """
    reads = []
    for b in factor_hypersurface(M.ring):
        bt = _branch_trace(b, M)
        reads.append((bt, bt.generator_functionals(), coefficients(b)))
    for k, g in enumerate(end_generators(M).gens):
        w = g.degree + degree
        images = [bt.image(functionals[k], X, w)
                  for bt, functionals, X in reads]
        if not _in_ring(M.ring, images, w):
            return False
    return True


def stably_zero_trace(h: GradedHom) -> bool:
    """Whether h factors through a free module, by the trace criterion.

    h is stably zero exactly when trace(g h over Q) lies in R for every
    endomorphism g; R-linearity of the trace reduces the test to the
    generators of End(M).  The trace lies in R when its branch images
    have a preimage in R.
    """
    return _traces_in_ring(_require_endo(h), h.degree, h._coefficients)


def _product_stably_zero(g: GradedHom, h: GradedHom) -> bool:
    """Whether g h is stably zero, by the trace criterion, without forming it.

    Evaluation on a branch is a ring map, so the branch coefficients of
    the product are C_b(g) C_b(h), read off the coordinates of g and h;
    neither a normal form nor a matrix B C, with B the target's
    presentation, changes a branch trace.
    """
    K = h.source.ring.field

    def coefficients(b):
        columns = list(zip(*h._coefficients(b)))
        return [[K(sum(a * x for a, x in zip(row, col) if a and x))
                 for col in columns] for row in g._coefficients(b)]

    return _traces_in_ring(h.source, g.degree + h.degree, coefficients)


def _nonunit_generators(M: GradedModule):
    """R-module generators of the homogeneous nonunit part of End(M).

    The nonunits form the two-sided ideal J with J_0 the radical of the
    degree-zero part and J_d the whole of End_d for d nonzero; as an
    R-module J is generated by a basis of J_0 (read on the top algebra,
    see TopAlgebra), the nonzero-degree End generators, and x g, y g for
    each degree-zero generator g, modulo stably zero maps as the End
    generators are.
    """
    eg = end_generators(M)
    out = [g for g in eg.gens if g.degree != 0]
    for g in (g for g in eg.gens if g.degree == 0):
        out.append(g.times_monomial(1, 0))
        out.append(g.times_monomial(0, 1))
    return out + TopAlgebra(M).end_radical()


def socle_test(h: GradedHom) -> bool:
    """Whether h spans the socle of the stable endomorphism ring.

    True exactly when h is not stably zero while g h is stably zero for
    every generator g of the nonunit part of End(M); the module must be
    graded-indecomposable for the socle statement to be meaningful.
    """
    M = _require_endo(h)
    if stably_zero_trace(h):
        return False
    for g in _nonunit_generators(M):
        if g.is_zero():
            continue
        if not _product_stably_zero(g, h):
            return False
    return True


def trace_report(h: GradedHom) -> dict:
    """Serializable trace data: exact fraction plus branch monomials."""
    M = _require_endo(h)
    images = trace_images(h)
    tr = _reconstruct_fraction(M.ring, images, h.degree)
    per_branch = []
    for branch, img in zip(factor_hypersurface(M.ring), images):
        per_branch.append({
            "branch": branch.kind,
            "image": None if img is None else f"{img[0]}*t^{img[1]}",
        })
    # the reconstruction tries x^0 first, so tr lies in R exactly when
    # its denominator is x^0, and then tr is its numerator
    return {
        "degree": h.degree,
        "numerator": tr.num.to_string(),
        "denominator": tr.den.to_string(),
        "in_ring": tr.num.to_string() if tr.den.degree == 0 else None,
        "branches": per_branch,
        "integral": is_integral(images),
    }
