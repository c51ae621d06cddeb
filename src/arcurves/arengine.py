"""Almost split sequences over graded hypersurface curves.

The engine turns the conductor fraction gamma of a branch into an exact
degree-G endomorphism of a module, doubles the module's factorization
into the middle term of an almost split sequence, iterates that
construction to walk a component of the stable quiver, and certifies
the resulting sequences and the double-extension normal form exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .branches import factor_hypersurface, gamma_prime, singular_branch
from .errors import InputError, VerificationError
from .homs import hom_graded
from .linalg import SparseRREF, rank_dense
from .matfact import (GradedMatrix, GradedModule, MatrixFactorization,
                      block_matrix, mf_from_ideal, rank_vector)
from .modmat import (_scalar_part, decompose, iso_up_to_shift,
                     solve_graded_system, stably_zero_bruteforce)
from .quiver import (TranslationQuiver, check_subadditive, classify_fragment,
                     orbit_collapse)
from .ring import HypersurfaceRing, QElement
from .traceoracle import (_nonunit_generators, _ring_preimage, socle_test,
                          stably_zero_trace, trace_images, trace_report)


# ----------------------------------------------------------------------
# the gamma datum


class GammaDatum:
    """The socle fraction of a branch, packaged with its certificates.

    gamma = z * prime_fraction, where prime_fraction is the branch's
    inverse-different generator inside the total quotient ring and z
    kills the branch's prime.  gamma is not in R and gamma times each
    variable is, and z annihilates the branch factor modulo g; gamma_for
    proves all three by construction.
    """

    def __init__(self, ring: HypersurfaceRing, branch,
                 prime_fraction: QElement, z, gamma: QElement):
        self.ring = ring
        self.branch = branch
        self.prime_fraction = prime_fraction
        self.z = z
        self.gamma = gamma

    def describe(self) -> dict:
        return {
            "branch": self.branch.describe(),
            "gamma_prime": self.prime_fraction.to_string(),
            "z": self.z.to_string(),
            "gamma": self.gamma.to_string(),
            "degree": self.gamma.degree,
        }


def gamma_for(ring: HypersurfaceRing, branch=None) -> GammaDatum:
    """Build the gamma datum of a branch (default: the conductor branch).

    gamma = gamma' z with z the normal form of g/h, h the branch factor;
    g.div_exact(h) raises on a remainder, so z h = g = 0 in R.  No other
    z can serve: every z killing h is a multiple of g/h, and
    deg(g/h) + deg gamma' = deg g - p - q = G on both kinds of branch
    (binomial: (deg g - pq) + (pq - p - q); y-axis: (deg g - p) - q),
    so any multiple of positive degree misses the socle degree G, and
    gamma lies in degree G, as the matrix machinery expects.  gamma
    escapes R and gamma times each variable returns to R, proved below.
    """
    if branch is None:
        branch = singular_branch(ring)
    gp = gamma_prime(branch)
    z = ring.normal_form(ring.g.div_exact(branch.h))
    # gamma = N/x, in R exactly when every term of N carries x.  g's one
    # x-free term is y^(q+v), so the x-free part of NF(P) is
    # P(0, y) mod y^(q+v).  Binomial branch: h(0, y) = y^q, z(0, y) = y^v,
    # N = NF(y^(q-1) z) has x-free part y^(q+v-1) != 0; x gamma = y^(q-1) z
    # and y gamma has x-free part y^(q+v) = 0.  y-axis branch: N = z has
    # x-free part y^(q+v-1); x gamma = z and y gamma = g/x = 0 in R.
    gamma = gp * z
    return GammaDatum(ring, branch, gp, z, gamma)


# ----------------------------------------------------------------------
# the gamma endomorphism and the doubled factorization


def _in_ring_matrix(gd: GammaDatum, A: GradedMatrix) -> GradedMatrix:
    """Entrywise representative of gamma A inside R.

    Requires every entry of A to lie in the maximal ideal; the result's
    column degrees rise by gamma's degree.
    """
    ring = A.ring
    G = ring.gamma_degree
    num = gd.gamma.num
    ents = []
    for i in range(len(A.rows)):
        row = []
        for j in range(len(A.cols)):
            e = A.entries[i][j]
            if e.is_zero():
                row.append(ring.zero_poly())
                continue
            w = ring.q_membership(num * e, gd.gamma.den)
            if w is None:
                raise VerificationError(
                    "gamma times entry (%d, %d) leaves R" % (i, j))
            row.append(w)
        ents.append(row)
    return GradedMatrix(ring, A.rows, tuple(c + G for c in A.cols), ents)


def _alpha_beta(M: GradedModule, gd: GammaDatum):
    """Solve the gamma endomorphism on M and its exact companion.

    Returns (alpha, beta): alpha, in the frame of psi's columns, solves
    psi alpha = gamma psi modulo g, and beta = psi alpha phi / g.  That
    equation is the paper's: gamma acts on M = cok phi = im psi, a
    maximal Cohen-Macaulay module with no free summand over a Gorenstein
    curve (Bass, Math. Z. 82, 1963).  alpha is fixed only up to
    phi Y + Y' psi, so it is first solved jointly with
    alpha phi = -gamma phi modulo g.  That gauge keeps alpha small, and
    solve_W needs it; the paper does not.  Only when the joint system has
    no solution is psi alpha = gamma psi solved alone.  On either path
    the exact division certifies alpha as an endomorphism of M:
    phi psi = psi phi = g Id (MatrixFactorization) and S a domain give
    phi beta = alpha phi and beta psi = psi alpha on the nose.
    """
    ring = M.ring
    if not M.mf.is_reduced():
        raise InputError("factorization has unit entries; reduce it first")
    phi, psi = M.mf.phi, M.mf.psi
    D, G = ring.deg_g, ring.gamma_degree
    unknowns = {"A": (psi.cols, tuple(c + G for c in psi.cols))}
    gamma_psi = ([("L", psi, "A")], -_in_ring_matrix(gd, psi))
    gauge = ([("R", phi, "A")], _in_ring_matrix(gd, phi))
    sol = (solve_graded_system(ring, unknowns, [gamma_psi, gauge])
           or solve_graded_system(ring, unknowns, [gamma_psi]))
    if sol is None:
        raise VerificationError("gamma endomorphism system has no solution")
    alpha = sol["A"]
    product = psi.mul(alpha).mul(phi.shift(D + G))
    try:
        beta = product.div_exact_g()
    except InputError:
        raise VerificationError(
            "psi alpha phi is not divisible by g") from None
    return alpha, beta


def gamma_endo(M: GradedModule, gd: GammaDatum):
    """The degree-G endomorphism induced by gamma on a reduced module,
    the one place where gamma_M becomes a hom (certified by from_matrix)."""
    alpha, _ = _alpha_beta(M, gd)
    G = M.ring.gamma_degree
    return hom_graded(M, M, G).from_matrix(alpha.shift(-M.ring.deg_g))


# ----------------------------------------------------------------------
# pushing a module into its almost split sequence


class ARSequence:
    """An exact sequence 0 -> left -> middle -> right -> 0: its matrices
    alpha and beta (see push), the rank vectors of its terms, which add
    by exactness when g is squarefree and are compared by push
    otherwise, and maps inj and proj built on first read."""

    def __init__(self, left: GradedModule, middle: GradedModule,
                 right: GradedModule, datum: GammaDatum, alpha: GradedMatrix,
                 beta: GradedMatrix, ranks: dict):
        self.left = left
        self.middle = middle
        self.right = right
        self.datum = datum
        self.alpha = alpha
        self.beta = beta
        self.ranks = ranks

    @cached_property
    def inj(self):
        """left -> middle, onto the generators of the phi block."""
        return _unit_hom(self.left, self.middle, 0)

    @cached_property
    def proj(self):
        """middle -> right, onto the generators of the psi block."""
        return _unit_hom(self.middle, self.right, len(self.left.gens))

    @property
    def additivity_degree(self) -> int:
        """The degree in which push checks dimension additivity."""
        return min(self.middle.gens) + self.left.ring.deg_g

    def factors_through_left(self, u) -> bool:
        """Does the endomorphism u of the left term extend to the middle?

        Solves s inj = u exactly over the degree-matched hom space; an
        affirmative answer for every nonisomorphism and a negative one
        for units is the almost split property on the left.
        """
        if u.source is not self.left or u.target is not self.left:
            raise InputError("u must be an endomorphism of the left term")
        span = SparseRREF(self.left.ring.field)
        for b in hom_graded(self.middle, self.left, u.degree).basis:
            span.insert(dict(b.compose(self.inj).coords))
        return span.contains(dict(u.coords))

    def describe(self) -> dict:
        return {
            "left": self.left.describe(),
            "middle": self.middle.describe(),
            "right": self.right.describe(),
            "gamma": self.datum.gamma.to_string(),
        }


def _unit_hom(source, target, k):
    """The degree-0 map whose matrix has ones where column - row = k."""
    ring = source.ring
    H = GradedMatrix(ring, target.gens, source.gens,
                     [[ring.one() if j - i == k else ring.zero_poly()
                       for j in range(len(source.gens))]
                      for i in range(len(target.gens))])
    return hom_graded(source, target, 0).from_matrix(H)


def _rank_unit_check(module, gd, what):
    K = module.ring.field
    r = rank_vector(module, [gd.branch])[0]
    if r == 0 or (K.char != 0 and r % K.char == 0):
        raise InputError(
            "%s has branch rank %d, zero in the coefficient field" % (what, r))
    return r


def _glued(mf: MatrixFactorization, A: GradedMatrix,
           B: GradedMatrix) -> MatrixFactorization:
    """The pair ([[phi, -A(-D)], [0, psi(delta)]], [[psi, B], [0, phi(G)]])
    glued from mf = (phi, psi), delta = G - D, for A from psi.cols to
    psi.cols + G and B with phi B = A phi on the nose: a factorization of
    g with no product taken, as its product is [[phi psi, phi B - A phi],
    [0, psi phi]] = g Id.  push glues (alpha, beta), double_extension
    (W, V)."""
    ring = mf.ring
    D, G = ring.deg_g, ring.gamma_degree
    delta = G - D
    phi, psi = mf.phi, mf.psi
    first = block_matrix(
        ring,
        [[phi, -A.shift(-D)], [None, psi.shift(delta)]],
        rows=phi.rows + tuple(r + delta for r in psi.rows),
        cols=phi.cols + tuple(c + delta for c in psi.cols))
    second = block_matrix(
        ring,
        [[psi, B], [None, phi.shift(G)]],
        rows=psi.rows + tuple(r + G for r in phi.rows),
        cols=psi.cols + tuple(c + G for c in phi.cols))
    return MatrixFactorization._derived(first, second)


def push(M: GradedModule, gd: GammaDatum, summands=None) -> ARSequence:
    """The almost split sequence starting at M.

    The middle term is the cokernel of the doubled factorization
    xi = [[phi, -alpha], [0, psi]], paired with eta = [[psi, beta],
    [0, phi]]; the right term is the cosyzygy of M shifted down by
    gamma's degree, M.mf.syz().shift(-delta).  The pair is not multiplied
    out (_glued), as phi beta = alpha phi (_alpha_beta).  Preconditions:
    M carries a reduced factorization and every indecomposable summand
    (the list may be supplied to skip a fresh decomposition) has branch
    rank nonzero in k.  Certified: alpha and beta (see _alpha_beta), and
    dimension additivity in the degree min(gens) + deg g of the middle
    term, where dim cok xi is found by eliminating xi over R and must
    equal dim M_d plus the right term's.
    By the block shape of xi, with psi' = psi(delta) injective over S
    (det psi != 0), the sequence 0 -> M -> cok xi -> cok psi' -> 0 is
    exact.  When g is squarefree, R localized at a branch prime is a
    field, so ranks add on each branch and are not compared.  On a
    non-reduced ring a branch rank is dim M (x) kappa(h), which is only
    right exact, so there the rank vectors are compared.  seq.ranks
    reports all three.  No hom space is built: proj inj = [0 I][I; 0] = 0.
    """
    ring = M.ring
    # _alpha_beta checks that M.mf is reduced, and a free summand is
    # refused here first.
    if summands is None:
        parts, frees = decompose(M)
        if frees:
            raise InputError("free summands admit no almost split sequence")
        summands = parts
    for part in summands:
        _rank_unit_check(part, gd, part.label or "a summand")
    alpha, beta = _alpha_beta(M, gd)
    label = M.label or "M"
    middle = _glued(M.mf, alpha, beta).cok(label="push(%s)" % label)
    G = ring.gamma_degree
    delta = G - ring.deg_g
    right = M.mf.syz().shift(-delta).cok(label="cosyz(%s)(%d)" % (label, -G))

    branches = (factor_hypersurface(ring) if ring.is_reduced else [gd.branch])
    r_left = rank_vector(M, branches)
    r_mid = rank_vector(middle, branches)
    r_right = rank_vector(right, branches)
    if not ring.is_reduced and any(
            m != a + b for m, a, b in zip(r_mid, r_left, r_right)):
        raise VerificationError(
            "middle ranks %s differ from %s + %s" % (r_mid, r_left, r_right))
    seq = ARSequence(M, middle, right, gd, alpha, beta,
                     {"left": r_left, "middle": r_mid, "right": r_right})
    # dim (cok xi)_d by eliminating xi over R, against the Hilbert
    # functions of the outer terms read off their degrees.
    d = seq.additivity_degree
    if len(middle.nonpivot_basis(d)) != M.piece_dim(d) + right.piece_dim(d):
        raise VerificationError("dimension additivity fails in degree %d" % d)
    return seq


# ----------------------------------------------------------------------
# the W solve and the double extension


def solve_W(seq: ARSequence):
    """Complete the gamma endomorphism of the doubled factorization.

    Finds Z' and Z with eta W = gamma eta modulo g, where
    eta = [[psi, beta], [0, phi]] and W = [[alpha, Z'], [0, -beta + psi Z]]
    in the frame of eta's columns.  Block by block, eta W is
      upper left   psi alpha, which is gamma psi modulo g (_alpha_beta);
      lower left   0 = gamma 0;
      lower right  phi (-beta + psi Z) = -phi beta + g Z, which is
                   gamma phi modulo g exactly when phi beta = -gamma phi,
                   true when alpha is in the joint gauge of _alpha_beta
                   and checked first, as the fallback gauge need not be;
      upper right  psi Z' + beta (-beta + psi Z), which is gamma beta
                   modulo g exactly when Z' and Z solve the one system
                   below.
    So eta W = gamma eta modulo g holds once the solve succeeds, and is
    not multiplied out.  Returns (W, Z, Z').
    """
    ring = seq.left.ring
    gd = seq.datum
    phi, psi = seq.left.mf.phi, seq.left.mf.psi
    alpha, beta = seq.alpha, seq.beta
    G = ring.gamma_degree
    if not phi.mul(beta).eq_mod_g(-_in_ring_matrix(gd, phi)):
        raise VerificationError(
            "phi beta is not -gamma phi modulo g: alpha is not in the "
            "joint gauge alpha phi = -gamma phi")
    eta = seq.middle.mf.psi
    Gb = _in_ring_matrix(gd, beta)
    const = -(Gb + beta.mul(beta.shift(G)))
    sol = solve_graded_system(
        ring,
        {"Zp": (psi.cols, tuple(c + 2 * G for c in phi.cols)),
         "Z": (tuple(c + G for c in psi.cols),
               tuple(r + 2 * G for r in psi.rows))},
        [([("L", psi, "Zp"), ("L", beta.mul(psi.shift(G)), "Z")], const)],
        mode="mod_g")
    if sol is None:
        raise VerificationError("the W system has no solution")
    Zp, Z = sol["Zp"], sol["Z"]
    W22 = -beta.shift(G) + psi.shift(G).mul(Z)
    W = block_matrix(
        ring,
        [[alpha, Zp], [None, W22]],
        rows=eta.cols, cols=tuple(c + G for c in eta.cols))
    return W, Z, Zp


def double_extension(seq: ARSequence, W: GradedMatrix) -> MatrixFactorization:
    """The factorization pair (theta, theta') of the double extension.

    theta stacks the doubled factorization against its shift, glued by
    -W; theta' is forced, with corner block V = eta W xi / g.  The pair
    is a factorization of g with no product taken (_glued), as
    xi V = W xi on the nose: the exact division gives eta W xi = g V, so
    xi V = xi eta W xi / g = W xi.
    """
    ring = seq.left.ring
    xi, eta = seq.middle.mf.phi, seq.middle.mf.psi
    V = eta.mul(W).mul(xi.shift(ring.deg_g + ring.gamma_degree)).div_exact_g()
    return _glued(seq.middle.mf, W, V)


# ----------------------------------------------------------------------
# syzygy transport and the certification routines


def syz_transport(h, target: GradedModule | None = None):
    """Move an endomorphism across the factorization to the syzygy side.

    B = psi H phi / g, exactly over S, read as an endomorphism of the
    syzygy module (the cokernel of psi).  H is a homomorphism, so
    H phi = phi B' + g C for some B' and C, and then psi H phi equals
    g (B' + psi C).  Every solution of H phi = phi B modulo g differs
    from B' by a matrix psi C, which presents the zero map of the
    syzygy; so the identity transports to the identity and
    multiplications to themselves.
    """
    M = h.source
    if M is not h.target:
        raise InputError("only endomorphisms transport")
    phi, psi = M.mf.phi, M.mf.psi
    d, D = h.degree, M.ring.deg_g
    N = target if target is not None else M.syz()
    if not N.matrix == psi.nf():
        raise InputError("target is not the syzygy presented by psi")
    B = psi.mul(h.H.shift(D)).mul(phi.shift(d + D)).div_exact_g()
    return hom_graded(N, N, d).from_matrix(B)


def verify_main_theorem(M: GradedModule, gd: GammaDatum) -> dict:
    """Certify that gamma induces a socle endomorphism of M.

    M must be indecomposable, nonfree, and of branch rank invertible in
    k.  The socle property is checked through both oracles: the trace
    criterion and the brute-force lifting criterion, on gamma_M itself
    and on its products with every nonunit generator of End(M).
    """
    # gamma_endo reaches _alpha_beta, which checks that M.mf is reduced.
    parts, frees = decompose(M)
    indecomposable = not frees and len(parts) == 1
    if not indecomposable:
        raise InputError("the theorem applies to indecomposable modules")
    rank = _rank_unit_check(M, gd, M.label or "M")
    h = gamma_endo(M, gd)
    socle_by_trace = socle_test(h)
    nonzero_bf = not stably_zero_bruteforce(h)
    products_bf = all(stably_zero_bruteforce(g.compose(h))
                      for g in _nonunit_generators(M))
    socle_by_lifting = nonzero_bf and products_bf
    report = {
        "module": M.describe(),
        "branch_rank": rank,
        "gamma": gd.gamma.to_string(),
        "socle_by_trace": socle_by_trace,
        "socle_by_lifting": socle_by_lifting,
        "trace": trace_report(h),
        "pass": socle_by_trace and socle_by_lifting,
    }
    return report


def verify_syz_gamma(M: GradedModule, gd: GammaDatum) -> dict:
    """Certify the syzygy relation between gamma endomorphisms.

    Over a domain, rank(syz M) times the transported gamma_M plus
    rank(M) times gamma_{syz M} must vanish stably; and the trace of
    gamma_M plus the trace of its transport must land in R.  The first
    fact is checked by the trace oracle and the lifting oracle, the
    second on the branch images of the two traces, with no fraction.
    """
    ring = M.ring
    if len(factor_hypersurface(ring)) != 1:
        raise InputError("ring not a domain")
    # gamma_endo(M) reaches _alpha_beta, which checks that M.mf is reduced.
    N = M.syz()
    h = gamma_endo(M, gd)
    t = syz_transport(h, N)
    hN = gamma_endo(N, gd)
    K = ring.field
    branches = factor_hypersurface(ring)
    r_m = rank_vector(M, branches)[0]
    r_n = rank_vector(N, branches)[0]
    comb = t.scale(K(r_n)) + hN.scale(K(r_m))
    stable_zero_trace = stably_zero_trace(comb)
    stable_zero_lift = stably_zero_bruteforce(comb)
    total = [_add_images(a, b, K)
             for a, b in zip(trace_images(h), trace_images(t))]
    negative = _ring_preimage(ring, total, h.degree)
    return {
        "module": M.describe(),
        "ranks": [r_m, r_n],
        "combination_stably_zero_trace": stable_zero_trace,
        "combination_stably_zero_lifting": stable_zero_lift,
        "trace_sum_in_ring": None if negative is None else negative.to_string(),
        "pass": bool(stable_zero_trace and stable_zero_lift
                     and negative is not None),
    }


def _add_images(a, b, K):
    """The sum of two branch images of elements of one degree, which sit
    in one t-degree on the branch; None stands for zero."""
    c = K((a[0] if a else 0) + (b[0] if b else 0))
    return (c, (a or b)[1]) if c else None


def e_avg(M: GradedModule) -> Fraction:
    """Average of the multiplicities of M and its syzygy.

    Multiplicity adds on 0 -> syz M -> R^r -> M -> 0 (see
    explore_component), so the two multiplicities add up to r e(R), with
    r the number of generators, and neither the syzygy nor a rank is
    computed.  e(R) is the order of g, the least i + j over its terms
    x^i y^j (R = k[x, y]/(g) is a plane curve), so no branch is needed.
    """
    e_ring = min(i + j for i, j in M.ring.g.terms)
    return Fraction(len(M.gens) * e_ring, 2)


# ----------------------------------------------------------------------
# walking a component


def explore_component(M0: GradedModule, gd: GammaDatum, depth: int = 2) -> dict:
    """Breadth-first fragment of the stable component containing M0.

    Each visited module is pushed; the right term and then the middle's
    parts are matched against the known modules up to shift, and the
    push leaves one record.  The quiver, its translation and its checks
    are then read off the records in one pass.  Vertices whose sequences
    were not expanded are boundary.  The report carries the fragment,
    per-vertex weights, the middle part counts, and the shape
    classification.

    The walk needs neither a reduced ring nor branches, so it runs when
    b = 0 too, where g = y^q f is not squarefree:
      * Almost split sequences ending (and starting) in a maximal
        Cohen-Macaulay module exist when the module is locally free on
        the punctured spectrum (Auslander, "Isolated singularities and
        existence of almost split sequences", LNM 1178, 1986).  R has
        dimension one, so that spectrum is the minimal primes P.
      * The ideal I = (x^m, y^n) qualifies: x does not divide g, so x
        lies in no minimal prime, and I_P contains the unit x^m, so
        I_P = R_P.  Nothing here asks R_P to be a field.
      * Modules locally free there are closed under what the walk does:
        shifts; syzygies and cosyzygies (Omega^2 is a shift, and a
        sequence ending in a free R_P-module splits); middle terms of
        extensions of such modules (the localized sequence splits); and
        direct summands (projective over the local R_P is free).  So
        every module the walk meets begins an almost split sequence.
      * The weights (e_avg) read multiplicity, which adds on exact
        sequences of modules of dimension one (Matsumura, Commutative
        Ring Theory, Thm. 14.6) whether or not g is squarefree, and
        e(R) is read off g, not off the branches.
    """
    parts0, frees0 = decompose(M0)
    if frees0 or len(parts0) != 1:
        raise InputError("exploration starts at an indecomposable module")
    modules = [M0]

    def identify(module):
        for idx, known in enumerate(modules):
            if iso_up_to_shift(module, known) is not None:
                return idx
        modules.append(module)
        return len(modules) - 1

    # The breadth-first loop only pushes, splits and identifies, and
    # keeps one record per pushed vertex: (e_avg of the middle term, the
    # right term's vertex, {part vertex: multiplicity}, the number of
    # free summands).  Once its parts are named, the middle term's hom
    # layer is dropped: it refers back to the middle term, a cycle that
    # would keep it alive until a full garbage collection.
    records: dict = {}
    frontier = [0]
    for _ in range(depth):
        reached = set()
        for v in frontier:
            seq = push(modules[v], gd, summands=[modules[v]])
            parts, frees = decompose(seq.middle)
            right = identify(seq.right)
            groups: dict = {}
            for part in parts:
                pid = identify(part)
                groups[pid] = groups.get(pid, 0) + 1
            seq.middle.clear_hom_layer()
            records[v] = (e_avg(seq.middle), right, groups, len(frees))
            reached.update(groups, (right,))
        frontier = sorted(reached.difference(records))

    # The quiver is read off the records, in push order: the right terms
    # define the translation, and arrows carry summand multiplicities as
    # symmetric values.
    names = ["V%d" % v for v in range(len(modules))]
    q = TranslationQuiver()
    for name, module in zip(names, modules):
        q.add_vertex(name, label="%s %s" % (name, list(module.gens)),
                     weight=e_avg(module))
    middle_parts: dict = {}
    for v, (_, right, groups, frees) in records.items():
        name, right = names[v], names[right]
        if q.tau.setdefault(right, name) != name:
            raise VerificationError("translation disagrees at %s" % right)
        middle_parts[name] = sum(groups.values())
        if frees:
            middle_parts[name + ":free"] = frees
        for pid, count in groups.items():
            mid = names[pid]
            for (a, b) in ((name, mid), (mid, right)):
                prior = q.arrows.get((a, b))
                if prior is None:
                    q.add_arrow(a, b, (count, count))
                elif prior != (count, count):
                    raise VerificationError(
                        "mesh multiplicities disagree on %s -> %s" % (a, b))
    # Omega^2 is a shift on a hypersurface and tau is Omega up to shift
    for v, u in q.tau.items():
        if q.tau.get(u, v) != v:
            raise VerificationError("tau^2 is not the identity at %s" % v)
    # a vertex is only fully meshed once pushed and reached as a right
    # term, so anything else stays boundary
    q.boundary.update(name for v, name in enumerate(names)
                      if not (v in records and name in q.tau))
    orbits = orbit_collapse(q)
    return {
        "quiver": q,
        "orbit_quiver": orbits,
        "modules": [{"name": names[v],
                     "gens": list(module.gens),
                     "e_avg": str(q.weights[names[v]]),
                     "e_avg_middle": (str(records[v][0])
                                      if v in records else None),
                     "label": module.label,
                     "pushed": v in records}
                    for v, module in enumerate(modules)],
        "middle_parts": middle_parts,
        "sequences": len(records),
        "classification": classify_fragment(q),
        "subadditive": check_subadditive(orbits),
    }


# ----------------------------------------------------------------------
# the double-push normal form


def _diag(ring, degs, values) -> GradedMatrix:
    ents = [[ring.monomial(0, 0, values[i]) if i == j else ring.zero_poly()
             for j in range(len(degs))] for i in range(len(degs))]
    return GradedMatrix(ring, degs, degs, ents)


def _matrix_diff(got: GradedMatrix, expected: GradedMatrix) -> str:
    lines = []
    gs, es = got.entry_strings(), expected.entry_strings()
    for i in range(len(got.rows)):
        for j in range(len(got.cols)):
            if gs[i][j] != es[i][j]:
                lines.append("(%d, %d): got %s, expected %s"
                             % (i, j, gs[i][j], es[i][j]))
    return "; ".join(lines)


def double_push_report(ring: HypersurfaceRing) -> dict:
    """Run the full double-extension certification on the ideal module.

    Builds I, pushes it, solves W, forms the theta pair, conjugates by
    the hard-coded change-of-basis pair, and checks: P and P' invertible
    (their scalar parts are, graded Nakayama), the block-triangular
    normal form with the psi corner (written out in expected), the
    strict minimality of the fourth column degree, the shape of the
    lower corner entry of W, and the two-part decomposition of the double
    extension.  The normalized column degrees equal their closed forms
    by construction (proved below), and both are reported.  Any mismatch
    raises VerificationError, the normal form's with an entrywise diff.
    windows names the degree where the push of I checked dimension
    additivity.
    """
    # mf_from_ideal, the first to use m and n, checks that the ring has them.
    K = ring.field
    half = K.inv(2)
    p, q, m, n, v = ring.p, ring.q, ring.m, ring.n, ring.v
    D, G = ring.deg_g, ring.gamma_degree
    delta = G - D

    mf = mf_from_ideal(ring)
    I = mf.cok(label="I")
    gd = gamma_for(ring)
    seq = push(I, gd)
    W, Z, Zp = solve_W(seq)
    pair = double_extension(seq, W)
    theta = pair.phi
    phi, psi = mf.phi, mf.psi
    alpha, beta = seq.alpha, seq.beta

    # frames of the conjugated matrix
    R1, R2 = phi.rows, tuple(r + delta for r in psi.rows)
    R4 = tuple(r + 2 * G - D for r in phi.rows)
    B1, B2 = phi.cols, tuple(c + delta for c in psi.cols)
    B4 = tuple(c + 2 * G - D for c in phi.cols)
    ident = GradedMatrix.identity
    H = _diag(ring, R2, [half, K.one])
    Zs = Z.shift(-D)

    Pp = block_matrix(
        ring,
        [[None, ident(ring, R2), -ident(ring, R2), None],
         [ident(ring, R1), None, None, None],
         [None, H, H, None],
         [None, None, None, ident(ring, R4)]],
        rows=R2 + R1 + R2 + R4, cols=theta.rows)
    P = block_matrix(
        ring,
        [[None, ident(ring, B1), None, None],
         [ident(ring, B2).scale(half), None, ident(ring, B2), None],
         [-ident(ring, B2).scale(half), None, ident(ring, B2), -Zs],
         [None, None, None, ident(ring, B4)]],
        rows=theta.cols, cols=B2 + B1 + B2 + B4)
    for A, name in ((P, "P"), (Pp, "P'")):
        if rank_dense(_scalar_part(A), K) != len(A.rows):
            raise VerificationError("%s is not invertible on the top" % name)

    T = Pp.mul(theta).mul(P)
    expected = block_matrix(
        ring,
        [[psi.shift(delta), None, None, None],
         [None, phi, alpha.shift(-D).scale(K(-2)),
          (alpha.mul(Z) - Zp).shift(-D)],
         [None, None, H.mul(psi.shift(delta)).scale(K(2)),
          H.mul(beta.shift(delta) - psi.mul(Z).shift(delta)).scale(K(2))],
         [None, None, None, phi.shift(2 * G - D)]],
        rows=R2 + R1 + R2 + R4, cols=B2 + B1 + B2 + B4)
    if not T == expected:
        raise VerificationError("normal form mismatch: " + _matrix_diff(T, expected))

    r = len(phi.rows)
    C = p * q + n * p + m * q
    natural = list(T.cols)
    got = [natural[t] - C for t in range(2, 4 * r)]
    # got equals closed identically.  Pp.cols is theta.rows and P.rows is
    # theta.cols, so both products shift by 0 and T.cols is P's declared
    # B2 + B1 + B2 + B4; got reads B1 + B2 + B4.  mf_from_ideal makes
    # B1 = phi.cols = (D, np + mq) and psi.cols = phi.rows + D, so
    # B2 = (mq + G, np + G) and B4 = B1 + 2G - D, with D = p(q + v) and
    # G = D - p - q:
    #   B1[0] - C = (v - n)p - mq        B1[1] - C = -pq
    #   B2[0] - C = (v - n - 1)p - q     B2[1] - C = (v - 1)p - (m + 1)q
    #   B4[0] - C = 2G - C = (2v - n - 2)p - (m + 2)q + pq
    #   B4[1] - C = 2G - D - pq = (v - 2)p - 2q
    closed = [
        (v - n) * p - m * q,
        -p * q,
        (v - n - 1) * p - q,
        (v - 1) * p - (m + 1) * q,
        (2 * v - n - 2) * p - (m + 2) * q + p * q,
        (v - 2) * p - 2 * q,
    ]
    c4 = closed[1]
    if any(c4 >= closed[t] for t in range(len(closed)) if t != 1):
        raise VerificationError("the fourth column degree is not strictly least")

    w34 = W.entries[r][r + 1]
    if w34.is_zero() or set(w34.terms) != {(m - 1, n - 1)}:
        raise VerificationError(
            "the glue corner entry is %s, not a nonzero multiple of x^%d y^%d"
            % (w34.to_string(), m - 1, n - 1))

    parts, frees = decompose(pair.cok(label="double push"))
    if len(parts) != 2:
        raise VerificationError(
            "double extension decomposed into %d nonfree parts" % len(parts))
    return {
        "ring": ring.describe(),
        "gamma": gd.gamma.to_string(),
        "column_degrees": {"natural": natural, "normalization": C,
                           "normalized_tail": got, "closed_forms": closed},
        "c4_strictly_minimal": True,
        "block_triangular": True,
        "psi_corner": True,
        "w_corner": w34.to_string(),
        "summands": [{"gens": list(part.gens), "label": part.label}
                     for part in parts],
        "free_summands": frees,
        "windows": {"hilbert_additivity": seq.additivity_degree},
        "pass": True,
    }
