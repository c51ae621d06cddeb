"""Graded linear systems, stable homs, splitting and isomorphism.

The top of three layers, over the modules of matfact and the hom
spaces of homs.  Everything is exact; all solved systems go through
canonical RREF, so identical input yields identical output.
"""

from __future__ import annotations

from . import upoly
from .errors import CertificationError, InconclusiveSplitError, InputError
from .homs import (GradedHom, HomSpace, _precomposition,
                   hom_from_coefficients, hom_graded)
from .linalg import (SparseRREF, dense_vector, kernel_sparse, rank_dense,
                     solve_sparse_system, sparse_vector)
from .matfact import (GradedMatrix, GradedModule, MatrixFactorization,
                      _canonical, g_identity, mf_reduce)
from .ring import WPoly


# ----------------------------------------------------------------------
# the graded linear solver


def solve_graded_system(ring, unknowns, equations, mode="mod_g"):
    """Solve linear matrix equations over R (mod g) or over S (exact).

    unknowns: dict name -> (row_degrees, col_degrees); the unknown entry
    (i, j) ranges over the monomial basis of its degree (the normal-form
    basis for mode "mod_g", the full polynomial piece for mode "exact").

    equations: list of (terms, const) where each term ("L", C, name)
    contributes C X, each ("R", C, name) contributes X C, and const is a
    GradedMatrix or None.  Every equation asserts that the sum vanishes.

    The rows are built one unknown at a time, as in _precomposition: the
    column of the unknown x^a y^b E_ij is its image under every term,
    C[t][i] x^a y^b in cell (t, j) for an L term and C[j][t] x^a y^b in
    cell (i, t) for an R term, in normal form for mode "mod_g".  There is
    one row per equation, cell and monomial, and the constant fills the
    last column.

    Returns the canonical particular solution, a dict mapping names to
    GradedMatrix with free variables zero, or None when the system is
    inconsistent.  Hom spaces are kernels of precomposition and are not
    built here (see HomSpace).
    """
    basis_of = ring.graded_piece if mode == "mod_g" else ring.s_piece
    K = ring.field
    var_list = [(name, i, j, mono) for name in sorted(unknowns)
                for i, r in enumerate(unknowns[name][0])
                for j, c in enumerate(unknowns[name][1])
                for mono in basis_of(c - r)]
    system: dict = {}
    degree: dict = {}

    def add(cell, poly, v):
        # poly into column v at cell = (equation, (row, column)), which
        # holds one degree
        d = poly.degree
        if degree.setdefault(cell, d) != d:
            raise InputError("equation terms have incompatible entry degrees")
        if mode == "mod_g":
            poly = ring.normal_form(poly)
        for mono, c in poly.terms.items():
            row = system.setdefault((cell, mono), {})
            row[v] = row.get(v, 0) + c

    for e, (terms, const) in enumerate(equations):
        shapes = set()
        for side, C, name in terms:
            rd, cd = unknowns[name]
            if side == "L":
                inner, shape = (len(C.cols), len(rd)), (len(C.rows), len(cd))
            elif side == "R":
                inner, shape = (len(C.rows), len(cd)), (len(rd), len(C.cols))
            else:
                raise InputError(f"unknown term side {side!r}")
            if inner[0] != inner[1]:
                raise InputError(f"{side}-term inner dimension mismatch")
            shapes.add(shape)
            for v, (vname, i, j, mono) in enumerate(var_list):
                if vname != name:
                    continue
                if side == "L":
                    images = [((t, j), row[i]) for t, row in enumerate(C.entries)]
                else:
                    images = [((i, t), c) for t, c in enumerate(C.entries[j])]
                for cell, c in images:
                    if not c.is_zero():
                        add((e, cell), c.shift_monomial(*mono), v)
        if const is not None:
            shapes.add((len(const.rows), len(const.cols)))
            for i, row in enumerate(const.entries):
                for j, c in enumerate(row):
                    if not c.is_zero():
                        add((e, (i, j)), c, len(var_list))
        if len(shapes) > 1:
            raise InputError("equation terms have different shapes")

    # rows cell by cell, a cell's monomials by y-exponent (graded_piece
    # order): the elimination's work depends on the order, its result not
    rows = [row for key in sorted(system, key=lambda k: (k[0], k[1][1]))
            if (row := _canonical(system[key], K))]
    particular = solve_sparse_system(rows, len(var_list), K)
    if particular is None:
        return None
    ents = {name: [[dict() for _ in cdegs] for _ in rdegs]
            for name, (rdegs, cdegs) in unknowns.items()}
    for vk, value in particular.items():
        name, i, j, mono = var_list[vk]
        ents[name][i][j][mono] = value
    return {name: GradedMatrix(ring, rdegs, cdegs,
                               [[WPoly(K, ring.q, ring.p, e) for e in row]
                                for row in ents[name]])
            for name, (rdegs, cdegs) in unknowns.items()}


def mf_complete(A: GradedMatrix) -> MatrixFactorization:
    """Complete a square presentation matrix to a matrix factorization.

    Solves A B = g Id exactly over S; since S is a domain and A becomes
    injective, B A = g Id follows (MatrixFactorization).
    """
    ring = A.ring
    if len(A.rows) != len(A.cols):
        raise InputError("only square matrices can be completed")
    unknowns = {"B": (A.cols, tuple(r + ring.deg_g for r in A.rows))}
    const = g_identity(ring, A.rows)
    sol = solve_graded_system(ring, unknowns, [([("L", A, "B")], -const)],
                              mode="exact")
    if sol is None:
        raise CertificationError(
            "presentation does not complete to a factorization of g")
    return MatrixFactorization(A, sol["B"])


# ----------------------------------------------------------------------
# stable (mod frees) homomorphisms, by direct linear algebra


def _stably_zero_span(space: HomSpace) -> SparseRREF:
    """RREF span, in the coordinates of space, of the maps through frees.

    A map between MCM modules factors through some free module exactly
    when it factors through the free cover of its target: H = L + B C
    with L A = 0 mod g, where A and B present source and target.  For the
    factorization (phi, psi) behind the source, a map cok phi -> R is a
    row x with x phi = g z over S, so x = x phi psi / g = z psi: the maps
    into the free cover are spanned over R by the matrices with the row
    psi_r of psi in row k and zeros elsewhere, of degree w_k + deg g - u_r.
    Their monomial multiples are read through the target's monomial
    table, modulo the matrices B C.  Built once per hom space.
    """
    if space._stably_zero is not None:
        return space._stably_zero
    M, N, d = space.source, space.target, space.degree
    ring = M.ring
    span = SparseRREF(ring.field)
    for k, wk in enumerate(N.gens):
        for u, prow in zip(M.mf.psi.rows, M.mf.psi.entries):
            entries = [(k, j, e) for j, e in enumerate(prow)
                       if not e.is_zero()]
            for mono in ring.graded_piece(d - wk - ring.deg_g + u):
                span.insert(space._coords(entries, mono))
    space._stably_zero = span
    return span


def stably_zero_bruteforce(h: GradedHom) -> bool:
    """Whether h factors through a free module, by direct linear algebra."""
    return _stably_zero_span(h.space).contains(dict(h.coords))


def stable_end_dim(M: GradedModule, d: int) -> int:
    """Dimension of degree-d endomorphisms modulo those through frees."""
    space = hom_graded(M, M, d)
    return space.dim - _stably_zero_span(space).rank


def ext1_dim(mf: MatrixFactorization, N: GradedModule, d: int) -> int:
    """dim Ext^1(cosyzygy of cok phi, N) in degree d.

    The cosyzygy cok(psi(-D)) has the 2-periodic free resolution
    ... -> F(cols) --phi--> F(rows) --psi(-D)--> F(cols - D), so Ext^1
    in degree d is ker(-o phi) / im(-o psi(-D)) inside Hom(F(rows), N)_d.
    """
    def rank(A: GradedMatrix) -> int:
        rr = SparseRREF(mf.ring.field)
        for row in _precomposition(A, N, d)[1]:
            rr.insert(row)
        return rr.rank

    mid = sum(N.piece_dim(w + d) for w in mf.phi.rows)
    return mid - rank(mf.phi) - rank(mf.psi.shift(-mf.ring.deg_g))


# ----------------------------------------------------------------------
# direct-sum splitting


def split_by_idempotent(M: GradedModule, E: GradedMatrix):
    """Split M = cok phi along an idempotent E of End_0(M), exact over S.

    E is a hom matrix with E E = E over S, so E phi = phi E' for
    E' = psi E phi / g (E phi = phi C gives psi E phi = g C, and S is a
    domain); E' is idempotent and E' psi = psi E.  P has as columns
    those of E, then those of Id - E, whose scalar parts are independent
    (_split_basis); they are free bases of im E and im(Id - E), so P is
    invertible, and P' is made from E' in the same way.  Then
    P^-1 phi P' is block diagonal, as phi maps im E' into im E and
    im(Id - E') into im(Id - E), and so is P'^-1 psi P.  Certified:
    X P = Id and X' P' = Id exactly for X = P^-1 and X' = P'^-1
    (_inverse), and the off-diagonal blocks of X phi P' vanish; then
    cok phi is the sum of the cokernels of the diagonal blocks, whatever
    E is.  Each pair of blocks is a factorization with no product taken:
    P' is square, so P' X' = Id and (X phi P')(X' psi P) = X phi psi P =
    g Id.  As r == r2 the diagonal blocks of X phi P' are square, and
    they are injective as det phi != 0; so X' psi P = g (X phi P')^-1 is
    block diagonal too, and its blocks are g times the inverses of those
    of X phi P'.  The blocks are reduced because phi is: X phi P' has
    its entries in the maximal ideal, as phi does.
    The columns are taken in stable degree order, so the generators of
    each part are those of the minimal submodule presentation of im E
    and im(Id - E), in the same order.
    """
    phi, psi = M.mf.phi, M.mf.psi
    try:
        E2 = psi.mul(E).mul(phi).div_exact_g()
    except InputError:
        raise CertificationError("E is not an endomorphism of M") from None
    P, r = _split_basis(E)
    P2, r2 = _split_basis(E2)
    if r != r2:
        raise CertificationError(
            f"idempotent has rank {r} on the generators, {r2} on the "
            "relations")
    A = _inverse(P).mul(phi).mul(P2)
    n = len(P.cols)
    if any(not A.entries[i][j].is_zero()
           for i in range(n) for j in range(n) if (i < r) != (j < r)):
        raise CertificationError("split leaves an off-diagonal block")
    B = _inverse(P2).mul(psi).mul(P)
    return tuple(MatrixFactorization._derived(_block(A, part),
                                              _block(B, part)).cok()
                 for part in (range(r), range(r, n)))


def _block(A: GradedMatrix, span) -> GradedMatrix:
    """The diagonal block of A on the indices in span."""
    return GradedMatrix(A.ring, [A.rows[i] for i in span],
                        [A.cols[j] for j in span],
                        [[A.entries[i][j] for j in span] for i in span])


def _split_basis(E: GradedMatrix):
    """The columns of E, then those of Id - E, each kept when its scalar
    part leaves the span of those kept before, in stable degree order;
    and the number kept from E.  For an idempotent E the scalar parts
    kept are a basis of k^n, so by graded Nakayama the columns kept are
    free bases of im E and im(Id - E) over S."""
    ring = E.ring
    K = ring.field
    n = len(E.rows)
    order = sorted(range(n), key=lambda j: E.cols[j])
    span = SparseRREF(K)

    def keep(A):
        bar = _scalar_part(A)
        return [(A, j) for j in order if span.insert(
            sparse_vector([row[j] for row in bar], K)) is not None]

    kept = keep(E)
    r = len(kept)
    kept += keep(GradedMatrix.identity(ring, E.rows) - E)
    if r in (0, n):
        raise CertificationError("idempotent does not split the generators")
    P = GradedMatrix(ring, E.rows, [A.cols[j] for A, j in kept],
                     [[A.entries[i][j] for A, j in kept] for i in range(n)])
    return P, r


def _inverse(P: GradedMatrix) -> GradedMatrix:
    """The inverse over S of a square P whose scalar part is invertible.

    Newton's step X <- X + (Id - X P) X from the inverse of the scalar
    part squares the residual Id - X P, which starts with zero scalar
    part: after t steps its entries of degree 0 have degree at least
    2^t min(p, q), so it vanishes once 2^t exceeds the degree spread.
    The loop ends only on X P = Id exactly, which certifies X.
    """
    X = _scalar_inverse(P)
    ident = GradedMatrix.identity(P.ring, P.cols)
    for _ in range((max(P.cols) - min(P.cols)).bit_length() + 1):
        residual = ident - X.mul(P)
        if residual.is_zero():
            return X
        X = X + residual.mul(X)
    raise CertificationError("change of basis is not invertible over S")


def _scalar_inverse(P: GradedMatrix) -> GradedMatrix:
    """The inverse of the scalar part of a square P, as constants: the
    reduced echelon form of [scalar part | Id] is [Id | inverse]."""
    ring = P.ring
    K = ring.field
    n = len(P.rows)
    rr = SparseRREF(K)
    for i, row in enumerate(_scalar_part(P)):
        rr.insert({**sparse_vector(row, K), n + i: K.one})
    # Every k < n is a pivot.  P comes from _split_basis, which keeps a
    # column only when its scalar part leaves the span of those kept
    # before; the scalar parts of the columns of E and of Id - E add up to
    # those of Id, so they span k^n, and n independent ones are kept.
    return GradedMatrix(ring, P.cols, P.rows,
                        [[ring.monomial(0, 0, rr.pivots[k].get(n + i, K.zero))
                          for i in range(n)] for k in range(n)])


# ----------------------------------------------------------------------
# the degree-zero endomorphism algebra, read on the top


def _flat_mul(a: dict, b: dict, r, K) -> dict:
    """The product of two r-by-r matrices kept as their nonzero entries,
    keyed row-major."""
    rows = {}
    for c, v in b.items():
        rows.setdefault(c // r, []).append((c % r, v))
    out = {}
    for c, u in a.items():
        base = c - c % r
        for j, v in rows.get(c % r, ()):
            out[base + j] = out.get(base + j, 0) + u * v
    return _canonical(out, K)


def _dot(u: dict, v: dict, K):
    """sum_c u[c] v[c], for sparse vectors u and v."""
    return K(sum(x * v[c] for c, x in u.items() if c in v))


def _combination(vec: dict, elems, K) -> dict:
    """sum_s vec[s] elems[s], for sparse vectors elems."""
    out = {}
    for s, x in vec.items():
        for c, v in elems[s].items():
            out[c] = out.get(c, 0) + x * v
    return _canonical(out, K)


def _lifted_trace(a: dict, r, i, ell):
    """Tr(a~^(ell^i)) / ell^i mod ell for an r-by-r matrix a over F_ell
    kept as its nonzero entries, a~ its lift to integers in [0, ell);
    computed modulo ell^(i+1)."""
    mod = ell ** (i + 1)
    power = [[a.get(j * r + t, 0) for t in range(r)] for j in range(r)]
    for _ in range(i):
        base = list(zip(*power))
        for _ in range(ell - 1):
            power = [[sum(x * y for x, y in zip(row, col)) % mod
                      for col in base] for row in power]
    trace = sum(power[j][j] for j in range(r)) % mod
    if trace % ell ** i:
        raise CertificationError(
            f"trace of an {ell ** i}-th power is not divisible by {ell ** i}")
    return trace // ell ** i


def _certify_radical(rad: SparseRREF, basis, r, K):
    """Check that rad is a two-sided ideal of the algebra with the given
    basis and that each of its basis elements x has x^r = 0."""
    for x in rad.pivots.values():
        for b in basis:
            if not (rad.contains(_flat_mul(x, b, r, K))
                    and rad.contains(_flat_mul(b, x, r, K))):
                raise CertificationError(
                    "radical of the top algebra is not an ideal")
        for _ in range((r - 1).bit_length()):
            x = _flat_mul(x, x, r, K)
        if x:
            raise CertificationError(
                "radical of the top algebra is not nilpotent")


class TopAlgebra:
    """End_0(M) as it acts on the top M/mM.

    The scalar part s of a hom (`GradedHom.scalar_part`: the constant
    terms of the entries whose row and column degrees agree) is an
    algebra map from End_0(M) onto A, an algebra of k-matrices of the
    size r of the generator count; the split and invertible_on_top read
    the same map.
    Its kernel J is nilpotent: a map in J raises generator degrees by at
    least min(p, q), so J^k = 0 once k > (max gens - min gens)/min(p, q)
    (graded Nakayama).  So rad End_0 is the preimage of rad A, and
    End_0/rad is A/rad A.  Matrices on the top are kept as their nonzero
    entries keyed row-major, and multiplied by `_flat_mul`.

    rad A is read off traces on k^r, on which A acts faithfully (Cohen,
    Ivanyos and Wales, J. Pure Appl. Algebra 117-118 (1997), after
    Ronyai, J. Symbolic Comput. 9 (1990)).  Let I_-1 = A and, for i >= 0,
    I_i = {a in I_(i-1) : g_i(a b) = 0 for every b in A}, where
    g_i(a) = Tr(a~^(ell^i)) / ell^i mod ell for the lift a~ of a to
    integers in [0, ell), and g_0 = Tr over Q; i runs while ell^i <= r.
      * rad A lies in I_0 in every characteristic: for a in rad A every
        a b is nilpotent, so Tr(a b) = 0.
      * Over Q, or when ell > r, only I_0 is made, and it is rad A.  It
        is a two-sided ideal (Tr(x a b) = Tr(a (b x))), and as 1 is in A
        each of its elements has Tr(a^k) = 0 for all k >= 1; Newton's
        identities j e_j = sum_(s=1..j) (-1)^(s-1) e_(j-s) Tr(a^s), in
        which every j <= r is a unit, make the characteristic polynomial
        t^r, so I_0 is a nil ideal.
      * When ell <= r, each g_i is linear on I_(i-1) and the last I_i
        is rad A: this is the theorem of Cohen, Ivanyos and Wales.
    The result R is certified in every characteristic: it is a two-sided
    ideal (x b and b x lie in R for basis elements x of R and b of A)
    whose basis elements are nilpotent (x^r = 0).  Its image in the
    semisimple A/rad A is then an ideal, so a sum of simple components,
    spanned by nilpotent elements; the reduced trace of a simple
    component kills its nilpotent elements but is not zero, so the image
    is 0 and R lies in rad A.
    """

    __slots__ = ("space", "scalars", "dim", "rad", "quotient_dim")

    def __init__(self, M: GradedModule):
        K = M.ring.field
        r = len(M.gens)
        self.space = hom_graded(M, M, 0)
        self.scalars = [{i * r + j: c
                         for (i, j), c in b.scalar_part().items()}
                        for b in self.space.basis]
        span = SparseRREF(K)
        for a in self.scalars:
            span.insert(a)
        self.dim = span.rank
        basis = [span.pivots[c] for c in sorted(span.pivots)]
        ideal = basis
        passes = 1
        while K.char and K.char ** passes <= r:
            passes += 1
        for i in range(passes):
            if i == 0:
                # g_0(a b) = sum a_jk b_kj: the entries of a against those
                # of b transposed, with no product formed
                transposed = [{c % r * r + c // r: v for c, v in b.items()}
                              for b in basis]
                pairing = [[_dot(a, b, K) for a in ideal] for b in transposed]
            else:
                pairing = [[_lifted_trace(_flat_mul(a, b, r, K), r, i,
                                          K.char)
                            for a in ideal] for b in basis]
            rows = [sparse_vector(row, K) for row in pairing]
            ideal = [_combination(vec, ideal, K)
                     for vec in kernel_sparse(rows, len(ideal), K)]
        self.rad = SparseRREF(K)
        for x in ideal:
            self.rad.insert(x)
        _certify_radical(self.rad, basis, r, K)
        self.quotient_dim = self.dim - self.rad.rank

    def end_radical(self):
        """A basis of rad End_0: the kernel of End_0 -> A/rad A."""
        K = self.space.source.ring.field
        n = self.space.dim
        rows = {}
        for i, a in enumerate(self.scalars):
            for c, v in self.rad.reduce(a).items():
                rows.setdefault(c, {})[i] = v
        return [hom_from_coefficients(self.space, dense_vector(vec, n, K))
                for vec in kernel_sparse(list(rows.values()), n, K)]


def _min_poly(a: dict, r, K):
    """Monic minimal polynomial (coefficients low to high) of an r-by-r
    matrix kept as its nonzero entries."""
    power = {i * r + i: K.one for i in range(r)}
    powers = []
    span = SparseRREF(K)
    while span.insert(power) is not None:
        powers.append(power)
        power = _flat_mul(a, power, r, K)
    # a^d + sum_s c_s a^s = 0, one row per nonzero entry
    rows = {}
    for s, vec in enumerate(powers + [power]):
        for c, v in vec.items():
            rows.setdefault(c, {})[s] = v
    sol = solve_sparse_system(list(rows.values()), len(powers), K)
    return [sol.get(s, K.zero) for s in range(len(powers))] + [K.one]


def _lift_idempotent(A: GradedMatrix, coeffs):
    """The idempotent of k[A] over S whose scalar part is that of coeffs(A).

    A is the matrix of a degree-0 endomorphism, so every polynomial in A
    is one.  The scalar part is multiplicative on degree-0 matrices and
    coeffs of A's scalar part is idempotent, so the defect E E - E of
    E = coeffs(A) starts with zero scalar part, and E -> 3E^2 - 2E^3
    squares it: after t steps its entries of degree 0 have degree at
    least 2^t min(p, q), so it is 0 once 2^t exceeds the spread of the
    generator degrees.  In End(M), E is the idempotent of k[a] over
    coeffs of a's scalar part.
    """
    one = GradedMatrix.identity(A.ring, A.rows)
    E = one.scale(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        E = E.mul(A) + one.scale(c)
    for _ in range((max(A.rows) - min(A.rows)).bit_length() + 1):
        square = E.mul(E)
        if square == E:
            return E
        E = square.scale(3) - square.mul(E).scale(2)
    raise CertificationError("idempotent lift did not converge")


def _candidates(top: TopAlgebra):
    """Scalar part and a maker of each candidate End_0 element: the basis
    b_0, ..., b_(n-1), the products of two basis maps, the sums of two,
    then the points a(t) = sum_i t^i b_i of the moment curve for
    t = 1, ..., N while t is distinct in k, where
    N = (n - 1) e (e - 1) / 2 + 1 and e = dim A/R.  A candidate's map is
    only made when it splits the module.

    Let the top A/rad A be commutative.  k is perfect, so A/rad A has e
    distinct characters chi into an algebraic closure.  Two of them agree
    at a(t) only at a root of sum_i t^i (chi(b_i) - chi'(b_i)), a nonzero
    polynomial of degree < n since the b_i span A.  So at most N - 1
    values of t make some pair agree, and of any N distinct t one a(t)
    separates all e characters: it generates A/rad A, the distinct
    factors of its minimal polynomial fill dim A/R, and it certifies
    itself (_indecomposable_parts).  Over F_p with p < N, where only p
    values of t are distinct, and on a non-commutative top, there is no
    such guarantee.
    """
    basis, bars = top.space.basis, top.scalars
    K = top.space.source.ring.field
    r = len(top.space.source.gens)
    n = len(basis)

    def combination(vec):
        return (_combination(sparse_vector(vec, K), bars, K),
                lambda: hom_from_coefficients(top.space, vec).H)

    for i in range(n):
        yield bars[i], lambda i=i: basis[i].H
    for i in range(n):
        for j in range(n):
            if i != j:
                yield (_flat_mul(bars[i], bars[j], r, K),
                       lambda i=i, j=j: basis[i].H.mul(basis[j].H))
    for i in range(n):
        for j in range(i + 1, n):
            yield combination([K.one if t in (i, j) else K.zero
                               for t in range(n)])
    e = top.quotient_dim
    points = (n - 1) * e * (e - 1) // 2 + 1
    if K.char:
        points = min(points, K.char)
    for t in range(1, points + 1):
        yield combination([K(t ** i) for i in range(n)])


def decompose(M: GradedModule):
    """Split a module into indecomposable summands.

    Returns (parts, free_shifts): parts are the nonfree indecomposable
    summands and free_shifts the generator degrees of split-off free
    summands.  Everything is decided on the top algebra A (TopAlgebra):
    a candidate a of End_0 whose scalar part has a minimal polynomial
    with two coprime factors gives an idempotent of k[a], made exact
    over S (_lift_idempotent), and M splits by a change of basis of its
    factorization (split_by_idempotent), with no elimination in M.
    The same minimal polynomial certifies a module or a split part
    indecomposable when its distinct factors have total degree
    dim A/R (_indecomposable_parts); any other part is split again on
    its own top algebra.  The candidates are a fixed sequence
    (_candidates), so the parts depend on M alone.  When neither outcome
    can be certified the function raises InconclusiveSplitError rather
    than guessing.
    """
    core, frees = _minimal_core(M)
    if core is None:
        return [], frees
    parts = _indecomposable_parts(core)
    parts.sort(key=_module_sort_key)
    return parts, frees


def _minimal_core(M: GradedModule):
    """M without its trivial blocks, and the degrees of its free summands;
    M itself, with its caches, when its factorization is reduced."""
    core, frees = mf_reduce(M.mf)
    if core is M.mf:
        return M, frees
    if core is None:
        return None, frees
    return core.cok(label=M.label), frees


def _indecomposable_parts(M: GradedModule):
    """The indecomposable summands of M, reduced as its split parts are.

    Let a be a candidate whose scalar part has minimal polynomial
    mu = prod f_i^m_i, with distinct irreducible f_i of total degree
    dim A/R, R the radical TopAlgebra finds.  The image a' of a in
    A/rad A has a minimal polynomial nu dividing mu, and mu divides a
    power of nu, since nu(a) lies in the nilpotent rad A; so every f_i
    divides nu.  TopAlgebra certifies R in rad A, so
    dim A/R >= dim A/rad A >= dim k[a'] = deg nu >= sum deg f_i = dim A/R.
    All are equal: A/rad A = k[a'] = prod k[t]/(f_i), a product of
    fields.  With one factor End_0 is local, so M is indecomposable in
    every characteristic.  Otherwise M splits by the idempotent e of
    f_1^m_1; End_0 of the first part is e End_0 e, whose top
    e (A/rad A) e = k[t]/(f_1) is a field, so that part is
    indecomposable, and so is the second when mu has two distinct
    factors.  Only a part this does not certify builds its own
    TopAlgebra.
    """
    top = TopAlgebra(M)
    K = M.ring.field
    for bar, make in _candidates(top):
        mu = _min_poly(bar, len(M.gens), K)
        factors = upoly.factor(mu, K)
        certified = sum(len(f) - 1 for f, _ in factors) == top.quotient_dim
        if len(factors) == 1:
            if certified:
                return [M]
            continue
        idem = _lift_idempotent(make(), upoly.idempotent(mu, factors, K))
        local = (certified, certified and len(factors) == 2)
        out = []
        for part, done in zip(split_by_idempotent(M, idem), local):
            out += [part] if done else _indecomposable_parts(part)
        return out
    raise InconclusiveSplitError(
        "could not split the module or certify it indecomposable")


def _module_sort_key(M: GradedModule):
    return (len(M.gens), tuple(sorted(M.gens)),
            tuple(tuple(row) for row in M.matrix.entry_strings()))


# ----------------------------------------------------------------------
# isomorphism up to shift


def iso_up_to_shift(M: GradedModule, N: GradedModule):
    """The s with M isomorphic to N(s), or None when there is none.

    Only minimal data decides: both factorizations are reduced first,
    and the generator-degree multisets fix the only candidate s.  The
    shift is confirmed by one map of degree s from M to N that is
    invertible on the top (_top_isomorphic).  Hom_s(M, N) is
    Hom_0(M, N(s)) with the same matrices, so no shifted copy of N is
    built.  The answer is exact: between indecomposables the maps that
    are not isomorphisms form a subspace (the endomorphism rings are
    local), so a hom basis holds an isomorphism whenever one exists;
    otherwise both sides are split and their parts matched by
    Krull-Schmidt.
    """
    core_m, frees_m = _minimal_core(M)
    core_n, frees_n = _minimal_core(N)
    if (core_m is None) != (core_n is None):
        return None
    if core_m is None:
        return _degree_shift(frees_m, frees_n)
    s = _degree_shift(core_m.gens, core_n.gens)
    if s is None or sorted(frees_m) != sorted(w - s for w in frees_n):
        return None
    if _top_isomorphic(core_m, core_n, s):
        return s
    parts_n = decompose(core_n)[0]
    for part in decompose(core_m)[0]:
        k = next((k for k, other in enumerate(parts_n)
                  if _top_isomorphic(part, other, s)), None)
        if k is None:
            return None
        del parts_n[k]
    return None if parts_n else s


def _degree_shift(ms, ns):
    """The s with sorted(ms) == sorted(w - s for w in ns), or None."""
    if len(ms) != len(ns):
        return None
    if not ms:
        return 0
    s = min(ns) - min(ms)
    return s if sorted(ms) == sorted(w - s for w in ns) else None


def _scalar_part(A: GradedMatrix):
    """A modulo the maximal ideal, over k: the constant terms of the
    entries whose row degree equals their column degree."""
    K = A.ring.field
    return [[A.entries[i][j].coeff(0, 0) if w == u else K.zero
             for j, u in enumerate(A.cols)] for i, w in enumerate(A.rows)]


def invertible_on_top(hom: GradedHom) -> bool:
    """Whether the scalar part of hom is square and of full rank."""
    n = len(hom.source.gens)
    bar = hom.scalar_part()
    return (len(hom.target.gens) == n
            and rank_dense([[bar.get((i, j), 0) for j in range(n)]
                            for i in range(n)], hom.source.ring.field) == n)


def _top_isomorphic(A: GradedModule, B: GradedModule, s) -> bool:
    """Whether A and B(s), both reduced, have the same relation degrees
    and a basis map f of degree s from A to B is invertible on the top.
    Then A = B(s).  A reduced factorization is a minimal presentation, so
    relation degrees are invariants.  f is onto by graded Nakayama, and
    its scalar part, block diagonal by degree, makes the generator
    degrees agree too.  So piece_dim gives A and B(s) the same Hilbert
    function, and f is bijective in every degree.  The space is built
    afresh rather than through hom_graded, so that A's hom cache does
    not keep B alive.
    """
    if sorted(A.rels) != sorted(u - s for u in B.rels):
        return False
    return any(map(invertible_on_top, HomSpace(A, B, s).basis))
