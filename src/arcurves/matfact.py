"""Graded matrices, matrix factorizations, the modules they present, and
their ranks along branches.

Conventions used throughout:

  * A graded matrix A carries row degrees w and column degrees u, and
    entry (i, j) is homogeneous of degree u[j] - w[i] (or zero).
  * A presents the module cok(A) with generator degrees w and relation
    degrees u, i.e. A maps F(u) into F(w).
  * A matrix factorization of g is a pair (phi, psi) with
    phi psi = g Id and psi phi = g Id exactly over the polynomial ring.

This is the bottom of three layers: homs builds hom spaces on these
modules, and modmat solves, splits and compares them.  Nothing here
refers to the layers above.
"""

from __future__ import annotations

from .errors import InputError, VerificationError
from .linalg import SparseRREF, rank_dense
from .ring import HypersurfaceRing, WPoly


class GradedMatrix:
    """Matrix of weighted-homogeneous polynomials with degree bookkeeping."""

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: HypersurfaceRing, rows, cols, entries):
        self.ring = ring
        self.rows = tuple(rows)
        self.cols = tuple(cols)
        ents = []
        for i in range(len(self.rows)):
            row = []
            for j in range(len(self.cols)):
                e = entries[i][j]
                if not e.is_zero() and e.degree != self.cols[j] - self.rows[i]:
                    raise InputError(
                        f"entry ({i},{j}) has degree {e.degree}, expected "
                        f"{self.cols[j] - self.rows[i]}")
                row.append(e)
            ents.append(tuple(row))
        self.entries = tuple(ents)

    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, ring, rows, cols):
        z = ring.zero_poly()
        return cls(ring, rows, cols, [[z] * len(cols) for _ in rows])

    @classmethod
    def identity(cls, ring, degs):
        one = ring.one()
        z = ring.zero_poly()
        ents = [[one if i == j else z for j in range(len(degs))]
                for i in range(len(degs))]
        return cls(ring, degs, degs, ents)

    def shift(self, s: int) -> "GradedMatrix":
        return GradedMatrix(self.ring, [r + s for r in self.rows],
                            [c + s for c in self.cols], self.entries)

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise InputError("degree vectors differ in matrix sum")
        ents = [[self.entries[i][j] + other.entries[i][j]
                 for j in range(len(self.cols))] for i in range(len(self.rows))]
        return GradedMatrix(self.ring, self.rows, self.cols, ents)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        ents = [[-e for e in row] for row in self.entries]
        return GradedMatrix(self.ring, self.rows, self.cols, ents)

    def scale(self, value):
        ents = [[e * value for e in row] for row in self.entries]
        return GradedMatrix(self.ring, self.rows, self.cols, ents)

    def mul(self, other: "GradedMatrix") -> "GradedMatrix":
        """Exact product over the polynomial ring.

        The column degrees of self must exceed the row degrees of other
        by one constant (the composition shift, 0 for an empty inner
        dimension); the result's columns are other's columns raised by
        that constant.
        """
        if len(self.cols) != len(other.rows):
            raise InputError("inner dimensions differ in matrix product")
        if len(self.cols) == 0:
            c0 = 0
        else:
            diffs = {self.cols[t] - other.rows[t] for t in range(len(self.cols))}
            if len(diffs) != 1:
                raise InputError("incompatible degree vectors in matrix product")
            c0 = diffs.pop()
        ring = self.ring
        K = ring.field
        ents = []
        for arow in self.entries:
            row = []
            for j in range(len(other.cols)):
                # One term dict per entry: sum over t of a_t b_tj.
                acc: dict = {}
                for a, brow in zip(arow, other.entries):
                    b = brow[j].terms
                    if not a.terms or not b:
                        continue
                    for (i1, j1), c1 in a.terms.items():
                        for (i2, j2), c2 in b.items():
                            key = (i1 + i2, j1 + j2)
                            acc[key] = acc.get(key, 0) + c1 * c2
                row.append(WPoly(K, ring.q, ring.p, acc))
            ents.append(row)
        return GradedMatrix(self.ring, self.rows,
                            [c + c0 for c in other.cols], ents)

    def nf(self) -> "GradedMatrix":
        ents = [[self.ring.normal_form(e) for e in row] for row in self.entries]
        return GradedMatrix(self.ring, self.rows, self.cols, ents)

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def __eq__(self, other):
        if not isinstance(other, GradedMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and all(self.entries[i][j] == other.entries[i][j]
                        for i in range(len(self.rows))
                        for j in range(len(self.cols))))

    def __hash__(self):
        raise TypeError("GradedMatrix is unhashable")

    def eq_mod_g(self, other) -> bool:
        if len(self.rows) != len(other.rows) or len(self.cols) != len(other.cols):
            return False
        same = ([c - r for r in self.rows for c in self.cols] ==
                [c - r for r in other.rows for c in other.cols])
        if not same:
            return False
        diff = [[self.entries[i][j] - other.entries[i][j]
                 for j in range(len(self.cols))] for i in range(len(self.rows))]
        return all(self.ring.normal_form(e).is_zero()
                   for row in diff for e in row)

    def div_exact_g(self) -> "GradedMatrix":
        """Entrywise exact quotient by g; column degrees drop by deg g."""
        g = self.ring.g
        ents = [[e.div_exact(g) for e in row] for row in self.entries]
        return GradedMatrix(self.ring, self.rows,
                            [c - self.ring.deg_g for c in self.cols], ents)

    def is_reduced(self) -> bool:
        """No entry is a unit, i.e. all entries lie in the maximal ideal."""
        return all(e.is_zero() or e.degree > 0
                   for row in self.entries for e in row)

    def entry_strings(self):
        return [[e.to_string() for e in row] for row in self.entries]

    def __repr__(self):
        return f"GradedMatrix(rows={self.rows}, cols={self.cols})"


def block_matrix(ring, blocks, rows, cols) -> GradedMatrix:
    """Assemble a matrix from a 2D grid of GradedMatrix blocks (None = 0).

    rows and cols are the degree vectors of the result; the blocks only
    have to match entrywise degrees, so uniformly shifted copies of a
    block are accepted as they are.
    """
    z = ring.zero_poly()
    heights = [next(len(b.rows) for b in brow if b is not None)
               for brow in blocks]
    ncolblocks = len(blocks[0])
    widths = [next(len(blocks[bi][bj].cols) for bi in range(len(blocks))
                   if blocks[bi][bj] is not None)
              for bj in range(ncolblocks)]
    total_r, total_c = sum(heights), sum(widths)
    if total_r != len(rows) or total_c != len(cols):
        raise InputError("block grid does not match the degree vectors")
    ents = [[z] * total_c for _ in range(total_r)]
    r0 = 0
    for bi, brow in enumerate(blocks):
        c0 = 0
        for bj in range(ncolblocks):
            blk = brow[bj]
            if blk is not None:
                for i in range(heights[bi]):
                    for j in range(widths[bj]):
                        ents[r0 + i][c0 + j] = blk.entries[i][j]
            c0 += widths[bj]
        r0 += heights[bi]
    return GradedMatrix(ring, rows, cols, ents)


# ----------------------------------------------------------------------
# R-spans in one degree


def _span_rref(ring, d, columns, coords) -> SparseRREF:
    """Degree-d piece of the R-span of homogeneous columns, as an RREF.

    columns yields (degree, polys) pairs.  Each column is multiplied by
    every monomial of degree d - degree, brought to normal form entry by
    entry, and turned into a sparse row by coords(polys).
    """
    rr = SparseRREF(ring.field)
    for deg, polys in columns:
        for mono in ring.graded_piece(d - deg):
            rr.insert(coords([p if p.is_zero()
                              else ring.normal_form(p.shift_monomial(*mono))
                              for p in polys]))
    return rr


def _scatter(pos):
    """coords callback: the monomials of entry i land at pos[(i, monomial)]."""
    def coords(polys):
        return {pos[(i, key)]: c for i, poly in enumerate(polys)
                for key, c in poly.terms.items()}
    return coords


# ----------------------------------------------------------------------
# matrix factorizations


class MatrixFactorization:
    """A pair (phi, psi) with phi psi = psi phi = g Id.

    The constructor checks a pair that enters the engine unproven, and
    multiplies out phi psi only: phi is square, so det phi det psi =
    g^n != 0 makes phi injective over S, and phi (psi phi - g Id) = 0.
    A pair derived from certified ones is built by _derived, with no
    product; its proof is written where it is derived."""

    def __init__(self, phi: GradedMatrix, psi: GradedMatrix):
        ring = phi.ring
        D = ring.deg_g
        if psi.rows != phi.cols or psi.cols != tuple(r + D for r in phi.rows):
            raise InputError("degree vectors do not form a factorization pair")
        if len(phi.rows) != len(phi.cols):
            raise InputError("phi is not square")
        self.ring = ring
        self.phi = phi
        self.psi = psi
        if not phi.mul(psi) == g_identity(ring, phi.rows):
            raise VerificationError("phi psi is not g times the identity")

    @classmethod
    def _derived(cls, phi: GradedMatrix, psi: GradedMatrix):
        """A pair proved a factorization by its derivation: not checked."""
        mf = cls.__new__(cls)
        mf.ring, mf.phi, mf.psi = phi.ring, phi, psi
        return mf

    def is_reduced(self) -> bool:
        return self.phi.is_reduced() and self.psi.is_reduced()

    def cok(self, label=None) -> "GradedModule":
        return GradedModule(self, label=label)

    def syz(self) -> "MatrixFactorization":
        """(psi, phi(deg g)), a factorization as psi phi = g Id."""
        return self._derived(self.psi, self.phi.shift(self.ring.deg_g))

    def shift(self, s: int) -> "MatrixFactorization":
        """The factorization of (cok phi)(s): a shift changes no entry."""
        return self._derived(self.phi.shift(-s), self.psi.shift(-s))

    def __repr__(self):
        return f"MatrixFactorization(rows={self.phi.rows}, cols={self.phi.cols})"


def g_identity(ring, degs) -> GradedMatrix:
    z = ring.zero_poly()
    ents = [[ring.g if i == j else z for j in range(len(degs))]
            for i in range(len(degs))]
    return GradedMatrix(ring, degs, [d + ring.deg_g for d in degs], ents)


def mf_check(phi: GradedMatrix, psi: GradedMatrix) -> bool:
    """Whether (phi, psi) is a factorization of g (MatrixFactorization)."""
    try:
        MatrixFactorization(phi, psi)
        return True
    except (InputError, VerificationError):
        return False


def mf_from_ideal(ring: HypersurfaceRing) -> MatrixFactorization:
    """The factorization presenting the two-generated ideal I = (x^m, y^n).

    Generators sit in degrees (m q, n p).  The pair is proved, not
    multiplied out: corner x^m = g - y^(q+v), so each diagonal entry of
    phi psi is corner x^m + y^(q+v) = g and each off-diagonal one
    cancels, and phi psi = g Id.  cok phi = I: phi's columns, the Koszul
    column (-y^n, x^m) and the column (corner, y^(q+v-n)) that writes g
    in x^m, y^n, are relations of (x^m, y^n) in R.  They span all of
    them: if a x^m + b y^n = c g in S, then (a, b) - c (corner,
    y^(q+v-n)) is a syzygy of the regular sequence x^m, y^n in S, a
    multiple of (-y^n, x^m).
    """
    m, n = ring.m, ring.n
    if m is None or n is None:
        raise InputError("the ideal module (x^m, y^n) needs both m and n")
    q, v = ring.q, ring.v
    D = ring.deg_g
    s = n * ring.p + m * q
    corner = (ring.g - ring.monomial(0, q + v)).div_exact_x(m)
    phi = GradedMatrix(ring, (m * q, n * ring.p), (D, s), [
        [corner, -ring.monomial(0, n)],
        [ring.monomial(0, q + v - n), ring.monomial(m, 0)],
    ])
    psi = GradedMatrix(ring, (D, s), (m * q + D, n * ring.p + D), [
        [ring.monomial(m, 0), ring.monomial(0, n)],
        [-ring.monomial(0, q + v - n), corner],
    ])
    return MatrixFactorization._derived(phi, psi)


# ----------------------------------------------------------------------
# graded modules


class GradedModule:
    """The cokernel of a matrix factorization (phi, psi), built by its cok.

    The presentation over R is phi in normal form."""

    def __init__(self, mf: MatrixFactorization, label=None):
        self.ring = mf.ring
        self.matrix = mf.phi.nf()
        self.gens = mf.phi.rows
        self.rels = mf.phi.cols
        self.mf = mf
        self.label = label
        self._ambient_cache: dict = {}
        self._image_cache: dict = {}
        self._coord_cache: dict = {}  # (gen, monomial) -> coordinates
        self._hom_cache: dict = {}
        self._trace_cache: dict = {}  # branch -> traceoracle._BranchTrace
        self._end_generators = None  # traceoracle.end_generators

    def clear_hom_layer(self) -> None:
        """Drop what the layers above keep on this module: its hom spaces,
        with the stably zero spans kept on them, its trace functionals and
        its End generators.  Each refers back to the module, so until they
        are dropped the module sits in a reference cycle with them that
        only a full garbage collection frees.  Anything dropped is built
        again when next asked for."""
        self._hom_cache.clear()
        self._trace_cache.clear()
        self._end_generators = None

    # -- graded pieces -------------------------------------------------

    def _ambient(self, d: int):
        """The degree-d basis of the free cover and its index."""
        cached = self._ambient_cache.get(d)
        if cached is None:
            basis = [(i, mono) for i, w in enumerate(self.gens)
                     for mono in self.ring.graded_piece(d - w)]
            cached = (basis, {key: t for t, key in enumerate(basis)})
            self._ambient_cache[d] = cached
        return cached

    def ambient_basis(self, d: int):
        """Basis of the degree-d piece of the free cover, as (gen, mono)."""
        return self._ambient(d)[0]

    def _image_rref(self, d: int) -> SparseRREF:
        rr = self._image_cache.get(d)
        if rr is None:
            columns = [(u, [row[j] for row in self.matrix.entries])
                       for j, u in enumerate(self.rels)]
            rr = _span_rref(self.ring, d, columns,
                            _scatter(self._ambient(d)[1]))
            self._image_cache[d] = rr
        return rr

    def piece_dim(self, d: int) -> int:
        """dim M_d = sum_i |S_(d - w_i)| - sum_j |S_(d - u_j)|, over the
        degrees w of phi's rows and u of its columns.

        phi psi = g Id exactly, so phi is injective over the domain S, and
        g F(w) lies in its image, so cok phi is the same over S as over R:
        0 -> S(-u) -> S(-w) -> M -> 0 is exact.
        """
        s_piece = self.ring.s_piece
        return (sum(len(s_piece(d - w)) for w in self.gens)
                - sum(len(s_piece(d - u)) for u in self.rels))

    def nonpivot_basis(self, d: int):
        """Indices into the ambient basis giving a basis of M_d."""
        amb = self.ambient_basis(d)
        pivots = self._image_rref(d).rows
        return [t for t in range(len(amb)) if t not in pivots]

    def element_coords(self, polys, d: int) -> dict:
        """Canonical coordinates in M_d of a tuple of polys, in normal
        form or not (see _accumulate)."""
        out: dict = {}
        for i, poly in enumerate(polys):
            if not poly.is_zero():
                self._accumulate(out, i, poly, d)
        return _canonical(out, self.ring.field)

    def _accumulate(self, out: dict, i: int, poly, d: int, shift=(0, 0),
                    keys=None):
        """Add into out the coordinates in M_d of x^a y^b poly e_i,
        (a, b) = shift, for a nonzero poly: c times the table row of each
        term c x^i y^j, coordinate t at keys[t] (at t when keys is None).

        The sums are left to native + and *; normal form and reduction
        are linear, so _canonical(out) is the canonical coordinates.
        """
        if poly.degree != d - self.ring.wdeg(*shift) - self.gens[i]:
            raise InputError("element component has wrong degree")
        a0, b0 = shift
        for (a, b), c in poly.terms.items():
            for t, v in self._monomial_coords(i, (a + a0, b + b0)).items():
                if keys is not None:
                    t = keys[t]
                out[t] = out.get(t, 0) + c * v

    def _monomial_coords(self, i: int, mono) -> dict:
        """The table row of x^a y^b e_i, (a, b) = mono: its normal form
        reduced against the image in its degree, made once."""
        row = self._coord_cache.get((i, mono))
        if row is None:
            d = self.gens[i] + self.ring.wdeg(*mono)
            nf = self.ring.normal_form(self.ring.monomial(*mono))
            row = self._coord_cache[(i, mono)] = self._image_rref(d).reduce(
                {self._ambient(d)[1][(i, m)]: c for m, c in nf.terms.items()})
        return row

    def shift(self, s: int) -> "GradedModule":
        return self.mf.shift(s).cok(label=self.label)

    def syz(self) -> "GradedModule":
        return self.mf.syz().cok(label=_wrap_label(self.label, "syz"))

    def describe(self) -> dict:
        return {
            "label": self.label,
            "generator_degrees": list(self.gens),
            "relation_degrees": list(self.rels),
            "presentation": self.matrix.entry_strings(),
        }

    def __repr__(self):
        tag = f" {self.label}" if self.label else ""
        return f"GradedModule{tag}(gens={self.gens})"


def _wrap_label(label, op):
    return f"{op}({label})" if label else None


def _canonical(vec: dict, K) -> dict:
    """The nonzero entries of a vector of native sums, as field elements
    in canonical form (so a zero is 0)."""
    return {t: e for t, v in vec.items() if (e := K(v))}


def free_module(ring, shifts=(0,)) -> GradedModule:
    """sum_i R(-shifts[i]) as the cokernel of (g Id, Id): its presentation
    over R is the zero matrix, with relation degrees shifts + deg g.
    (g Id) Id = g Id needs no product."""
    ident = GradedMatrix.identity(ring, [w + ring.deg_g for w in shifts])
    return MatrixFactorization._derived(g_identity(ring, tuple(shifts)),
                                        ident).cok(label="free")


# ----------------------------------------------------------------------
# unit splitting of factorizations


def _find_unit(ents):
    for i, row in enumerate(ents):
        for j, e in enumerate(row):
            if not e.is_zero() and e.degree == 0:
                return i, j
    return None


def _eliminate_unit(ents, i, j, field):
    """Clear row i and column j of a matrix around the unit at (i, j), by
    row operations with row i and then column operations with column j."""
    uinv = field.inv(ents[i][j].coeff(0, 0))
    for r, row in enumerate(ents):
        if r == i or row[j].is_zero():
            continue
        c = row[j] * uinv
        for t in range(len(row)):
            row[t] = row[t] - c * ents[i][t]
    for t in range(len(ents[i])):
        if t == j or ents[i][t].is_zero():
            continue
        c = ents[i][t] * uinv
        for row in ents:
            row[t] = row[t] - c * row[j]


def _drop(ents, i, j):
    return [[e for t, e in enumerate(row) if t != j]
            for r, row in enumerate(ents) if r != i]


def mf_reduce(mf: MatrixFactorization):
    """Split all trivial blocks off a factorization.

    Returns (reduced factorization or None, free generator degrees):
    a unit in phi is a trivial (1)-block, a unit in psi is a (g)-block
    of phi, i.e. a free summand of cok phi.  A factorization without
    units comes back as it is.

    The core is a factorization with no product taken.  Clearing a unit
    u at (i, j) of a, one of phi and psi, replaces a by U a V, where U
    subtracts multiples of row i and V multiples of column j; the pair
    (U a V, b') with b' = V^-1 b U^-1 still multiplies to g Id both
    ways.  U and U^-1 differ from Id only in column i, V and V^-1 only
    in row j, so b' agrees with b outside row j and column i, and b is
    not updated.  Row i and column j of U a V are u e_j and u e_i, and
    the products force row j and column i of b' to be (g/u) e_i and
    (g/u) e_j: the dropped row and column are a (u) (g/u) block, and
    what is left, U a V and b without row j and column i, multiplies to
    g Id.
    """
    if mf.is_reduced():
        return mf, []
    ring = mf.ring
    K = ring.field
    phi_ents = [list(r) for r in mf.phi.entries]
    psi_ents = [list(r) for r in mf.psi.entries]
    phi_rows = list(mf.phi.rows)
    phi_cols = list(mf.phi.cols)
    frees = []
    while True:
        hit = _find_unit(phi_ents)
        if hit is not None:
            i, j = hit
            _eliminate_unit(phi_ents, i, j, K)
            phi_ents = _drop(phi_ents, i, j)
            psi_ents = _drop(psi_ents, j, i)
            del phi_rows[i], phi_cols[j]
            continue
        hit = _find_unit(psi_ents)
        if hit is not None:
            a, b = hit
            _eliminate_unit(psi_ents, a, b, K)
            psi_ents = _drop(psi_ents, a, b)
            phi_ents = _drop(phi_ents, b, a)
            frees.append(phi_rows[b])
            del phi_rows[b], phi_cols[a]
            continue
        break
    frees.sort()
    if not phi_rows:
        return None, frees
    phi = GradedMatrix(ring, phi_rows, phi_cols, phi_ents)
    psi = GradedMatrix(ring, phi_cols, [r + ring.deg_g for r in phi_rows],
                       psi_ents)
    return MatrixFactorization._derived(phi, psi), frees


# ----------------------------------------------------------------------
# ranks along branches and multiplicity


def rank_vector(M: GradedModule, branches):
    """Generic rank of M along each branch, via parametrized elimination.

    On a branch the presentation matrix becomes a matrix of monomials
    c t^e whose exponents are forced by the grading; scaling rows and
    columns by the matching fractional powers of t turns each residue
    block into a constant matrix, so the rank over the Laurent field
    equals the rank of the coefficient matrix over k.
    """
    K = M.ring.field
    return [len(M.gens) - rank_dense(_coefficient_matrix(branch, M.matrix), K)
            for branch in branches]


def _coefficient_matrix(branch, matrix: GradedMatrix):
    """Constant matrix of branch leading coefficients (monomial images)."""
    K = matrix.ring.field
    out = []
    for row in matrix.entries:
        crow = []
        for e in row:
            image = branch.evaluate(e)
            crow.append(K.zero if image is None else image[0])
        out.append(crow)
    return out


def multiplicity(M: GradedModule, branches) -> int:
    """Sum over branches of generic rank times branch multiplicity."""
    ranks = rank_vector(M, branches)
    return sum(r * br.multiplicity for r, br in zip(ranks, branches))
