"""Graded matrices, matrix factorizations, modules, and hom spaces.

Conventions used throughout:

  * A graded matrix A carries row degrees w and column degrees u, and
    entry (i, j) is homogeneous of degree u[j] - w[i] (or zero).
  * A presents the module cok(A) with generator degrees w and relation
    degrees u, i.e. A maps F(u) into F(w).
  * A homomorphism of degree d from cok(A) to cok(B) is a matrix H with
    rows B.rows and columns A.rows + d, sending the j-th generator to
    sum_i H[i][j] times the i-th generator of the target.
  * A matrix factorization of g is a pair (phi, psi) with
    phi psi = g Id and psi phi = g Id exactly over the polynomial ring.

Everything is exact; all solved systems go through canonical RREF, so
identical input yields identical output.
"""

from __future__ import annotations

import random

from . import upoly
from .errors import (CertificationError, InconclusiveSplitError, InputError,
                     VerificationError)
from .linalg import (SparseRREF, dense_vector, kernel_sparse, rank_dense,
                     solve_sparse_system, sparse_vector)
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
        add, mul = K.add, K.mul
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
                            cur = acc.get(key)
                            acc[key] = (mul(c1, c2) if cur is None
                                        else add(cur, mul(c1, c2)))
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
# the graded linear solver


def solve_graded_system(ring, unknowns, equations, mode="mod_g"):
    """Solve linear matrix equations over R (mod g) or over S (exact).

    unknowns: dict name -> (row_degrees, col_degrees); the unknown entry
    (i, j) ranges over the monomial basis of its degree (the normal-form
    basis for mode "mod_g", the full polynomial piece for mode "exact").

    equations: list of (terms, const) where each term ("L", C, name)
    contributes C X, each ("R", C, name) contributes X C, and const is a
    GradedMatrix or None.  Every equation asserts that the sum vanishes.

    Returns the canonical particular solution, a dict mapping names to
    GradedMatrix with free variables zero, or None when the system is
    inconsistent.  Hom spaces are kernels of precomposition and are not
    built here (see HomSpace).
    """
    basis_of = ring.graded_piece if mode == "mod_g" else ring.s_piece
    K = ring.field

    var_index: dict = {}
    var_list = []
    for name in sorted(unknowns):
        rdegs, cdegs = unknowns[name]
        for i in range(len(rdegs)):
            for j in range(len(cdegs)):
                for mono in basis_of(cdegs[j] - rdegs[i]):
                    var_index[(name, i, j, mono)] = len(var_list)
                    var_list.append((name, i, j, mono))
    nvars = len(var_list)
    const_index = nvars

    sys_rows = []
    for terms, const in equations:
        erows, ecols = _equation_shape(unknowns, terms, const)
        for i in range(len(erows)):
            for j in range(len(ecols)):
                ed = ecols[j] - erows[i]
                out_pos = {mono: t for t, mono in enumerate(basis_of(ed))}
                cells = [dict() for _ in out_pos]

                def _accumulate(poly, vk):
                    for mkey, mval in poly.terms.items():
                        cell = cells[out_pos[mkey]]
                        new = K.add(cell.get(vk, K.zero), mval)
                        if K.is_zero(new):
                            cell.pop(vk, None)
                        else:
                            cell[vk] = new

                for side, coeff, name in terms:
                    rdegs, cdegs = unknowns[name]
                    if side == "L":
                        for t in range(len(coeff.cols)):
                            c = coeff.entries[i][t]
                            if c.is_zero():
                                continue
                            for mono in basis_of(cdegs[j] - rdegs[t]):
                                prod = c.shift_monomial(*mono)
                                if mode == "mod_g":
                                    prod = ring.normal_form(prod)
                                _accumulate(prod, var_index[(name, t, j, mono)])
                    else:
                        for t in range(len(coeff.rows)):
                            c = coeff.entries[t][j]
                            if c.is_zero():
                                continue
                            for mono in basis_of(cdegs[t] - rdegs[i]):
                                prod = c.shift_monomial(*mono)
                                if mode == "mod_g":
                                    prod = ring.normal_form(prod)
                                _accumulate(prod, var_index[(name, i, t, mono)])
                if const is not None:
                    e = const.entries[i][j]
                    if mode == "mod_g":
                        e = ring.normal_form(e)
                    _accumulate(e, const_index)
                for cell in cells:
                    if cell:
                        sys_rows.append(cell)

    particular = solve_sparse_system(sys_rows, nvars, K)
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


def _equation_shape(unknowns, terms, const):
    shapes = []
    for side, coeff, name in terms:
        rdegs, cdegs = unknowns[name]
        if side == "L":
            if len(coeff.cols) != len(rdegs):
                raise InputError("L-term inner dimension mismatch")
            c0 = 0
            if len(coeff.cols):
                diffs = {coeff.cols[t] - rdegs[t] for t in range(len(rdegs))}
                if len(diffs) != 1:
                    raise InputError("L-term degree vectors incompatible")
                c0 = diffs.pop()
            shapes.append((coeff.rows, tuple(c + c0 for c in cdegs)))
        elif side == "R":
            if len(coeff.rows) != len(cdegs):
                raise InputError("R-term inner dimension mismatch")
            c0 = 0
            if len(coeff.rows):
                diffs = {coeff.rows[t] - cdegs[t] for t in range(len(cdegs))}
                if len(diffs) != 1:
                    raise InputError("R-term degree vectors incompatible")
                c0 = -diffs.pop()
            shapes.append((rdegs, tuple(c + c0 for c in coeff.cols)))
        else:
            raise InputError(f"unknown term side {side!r}")
    if const is not None:
        shapes.append((const.rows, const.cols))
    base = shapes[0]
    base_pattern = [c - r for r in base[0] for c in base[1]]
    for sh in shapes[1:]:
        if [c - r for r in sh[0] for c in sh[1]] != base_pattern:
            raise InputError("equation terms have incompatible entry degrees")
    return base


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
    """A pair (phi, psi) with phi psi = psi phi = g Id, checked exactly."""

    def __init__(self, phi: GradedMatrix, psi: GradedMatrix):
        ring = phi.ring
        D = ring.deg_g
        if psi.rows != phi.cols or psi.cols != tuple(r + D for r in phi.rows):
            raise InputError("degree vectors do not form a factorization pair")
        self.ring = ring
        self.phi = phi
        self.psi = psi
        if not phi.mul(psi) == g_identity(ring, phi.rows):
            raise VerificationError("phi psi is not g times the identity")
        if not psi.mul(phi.shift(D)) == g_identity(ring, phi.cols):
            raise VerificationError("psi phi is not g times the identity")

    def is_reduced(self) -> bool:
        return self.phi.is_reduced() and self.psi.is_reduced()

    def cok(self, label=None) -> "GradedModule":
        return GradedModule(self, label=label)

    def syz(self) -> "MatrixFactorization":
        return MatrixFactorization(self.psi, self.phi.shift(self.ring.deg_g))

    def __repr__(self):
        return f"MatrixFactorization(rows={self.phi.rows}, cols={self.phi.cols})"


def g_identity(ring, degs) -> GradedMatrix:
    z = ring.zero_poly()
    ents = [[ring.g if i == j else z for j in range(len(degs))]
            for i in range(len(degs))]
    return GradedMatrix(ring, degs, [d + ring.deg_g for d in degs], ents)


def mf_check(phi: GradedMatrix, psi: GradedMatrix) -> bool:
    """Whether (phi, psi) multiplies to g Id exactly over the polynomial ring."""
    try:
        MatrixFactorization(phi, psi)
        return True
    except (InputError, VerificationError):
        return False


def mf_complete(A: GradedMatrix) -> MatrixFactorization:
    """Complete a square presentation matrix to a matrix factorization.

    Solves A B = g Id exactly over S; since S is a domain and A becomes
    injective, B A = g Id follows (and is verified by the constructor).
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


def mf_from_ideal(ring: HypersurfaceRing) -> MatrixFactorization:
    """The factorization presenting the two-generated ideal (x^m, y^n).

    Generators sit in degrees (m q, n p); the pair is checked exactly and
    the cokernel's Hilbert function is compared against the ideal
    degreewise.
    """
    m, n = ring.m, ring.n
    if m is None or n is None:
        raise InputError("ring instance carries no (m, n) ideal data")
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
    mf = MatrixFactorization(phi, psi)
    module = mf.cok(label="I")
    for d in range(0, 3 * D + 1):
        if module.piece_dim(d) != _ideal_piece_dim(ring, m, n, d):
            raise VerificationError(
                f"cok phi disagrees with the ideal (x^m, y^n) in degree {d}")
    return mf


def _ideal_piece_dim(ring, m, n, d) -> int:
    pos = {(0, mono): t for t, mono in enumerate(ring.graded_piece(d))}
    gens = ((m * ring.q, [ring.monomial(m, 0)]),
            (n * ring.p, [ring.monomial(0, n)]))
    return _span_rref(ring, d, gens, _scatter(pos)).rank


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
        mf = MatrixFactorization(self.mf.phi.shift(-s), self.mf.psi.shift(-s))
        return mf.cok(label=self.label)

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
    over R is the zero matrix, with relation degrees shifts + deg g."""
    ident = GradedMatrix.identity(ring, [w + ring.deg_g for w in shifts])
    return MatrixFactorization(g_identity(ring, tuple(shifts)),
                               ident).cok(label="free")


# ----------------------------------------------------------------------
# hom spaces


class GradedHom:
    """A homomorphism cok(A) -> cok(B) of fixed degree: its coordinates in
    its hom space, and its matrix H, made from them when first read; sums
    and products of homs are homs, so arithmetic stays on coordinates."""

    __slots__ = ("space", "source", "target", "degree", "coords", "_H",
                 "_branch_coeffs")

    def __init__(self, space, coords):
        self.space = space
        self.source, self.target = space.source, space.target
        self.degree = space.degree
        self.coords = coords
        self._H = None
        self._branch_coeffs = {}

    @property
    def H(self) -> GradedMatrix:
        if self._H is None:
            self._H = self.space._matrix(self.coords)
        return self._H

    def _coefficients(self, branch):
        """C_b(H), the constant matrix of branch leading coefficients,
        read off the coordinates: entry (i, j) is the sum of c times the
        branch image of the monomial of each coordinate c at (i, j)
        (HomSpace._images), so no matrix H is built.  Made once per
        branch."""
        C = self._branch_coeffs.get(branch)
        if C is None:
            images = self.space._images(branch)
            sums: dict = {}
            for t, c in self.coords:
                hit = images.get(t)
                if hit is not None:
                    entry, v = hit
                    sums[entry] = sums.get(entry, 0) + c * v
            C = [[0] * len(self.source.gens) for _ in self.target.gens]
            for (i, j), v in _canonical(sums, self.source.ring.field).items():
                C[i][j] = v
            self._branch_coeffs[branch] = C
        return C

    def is_zero(self) -> bool:
        return not self.coords

    def __eq__(self, other):
        if not isinstance(other, GradedHom):
            return NotImplemented
        return (self.source is other.source and self.target is other.target
                and self.degree == other.degree and self.coords == other.coords)

    def __hash__(self):
        raise TypeError("GradedHom is unhashable")

    def compose(self, first: "GradedHom") -> "GradedHom":
        """self after first."""
        if first.target is not self.source:
            raise InputError("composition chain mismatch")
        space = hom_graded(first.source, self.target,
                           self.degree + first.degree)
        return space._hom(space.coords_of(self.H.mul(first.H)))

    def __add__(self, other):
        if (self.source is not other.source or self.target is not other.target
                or self.degree != other.degree):
            raise InputError("cannot add homs from different spaces")
        return self.space._hom(_combine(((1, self), (1, other)), self.space))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, value):
        return self.space._hom(_combine(((value, self),), self.space))

    def times_monomial(self, i: int, j: int) -> "GradedHom":
        """The hom multiplied by the monomial x^i y^j (degree rises): each
        coordinate c at (r, s, x^a y^b) adds c times the target's table
        row of x^(a+i) y^(b+j) e_r to column s of the raised space."""
        ring = self.source.ring
        space = hom_graded(self.source, self.target,
                           self.degree + ring.wdeg(i, j))
        entries, table = self.space._entry_list, self.target._monomial_coords
        out: dict = {}
        for t, c in self.coords:
            r, s, (a, b) = entries[t]
            flat = space._flat[s]
            for tt, v in table(r, (a + i, b + j)).items():
                key = flat[tt]
                out[key] = out.get(key, 0) + c * v
        return space._hom(_freeze(_canonical(out, ring.field)))

    def __repr__(self):
        return (f"GradedHom(deg={self.degree}, "
                f"{self.source!r} -> {self.target!r})")


class HomSpace:
    """The k-vector space of degree-d homomorphisms between two modules.

    Hom(cok A, N)_d is the kernel of precomposition X -> X A on the sum
    of the pieces N_(w_j + d) over the generator degrees w_j of cok A
    (see _precomposition).  Its vectors live on the nonpivot coordinates
    of N, so they are already reduced modulo N's relations; the basis is
    their reduced row echelon form in the flat coordinates of a hom
    matrix, and is therefore canonical.
    """

    def __init__(self, source: GradedModule, target: GradedModule, degree: int):
        self.source = source
        self.target = target
        self.degree = degree
        ring = source.ring
        # Coordinates of a hom matrix flattened row-major: entry (i, j)
        # runs over the monomials of degree ws + degree - wt.
        entry_index = {}
        entry_list = []
        for i, wt in enumerate(target.gens):
            for j, ws in enumerate(source.gens):
                for mono in ring.graded_piece(ws + degree - wt):
                    entry_index[(i, j, mono)] = len(entry_list)
                    entry_list.append((i, j, mono))
        self._entry_list = entry_list
        # _flat[j][t]: flat coordinate of the t-th ambient basis element
        # of the target in degree w_j + degree, as column j.
        self._flat = [[entry_index[(i, j, mono)]
                       for i, mono in target.ambient_basis(ws + degree)]
                      for j, ws in enumerate(source.gens)]

        variables, rows = _precomposition(source.matrix, target, degree)
        kernel = kernel_sparse(rows, len(variables), ring.field)
        flat = [self._flat[j][t] for j, t in variables]
        reduced = SparseRREF(ring.field)
        for vec in kernel:
            reduced.insert({flat[v]: c for v, c in vec.items()})
        self._span = reduced
        self.basis = [self._hom(_freeze(reduced.pivots[piv]))
                      for piv in sorted(reduced.pivots)]
        self._branch_images: dict = {}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _hom(self, coords) -> GradedHom:
        """The hom with these frozen coordinates; the caller certifies it."""
        return GradedHom(self, coords)

    def _matrix(self, coords) -> GradedMatrix:
        ring = self.source.ring
        ents = [[dict() for _ in self.source.gens] for _ in self.target.gens]
        for t, c in coords:
            i, j, mono = self._entry_list[t]
            ents[i][j][mono] = c
        polys = [[WPoly(ring.field, ring.q, ring.p, e) for e in row]
                 for row in ents]
        return GradedMatrix(ring, self.target.gens,
                            tuple(w + self.degree for w in self.source.gens),
                            polys)

    def _images(self, branch) -> dict:
        """{flat coordinate: ((i, j), branch image of its monomial)} for
        the monomials that do not vanish on the branch, read off
        Branch.piece_row block by block in the order of _entry_list;
        made once per branch."""
        images = self._branch_images.get(branch)
        if images is None:
            images = self._branch_images[branch] = {}
            ring = self.source.ring
            t = 0
            for i, wt in enumerate(self.target.gens):
                for j, ws in enumerate(self.source.gens):
                    w = ws + self.degree - wt
                    for k, v in branch.piece_row(w)[0].items():
                        images[t + k] = ((i, j), v)
                    t += len(ring.graded_piece(w))
        return images

    def coords_of(self, H: GradedMatrix):
        """Canonical coordinates of a hom matrix, in normal form or not."""
        return _freeze(self._coords(
            ((i, j, e) for i, row in enumerate(H.entries)
             for j, e in enumerate(row) if not e.is_zero()), (0, 0)))

    def _coords(self, entries, shift) -> dict:
        """The coordinates of x^a y^b times a matrix given by its nonzero
        entries (i, j, poly), (a, b) = shift: entry (i, j) is read by the
        target's accumulator in degree w_j + degree into column j."""
        gens, d = self.source.gens, self.degree
        out: dict = {}
        for i, j, poly in entries:
            self.target._accumulate(out, i, poly, gens[j] + d, shift,
                                    self._flat[j])
        return _canonical(out, self.source.ring.field)

    def from_matrix(self, H: GradedMatrix) -> GradedHom:
        """The hom given by a matrix from outside the hom layer, certified
        a hom by membership of its coordinates in this space's span."""
        coords = self.coords_of(H)
        if not self._span.contains(dict(coords)):
            raise InputError("matrix does not define a homomorphism here")
        return self._hom(coords)

    def zero(self) -> GradedHom:
        return self._hom(())

    def expand(self, hom: GradedHom):
        """Coefficients of a hom of this space in the canonical basis."""
        vec = dict(hom.coords)
        K = self.source.ring.field
        out = []
        for b in self.basis:
            piv = min(dict(b.coords))
            out.append(vec.get(piv, K.zero))
        return out

    def __repr__(self):
        return (f"HomSpace(dim={self.dim}, deg={self.degree}, "
                f"{self.source!r} -> {self.target!r})")


def _freeze(vec: dict):
    return tuple(sorted(vec.items()))


def hom_graded(source: GradedModule, target: GradedModule,
               degree: int) -> HomSpace:
    key = (id(target), degree)
    cached = source._hom_cache.get(key)
    if cached is not None and cached[0] is target:
        return cached[1]
    space = HomSpace(source, target, degree)
    source._hom_cache[key] = (target, space)
    return space


def hom_from_coefficients(space: HomSpace, coeffs) -> GradedHom:
    return space._hom(_combine(zip(coeffs, space.basis), space))


def _combine(terms, space: HomSpace):
    """Frozen coordinates of sum c h over the (c, h) pairs, h in space."""
    K = space.source.ring.field
    out: dict = {}
    for c, h in terms:
        for t, v in h.coords:
            out[t] = K.add(out.get(t, K.zero), K.mul(K(c), v))
    return _freeze({t: v for t, v in out.items() if not K.is_zero(v)})


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
    span = getattr(space, "_stably_zero", None)
    if span is not None:
        return span
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
    space = hom_graded(h.source, h.target, h.degree)
    return _stably_zero_span(space).contains(dict(h.coords))


def stable_end_dim(M: GradedModule, d: int) -> int:
    """Dimension of degree-d endomorphisms modulo those through frees."""
    space = hom_graded(M, M, d)
    return space.dim - _stably_zero_span(space).rank


def _precomposition(A: GradedMatrix, N: GradedModule, d: int):
    """The map X -> X A from Hom(F(A.rows), N)_d to Hom(F(A.cols), N)_d.

    Variable (i, t) sends generator i to the t-th nonpivot basis element
    of N_(A.rows[i] + d).  Returns the variables and the rows of the map,
    one per (column of A, coordinate in N); the kernel is Hom(cok A, N)_d.
    """
    K = A.ring.field
    variables = [(i, t) for i, w in enumerate(A.rows)
                 for t in N.nonpivot_basis(w + d)]
    rows: dict = {}
    for v, (i, t) in enumerate(variables):
        gen, mono = N.ambient_basis(A.rows[i] + d)[t]
        for j, e in enumerate(A.entries[i]):
            if e.is_zero():
                continue
            image: dict = {}
            N._accumulate(image, gen, e, A.cols[j] + d, mono)
            for tt, c in _canonical(image, K).items():
                rows.setdefault((j, tt), {})[v] = c
    return variables, list(rows.values())


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
# unit splitting of factorizations


def _find_unit(ents, rows, cols):
    for i in range(len(rows)):
        for j in range(len(cols)):
            e = ents[i][j]
            if not e.is_zero() and e.degree == 0:
                return i, j
    return None


def _pair_eliminate(a_ents, a_rows, a_cols, b_ents, i, j, field):
    """Clear row i and column j of matrix a around the unit at (i, j).

    b is the partner factorization matrix; row operations on a are
    mirrored as inverse column operations on b and vice versa, which
    keeps both products of the pair unchanged.
    """
    uinv = field.inv(a_ents[i][j].coeff(0, 0))
    for r in range(len(a_rows)):
        if r == i or a_ents[r][j].is_zero():
            continue
        c = a_ents[r][j] * uinv
        # a: row_r -= c row_i;  b: col_i += c col_r.
        for t in range(len(a_cols)):
            a_ents[r][t] = a_ents[r][t] - c * a_ents[i][t]
        for s in range(len(b_ents)):
            b_ents[s][i] = b_ents[s][i] + c * b_ents[s][r]
    for t in range(len(a_cols)):
        if t == j or a_ents[i][t].is_zero():
            continue
        c = a_ents[i][t] * uinv
        # a: col_t -= c col_j;  b: row_j += c row_t.
        for r in range(len(a_rows)):
            a_ents[r][t] = a_ents[r][t] - c * a_ents[r][j]
        for s in range(len(b_ents[j])):
            b_ents[j][s] = b_ents[j][s] + c * b_ents[t][s]


def _drop(ents, i, j):
    return [[e for t, e in enumerate(row) if t != j]
            for r, row in enumerate(ents) if r != i]


def mf_reduce(mf: MatrixFactorization):
    """Split all trivial blocks off a factorization.

    Returns (reduced factorization or None, free generator degrees):
    a unit in phi is a trivial (1)-block, a unit in psi is a (g)-block
    of phi, i.e. a free summand of cok phi.  A factorization without
    units comes back as it is.
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
        hit = _find_unit(phi_ents, phi_rows, phi_cols)
        if hit is not None:
            i, j = hit
            _pair_eliminate(phi_ents, phi_rows, phi_cols, psi_ents, i, j, K)
            phi_ents = _drop(phi_ents, i, j)
            psi_ents = _drop(psi_ents, j, i)
            del phi_rows[i], phi_cols[j]
            continue
        psi_rows = phi_cols
        psi_cols = [r + ring.deg_g for r in phi_rows]
        hit = _find_unit(psi_ents, psi_rows, psi_cols)
        if hit is not None:
            a, b = hit
            _pair_eliminate(psi_ents, psi_rows, psi_cols, phi_ents, a, b, K)
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
    return MatrixFactorization(phi, psi), frees


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
    P^-1 P = Id and P'^-1 P' = Id exactly (_inverse), and the
    off-diagonal blocks vanish; then cok phi is the sum of the cokernels
    of the diagonal blocks, whatever E is, and MatrixFactorization
    checks each pair of blocks.  The blocks are reduced because phi is.
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
    blocks = (_inverse(P).mul(phi).mul(P2), _inverse(P2).mul(psi).mul(P))
    n = len(P.cols)
    if any(not A.entries[i][j].is_zero() for A in blocks
           for i in range(n) for j in range(n) if (i < r) != (j < r)):
        raise CertificationError("split leaves an off-diagonal block")
    return tuple(MatrixFactorization(_block(blocks[0], part),
                                     _block(blocks[1], part)).cok()
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
    if any(k not in rr.pivots for k in range(n)):
        raise CertificationError(
            "scalar part of the change of basis is singular")
    return GradedMatrix(ring, P.cols, P.rows,
                        [[ring.monomial(0, 0, rr.pivots[k].get(n + i, K.zero))
                          for i in range(n)] for k in range(n)])


# ----------------------------------------------------------------------
# the degree-zero endomorphism algebra, read on the top


def _flat(a, K) -> dict:
    """The nonzero entries of a square matrix, keyed row-major."""
    return sparse_vector([v for row in a for v in row], K)


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
            out[base + j] = K.add(out.get(base + j, K.zero), K.mul(u, v))
    return {c: v for c, v in out.items() if not K.is_zero(v)}


def _dot(u: dict, v: dict, K):
    """sum_c u[c] v[c], for sparse vectors u and v."""
    acc = K.zero
    for c, x in u.items():
        y = v.get(c)
        if y is not None:
            acc = K.add(acc, K.mul(x, y))
    return acc


def _combination(vec: dict, elems, K) -> dict:
    """sum_s vec[s] elems[s], for sparse vectors elems."""
    out = {}
    for s, x in vec.items():
        for c, v in elems[s].items():
            out[c] = K.add(out.get(c, K.zero), K.mul(x, v))
    return {c: v for c, v in out.items() if not K.is_zero(v)}


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

    The scalar part s of a hom matrix (`_scalar_part`: the constant terms
    of the entries whose row and column degrees agree) is an algebra map
    from End_0(M) onto A, an algebra of k-matrices of the size r of the
    generator count; the split and invertible_on_top read the same map.
    Its kernel J is nilpotent: a map in J raises generator degrees by at
    least min(p, q), so J^k = 0 once k > (max gens - min gens)/min(p, q)
    (graded Nakayama).  So rad End_0 is the preimage of rad A, and
    End_0/rad is A/rad A.  Matrices on the top are kept as their nonzero
    entries keyed row-major (`_flat`), and multiplied by `_flat_mul`.

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
        self.scalars = [_flat(_scalar_part(b.H), K)
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


# Random End_0 elements tried after the structured candidates.
_RANDOM_CANDIDATES = 120


def _candidates(top: TopAlgebra, rng):
    """Scalar part and a maker of each candidate End_0 element: the basis,
    the products of two basis maps, the sums of two, then random draws.
    A candidate's map is only made when it splits the module."""
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
    span = 7 if K.char == 0 else min(K.char, 7)
    for _ in range(_RANDOM_CANDIDATES):
        yield combination([K(rng.randrange(span)) for _ in range(n)])


def decompose(M: GradedModule, rng=None):
    """Split a module into indecomposable summands.

    Returns (parts, free_shifts): parts are the nonfree indecomposable
    summands and free_shifts the generator degrees of split-off free
    summands.  Everything is decided on the top algebra A (TopAlgebra):
    a candidate a of End_0 whose scalar part has a minimal polynomial
    with two coprime factors gives an idempotent of k[a], made exact
    over S (_lift_idempotent), and M splits by a change of basis of its
    factorization (split_by_idempotent), with no elimination in M.
    When the minimal polynomial of a's scalar part is a power of one
    irreducible f with deg f = dim A/R, R the radical TopAlgebra finds,
    M is indecomposable in every characteristic.  The minimal polynomial
    of the image a' of a in A/rad A is a nonconstant divisor of that
    power, so k[a'] has dimension at least deg f; TopAlgebra certifies
    that R lies in rad A, so deg f = dim A/R >= dim A/rad A >= dim k[a'].
    Hence k[a'] = A/rad A = k[t]/(f), a field, and End_0 is local.  The
    random candidates draw their coordinates from min(char, 7) values,
    so over F3 and F5 they range over the whole field.  When neither
    outcome can be certified the function raises InconclusiveSplitError
    rather than guessing.
    """
    if rng is None:
        rng = random.Random(0)
    core, frees = _minimal_core(M)
    if core is None:
        return [], frees
    parts = _indecomposable_parts(core, rng)
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


def _indecomposable_parts(M: GradedModule, rng):
    top = TopAlgebra(M)
    K = M.ring.field
    for bar, make in _candidates(top, rng):
        mu = _min_poly(bar, len(M.gens), K)
        factors = upoly.factor(mu, K)
        if len(factors) == 1:
            if len(factors[0][0]) - 1 == top.quotient_dim:
                return [M]
            continue
        idem = _lift_idempotent(make(), upoly.idempotent(mu, factors, K))
        out = []
        for part in split_by_idempotent(M, idem):
            sub_core, sub_frees = _minimal_core(part)
            if sub_frees or sub_core is None:
                raise CertificationError(
                    "free summand surfaced inside a split part")
            out.extend(_indecomposable_parts(sub_core, rng))
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
    shift is confirmed by maps of degree s from M to N and -s back that
    are invertible on the top (each is then surjective by the graded
    Nakayama lemma, and a surjective endomorphism of a noetherian module
    is injective).  Hom_s(M, N) is Hom_0(M, N(s)) with the same
    matrices, so no shifted copy of N is built.  The answer is exact:
    between indecomposables the maps that are not isomorphisms form a
    subspace (the endomorphism rings are local), so a hom basis holds an
    isomorphism whenever one exists; otherwise both sides are split and
    their parts matched by Krull-Schmidt.
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
    return (len(hom.target.gens) == n
            and rank_dense(_scalar_part(hom.H), hom.source.ring.field) == n)


def _top_isomorphic(A: GradedModule, B: GradedModule, s) -> bool:
    """Whether basis maps of degree s from A to B and -s back are
    invertible on the top.  The spaces are built afresh rather than
    through hom_graded, so that A's hom cache does not keep B alive."""
    return (any(map(invertible_on_top, HomSpace(A, B, s).basis))
            and any(map(invertible_on_top, HomSpace(B, A, -s).basis)))


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
