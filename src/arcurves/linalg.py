"""Exact linear algebra over a coefficient field, on one sparse RREF.

The graded solvers in this package reduce every question (membership,
homomorphism spaces, matrix-equation solving) to finite k-linear systems.
Solutions must be canonical: reduced row echelon form is unique for a
given row space, so every routine here funnels through RREF and reads
particular solutions and kernel bases off it with free variables set to
zero.  That makes all downstream output independent of row order.

Elimination is fraction-free, on integer rows (as in Bareiss, Math.
Comp. 22 (1968)).  Over Q a stored row is a primitive integer vector
with a positive pivot entry, standing for that vector divided by its
pivot entry; over F_ell its entries lie in [0, ell) and its pivot entry
is 1.  The fields differ only in how a whole row is normalised, and
field elements are made only where rows enter and leave: over Q an int
when the quotient is integral and a Fraction otherwise (the canonical
form of fields.RationalField), over F_ell an int.  So a row may come in
as native sums and products of field elements, as everywhere in this
package arithmetic is Python's own and a field only normalises and
inverts.  The dense helpers at the end only convert lists to sparse
rows and back.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _cancel(u: dict, v: dict, col) -> int:
    """Replace u by a u - c v in place, where c/a is u[col]/v[col] in
    lowest terms with a > 0, so that u loses column col.  Returns a."""
    a, c = v[col], u[col]
    g = gcd(a, c)
    if g != 1:
        a, c = a // g, c // g
    if a != 1:
        for k in u:
            u[k] *= a
    for k, w in v.items():
        new = u.get(k, 0) - c * w
        if new:
            u[k] = new
        else:
            del u[k]
    return a


class SparseRREF:
    """Incrementally maintained reduced row echelon form with dict rows.

    rows maps each pivot column to its stored integer row, which has no
    entry in any other pivot column.  pivots is the same echelon form
    with field entries and coefficient 1 in each pivot column; it is
    built on first use after an insert.
    """

    def __init__(self, field):
        self.field = field
        self._ell = field.char  # 0 over Q
        self.rows: dict[int, dict[int, int]] = {}
        self._pivots = None

    # -- the boundary between field elements and integer rows ----------

    def _integral(self, row: dict):
        """An integer vector and a denominator d > 0 with row = vector / d."""
        ell = self._ell
        if ell:
            return {c: r for c, v in row.items() if (r := v % ell)}, 1
        if all(type(v) is int for v in row.values()):
            return {c: v for c, v in row.items() if v}, 1
        den = lcm(*(v.denominator for v in row.values()))
        return {c: v.numerator * (den // v.denominator)
                for c, v in row.items() if v}, den

    def element(self, num: int, den: int):
        """The field element num / den (den > 0), in canonical form."""
        if self._ell:
            return num % self._ell
        q, r = divmod(num, den)
        return Fraction(num, den) if r else q

    def _normalise(self, vec: dict) -> dict:
        """The stored form of vec's row (empty if vec is zero in k)."""
        ell = self._ell
        if ell:
            vec = {c: r for c, v in vec.items() if (r := v % ell)}
            if vec:
                lead = vec[min(vec)]
                if lead != 1:
                    inv = pow(lead, -1, ell)
                    vec = {c: v * inv % ell for c, v in vec.items()}
        elif vec:
            g = gcd(*vec.values())
            if vec[min(vec)] < 0:
                g = -g
            if g != 1:
                vec = {c: v // g for c, v in vec.items()}
        return vec

    # -- elimination ---------------------------------------------------

    def _eliminate(self, vec: dict) -> int:
        """Reduce an integer vector in place against the stored rows;
        returns the factor the vector was multiplied by."""
        rows = self.rows
        scale = 1
        # Stored rows contain no other pivot columns, so clearing the
        # pivot columns present in the snapshot is a complete reduction.
        for col in sorted(c for c in vec if c in rows):
            scale *= _cancel(vec, rows[col], col)
        return scale

    def reduce(self, row: dict) -> dict:
        """Fully reduce a row against the stored pivot rows."""
        vec, den = self._integral(row)
        den *= self._eliminate(vec)
        element = self.element
        return {c: e for c, v in vec.items() if (e := element(v, den))}

    def insert(self, row: dict):
        """Insert a row; return its pivot column, or None if dependent."""
        vec, _ = self._integral(row)
        self._eliminate(vec)
        vec = self._normalise(vec)
        if not vec:
            return None
        piv = min(vec)
        rows = self.rows
        for col, other in rows.items():
            if piv in other:
                _cancel(other, vec, piv)
                rows[col] = self._normalise(other)
        rows[piv] = vec
        self._pivots = None
        return piv

    @property
    def pivots(self) -> dict:
        """pivot column -> its row of the RREF, with field entries."""
        if self._pivots is None:
            element = self.element
            self._pivots = {piv: {c: element(v, row[piv])
                                  for c, v in row.items()}
                            for piv, row in self.rows.items()}
        return self._pivots

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, row: dict) -> bool:
        vec, _ = self._integral(row)
        self._eliminate(vec)
        return not self._normalise(vec)


def _rref_of(rows, field) -> SparseRREF:
    rr = SparseRREF(field)
    for row in rows:
        rr.insert(row)
    return rr


def solve_sparse_system(rows, nvars, field):
    """Solve a sparse affine system given as rows meaning sum a_j x_j + c = 0.

    The unknowns are columns 0 .. nvars - 1 and the constant term c is
    stored under column nvars.  Returns the particular solution with the
    free variables zero, as a dict, or None if the system is inconsistent.
    """
    rr = _rref_of(rows, field)
    if nvars in rr.rows:
        return None
    return {piv: rr.element(-row[nvars], row[piv])
            for piv, row in rr.rows.items() if nvars in row}


def kernel_sparse(rows, nvars, field):
    """The canonical basis of the solutions of sum a_j x_j = 0, one vector
    per free column in increasing order, read off the RREF of the rows."""
    rr = _rref_of(rows, field)
    basis = {f: {f: field.one} for f in range(nvars) if f not in rr.rows}
    for piv, row in rr.rows.items():
        for c, v in row.items():
            vec = basis.get(c)
            if vec is not None:
                vec[piv] = rr.element(-v, row[piv])
    return list(basis.values())


def sparse_vector(vec, field) -> dict:
    """The nonzero entries of a list, keyed by position, in canonical form."""
    return {j: e for j, v in enumerate(vec) if (e := field(v))}


def dense_vector(vec: dict, n, field):
    """The length-n list with the entries of a sparse vector."""
    out = [field.zero] * n
    for j, v in vec.items():
        out[j] = v
    return out


def rank_dense(mat, field) -> int:
    return _rref_of((sparse_vector(row, field) for row in mat), field).rank
