"""Exact linear algebra over a coefficient field, on one sparse RREF.

The graded solvers in this package reduce every question (membership,
homomorphism spaces, matrix-equation solving) to finite k-linear systems.
Solutions must be canonical: reduced row echelon form is unique for a
given row space, so every routine here funnels through RREF and reads
particular solutions and kernel bases off it with free variables set to
zero.  That makes all downstream output independent of row order.
The dense helpers at the end only convert lists to sparse rows and back.
"""

from __future__ import annotations


class SparseRREF:
    """Incrementally maintained reduced row echelon form with dict rows.

    Rows are dicts mapping column index to a nonzero field element.  The
    invariant after every insert: each stored pivot row has coefficient 1
    in its pivot column and zero in every other pivot column.
    """

    def __init__(self, field):
        self.field = field
        self.pivots: dict[int, dict[int, object]] = {}

    def reduce(self, row: dict) -> dict:
        """Fully reduce a row against the stored pivot rows."""
        K = self.field
        out = dict(row)
        # Pivot rows contain no other pivot columns, so eliminating the
        # pivot columns present in the snapshot is a complete reduction.
        for col in sorted(c for c in row if c in self.pivots):
            coeff = out.get(col)
            if coeff is None or K.is_zero(coeff):
                out.pop(col, None)
                continue
            for c2, v2 in self.pivots[col].items():
                cur = out.get(c2, K.zero)
                new = K.sub(cur, K.mul(coeff, v2))
                if K.is_zero(new):
                    out.pop(c2, None)
                else:
                    out[c2] = new
        return {c: v for c, v in out.items() if not K.is_zero(v)}

    def insert(self, row: dict):
        """Insert a row; return its pivot column, or None if dependent."""
        K = self.field
        red = self.reduce(row)
        if not red:
            return None
        piv = min(red)
        inv = K.inv(red[piv])
        red = {c: K.mul(v, inv) for c, v in red.items()}
        for other in self.pivots.values():
            coeff = other.get(piv)
            if coeff is None:
                continue
            for c2, v2 in red.items():
                cur = other.get(c2, K.zero)
                new = K.sub(cur, K.mul(coeff, v2))
                if K.is_zero(new):
                    other.pop(c2, None)
                else:
                    other[c2] = new
        self.pivots[piv] = red
        return piv

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def contains(self, row: dict) -> bool:
        return not self.reduce(row)


def solve_sparse_system(rows, nvars, field, const_index=None):
    """Solve a sparse affine system given as rows meaning sum a_j x_j + c = 0.

    The constant term c is stored under column index ``const_index``
    (pass None for a homogeneous system).  Returns a pair
    ``(particular, kernel)`` where ``particular`` is a dict (free
    variables zero) or None if inconsistent, and ``kernel`` is the
    canonical RREF-derived basis of the homogeneous solution space,
    ordered by free column index.
    """
    K = field
    rr = SparseRREF(K)
    for row in rows:
        rr.insert(row)
    if const_index is not None and const_index in rr.pivots:
        return None, _kernel_from_rref(rr, nvars, K, const_index)
    particular = {}
    if const_index is not None:
        for piv, row in rr.pivots.items():
            c = row.get(const_index)
            if c is not None and not K.is_zero(c):
                particular[piv] = K.neg(c)
    return particular, _kernel_from_rref(rr, nvars, K, const_index)


def _kernel_from_rref(rr: SparseRREF, nvars, field, const_index):
    K = field
    free_cols = [c for c in range(nvars) if c not in rr.pivots and c != const_index]
    basis = []
    for f in free_cols:
        vec = {f: K.one}
        for piv, row in rr.pivots.items():
            coeff = row.get(f)
            if coeff is not None and not K.is_zero(coeff):
                vec[piv] = K.neg(coeff)
        basis.append(vec)
    return basis


def sparse_vector(vec, field) -> dict:
    """The nonzero entries of a list, keyed by position."""
    return {j: v for j, v in enumerate(vec) if not field.is_zero(v)}


def dense_vector(vec: dict, n, field):
    """The length-n list with the entries of a sparse vector."""
    out = [field.zero] * n
    for j, v in vec.items():
        out[j] = v
    return out


def kernel_dense(mat, field):
    """Canonical kernel basis of a dense matrix, as lists."""
    ncols = len(mat[0]) if mat else 0
    rows = [sparse_vector(row, field) for row in mat]
    _, kernel = solve_sparse_system(rows, ncols, field)
    return [dense_vector(vec, ncols, field) for vec in kernel]


def solve_dense(mat, rhs, field):
    """Solve mat . x = rhs; returns one solution (free vars zero) or None."""
    ncols = len(mat[0]) if mat else 0
    rows = [sparse_vector(row, field) for row in mat]
    for row, b in zip(rows, rhs):
        if not field.is_zero(b):
            row[ncols] = field.neg(b)
    sol, _ = solve_sparse_system(rows, ncols, field, const_index=ncols)
    return None if sol is None else dense_vector(sol, ncols, field)


def rank_dense(mat, field) -> int:
    rr = SparseRREF(field)
    for row in mat:
        rr.insert(sparse_vector(row, field))
    return rr.rank
