"""The elimination engine against the defining properties of its answers.

Random small matrices over Q and over prime fields; most checks read a
property off the answer (A k = 0, rank-nullity, pivots independent of
insertion order).  The last one compares the integer-row engine, and
the kernels and particular solutions of solve_sparse_system, with the
Fraction-based SparseRREF it replaced, kept below verbatim as a
differential oracle.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from arcurves import QQ, PrimeField
from arcurves.linalg import (SparseRREF, dense_vector, kernel_sparse,
                             rank_dense, solve_sparse_system, sparse_vector)

FIELDS = [QQ, PrimeField(3), PrimeField(7), PrimeField(101)]


def _element(K):
    if K.char == 0:
        return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    return st.integers(0, min(K.char - 1, 9)).map(K)


@st.composite
def _system(draw):
    K = draw(st.sampled_from(FIELDS))
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 5))
    # extra zeros so that singular matrices are common
    elem = st.one_of(st.just(K.zero), _element(K))
    mat = [[draw(elem) for _ in range(ncols)] for _ in range(nrows)]
    rhs = [draw(elem) for _ in range(nrows)]
    return K, mat, rhs


def _apply(K, mat, x):
    out = []
    for row in mat:
        acc = K.zero
        for a, b in zip(row, x):
            acc = K(acc + a * b)
        out.append(acc)
    return out


def _transpose(mat):
    return [list(col) for col in zip(*mat)]


def _eq(K, u, v):
    return len(u) == len(v) and all(K(a - b) == 0 for a, b in zip(u, v))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_system())
def test_kernel_sparse_is_a_kernel_basis(system):
    K, mat, _ = system
    ncols = len(mat[0])
    kernel = [dense_vector(vec, ncols, K) for vec in kernel_sparse(
        [sparse_vector(row, K) for row in mat], ncols, K)]
    for k in kernel:
        assert _eq(K, _apply(K, mat, k), [K.zero] * len(mat))
    assert rank_dense(mat, K) + len(kernel) == ncols
    assert rank_dense(kernel, K) == len(kernel)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_system())
def test_rank_dense_row_rank_equals_column_rank(system):
    K, mat, _ = system
    assert rank_dense(mat, K) == rank_dense(_transpose(mat), K)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_system(), st.randoms(use_true_random=False))
def test_sparse_rref_pivots_ignore_insertion_order(system, rnd):
    K, mat, _ = system
    rows = [{j: v for j, v in enumerate(row) if K(v)}
            for row in mat]
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    a, b = SparseRREF(K), SparseRREF(K)
    for row in rows:
        a.insert(row)
    for row in shuffled:
        b.insert(row)
    assert a.pivots == b.pivots
    assert a.rank == rank_dense(mat, K)
    for piv, prow in a.pivots.items():
        assert K(prow[piv] - K.one) == 0
        assert all(c not in prow for c in a.pivots if c != piv)
    assert all(a.contains(row) for row in rows)


# ----------------------------------------------------------------------
# the reference: the Fraction-based engine, verbatim but for its names


class _ReferenceRREF:
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
            if coeff is None or not K(coeff):
                out.pop(col, None)
                continue
            for c2, v2 in self.pivots[col].items():
                cur = out.get(c2, K.zero)
                new = K(cur - coeff * v2)
                if not new:
                    out.pop(c2, None)
                else:
                    out[c2] = new
        return {c: v for c, v in out.items() if K(v)}

    def insert(self, row: dict):
        """Insert a row; return its pivot column, or None if dependent."""
        K = self.field
        red = self.reduce(row)
        if not red:
            return None
        piv = min(red)
        inv = K.inv(red[piv])
        red = {c: K(v * inv) for c, v in red.items()}
        for other in self.pivots.values():
            coeff = other.get(piv)
            if coeff is None:
                continue
            for c2, v2 in red.items():
                cur = other.get(c2, K.zero)
                new = K(cur - coeff * v2)
                if not new:
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


def _reference_solve(rows, nvars, field, const_index=None):
    """Solve a sparse affine system given as rows meaning sum a_j x_j + c = 0.

    The constant term c is stored under column index ``const_index``
    (pass None for a homogeneous system).  Returns a pair
    ``(particular, kernel)`` where ``particular`` is a dict (free
    variables zero) or None if inconsistent, and ``kernel`` is the
    canonical RREF-derived basis of the homogeneous solution space,
    ordered by free column index.
    """
    K = field
    rr = _ReferenceRREF(K)
    for row in rows:
        rr.insert(row)
    if const_index is not None and const_index in rr.pivots:
        return None, _reference_kernel(rr, nvars, K, const_index)
    particular = {}
    if const_index is not None:
        for piv, row in rr.pivots.items():
            c = row.get(const_index)
            if c is not None and K(c):
                particular[piv] = K(-c)
    return particular, _reference_kernel(rr, nvars, K, const_index)


def _reference_kernel(rr: _ReferenceRREF, nvars, field, const_index):
    K = field
    free_cols = [c for c in range(nvars) if c not in rr.pivots and c != const_index]
    basis = []
    for f in free_cols:
        vec = {f: K.one}
        for piv, row in rr.pivots.items():
            coeff = row.get(f)
            if coeff is not None and K(coeff):
                vec[piv] = K(-coeff)
        basis.append(vec)
    return basis



# ----------------------------------------------------------------------
# the integer-row engine against the reference

BIG = 10 ** 12
WIDE_FIELDS = [QQ, PrimeField(101), PrimeField(1000000007),
               PrimeField(2305843009213693951)]


def _wide_element(K):
    if K.char == 0:
        return st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))
    return st.integers(0, K.char - 1)


def _sparse(K, vec):
    return {j: v for j, v in enumerate(vec) if K(v)}


@st.composite
def _wide_system(draw):
    """Rows over a field with large entries, a third of them or more
    combinations of earlier rows, so that dependent rows are common."""
    K = draw(st.sampled_from(WIDE_FIELDS))
    ncols = draw(st.integers(1, 7))
    elem = st.one_of(st.just(K.zero), _wide_element(K))
    rows = [[draw(elem) for _ in range(ncols)]
            for _ in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(0, 4))):
        combo = [K.zero] * ncols
        for row in rows:
            c = draw(elem)
            combo = [K(a + c * b) for a, b in zip(combo, row)]
        rows.append(combo)
    probes = [[draw(elem) for _ in range(ncols)]
              for _ in range(draw(st.integers(1, 3)))]
    return K, ncols, [_sparse(K, r) for r in rows], [_sparse(K, r) for r in probes]


def _is_canonical(K, v) -> bool:
    """An int over F_ell; over Q an int exactly when v is integral."""
    if K.char:
        return type(v) is int
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


def _canonical(K, vec: dict):
    """The entries of vec, sorted, after checking each is canonical."""
    assert all(_is_canonical(K, v) for v in vec.values()), vec
    return sorted(vec.items())


def _entries(vec: dict):
    """The entries of a reference answer, which keeps the input's types
    (a Fraction(1, 1) entry can pass through it unchanged)."""
    return sorted(vec.items())


def _canonical_pivots(K, rr):
    return sorted((piv, _canonical(K, row)) for piv, row in rr.pivots.items())


def _reference_pivots(rr):
    return sorted((piv, _entries(row)) for piv, row in rr.pivots.items())


def _canonical_particular(K, particular):
    return None if particular is None else _canonical(K, particular)


def _reference_particular(particular):
    return None if particular is None else _entries(particular)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_wide_system(), st.randoms(use_true_random=False))
def test_integer_rows_match_the_fraction_engine(system, rnd):
    K, ncols, rows, probes = system
    ref, new = _ReferenceRREF(K), SparseRREF(K)
    for row in rows:
        assert new.insert(dict(row)) == ref.insert(dict(row))
        assert new.rank == ref.rank
        assert _canonical_pivots(K, new) == _reference_pivots(ref)
    for piv, row in new.rows.items():
        assert min(row) == piv
        assert all(type(v) is int for v in row.values())
        if K.char:
            assert row[piv] == 1 and all(0 < v < K.char for v in row.values())
        else:
            assert row[piv] > 0 and gcd(*row.values()) == 1
    for row in probes + rows:
        assert _canonical(K, new.reduce(row)) == _entries(ref.reduce(row))
        assert new.contains(row) == ref.contains(row)

    shuffled = list(rows)
    rnd.shuffle(shuffled)
    again = SparseRREF(K)
    for row in shuffled:
        again.insert(row)
    assert _canonical_pivots(K, again) == _reference_pivots(ref)
    for row in probes:
        assert _canonical(K, again.reduce(row)) == _entries(ref.reduce(row))

    # The kernel of the rows as a homogeneous system, and the particular
    # solution when the last column holds the constant term.
    _, ref_kernel = _reference_solve(rows, ncols, K)
    ref_particular, _ = _reference_solve(rows, ncols - 1, K, ncols - 1)
    for order in (rows, shuffled):
        assert ([_canonical(K, vec) for vec in kernel_sparse(order, ncols, K)]
                == [_entries(vec) for vec in ref_kernel])
        assert (_canonical_particular(
                    K, solve_sparse_system(order, ncols - 1, K))
                == _reference_particular(ref_particular))
