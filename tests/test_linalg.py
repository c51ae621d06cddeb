"""The elimination engine against the defining properties of its answers.

Random small matrices over Q and over prime fields; every check reads a
property off the answer (A x = b, A k = 0, rank-nullity, an explicit
certificate of inconsistency) rather than comparing with another solver.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from arcurves import QQ, PrimeField
from arcurves.linalg import SparseRREF, kernel_dense, rank_dense, solve_dense

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
            acc = K.add(acc, K.mul(a, b))
        out.append(acc)
    return out


def _transpose(mat):
    return [list(col) for col in zip(*mat)]


def _eq(K, u, v):
    return len(u) == len(v) and all(K.eq(a, b) for a, b in zip(u, v))


@settings(deadline=None, max_examples=100)
@given(_system())
def test_solve_dense_solution_satisfies_system(system):
    K, mat, rhs = system
    x = solve_dense(mat, rhs, K)
    if x is not None:
        assert len(x) == len(mat[0])
        assert _eq(K, _apply(K, mat, x), rhs)
    else:
        # Inconsistent: some y with y A = 0 has y . b != 0.
        cert = kernel_dense(_transpose(mat), K)
        assert any(not K.is_zero(sum((K.mul(a, b) for a, b in zip(y, rhs)),
                                     K.zero))
                   for y in cert)


@settings(deadline=None, max_examples=100)
@given(_system(), st.data())
def test_solve_dense_finds_consistent_systems(system, data):
    K, mat, _ = system
    x0 = data.draw(st.lists(_element(K), min_size=len(mat[0]),
                            max_size=len(mat[0])))
    rhs = _apply(K, mat, x0)
    x = solve_dense(mat, rhs, K)
    assert x is not None
    assert _eq(K, _apply(K, mat, x), rhs)


@settings(deadline=None, max_examples=100)
@given(_system())
def test_kernel_dense_is_a_kernel_basis(system):
    K, mat, _ = system
    ncols = len(mat[0])
    kernel = kernel_dense(mat, K)
    for k in kernel:
        assert _eq(K, _apply(K, mat, k), [K.zero] * len(mat))
    assert rank_dense(mat, K) + len(kernel) == ncols
    assert rank_dense(kernel, K) == len(kernel)


@settings(deadline=None, max_examples=100)
@given(_system())
def test_rank_dense_row_rank_equals_column_rank(system):
    K, mat, _ = system
    assert rank_dense(mat, K) == rank_dense(_transpose(mat), K)


@settings(deadline=None, max_examples=100)
@given(_system(), st.randoms(use_true_random=False))
def test_sparse_rref_pivots_ignore_insertion_order(system, rnd):
    K, mat, _ = system
    rows = [{j: v for j, v in enumerate(row) if not K.is_zero(v)}
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
        assert K.eq(prow[piv], K.one)
        assert all(c not in prow for c in a.pivots if c != piv)
    assert all(a.contains(row) for row in rows)
