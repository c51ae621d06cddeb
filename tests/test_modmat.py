"""Graded matrices, factorizations, hom spaces, decomposition."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from arcurves import (GradedMatrix, InputError, MatrixFactorization,
                      block_matrix, decompose, ext1_dim, field_from_string,
                      free_module, gamma_for, hom_graded, iso_up_to_shift,
                      mf_check, mf_complete, mf_from_ideal, multiplicity,
                      poly_from_string, push, random_ring, rank_vector,
                      solve_graded_system,
                      stably_zero_bruteforce, factor_hypersurface)
from arcurves import modmat
from arcurves.linalg import SparseRREF, rank_dense
from arcurves.modmat import (GradedModule, HomSpace, _stably_zero_span,
                             hom_from_coefficients)


def test_entry_degree_validation(cusp_ring):
    r = cusp_ring
    GradedMatrix(r, (0,), (4,), [[r.x_poly()]])
    with pytest.raises(InputError):
        GradedMatrix(r, (0,), (3,), [[r.x_poly()]])


def test_mul_frame_check(cusp_ring):
    r = cusp_ring
    A = GradedMatrix(r, (0,), (4,), [[r.x_poly()]])
    B = GradedMatrix(r, (4,), (7,), [[r.y_poly()]])
    assert A.mul(B).entries[0][0] == r.monomial(1, 1)
    # a uniform frame offset is tolerated; a ragged one is not
    P = GradedMatrix.zero(r, (0, 0), (4, 5))
    Q = GradedMatrix.zero(r, (4, 6), (8, 10))
    with pytest.raises(InputError):
        P.mul(Q)


def test_ideal_factorization_entries(two_branch_ring, cusp_ring):
    mf1 = mf_from_ideal(two_branch_ring)
    assert mf1.phi.entry_strings() == [["1*x^2*y^1", "-1*x^0*y^2"],
                                       ["1*x^0*y^3", "1*x^1*y^0"]]
    assert mf1.psi.entry_strings() == [["1*x^1*y^0", "1*x^0*y^2"],
                                       ["-1*x^0*y^3", "1*x^2*y^1"]]
    mf2 = mf_from_ideal(cusp_ring)
    assert mf2.phi.entry_strings() == [["1*x^2*y^0", "-1*x^0*y^2"],
                                       ["1*x^0*y^2", "1*x^1*y^0"]]


def test_mf_check_rejects_mismatch(cusp_ring):
    mf = mf_from_ideal(cusp_ring)
    assert mf_check(mf.phi, mf.psi)
    assert not mf_check(mf.phi, mf.psi.shift(1))
    assert not mf_check(mf.phi, mf.phi)


def test_mf_complete_recovers_partner(cusp_ring):
    mf = mf_from_ideal(cusp_ring)
    redone = mf_complete(mf.phi)
    assert redone.psi == mf.psi


def test_solve_exact_and_mod_g(two_branch_ring):
    r = two_branch_ring
    xmat = GradedMatrix(r, (0,), (4,), [[r.x_poly()]])
    xy2 = GradedMatrix(r, (0,), (10,), [[r.monomial(1, 2)]])
    sol = solve_graded_system(
        r, {"X": ((4,), (10,))}, [([("L", xmat, "X")], -xy2)], mode="exact")
    assert sol["X"].entries[0][0] == r.monomial(0, 2)

    # X x = y^5 has no exact solution but one modulo g = x^3 y + y^5
    y5 = GradedMatrix(r, (0,), (15,), [[r.monomial(0, 5)]])
    none = solve_graded_system(
        r, {"X": ((0,), (11,))}, [([("R", xmat, "X")], -y5)], mode="exact")
    assert none is None
    sol = solve_graded_system(
        r, {"X": ((0,), (11,))}, [([("R", xmat, "X")], -y5)], mode="mod_g")
    assert sol["X"].entries[0][0] == r.monomial(2, 1, r.field(-1))


def test_free_module_piece_dims(cusp_ring):
    F = free_module(cusp_ring, (0,))
    for d in range(0, 20):
        assert F.piece_dim(d) == len(cusp_ring.graded_piece(d))


def test_double_syzygy_is_shift(cusp_ideal):
    M = cusp_ideal
    twice = M.syz().syz()
    s = iso_up_to_shift(twice, M)
    assert s is not None
    assert abs(s) == M.ring.deg_g


def test_syzygy_of_ideal_is_shifted_ideal(cusp_ideal):
    # for the cusp, psi is phi with the diagonal swapped
    s = iso_up_to_shift(cusp_ideal.syz(), cusp_ideal)
    assert s is not None


def test_hom_into_free_equals_pieces(cusp_ring, cusp_ideal):
    F = free_module(cusp_ring, (0,))
    for d in range(0, 12):
        assert hom_graded(F, cusp_ideal, d).dim == cusp_ideal.piece_dim(d)


def test_hom_algebra(cusp_ideal):
    M = cusp_ideal
    space = hom_graded(M, M, 0)
    ident = space.from_matrix(GradedMatrix.identity(M.ring, M.gens))
    assert ident.compose(ident) == ident
    xh = ident.times_monomial(1, 0)
    assert xh.degree == 4
    assert xh.compose(ident) == xh
    assert (xh - xh).is_zero()
    coords = space.coords_of(ident.H)
    assert space.from_matrix(ident.H).coords == coords


def test_stably_zero_through_frees(cusp_ideal):
    M = cusp_ideal
    ident = hom_graded(M, M, 0).from_matrix(
        GradedMatrix.identity(M.ring, M.gens))
    assert not stably_zero_bruteforce(ident)
    # x I sits inside R x subset I, so x id factors through R
    assert stably_zero_bruteforce(ident.times_monomial(1, 0))


def test_stably_zero_between_different_modules(cusp_ideal, two_branch_ideal):
    for M in (cusp_ideal, two_branch_ideal):
        N = M.syz()
        F = free_module(M.ring)
        composites = [b.compose(a)
                      for d1 in range(-12, 12)
                      for a in hom_graded(M, F, d1).basis
                      for d2 in range(0, 24)
                      for b in hom_graded(F, N, d2).basis]
        composites = [c for c in composites if not c.is_zero()]
        assert len(composites) > 100
        assert all(stably_zero_bruteforce(c) for c in composites)
        # stable Hom(M, N) is Ext^1 from the cosyzygy of M into N
        for d in range(-24, 25):
            space = hom_graded(M, N, d)
            stable = space.dim - _stably_zero_span(space).rank
            assert stable == ext1_dim(M.mf, N, d)
        ident = hom_graded(M, M, 0).from_matrix(
            GradedMatrix.identity(M.ring, M.gens))
        assert not stably_zero_bruteforce(ident)


@settings(derandomize=True, deadline=None, max_examples=12)
@given(seed=st.integers(0, 10**6), field=st.sampled_from(["Q", "F101"]))
def test_hom_basis_lifts_to_the_relations(seed, field):
    # H is a hom cok A -> cok B exactly when H A = B C mod g for some C;
    # solve for C with the general matrix-equation solver.
    ring = random_ring(random.Random(seed), field_from_string(field))
    I = mf_from_ideal(ring).cok(label="I")
    D = ring.deg_g
    checked = 0
    for M in (I, I.syz()):
        for N in (I, I.syz()):
            A, B = M.matrix, N.matrix
            for d in range(-(D // 2), D // 2 + 1):
                for h in hom_graded(M, N, d).basis:
                    sol = solve_graded_system(
                        ring, {"C": (N.rels, tuple(u + d for u in M.rels))},
                        [([("L", B, "C")], -h.H.mul(A))])
                    assert sol is not None
                    checked += 1
    assert checked > 0


# Sums over |d| <= deg g of dim Hom(M, N)_d and of the rank of the
# stably-zero span, for M, N in {I, syz I}.
_HOM_TOTALS = {
    "cusp": {("I", "I"): (12, 8), ("I", "syz"): (6, 2),
             ("syz", "I"): (18, 14), ("syz", "syz"): (12, 8)},
    "two_branch": {("I", "I"): (16, 12), ("I", "syz"): (8, 4),
                   ("syz", "I"): (25, 21), ("syz", "syz"): (16, 12)},
}


@pytest.mark.parametrize("name", sorted(_HOM_TOTALS))
def test_hom_and_stably_zero_totals(name, request):
    ring = request.getfixturevalue(name + "_ring")
    I = mf_from_ideal(ring).cok(label="I")
    modules = {"I": I, "syz": I.syz()}
    D = ring.deg_g
    for (m, n), expected in _HOM_TOTALS[name].items():
        spaces = [hom_graded(modules[m], modules[n], d)
                  for d in range(-D, D + 1)]
        assert (sum(s.dim for s in spaces),
                sum(_stably_zero_span(s).rank for s in spaces)) == expected


def test_hom_spaces_solve_no_matrix_equation(monkeypatch, two_branch_ring):
    I = mf_from_ideal(two_branch_ring).cok(label="I")
    modules = (I, I.syz())
    calls = []
    solve = modmat.solve_graded_system
    monkeypatch.setattr(modmat, "solve_graded_system",
                        lambda *a, **k: calls.append(1) or solve(*a, **k))
    for M in modules:
        for N in modules:
            for d in range(-4, 5):
                _stably_zero_span(hom_graded(M, N, d))
    assert calls == []


def _direct_sum(a: MatrixFactorization, b: MatrixFactorization):
    ring = a.ring

    def diag(x, y):
        return block_matrix(ring, [[x, None], [None, y]],
                            rows=x.rows + y.rows, cols=x.cols + y.cols)

    return MatrixFactorization(diag(a.phi, b.phi), diag(a.psi, b.psi))


def test_block_matrix_and_decompose(cusp_ideal):
    mf = cusp_ideal.mf
    pair = _direct_sum(mf, mf.syz())
    parts, frees = decompose(pair.cok("sum"))
    assert frees == []
    assert sorted(tuple(sorted(p.gens)) for p in parts) == sorted(
        [tuple(sorted(mf.phi.rows)), tuple(sorted(mf.psi.rows))])


def test_rank_and_multiplicity(two_branch_ring, two_branch_ideal):
    branches = factor_hypersurface(two_branch_ring)
    assert rank_vector(two_branch_ideal, branches) == [1, 1]
    assert multiplicity(two_branch_ideal, branches) == 4
    F = free_module(two_branch_ring, (0,))
    assert rank_vector(F, branches) == [1, 1]
    assert multiplicity(F, branches) == 4


def test_iso_up_to_shift_identity(cusp_ideal):
    assert iso_up_to_shift(cusp_ideal, cusp_ideal) == 0


def _relation_in_span_of_the_others(A: GradedMatrix, j: int) -> bool:
    ring = A.ring
    d = A.cols[j]
    pos = {}
    for i, w in enumerate(A.rows):
        for mono in ring.graded_piece(d - w):
            pos[(i, mono)] = len(pos)
    coords = modmat._scatter(pos)
    others = [(u, [row[t] for row in A.entries])
              for t, u in enumerate(A.cols) if t != j]
    span = modmat._span_rref(ring, d, others, coords)
    return span.contains(coords([row[j] for row in A.entries]))


@settings(derandomize=True, deadline=None, max_examples=8)
@given(seed=st.integers(0, 10**6), field=st.sampled_from(["Q", "F101"]))
def test_split_parts_are_minimal_factorizations(seed, field):
    # Split I + push(I).middle and check every presented summand: a
    # reduced factorization backs it, and its relations are minimal.
    ring = random_ring(random.Random(seed), field_from_string(field))
    I = mf_from_ideal(ring).cok(label="I")
    middle = push(I, gamma_for(ring)).middle
    presented = []
    present = modmat.submodule_presentation

    def record(*args, **kwargs):
        presented.append(present(*args, **kwargs))
        return presented[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modmat, "submodule_presentation", record)
        parts, frees = decompose(_direct_sum(I.mf, middle.mf).cok("sum"))
    assert frees == [] and len(parts) >= 2
    assert presented
    for sub in presented:
        assert sub.mf is not None and sub.mf.is_reduced()
        assert not any(_relation_in_span_of_the_others(sub.matrix, j)
                       for j in range(len(sub.rels)))


def test_free_modules_are_factorizations(cusp_ring):
    F = free_module(cusp_ring, (0, 3))
    assert mf_check(F.mf.phi, F.mf.psi) and not F.mf.is_reduced()
    assert decompose(F) == ([], [0, 3])
    assert iso_up_to_shift(free_module(cusp_ring, (0,)),
                           free_module(cusp_ring, (5,))) == 5


def _elimination_dim(M, d):
    return len(M.ambient_basis(d)) - M._image_rref(d).rank


@settings(derandomize=True, deadline=None, max_examples=8)
@given(seed=st.integers(0, 10**6), field=st.sampled_from(["Q", "F101"]))
def test_piece_dim_is_read_off_the_degrees(seed, field):
    # dim M_d = sum |S_(d - w)| - sum |S_(d - u)| agrees with eliminating
    # the presentation over R, and computing it eliminates nothing.
    ring = random_ring(random.Random(seed), field_from_string(field))
    D = ring.deg_g
    I = mf_from_ideal(ring).cok(label="I")
    seq = push(I, gamma_for(ring))
    parts, _ = decompose(seq.middle)
    modules = [I, I.syz(), I.shift(3), seq.middle, seq.right, *parts,
               free_module(ring, (0, 3))]
    for M in modules:
        window = range(min(M.gens) - D, max(M.gens) + 3 * D + 1)
        fresh = M.mf.cok()
        dims = [fresh.piece_dim(d) for d in window]
        assert fresh._image_cache == {}
        assert dims == [_elimination_dim(fresh, d) for d in window]


# ----------------------------------------------------------------------
# the stably-zero span against the free-cover construction it replaced


def _free_cover_span(space):
    """The stably-zero span built from Hom(M, F)_d, F the free cover of
    the target, verbatim but for its name and the cache."""
    M, N, d = space.source, space.target, space.degree
    span = SparseRREF(M.ring.field)
    for L in HomSpace(M, free_module(M.ring, N.gens), d).basis:
        span.insert(dict(space.coords_of(L.H)))
    return span


@settings(derandomize=True, deadline=None, max_examples=8)
@given(seed=st.integers(0, 10**6), field=st.sampled_from(["Q", "F101"]))
def test_stably_zero_span_matches_the_free_cover(seed, field):
    ring = random_ring(random.Random(seed), field_from_string(field))
    I = mf_from_ideal(ring).cok(label="I")
    seq = push(I, gamma_for(ring))
    modules = (I, I.syz(), seq.middle, seq.right)
    D = ring.deg_g
    nonzero = 0
    for M in modules:
        for N in modules:
            for d in range(-D, D + 1):
                space = hom_graded(M, N, d)
                span = _stably_zero_span(space)
                assert span.rows == _free_cover_span(space).rows
                nonzero += span.rank > 0
    assert nonzero > 0


def test_stably_zero_span_builds_no_hom_space(monkeypatch, two_branch_ideal):
    M, N = two_branch_ideal, two_branch_ideal.syz()
    D = M.ring.deg_g
    spaces = [HomSpace(M, N, d) for d in range(-D, D + 1)]

    def refuse(*args, **kwargs):
        raise AssertionError("the span built a module or a hom space")

    monkeypatch.setattr(modmat, "HomSpace", refuse)
    monkeypatch.setattr(modmat, "free_module", refuse)
    assert sum(_stably_zero_span(space).rank for space in spaces) > 0


# ----------------------------------------------------------------------
# identification up to shift against the shifted-copy search it replaced


def _reference_minimal_core(M):
    core, frees = modmat.mf_reduce(M.mf)
    if core is None:
        return None, frees
    return core.cok(label=M.label), frees


def _reference_iso_up_to_shift(M, N, rng=None):
    """iso_up_to_shift on fresh cores and a shifted copy of N, verbatim
    but for the names of the copied helpers."""
    if rng is None:
        rng = random.Random(0)
    core_m, frees_m = _reference_minimal_core(M)
    core_n, frees_n = _reference_minimal_core(N)
    if (core_m is None) != (core_n is None):
        return None
    if core_m is None:
        return modmat._shift_matching(frees_m, frees_n)
    if len(core_m.gens) != len(core_n.gens):
        return None
    cands = sorted({wn - wm for wn in core_n.gens for wm in core_m.gens})
    for s in cands:
        if sorted(core_m.gens) != sorted(w - s for w in core_n.gens):
            continue
        if sorted(frees_m) != sorted(w - s for w in frees_n):
            continue
        shifted = core_n.shift(s)
        if _reference_find_scalar_invertible(core_m, shifted, rng) is None:
            continue
        if _reference_find_scalar_invertible(shifted, core_m, rng) is not None:
            return s
    return None


def _reference_find_scalar_invertible(A, B, rng):
    space = hom_graded(A, B, 0)
    if space.dim == 0:
        return None
    K = A.ring.field
    n = len(B.gens)
    for hom in space.basis:
        if rank_dense(modmat._scalar_part(hom), K) == n:
            return hom
    span = 7 if K.char == 0 else min(K.char, 7)
    for _ in range(40):
        coeffs = [K(rng.randrange(span)) for _ in range(space.dim)]
        hom = hom_from_coefficients(space, coeffs)
        if rank_dense(modmat._scalar_part(hom), K) == n:
            return hom
    return None


@settings(derandomize=True, deadline=None, max_examples=16)
@given(seed=st.integers(0, 10**6), field=st.sampled_from(["Q", "F101"]))
def test_iso_up_to_shift_matches_the_shifted_copy(seed, field):
    ring = random_ring(random.Random(seed), field_from_string(field))
    I = mf_from_ideal(ring).cok(label="I")
    seq = push(I, gamma_for(ring))
    parts, _ = decompose(seq.middle)
    modules = [I, I.syz(), I.syz().syz(), I.shift(3), seq.middle, seq.right,
               *parts]
    found = 0
    for k, M in enumerate(modules):
        for N in modules:
            s = iso_up_to_shift(M, N)
            assert s == _reference_iso_up_to_shift(M, N, random.Random(k))
            found += s is not None
    assert found >= len(modules)


def _principal(ring, text):
    # cok (h) for a factor h of g, on one generator of degree 0
    h = poly_from_string(ring.field, ring.q, ring.p, text)
    return mf_complete(GradedMatrix(ring, (0,), (h.degree,), [[h]]))


def test_iso_up_to_shift_on_direct_sums(two_branch_ideal):
    # No basis map of a block-diagonal sum is invertible on the top, so
    # the answer comes from matching the parts (Krull-Schmidt).
    ring = two_branch_ideal.ring
    I, S = two_branch_ideal.mf, two_branch_ideal.mf.syz()
    for a, b in ((I, I), (I, S), (S, I)):
        M = _direct_sum(a, b).cok("sum")
        assert not modmat._top_isomorphic(M, M, 0)
        assert iso_up_to_shift(M, M) == 0
        assert iso_up_to_shift(M, _direct_sum(b, a).cok("swapped")) == 0
    # g = y (x^3 + y^4): cok(y) and cok(x^3 + y^4) share their degree
    # but not their annihilator
    A = _principal(ring, "1*x^0*y^1")
    B = _principal(ring, "1*x^3*y^0+1*x^0*y^4")
    assert iso_up_to_shift(A.cok(), B.cok()) is None
    AA, AB = _direct_sum(A, A).cok("AA"), _direct_sum(A, B).cok("AB")
    assert sorted(AA.gens) == sorted(AB.gens)
    assert iso_up_to_shift(AA, AB) is None
    assert iso_up_to_shift(AB, _direct_sum(B, A).cok("BA")) == 0


@settings(derandomize=True, deadline=None, max_examples=8)
@given(seed=st.integers(0, 10**6), field=st.sampled_from(["Q", "F101"]))
def test_identification_draws_nothing_random(seed, field):
    ring = random_ring(random.Random(seed), field_from_string(field))
    gd = gamma_for(ring)
    I = mf_from_ideal(ring).cok(label="I")
    seq = push(I, gd)
    parts, _ = decompose(seq.middle)
    modules = [I, I.syz(), I.syz().syz(), I.shift(3), seq.right, *parts]

    def refuse(*args):
        raise AssertionError("random.Random was constructed")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modmat.random, "Random", refuse)
        for M in modules:
            for N in modules:
                iso_up_to_shift(M, N)


def test_identification_keeps_the_module_and_its_caches(monkeypatch,
                                                        two_branch_ideal):
    M = two_branch_ideal.syz().syz()
    N = two_branch_ideal
    assert M.mf.is_reduced()
    core, frees = modmat.mf_reduce(M.mf)
    assert core is M.mf and frees == []
    for d in range(min(M.gens), max(M.gens) + M.ring.deg_g):
        M.nonpivot_basis(d)
    cache = M._image_cache
    before = dict(cache)
    core, frees = modmat._minimal_core(M)
    assert core is M and frees == []

    def refuse(self, s):
        raise AssertionError("a shifted copy was built")

    monkeypatch.setattr(GradedModule, "shift", refuse)
    homs_m, homs_n = dict(M._hom_cache), dict(N._hom_cache)
    assert iso_up_to_shift(M, N) is not None
    assert M._image_cache is cache
    assert all(cache[d] is rr for d, rr in before.items())
    assert M._hom_cache == homs_m and N._hom_cache == homs_n
