"""Graded matrices, factorizations, hom spaces, decomposition."""

import functools
import itertools
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
from arcurves import (QQ, HypersurfaceRing, WPoly, arengine, end_generators,
                      explore_component, modmat, upoly)
from arcurves.cli import _endo_corpus
from arcurves.errors import CertificationError, InconclusiveSplitError
from arcurves.linalg import (SparseRREF, dense_vector, kernel_sparse,
                             rank_dense, solve_sparse_system, sparse_vector)
from arcurves.modmat import (GradedHom, GradedModule, HomSpace, TopAlgebra,
                             _coefficient_matrix, _scatter, _span_rref,
                             _stably_zero_span, hom_from_coefficients)


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


@pytest.mark.parametrize("field", ["Q", "F101"])
def test_hom_arithmetic_on_coordinates_matches_from_matrix(field):
    # Sums, scalar multiples, coefficient vectors, composites and
    # x-multiples of homs are combined on coordinates, with no membership
    # test; from_matrix of the same matrix arithmetic is the oracle.
    K = field_from_string(field)
    checked = 0
    for seed in range(12):
        ring = random_ring(random.Random(seed), K)
        I = mf_from_ideal(ring).cok(label="I")
        middle = push(I, gamma_for(ring), summands=[I]).middle
        D = ring.deg_g
        for M in (I, I.syz(), middle):
            ends = hom_graded(M, M, 0).basis
            for d in range(-(D // 2), D // 2 + 1):
                space = hom_graded(M, M, d)
                basis = space.basis
                coeffs = [K(k + 2) for k in range(len(basis))]
                pairs = [(hom_from_coefficients(space, coeffs),
                          sum((e.H.scale(c) for c, e in zip(coeffs, basis)),
                              space.zero().H))]
                for c, a, b in zip(coeffs, basis, basis[1:] + basis[:1]):
                    pairs += [(a + b.scale(c), a.H + b.H.scale(c)),
                              (a - b, a.H - b.H)]
                    pairs += [(a.compose(e), a.H.mul(e.H)) for e in ends[:2]]
                    xH = GradedMatrix(
                        ring, a.H.rows, [w + ring.q for w in a.H.cols],
                        [[e.shift_monomial(1, 0) for e in row]
                         for row in a.H.entries])
                    pairs.append((a.times_monomial(1, 0), xH))
                for got, H in pairs:
                    want = hom_graded(M, M, got.degree).from_matrix(H.nf())
                    assert got == want and got.H == want.H
                    checked += 1
    assert checked > 1000


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
    # Split I + push(I).middle and check every summand: a reduced
    # factorization backs it, and its relations are minimal.
    ring = random_ring(random.Random(seed), field_from_string(field))
    I = mf_from_ideal(ring).cok(label="I")
    middle = push(I, gamma_for(ring)).middle
    parts, frees = decompose(_direct_sum(I.mf, middle.mf).cok("sum"))
    assert frees == [] and len(parts) >= 2
    for part in parts:
        assert part.mf.is_reduced()
        assert not any(_relation_in_span_of_the_others(part.matrix, j)
                       for j in range(len(part.rels)))


# ----------------------------------------------------------------------
# the split read off the factorization against the submodule
# presentation it replaced


def _reference_submodule_presentation(M: GradedModule, elements, label=None):
    """Present the submodule of M generated by the given elements.

    elements: list of (degree, tuple of normal-form polys over the
    generators of M).  Generators are kept greedily by degree, so no
    relation has a unit entry.  Relations are collected degreewise up to
    the bound max(gens) + deg(g) - 1, which covers every minimal relation
    of a maximal Cohen-Macaulay module, and a kernel vector is kept only
    when it leaves the R-span of the relations kept so far; the kept set
    is therefore minimal.  A maximal Cohen-Macaulay submodule has as many
    minimal relations as generators, and the square presentation is
    completed to a matrix factorization.  Nothing here checks that the
    result is the span and not a cover of it: the only caller,
    split_by_idempotent, certifies that, and so must any new caller.
    """
    ring = M.ring
    K = ring.field
    D = ring.deg_g

    elems = sorted(elements, key=lambda ev: ev[0])
    gens = []
    for deg, polys in elems:
        if all(poly.is_zero() for poly in polys):
            continue
        if not _reference_element_in_span(M, gens, (deg, polys)):
            gens.append((deg, polys))
    if not gens:
        raise InputError("submodule has no nonzero generators")

    gdegs = tuple(deg for deg, _ in gens)
    bound = max(gdegs) + D - 1
    rels = []
    for d in range(min(gdegs), bound + 1):
        var_slots = []
        for t, (wdeg, _) in enumerate(gens):
            for mono in ring.graded_piece(d - wdeg):
                var_slots.append((t, mono))
        if not var_slots:
            continue
        rows: dict[int, dict] = {}
        for vk, (t, mono) in enumerate(var_slots):
            polys = [pp if pp.is_zero()
                     else ring.normal_form(pp.shift_monomial(*mono))
                     for pp in gens[t][1]]
            for cc, val in M.element_coords(polys, d).items():
                rows.setdefault(cc, {})[vk] = val
        kernel = kernel_sparse(list(rows.values()), len(var_slots), K)
        pos = {slot: vk for vk, slot in enumerate(var_slots)}
        span = _span_rref(ring, d, rels, _scatter(pos))
        for vec in kernel:
            if span.insert(vec) is None:
                continue
            col = [ring.zero_poly()] * len(gens)
            for vk, val in vec.items():
                t, mono = var_slots[vk]
                col[t] = col[t] + ring.monomial(*mono, coeff=val)
            rels.append((d, col))

    ents = [[col[i] for _, col in rels] for i in range(len(gens))]
    if any(all(e.is_zero() for e in row) for row in ents):
        raise CertificationError(
            "submodule presentation found a generator without relations")
    if len(rels) != len(gens):
        raise CertificationError(
            "minimized presentation is not square, so the module cannot "
            "be maximal Cohen-Macaulay")
    A = GradedMatrix(ring, gdegs, tuple(d for d, _ in rels), ents)
    return mf_complete(A).cok(label=label)


def _reference_element_span(M: GradedModule, gens, d: int) -> SparseRREF:
    """Degree-d piece of the submodule of M generated by gens."""
    return _span_rref(M.ring, d, gens, lambda polys: M.element_coords(polys, d))


def _reference_element_in_span(M: GradedModule, gens, element) -> bool:
    deg, polys = element
    target = M.element_coords(polys, deg)
    return not target or _reference_element_span(M, gens, deg).contains(target)


def _reference_hom_columns(h: GradedHom):
    """Images of the source generators, as submodule generator data."""
    M = h.source
    out = []
    for j, w in enumerate(M.gens):
        polys = tuple(h.H.entries[i][j] for i in range(len(h.target.gens)))
        out.append((w + h.degree, polys))
    return out


def _identity_hom(M: GradedModule) -> GradedHom:
    return hom_graded(M, M, 0).from_matrix(
        GradedMatrix.identity(M.ring, M.gens))


def _reference_split_by_idempotent(M: GradedModule, e: GradedHom):
    """Split M as im(e) + im(1 - e) for an idempotent endomorphism e.

    Let S_1, S_2 be the submodules generated by the columns of e and of
    1 - e, and P_1, P_2 their presentations (submodule_presentation).
    In each degree d, dim P_i,d >= dim S_i,d, as the relations of P_i
    are exact kernel vectors and its generators span S_i; and dim S_1,d
    + dim S_2,d >= dim M_d, as m = e m + (1 - e) m.  So the check
    dim P_1,d + dim P_2,d = dim M_d makes both equalities, and the sum
    direct, on its window from min(M.gens) to max(part gens) + 2 deg(g).
    The window holds each part's degrees from its lowest generator to
    its highest + 2 deg(g) - 1, so it certifies each presentation too.
    """
    comp = _identity_hom(M) - e
    part1 = _reference_submodule_presentation(M, _reference_hom_columns(e))
    part2 = _reference_submodule_presentation(M, _reference_hom_columns(comp))
    lo = min(M.gens)
    hi = max(max(part1.gens), max(part2.gens)) + 2 * M.ring.deg_g
    for d in range(lo, hi + 1):
        p1, p2, m = part1.piece_dim(d), part2.piece_dim(d), M.piece_dim(d)
        if p1 + p2 != m:
            raise CertificationError(
                f"split is not direct in degree {d} (window {lo}..{hi}): "
                f"dim P1 + dim P2 = {p1} + {p2}, dim M = {m}")
    return part1, part2


def _reference_span_dims(M, elements):
    """The kept generators of the submodule of M spanned by elements, and
    its Hilbert function from min(gens) to max(gens) + 2 deg(g) - 1, as
    submodule_presentation's removed per-part check computed them:
    verbatim, less the relations it also collected."""
    ring = M.ring
    K = ring.field
    D = ring.deg_g

    elems = sorted(elements, key=lambda ev: ev[0])
    gens = []
    for deg, polys in elems:
        if all(poly.is_zero() for poly in polys):
            continue
        if not _reference_element_in_span(M, gens, (deg, polys)):
            gens.append((deg, polys))

    gdegs = tuple(deg for deg, _ in gens)
    bound = max(gdegs) + D - 1
    window = range(min(gdegs), bound + D + 1)
    span_dims = []
    for d in window:
        var_slots = []
        for t, (wdeg, _) in enumerate(gens):
            for mono in ring.graded_piece(d - wdeg):
                var_slots.append((t, mono))
        if not var_slots:
            span_dims.append(0)
            continue
        rows: dict[int, dict] = {}
        for vk, (t, mono) in enumerate(var_slots):
            polys = [pp if pp.is_zero()
                     else ring.normal_form(pp.shift_monomial(*mono))
                     for pp in gens[t][1]]
            for cc, val in M.element_coords(polys, d).items():
                rows.setdefault(cc, {})[vk] = val
        # The span in degree d is the image of the map whose rows these are.
        if d > bound:
            image = SparseRREF(K)
            for row in rows.values():
                image.insert(row)
            span_dims.append(image.rank)
            continue
        kernel = kernel_sparse(list(rows.values()), len(var_slots), K)
        span_dims.append(len(var_slots) - len(kernel))
    return gens, dict(zip(window, span_dims))


def _recorded_splits(M):
    """decompose(M), with the (module, idempotent, parts) of every split."""
    calls = []
    split = modmat.split_by_idempotent

    def record(N, E):
        calls.append((N, E, split(N, E)))
        return calls[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modmat, "split_by_idempotent", record)
        decompose(M)
    return calls


@settings(derandomize=True, deadline=None, max_examples=8)
@given(seed=st.integers(0, 10**6), field=st.sampled_from(["Q", "F101"]))
def test_split_parts_are_their_spans(seed, field):
    # Each part of a split along E has the generators and the Hilbert
    # function of the submodule spanned by the columns of E (or of
    # Id - E), as the removed submodule presentation computed them, from
    # its lowest generator to its highest + 2 deg(g) - 1.
    ring = random_ring(random.Random(seed), field_from_string(field))
    I = mf_from_ideal(ring).cok(label="I")
    middle = push(I, gamma_for(ring)).middle
    calls = _recorded_splits(_direct_sum(I.mf, middle.mf).cok("sum"))
    assert calls
    for M, E, parts in calls:
        e = hom_graded(M, M, 0).from_matrix(E)
        for h, part in zip((e, _identity_hom(M) - e), parts):
            gens, span_dims = _reference_span_dims(
                M, _reference_hom_columns(h))
            assert tuple(part.gens) == tuple(deg for deg, _ in gens)
            assert min(span_dims) == min(part.gens)
            assert max(span_dims) == max(part.gens) + 2 * ring.deg_g - 1
            for d, span_dim in span_dims.items():
                assert part.piece_dim(d) == span_dim
                assert _reference_element_span(M, gens, d).rank == span_dim


def test_split_eliminates_nothing(monkeypatch, two_branch_ring):
    # The split changes basis over S: no coordinates in M, no kernel and
    # no graded system.
    I = mf_from_ideal(two_branch_ring).cok(label="I")
    middle = push(I, gamma_for(two_branch_ring)).middle
    recorded = _recorded_splits(_direct_sum(I.mf, middle.mf).cok("sum"))
    assert recorded
    calls = []
    # Every coordinate reader in M goes through the single-entry
    # accumulator _accumulate and the monomial table behind it; count both
    # and the public reader element_coords.
    for name in ("element_coords", "_accumulate", "_monomial_coords"):
        method = getattr(GradedModule, name)
        monkeypatch.setattr(GradedModule, name,
                            lambda *a, _n=name, _m=method: calls.append(_n)
                            or _m(*a))
    kernel, solve = modmat.kernel_sparse, modmat.solve_graded_system
    monkeypatch.setattr(modmat, "kernel_sparse",
                        lambda *a: calls.append("kernel_sparse") or kernel(*a))
    monkeypatch.setattr(modmat, "solve_graded_system",
                        lambda *a, **k: calls.append("solve_graded_system")
                        or solve(*a, **k))
    for M, E, parts in recorded:
        again = modmat.split_by_idempotent(M, E)
        assert [p.mf.phi for p in again] == [p.mf.phi for p in parts]
    assert calls == []


def test_split_rejects_a_corrupted_inverse(monkeypatch, two_branch_ideal):
    # The inverse of a change of basis is returned only on X P = Id over
    # S; twice the inverse of the scalar part never gets there.
    I = two_branch_ideal
    M = _direct_sum(I.mf, I.shift(3).mf).cok("sum")
    scalar_inverse = modmat._scalar_inverse
    monkeypatch.setattr(modmat, "_scalar_inverse",
                        lambda P: scalar_inverse(P).scale(2))
    with pytest.raises(CertificationError, match="not invertible over S"):
        decompose(M)


def test_split_rejects_an_off_diagonal_block(two_branch_ring):
    # A basis map of End_0(I + push(I).middle) whose scalar part is not
    # idempotent gives a change of basis that phi does not respect.
    K = two_branch_ring.field
    I = mf_from_ideal(two_branch_ring).cok(label="I")
    middle = push(I, gamma_for(two_branch_ring)).middle
    M = modmat._minimal_core(_direct_sum(I.mf, middle.mf).cok("sum"))[0]
    rejected = 0
    for b in hom_graded(M, M, 0).basis:
        bar = modmat._scalar_part(b.H)
        if _matrix_product(bar, bar, K) != bar:
            with pytest.raises(CertificationError, match="off-diagonal"):
                modmat.split_by_idempotent(M, b.H)
            rejected += 1
    assert rejected


def test_split_rejects_a_matrix_that_is_no_endomorphism(two_branch_ideal):
    # Sending only the first generator of I to y times that of I(3) is an
    # idempotent matrix but no map of modules: psi E phi leaves a
    # remainder modulo g.
    I = two_branch_ideal
    M = _direct_sum(I.mf, I.shift(3).mf).cok("sum")
    assert M.gens == (4, 6, 1, 3)
    ring = M.ring
    ents = [[ring.one() if i == j < 2 else ring.zero_poly()
             for j in range(4)] for i in range(4)]
    ents[2][0] = ring.monomial(0, 1)
    E = GradedMatrix(ring, M.gens, M.gens, ents)
    assert E.mul(E) == E
    with pytest.raises(CertificationError, match="not an endomorphism"):
        modmat.split_by_idempotent(M, E)


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
# coordinates read through the monomial table against the normal-form
# routes they replaced


def _reference_element_coords(M, polys, d):
    """element_coords before the monomial table, verbatim but for its
    name; it takes normal-form polys."""
    for i, poly in enumerate(polys):
        if not poly.is_zero() and poly.degree != d - M.gens[i]:
            raise InputError("element component has wrong degree")
    return M._image_rref(d).reduce(_scatter(M._ambient(d)[1])(polys))


def _reference_coords_of(space, H):
    """HomSpace.coords_of before the monomial table, verbatim but for its
    name and _reference_element_coords."""
    H = H.nf()
    out = {}
    for j, ws in enumerate(space.source.gens):
        column = [row[j] for row in H.entries]
        for t, c in _reference_element_coords(
                space.target, column, ws + space.degree).items():
            out[space._flat[j][t]] = c
    return modmat._freeze(out)


def _reference_times_monomial(h, i, j):
    """The coordinates of times_monomial by the shifted matrix, verbatim
    but for its name and _reference_coords_of."""
    ring = h.source.ring
    d = ring.wdeg(i, j)
    ents = [[e.shift_monomial(i, j) for e in row] for row in h.H.entries]
    H = GradedMatrix(ring, h.H.rows, [c + d for c in h.H.cols], ents)
    space = hom_graded(h.source, h.target, h.degree + d)
    return _reference_coords_of(space, H)


def _reference_precomposition(A, N, d):
    """_precomposition by normal forms, verbatim but for its name and
    _reference_element_coords."""
    ring = A.ring
    variables = [(i, t) for i, w in enumerate(A.rows)
                 for t in N.nonpivot_basis(w + d)]
    rows: dict = {}
    for v, (i, t) in enumerate(variables):
        gen, mono = N.ambient_basis(A.rows[i] + d)[t]
        for j, e in enumerate(A.entries[i]):
            if e.is_zero():
                continue
            polys = [ring.zero_poly()] * len(N.gens)
            polys[gen] = ring.normal_form(e.shift_monomial(*mono))
            for tt, c in _reference_element_coords(
                    N, polys, A.cols[j] + d).items():
                rows.setdefault((j, tt), {})[v] = c
    return variables, list(rows.values())


def _random_element(ring, gens, d, rng):
    """Random polys of degree d - w over S, y-exponents unbounded."""
    K = ring.field
    return [WPoly(ring.field, ring.q, ring.p,
                  {mono: K(rng.randrange(-3, 4))
                   for mono in ring.s_piece(d - w) if rng.random() < 0.6})
            for w in gens]


def _walk_start(ring):
    I = mf_from_ideal(ring).cok(label="I")
    seq = push(I, gamma_for(ring))
    return [I, I.syz(), seq.middle, seq.right]


@settings(derandomize=True, deadline=None, max_examples=8)
@given(seed=st.integers(0, 10**6), field=st.sampled_from(["Q", "F101"]))
def test_element_coords_match_the_reduced_normal_form(seed, field):
    # the table sums the coordinates of the terms, in normal form or not;
    # the old route reduced the normal form against the image
    ring = random_ring(random.Random(seed), field_from_string(field))
    rng = random.Random(seed)
    above = 0
    for M in _walk_start(ring):
        for d in range(min(M.gens), max(M.gens) + 2 * ring.deg_g):
            for _ in range(3):
                polys = _random_element(ring, M.gens, d, rng)
                above += any(j >= ring.ybound for p in polys
                             for _, j in p.terms)
                expected = _reference_element_coords(
                    M, [ring.normal_form(p) for p in polys], d)
                assert M.element_coords(polys, d) == expected
        wrong = _random_element(ring, M.gens, max(M.gens) + ring.deg_g, rng)
        if any(not p.is_zero() for p in wrong):
            with pytest.raises(InputError, match="wrong degree"):
                M.element_coords(wrong, max(M.gens) + ring.deg_g + 1)
    assert above


def _trace_sweep_corpus(field, f):
    # the rings and modules of the timed verify trace-oracle jobs
    ring = HypersurfaceRing(field_from_string(field), 3, 4, 1, f, m=1, n=2)
    return _endo_corpus(ring)[0]


@pytest.mark.parametrize("field", ["Q", "F101"])
@pytest.mark.parametrize("f", ["1*x^0*y^0", "1*x^0*y^1"])
def test_times_monomial_matches_the_shifted_matrix(field, f):
    checked = 0
    for M in _trace_sweep_corpus(field, f):
        for g in end_generators(M).gens:
            for mono in ((1, 0), (0, 1), (2, 1)):
                assert (g.times_monomial(*mono).coords
                        == _reference_times_monomial(g, *mono))
                checked += 1
    assert checked > 20


def _differential_homs(ring):
    """The basis homs of I, syz I and push(I).middle, |degree| <= deg g."""
    I = mf_from_ideal(ring).cok(label="I")
    for M in (I, I.syz(), push(I, gamma_for(ring)).middle):
        for d in range(-ring.deg_g, ring.deg_g + 1):
            yield from hom_graded(M, M, d).basis


def _assert_homs_read_on_coordinates(ring):
    # C_b(h) off the coordinates against the evaluated matrix, entry and
    # canonical type; x and y multiples against the shifted matrix
    branches = factor_hypersurface(ring)
    nonzero = 0
    for h in _differential_homs(ring):
        for b in branches:
            got, want = h._coefficients(b), _coefficient_matrix(b, h.H)
            assert got == want
            assert ([[type(v) for v in row] for row in got]
                    == [[type(v) for v in row] for row in want])
            nonzero += any(v for row in got for v in row)
        for mono in ((1, 0), (0, 1)):
            assert (h.times_monomial(*mono).coords
                    == _reference_times_monomial(h, *mono))
    assert nonzero


@pytest.mark.parametrize("field", ["Q", "F101"])
@pytest.mark.parametrize("f", ["1*x^0*y^0", "1*x^0*y^1"])
def test_coefficients_and_multiples_match_the_matrix(field, f):
    _assert_homs_read_on_coordinates(
        HypersurfaceRing(field_from_string(field), 3, 4, 1, f, m=1, n=2))


@settings(derandomize=True, deadline=None, max_examples=8)
@given(seed=st.integers(0, 10**6), field=st.sampled_from(["Q", "F101"]))
def test_coefficients_and_multiples_match_the_matrix_on_random_rings(seed,
                                                                     field):
    _assert_homs_read_on_coordinates(
        random_ring(random.Random(seed), field_from_string(field)))


def _reference_basis(space, variables, rows):
    # HomSpace's basis from the rows of its precomposition map
    K = space.source.ring.field
    flat = [space._flat[j][t] for j, t in variables]
    reduced = SparseRREF(K)
    for vec in kernel_sparse(rows, len(variables), K):
        reduced.insert({flat[v]: c for v, c in vec.items()})
    return [modmat._freeze(reduced.pivots[piv])
            for piv in sorted(reduced.pivots)]


def _frozen_rows(rows):
    return sorted(modmat._freeze(row) for row in rows)


@settings(derandomize=True, deadline=None, max_examples=6)
@given(seed=st.integers(0, 10**6), field=st.sampled_from(["Q", "F101"]))
def test_precomposition_matches_the_normal_form_route(seed, field):
    ring = random_ring(random.Random(seed), field_from_string(field))
    D = ring.deg_g
    modules = _walk_start(ring)
    nonzero = 0
    for M in modules:
        # phi itself and psi(-D), as ext1_dim reads them, are not in
        # normal form
        mf = M.mf
        for A in (M.matrix, mf.phi, mf.psi.shift(-D)):
            for N in modules:
                for d in range(-D // 2, D // 2 + 1):
                    variables, rows = modmat._precomposition(A, N, d)
                    ref_vars, ref_rows = _reference_precomposition(A, N, d)
                    assert variables == ref_vars
                    assert _frozen_rows(rows) == _frozen_rows(ref_rows)
                    if A is M.matrix:
                        space = HomSpace(M, N, d)
                        assert ([b.coords for b in space.basis]
                                == _reference_basis(space, ref_vars, ref_rows))
                        nonzero += space.dim > 0
    assert nonzero


def test_times_monomial_reads_only_the_table(monkeypatch, two_branch_ring):
    # Once the target's table holds the monomials, x and y multiples of a
    # hom are sums of table rows: no normal form, no reduction, and no
    # shifted matrix.
    M = mf_from_ideal(two_branch_ring).cok(label="I")
    gens = end_generators(M).gens
    expected = [[g.times_monomial(*mono).coords for g in gens]
                for mono in ((1, 0), (0, 1))]
    calls = []

    def count(name, fn):
        return lambda *a, **k: calls.append(name) or fn(*a, **k)

    for owner, name in ((HypersurfaceRing, "normal_form"),
                        (SparseRREF, "reduce"), (WPoly, "shift_monomial"),
                        (GradedMatrix, "__init__")):
        monkeypatch.setattr(owner, name, count(name, getattr(owner, name)))
    again = [[g.times_monomial(*mono).coords for g in gens]
             for mono in ((1, 0), (0, 1))]
    assert again == expected and any(any(c) for c in again)
    assert calls == []


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
        return _reference_shift_matching(frees_m, frees_n)
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


def _reference_shift_matching(frees_m, frees_n):
    if len(frees_m) != len(frees_n):
        return None
    if not frees_m:
        return 0
    s = frees_n[0] - frees_m[0]
    if sorted(frees_m) == sorted(w - s for w in frees_n):
        return s
    return None


def _reference_find_scalar_invertible(A, B, rng):
    space = hom_graded(A, B, 0)
    if space.dim == 0:
        return None
    K = A.ring.field
    n = len(B.gens)
    for hom in space.basis:
        if rank_dense(modmat._scalar_part(hom.H), K) == n:
            return hom
    span = 7 if K.char == 0 else min(K.char, 7)
    for _ in range(40):
        coeffs = [K(rng.randrange(span)) for _ in range(space.dim)]
        hom = hom_from_coefficients(space, coeffs)
        if rank_dense(modmat._scalar_part(hom.H), K) == n:
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
               *parts, free_module(ring, (0,)), free_module(ring, (3,))]
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


# ----------------------------------------------------------------------
# decompose on the top algebra against the End_0 structure table it
# replaced


class _ReferenceEndAlgebra:
    """Structure constants of End_0(M) in the canonical hom basis."""

    __slots__ = ("module", "space", "dim", "identity", "table")

    def __init__(self, module: GradedModule):
        self.module = module
        self.space = hom_graded(module, module, 0)
        self.dim = self.space.dim
        self.identity = self.space.expand(_identity_hom(module))
        self.table = [[self.space.expand(bi.compose(bj))
                       for bj in self.space.basis]
                      for bi in self.space.basis]

    def mult(self, u, v):
        K = self.module.ring.field
        out = [K.zero] * self.dim
        for i, ci in enumerate(u):
            if K.is_zero(ci):
                continue
            for j, cj in enumerate(v):
                if K.is_zero(cj):
                    continue
                coeff = K.mul(ci, cj)
                for s, val in enumerate(self.table[i][j]):
                    out[s] = K.add(out[s], K.mul(coeff, val))
        return out

    def hom(self, coords) -> GradedHom:
        return hom_from_coefficients(self.space, coords)


def _reference_algebra_radical(alg: _ReferenceEndAlgebra):
    """Basis of the Jacobson radical via the regular trace form.

    The kernel of (a, b) -> trace(L_a L_b) is the radical over fields of
    characteristic zero or characteristic above the algebra dimension,
    the only fields it is compared on.
    """
    K = alg.module.ring.field
    n = alg.dim
    assert K.char == 0 or K.char > n
    # lmats[i][s][t] = coefficient of basis s in b_i b_t.
    lmats = [[[alg.table[i][t][s] for t in range(n)] for s in range(n)]
             for i in range(n)]
    gram = []
    for i in range(n):
        grow = []
        for j in range(n):
            acc = K.zero
            for s in range(n):
                for t in range(n):
                    acc = K.add(acc, K.mul(lmats[i][s][t], lmats[j][t][s]))
            grow.append(acc)
        gram.append(grow)
    return [dense_vector(vec, n, K) for vec in kernel_sparse(
        [sparse_vector(row, K) for row in gram], n, K)]


class _ReferenceQuotientAlgebra:
    """End_0 modulo its radical, multiplying by lift-then-reduce."""

    def __init__(self, alg: _ReferenceEndAlgebra, radical):
        self.alg = alg
        self.K = alg.module.ring.field
        self.rref = SparseRREF(self.K)
        for vec in radical:
            self.rref.insert(sparse_vector(vec, self.K))
        self.dim = alg.dim - self.rref.rank

    def reduce(self, coords):
        return dense_vector(self.rref.reduce(sparse_vector(coords, self.K)),
                            self.alg.dim, self.K)

    def mult(self, u, v):
        return self.reduce(self.alg.mult(u, v))

    def identity(self):
        return self.reduce(self.alg.identity)


def _reference_min_poly(mult, identity, start, dim, K):
    """Monic minimal polynomial (coefficients low to high) of an element."""
    powers = [identity]
    rr = SparseRREF(K)
    rr.insert(sparse_vector(identity, K))
    current = identity
    while True:
        current = mult(start, current)
        vec = sparse_vector(current, K)
        if rr.contains(vec):
            break
        rr.insert(vec)
        powers.append(current)
        if len(powers) > dim + 1:
            raise CertificationError("minimal polynomial search ran away")
    cols = len(powers)
    # column cols carries the constant: sum_s c_s powers[s] = current
    rows = [sparse_vector([powers[s][t] for s in range(cols)]
                          + [K.neg(current[t])], K) for t in range(dim)]
    sol = solve_sparse_system(rows, cols, K)
    if sol is None:
        raise CertificationError("minimal polynomial solve failed")
    return [K.neg(c) for c in dense_vector(sol, cols, K)] + [K.one]


def _reference_evaluate_in_algebra(coeffs, elem, mult, identity, K):
    # Horner evaluation: ((c_n h + c_{n-1}) h + ...) + c_0.
    acc = [K.mul(coeffs[-1], c) for c in identity]
    for s in range(len(coeffs) - 2, -1, -1):
        acc = mult(acc, elem)
        acc = [K.add(a, K.mul(coeffs[s], e)) for a, e in zip(acc, identity)]
    return acc


# Random End_0 elements tried after the structured candidates.
_REFERENCE_RANDOM_CANDIDATES = 120


def _reference_candidate_elements(alg: _ReferenceEndAlgebra, rng):
    K = alg.module.ring.field
    n = alg.dim
    for i in range(n):
        vec = [K.zero] * n
        vec[i] = K.one
        yield vec
    for i in range(n):
        for j in range(n):
            if i != j:
                yield list(alg.table[i][j])
    for i in range(n):
        for j in range(i + 1, n):
            vec = [K.zero] * n
            vec[i] = K.one
            vec[j] = K.one
            yield vec
    span = 7 if K.char == 0 else min(K.char, 7)
    for _ in range(_REFERENCE_RANDOM_CANDIDATES):
        yield [K(rng.randrange(span)) for _ in range(n)]


def _reference_indecomposable_parts(M: GradedModule, rng):
    alg = _ReferenceEndAlgebra(M)
    radical = _reference_algebra_radical(alg)
    quotient = _ReferenceQuotientAlgebra(alg, radical)
    if quotient.dim == 1:
        return [M]
    K = M.ring.field
    certified = False
    for cand in _reference_candidate_elements(alg, rng):
        mu = _reference_min_poly(alg.mult, alg.identity, cand, alg.dim, K)
        factors = upoly.factor(mu, K)
        if len(factors) >= 2:
            coeffs = upoly.idempotent(mu, factors, K)
            idem = _reference_evaluate_in_algebra(coeffs, cand, alg.mult,
                                                  alg.identity, K)
            if _reference_is_trivial_idempotent(alg, idem):
                continue
            part1, part2 = _reference_split_by_idempotent(M, alg.hom(idem))
            out = []
            for part in (part1, part2):
                sub_core, sub_frees = modmat._minimal_core(part)
                if sub_frees or sub_core is None:
                    raise CertificationError(
                        "free summand surfaced inside a split part")
                out.extend(_reference_indecomposable_parts(sub_core, rng))
            return out
        if not certified:
            mu_bar = _reference_min_poly(quotient.mult, quotient.identity(),
                                         quotient.reduce(cand), alg.dim, K)
            factors_bar = upoly.factor(mu_bar, K)
            if (len(factors_bar) == 1 and factors_bar[0][1] == 1
                    and len(factors_bar[0][0]) - 1 == quotient.dim):
                certified = True
    if certified:
        return [M]
    raise InconclusiveSplitError(
        "could not split the module or certify it indecomposable")


def _reference_is_trivial_idempotent(alg: _ReferenceEndAlgebra, idem) -> bool:
    K = alg.module.ring.field
    if all(K.is_zero(c) for c in idem):
        return True
    return all(K.eq(a, b) for a, b in zip(idem, alg.identity))


def _reference_decompose(M, rng=None):
    """decompose through the structure table of End_0, verbatim but for
    the names of the copied helpers."""
    if rng is None:
        rng = random.Random(0)
    core, frees = modmat._minimal_core(M)
    if core is None:
        return [], frees
    parts = _reference_indecomposable_parts(core, rng)
    parts.sort(key=modmat._module_sort_key)
    return parts, frees


def _rref_rows(vectors, K):
    rr = SparseRREF(K)
    for vec in vectors:
        rr.insert(sparse_vector(vec, K))
    return sorted(sorted(row.items()) for row in rr.pivots.values())


def _split_corpus(ring):
    # I, the middle terms of the first two sequences of the walk from I,
    # and two direct sums
    gd = gamma_for(ring)
    I = mf_from_ideal(ring).cok(label="I")
    seq = push(I, gd)
    middle = seq.middle
    return [I, middle, push(seq.right, gd).middle,
            _direct_sum(I.mf, middle.mf).cok("I+E"),
            _direct_sum(I.mf, I.mf.syz()).cok("I+syz I")]


def _assert_same_split(M):
    # The presentations differ in their relation basis, which is what
    # the split read off the factorization changes.
    (parts, frees), (ref_parts, ref_frees) = (decompose(M),
                                              _reference_decompose(M))
    assert frees == ref_frees
    assert len(parts) == len(ref_parts)
    for part, ref in zip(parts, ref_parts):
        assert (part.gens, part.rels) == (ref.gens, ref.rels)
        assert part.mf.is_reduced() and ref.mf.is_reduced()
        assert iso_up_to_shift(part, ref) == 0


@settings(derandomize=True, deadline=None, max_examples=8)
@given(seed=st.integers(0, 10**6), field=st.sampled_from(["Q", "F101"]))
def test_decompose_matches_the_structure_table(seed, field):
    ring = random_ring(random.Random(seed), field_from_string(field))
    K = ring.field
    for M in _split_corpus(ring):
        _assert_same_split(M)
        core = modmat._minimal_core(M)[0]
        space = hom_graded(core, core, 0)
        radical = [space.expand(h) for h in TopAlgebra(core).end_radical()]
        assert _rref_rows(radical, K) == _rref_rows(
            _reference_algebra_radical(_ReferenceEndAlgebra(core)), K)


@functools.lru_cache(maxsize=None)
def _walk_modules(seed, field="Q", depth=3):
    """The modules decompose sees on the walk of the given depth from the
    ideal of random_ring(seed) over the field."""
    ring = random_ring(random.Random(seed), field_from_string(field))
    modules = []
    split = arengine.decompose
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arengine, "decompose",
                   lambda M, rng=None: modules.append(M) or split(M, rng))
        explore_component(mf_from_ideal(ring).cok(label="I"),
                          gamma_for(ring), depth=depth)
    return tuple(modules)


def test_decompose_matches_the_structure_table_on_a_walk():
    # The last middle term of this walk (12 generators, dim End_0 = 16)
    # is split by a candidate a whose idempotent on the top, evaluated at
    # a, is not yet idempotent in End_0, so the lift has to iterate.
    modules = _walk_modules(20)
    assert max(len(M.gens) for M in modules) == 12
    for M in modules:
        _assert_same_split(M)


def test_idempotent_lift_is_exact_over_S():
    # On that 12-generator module coeffs(A) is not idempotent, and the
    # lift returns E with E E = E over S and the same scalar part.
    M = max(_walk_modules(20), key=lambda M: len(M.gens))
    M = modmat._minimal_core(M)[0]
    assert len(M.gens) == 12
    lifts = []
    lift = modmat._lift_idempotent
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modmat, "_lift_idempotent",
                   lambda A, coeffs: lifts.append((A, coeffs))
                   or lift(A, coeffs))
        decompose(M)
    A, coeffs = lifts[0]
    one = GradedMatrix.identity(M.ring, M.gens)
    E0 = one.scale(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        E0 = E0.mul(A) + one.scale(c)
    assert not E0.mul(E0) == E0
    E = lift(A, coeffs)
    assert E.mul(E) == E
    assert modmat._scalar_part(E) == modmat._scalar_part(E0)


def _matrix_product(a, b, K):
    return [[sum((K.mul(x, b[t][j]) for t, x in enumerate(row)), K.zero)
             for j in range(len(b[0]))] for row in a]


@settings(derandomize=True, deadline=None, max_examples=8)
@given(seed=st.integers(0, 10**6), field=st.sampled_from(["Q", "F101"]))
def test_scalar_part_is_an_algebra_map_with_nilpotent_kernel(seed, field):
    # s(g h) = s(g) s(h), and a map with zero scalar part raises generator
    # degrees by at least min(p, q), so enough powers of it vanish.
    ring = random_ring(random.Random(seed), field_from_string(field))
    K = ring.field
    I = mf_from_ideal(ring).cok(label="I")
    middle = modmat._minimal_core(push(I, gamma_for(ring)).middle)[0]
    # I + I(-d) has maps of positive degree between its summands
    step = min(ring.p, ring.q)
    shifted = _direct_sum(I.mf, I.shift(-step).mf).cok("I+I(-d)")
    for M in (I, I.syz(), middle, shifted):
        space = hom_graded(M, M, 0)
        bars = [modmat._scalar_part(b.H) for b in space.basis]
        for g, sg in zip(space.basis, bars):
            for h, sh in zip(space.basis, bars):
                assert modmat._scalar_part(g.compose(h).H) == _matrix_product(
                    sg, sh, K)
        rows = {}
        for k, bar in enumerate(bars):
            for i, row in enumerate(bar):
                for j, v in enumerate(row):
                    if not K.is_zero(v):
                        rows.setdefault((i, j), {})[k] = v
        kernel = [hom_from_coefficients(space, dense_vector(vec, space.dim, K))
                  for vec in kernel_sparse(list(rows.values()), space.dim, K)]
        if len(kernel) > 1:
            kernel.append(sum(kernel[1:], kernel[0]))
        assert kernel or M is not shifted
        times = (max(M.gens) - min(M.gens)) // step + 1
        for j in kernel:
            assert all(K.is_zero(v) for row in modmat._scalar_part(j.H)
                       for v in row)
            power = j
            for _ in range(times - 1):
                power = power.compose(j)
            assert power.is_zero()


def _nilpotent(a, K):
    """Whether a^(2^t) = 0 for the least 2^t at least the size of a."""
    for _ in range((len(a) - 1).bit_length()):
        a = _matrix_product(a, a, K)
    return all(K.is_zero(v) for row in a for v in row)


def _flat_matrix(a, K):
    return sparse_vector([v for row in a for v in row], K)


def _square_matrix(vec, r, K):
    return [[vec.get(i * r + j, K.zero) for j in range(r)] for i in range(r)]


@pytest.mark.parametrize("field, seed, depth", [
    ("F3", 17, 2), ("F3", 29, 2), ("F5", 10, 3), ("F5", 17, 3),
    ("F7", 17, 3)])
def test_small_characteristic_radical(field, seed, depth):
    # Each walk has top algebras A on k^r with r >= ell, where the kernel
    # of the trace form Tr(a b) can hold elements outside rad A (on the
    # F3 walks and F5 seed 10 it does).  The radical R must be a
    # two-sided ideal of nilpotent matrices with A/R semisimple: no
    # nonzero class a with a b nilpotent for every b.
    K = field_from_string(field)
    ell = K.char
    cores = [modmat._minimal_core(M)[0]
             for M in _walk_modules(seed, field, depth)]
    cores = [M for M in cores if M is not None and len(M.gens) >= ell]
    assert cores
    enumerated = 0
    for M in cores:
        r = len(M.gens)
        top = TopAlgebra(M)
        algebra = SparseRREF(K)
        for b in hom_graded(M, M, 0).basis:
            algebra.insert(_flat_matrix(modmat._scalar_part(b.H), K))
        basis = [_square_matrix(v, r, K) for v in algebra.pivots.values()]
        for vec in top.rad.pivots.values():
            x = _square_matrix(vec, r, K)
            assert algebra.contains(vec) and _nilpotent(x, K)
            for b in basis:
                for xb in (_matrix_product(x, b, K), _matrix_product(b, x, K)):
                    assert top.rad.contains(_flat_matrix(xb, K))
        span = SparseRREF(K)
        for vec in top.rad.pivots.values():
            span.insert(vec)
        complement = [b for b, vec in zip(basis, algebra.pivots.values())
                      if span.insert(vec) is not None]
        if ell ** len(complement) > 125:
            continue
        enumerated += 1
        classes = []
        for coeffs in itertools.product(range(ell), repeat=len(complement)):
            if any(coeffs):
                classes.append([[sum(c * b[i][j] for c, b in
                                     zip(coeffs, complement)) % ell
                                 for j in range(r)] for i in range(r)])
        one = [[K.one if i == j else K.zero for j in range(r)]
               for i in range(r)]
        for a in classes:
            assert any(not _nilpotent(_matrix_product(a, b, K), K)
                       for b in [one] + classes)
    assert enumerated


def _three_branch_ring():
    f = poly_from_string(QQ, 5, 3, "1*x^0*y^5-1*x^3*y^0")
    return HypersurfaceRing(QQ, p=3, q=5, b=QQ(1), f=f, m=1, n=2)


def test_decompose_builds_no_structure_table(monkeypatch):
    # Only the winning candidate is lifted to End_0: a module whose top
    # algebra is local costs no composition at all, and the depth-3
    # three-branch module with dim End_0 = 11 fewer than 11.
    ring = _three_branch_ring()
    modules = []
    split = arengine.decompose
    monkeypatch.setattr(arengine, "decompose",
                        lambda M, rng=None: modules.append(M) or split(M, rng))
    explore_component(mf_from_ideal(ring).cok(label="I"), gamma_for(ring),
                      depth=3)
    calls = []
    compose = GradedHom.compose
    monkeypatch.setattr(GradedHom, "compose",
                        lambda self, first: calls.append(1)
                        or compose(self, first))
    local = large = 0
    for M in modules:
        top = TopAlgebra(modmat._minimal_core(M)[0])
        calls.clear()
        decompose(M)
        if top.quotient_dim == 1:
            assert calls == []
            local += 1
        if top.space.dim == 11:
            assert top.dim == 2 and len(calls) < 11
            large += 1
    assert local and large

