"""Sequence construction: gamma data, pushes, transports, reports."""

import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcurves import (QQ, GradedMatrix, HypersurfaceRing, InputError,
                      MatrixFactorization, VerificationError, block_matrix,
                      decompose, double_push_report, e_avg, explore_component,
                      factor_hypersurface, field_from_string, free_module,
                      gamma_endo, gamma_for, gamma_prime, hom_graded,
                      iso_up_to_shift, mf_from_ideal, multiplicity,
                      poly_from_string, push, random_ring, singular_branch,
                      solve_W, stably_zero_bruteforce, syz_transport,
                      verify_main_theorem, verify_syz_gamma)
from arcurves import arengine, homs, matfact, modmat


def test_gamma_datum_two_branch(two_branch_datum):
    gd = two_branch_datum
    assert gd.z.to_string() == "1*x^0*y^1"
    assert gd.gamma.num.to_string() == "1*x^0*y^4"
    assert gd.gamma.den.to_string() == "1*x^1*y^0"
    assert gd.gamma.degree == 8
    assert gd.gamma.in_ring() is None


def test_gamma_datum_cusp(cusp_datum):
    gd = cusp_datum
    assert gd.z.to_string() == "1*x^0*y^0"
    assert gd.gamma.num.to_string() == "1*x^0*y^3"
    assert gd.gamma.den.to_string() == "1*x^1*y^0"
    assert gd.gamma.degree == 5


def test_gamma_escape_certificates(two_branch_ring, two_branch_datum):
    r = two_branch_ring
    gd = two_branch_datum
    # gamma itself leaves R, but x gamma and y gamma land back inside
    assert gd.gamma.in_ring() is None
    assert (gd.gamma * r.x_poly()).in_ring() is not None
    assert (gd.gamma * r.y_poly()).in_ring() is not None


def test_push_two_branch_matrices(two_branch_ideal, two_branch_datum):
    seq = push(two_branch_ideal, two_branch_datum)
    assert seq.alpha.entry_strings() == [["0", "-1*x^1*y^2"],
                                         ["1*x^0*y^2", "0"]]
    assert seq.beta.entry_strings() == [["0", "-1*x^0*y^1"],
                                        ["1*x^1*y^3", "0"]]
    assert seq.middle.gens == (4, 6, 8, 3)
    assert seq.right.gens == (8, 3)


def test_push_cusp_matrices(cusp_ideal, cusp_datum):
    seq = push(cusp_ideal, cusp_datum)
    assert seq.alpha.entry_strings() == [["0", "-1*x^1*y^1"],
                                         ["1*x^0*y^1", "0"]]
    assert seq.beta.entry_strings() == [["0", "-1*x^0*y^1"],
                                        ["1*x^1*y^1", "0"]]
    assert seq.middle.gens == (4, 6, 5, 3)


def _nonreduced_cusp():
    # b = 0: g = y^4, whose one branch prime (y) is not a field locally
    return HypersurfaceRing(QQ, p=3, q=4, b=QQ(0), f="1*x^0*y^0", m=1, n=2)


def _nonreduced_y6():
    # b = 0 over F101: g = y^5 y = y^6
    return HypersurfaceRing(field_from_string("F101"), p=3, q=5, b=0,
                            f="1*x^0*y^1", m=1, n=2)


def _check_z(ring, branches):
    # gamma_for checks none of z h = 0, gamma not in R, x gamma and
    # y gamma in R, or deg gamma = G; it proves them (z = NF(g/h))
    for br in branches:
        gd = gamma_for(ring, br)
        assert gd.z == ring.normal_form(ring.g.div_exact(br.h))
        assert ring.normal_form(gd.z * gd.branch.h).is_zero()
        assert (ring.g.degree - br.h.degree + gamma_prime(br).degree
                == ring.gamma_degree)
        assert gd.gamma.in_ring() is None
        assert (gd.gamma * ring.x_poly()).in_ring() is not None
        assert (gd.gamma * ring.y_poly()).in_ring() is not None
        assert gd.gamma.degree == ring.gamma_degree


@settings(derandomize=True, deadline=None, max_examples=12)
@given(seed=st.integers(0, 10**6), field=st.sampled_from(["Q", "F101"]))
def test_z_kills_the_branch_factor(seed, field):
    ring = random_ring(random.Random(seed), field_from_string(field))
    _check_z(ring, factor_hypersurface(ring))
    # and the y-axis branch h = y of b = 0, where g = y^4 is not squarefree
    cusp = _nonreduced_cusp()
    _check_z(cusp, [singular_branch(cusp)])


def test_homs_matrices_and_fractions_are_unhashable(cusp_ideal, cusp_datum):
    hom, gamma = gamma_endo(cusp_ideal, cusp_datum), cusp_datum.gamma
    for obj in (hom, cusp_ideal.mf.phi, gamma):
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)


@pytest.mark.parametrize("name", ["cusp", "two_branch", "nonreduced_cusp"])
def test_push_ranks_add(request, name):
    # on a reduced ring push does not compare the rank vectors: the
    # sequence is exact and each branch prime is a field locally
    if name == "nonreduced_cusp":
        ring = _nonreduced_cusp()
        I, gd = mf_from_ideal(ring).cok(label="I"), gamma_for(ring)
    else:
        I = request.getfixturevalue(name + "_ideal")
        gd = request.getfixturevalue(name + "_datum")
    seq = push(I, gd)
    for s in (seq, push(seq.middle, gd)):
        left, middle, right = (s.ranks[k] for k in ("left", "middle", "right"))
        assert len(middle) == len(left) == len(right)
        assert middle == [a + b for a, b in zip(left, right)]


def test_push_compares_ranks_on_a_nonreduced_ring(monkeypatch, cusp_ideal,
                                                  cusp_datum):
    # a branch rank is a fibre dimension, additive only when g is
    # squarefree: push compares the vectors on a non-reduced ring only
    ring = _nonreduced_cusp()
    I, gd = mf_from_ideal(ring).cok(label="I"), gamma_for(ring)
    rank_vector = arengine.rank_vector
    monkeypatch.setattr(
        arengine, "rank_vector",
        lambda M, branches: [r + 1 for r in rank_vector(M, branches)])
    with pytest.raises(VerificationError, match="middle ranks"):
        push(I, gd)
    assert push(cusp_ideal, cusp_datum).ranks["middle"] == [3]


def test_push_is_a_complex(cusp_ideal, cusp_datum):
    seq = push(cusp_ideal, cusp_datum)
    comp = seq.proj.compose(seq.inj)
    assert comp.is_zero()


def test_push_builds_no_hom_space(monkeypatch, cusp_ring, cusp_datum):
    # a fresh module, so that no cached space hides a build
    M = mf_from_ideal(cusp_ring).cok(label="I")
    built = []
    init = homs.HomSpace.__init__
    monkeypatch.setattr(homs.HomSpace, "__init__",
                        lambda self, *a: built.append(a) or init(self, *a))
    push(M, cusp_datum, summands=[M])
    assert built == []


def test_section_maps_are_certified_when_read(monkeypatch, cusp_ring,
                                              cusp_datum):
    M = mf_from_ideal(cusp_ring).cok(label="I")
    seq = push(M, cusp_datum, summands=[M])
    read = []
    from_matrix = homs.HomSpace.from_matrix
    monkeypatch.setattr(
        homs.HomSpace, "from_matrix",
        lambda self, H: read.append((self.source, self.target))
        or from_matrix(self, H))
    inj, proj = seq.inj, seq.proj
    assert read == [(seq.left, seq.middle), (seq.middle, seq.right)]
    assert seq.inj is inj and seq.proj is proj and len(read) == 2


def test_alpha_outside_end_is_a_verification_error(monkeypatch, cusp_ring,
                                                   cusp_datum):
    # alpha = [[0, -x y], [y, 0]] on the cusp ideal; doubling its lower
    # entry leaves a remainder in psi alpha phi / g
    solve = arengine.solve_graded_system

    def doubled(*args, **kwargs):
        A = solve(*args, **kwargs)["A"]
        ents = [list(row) for row in A.entries]
        ents[1][0] = ents[1][0] * 2
        return {"A": GradedMatrix(cusp_ring, A.rows, A.cols, ents)}

    monkeypatch.setattr(arengine, "solve_graded_system", doubled)
    M = mf_from_ideal(cusp_ring).cok(label="I")
    with pytest.raises(VerificationError, match="not divisible by g"):
        push(M, cusp_datum, summands=[M])


def test_sequence_does_not_split(cusp_ideal, cusp_datum):
    seq = push(cusp_ideal, cusp_datum)
    ident = hom_graded(cusp_ideal, cusp_ideal, 0).from_matrix(
        GradedMatrix.identity(cusp_ideal.ring, cusp_ideal.gens))
    assert not seq.factors_through_left(ident)


@pytest.mark.parametrize("make", [_nonreduced_cusp, _nonreduced_y6])
def test_nonreduced_sequences_are_almost_split_on_the_left(make):
    # The walk's modules are locally free on the punctured spectrum
    # (explore_component), so push of I and of syz I is almost split:
    # the identity does not factor through the middle term, and the
    # nonunits of positive degree do.
    ring = make()
    gd = gamma_for(ring)
    I = mf_from_ideal(ring).cok(label="I")
    for M in (I, I.syz()):
        seq = push(M, gd)
        ident = hom_graded(M, M, 0).from_matrix(
            GradedMatrix.identity(ring, M.gens))
        assert not seq.factors_through_left(ident)
        for d in range(1, ring.deg_g + 1):
            for h in hom_graded(M, M, d).basis:
                assert seq.factors_through_left(h)


def test_radical_endos_factor_through_middle(cusp_ideal, cusp_datum):
    seq = push(cusp_ideal, cusp_datum)
    ident = hom_graded(cusp_ideal, cusp_ideal, 0).from_matrix(
        GradedMatrix.identity(cusp_ideal.ring, cusp_ideal.gens))
    assert seq.factors_through_left(ident.times_monomial(1, 0))
    assert seq.factors_through_left(gamma_endo(cusp_ideal, cusp_datum))


def test_syz_transport_of_identity(cusp_ideal):
    M = cusp_ideal
    N = M.syz()
    ident = hom_graded(M, M, 0).from_matrix(
        GradedMatrix.identity(M.ring, M.gens))
    moved = syz_transport(ident, N)
    ident_N = hom_graded(N, N, 0).from_matrix(
        GradedMatrix.identity(N.ring, N.gens))
    assert moved == ident_N
    xs = syz_transport(ident.times_monomial(1, 0), N)
    assert xs == ident_N.times_monomial(1, 0)


def test_syz_transport_is_closed_form(monkeypatch, cusp_ideal, cusp_datum,
                                      two_branch_ideal):
    # B = psi H phi / g needs no linear solve, and phi B = H phi mod g.
    modules = [cusp_ideal, cusp_ideal.syz(), two_branch_ideal,
               push(cusp_ideal, cusp_datum).middle]
    calls = []

    def counting(solve):
        def wrapped(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)
        return wrapped

    for owner in (arengine, modmat):
        monkeypatch.setattr(owner, "solve_graded_system",
                            counting(owner.solve_graded_system))
    transported = 0
    for M in modules:
        N = M.syz()
        phi = M.mf.phi
        D = M.ring.deg_g
        for d in range(-D, D + 1):
            for h in hom_graded(M, M, d).basis:
                t = syz_transport(h, N)
                assert phi.mul(t.H).eq_mod_g(h.H.mul(phi.shift(d)))
                transported += 1
    assert transported > 50
    assert calls == []


def test_syz_transport_negates_gamma(cusp_ideal, cusp_datum):
    M = cusp_ideal
    N = M.syz()
    moved = syz_transport(gamma_endo(M, cusp_datum), N)
    gamma_N = gamma_endo(N, cusp_datum)
    assert stably_zero_bruteforce(moved + gamma_N)


def test_main_theorem_reports(two_branch_ideal, two_branch_datum,
                              cusp_ideal, cusp_datum):
    for M, gd in ((two_branch_ideal, two_branch_datum),
                  (cusp_ideal, cusp_datum)):
        rep = verify_main_theorem(M, gd)
        assert rep["pass"]
        assert rep["branch_rank"] == 1
        assert rep["socle_by_trace"] and rep["socle_by_lifting"]


def test_syz_gamma_needs_a_domain(two_branch_ideal, two_branch_datum):
    with pytest.raises(InputError):
        verify_syz_gamma(two_branch_ideal, two_branch_datum)


def test_syz_gamma_on_the_cusp(cusp_ideal, cusp_datum):
    rep = verify_syz_gamma(cusp_ideal, cusp_datum)
    assert rep["pass"]
    assert rep["ranks"] == [1, 1]
    assert rep["trace_sum_in_ring"] == "0"
    seq = push(cusp_ideal, cusp_datum)
    rep2 = verify_syz_gamma(seq.middle, cusp_datum)
    assert rep2["pass"]
    assert rep2["ranks"] == [2, 2]


# The split parts of the second middle terms, in decompose's order:
# generator and relation degrees, presentation phi, and psi, as the
# submodule presentation gave them.  The split read off the
# factorization changes only the relation basis (_TWO_BRANCH_SPLIT and
# _CUSP_SPLIT below), so these stay as the oracle up to isomorphism.
_TWO_BRANCH_PARTS = [
    ([3, 8], [12, 14],
     [['-1*x^0*y^3', '1*x^2*y^1'], ['1*x^1*y^0', '1*x^0*y^2']],
     [['-1*x^0*y^2', '1*x^2*y^1'], ['1*x^1*y^0', '1*x^0*y^3']]),
    ([3, 4, 5, 6, 7, 8], [10, 11, 12, 14, 15, 16],
     [['0', '0', '-1*x^0*y^3', '2*x^2*y^1', '0', '2*x^1*y^3'],
      ['-1*x^0*y^2', '1/2*x^1*y^1', '0', '1*x^1*y^2', '1*x^2*y^1',
       '1*x^0*y^4'],
      ['0', '1/2*x^0*y^2', '0', '-1*x^0*y^3', '0', '1*x^2*y^1'],
      ['1*x^1*y^0', '0', '-1*x^0*y^2', '0', '1*x^0*y^3', '0'],
      ['0', '-1/2*x^1*y^0', '0', '1*x^1*y^1', '0', '1*x^0*y^3'],
      ['0', '1*x^0*y^1', '1*x^1*y^0', '0', '0', '0']],
     [['0', '-1*x^0*y^3', '0', '1*x^2*y^1', '1*x^0*y^4', '1*x^1*y^3'],
      ['1*x^1*y^1', '0', '0', '0', '-2*x^2*y^1', '1*x^0*y^4'],
      ['-1*x^0*y^2', '0', '0', '0', '2*x^1*y^2', '1*x^2*y^1'],
      ['1/2*x^1*y^0', '0', '-1*x^0*y^2', '0', '0', '1/2*x^0*y^3'],
      ['-1*x^0*y^1', '1*x^1*y^0', '0', '1*x^0*y^2', '1*x^1*y^1', '0'],
      ['0', '0', '1*x^1*y^0', '0', '1*x^0*y^2', '0']]),
]
_CUSP_PARTS = [
    ([3, 5], [9, 11],
     [['-1*x^0*y^2', '1*x^2*y^0'], ['1*x^1*y^0', '1*x^0*y^2']],
     [['-1*x^0*y^2', '1*x^2*y^0'], ['1*x^1*y^0', '1*x^0*y^2']]),
    ([2, 3, 4], [10, 11, 12],
     [['1/2*x^2*y^0', '-1/2*x^0*y^3', '-1/2*x^1*y^2'],
      ['1*x^1*y^1', '1*x^2*y^0', '-1*x^0*y^3'],
      ['1*x^0*y^2', '1*x^1*y^1', '1*x^2*y^0']],
     [['2*x^1*y^0', '0', '1*x^0*y^2'],
      ['-2*x^0*y^1', '1*x^1*y^0', '0'],
      ['0', '-1*x^0*y^1', '1*x^1*y^0']]),
    ([4, 5, 6], [8, 9, 10],
     [['1*x^1*y^0', '0', '-1*x^0*y^2'],
      ['1*x^0*y^1', '-1*x^1*y^0', '0'],
      ['0', '1*x^0*y^1', '1*x^1*y^0']],
     [['1*x^2*y^0', '1*x^0*y^3', '1*x^1*y^2'],
      ['1*x^1*y^1', '-1*x^2*y^0', '1*x^0*y^3'],
      ['-1*x^0*y^2', '1*x^1*y^1', '1*x^2*y^0']]),
]


# The same parts as decompose presents them now.
_TWO_BRANCH_SPLIT = [
    _TWO_BRANCH_PARTS[0],
    ([3, 4, 5, 6, 7, 8], [10, 11, 12, 14, 15, 16],
     [['0', '0', '-1*x^0*y^3', '1*x^2*y^1', '0', '2*x^1*y^3'],
      ['-1*x^0*y^2', '-1*x^1*y^1', '0', '1*x^1*y^2', '1*x^2*y^1', '0'],
      ['0', '-1*x^0*y^2', '0', '0', '0', '1*x^2*y^1'],
      ['1*x^1*y^0', '0', '-1*x^0*y^2', '0', '1*x^0*y^3', '1*x^1*y^2'],
      ['0', '1*x^1*y^0', '0', '0', '0', '1*x^0*y^3'],
      ['0', '-2*x^0*y^1', '1*x^1*y^0', '1*x^0*y^2', '0', '0']],
     [['0', '-1*x^0*y^3', '-1*x^1*y^2', '1*x^2*y^1', '0', '1*x^1*y^3'],
      ['0', '0', '-1*x^0*y^3', '0', '1*x^2*y^1', '0'],
      ['-1*x^0*y^2', '0', '0', '0', '2*x^1*y^2', '1*x^2*y^1'],
      ['1*x^1*y^0', '0', '-2*x^0*y^2', '0', '0', '1*x^0*y^3'],
      ['-1*x^0*y^1', '1*x^1*y^0', '0', '1*x^0*y^2', '1*x^1*y^1', '0'],
      ['0', '0', '1*x^1*y^0', '0', '1*x^0*y^2', '0']]),
]
_CUSP_SPLIT = [
    _CUSP_PARTS[0],
    ([2, 3, 4], [10, 11, 12],
     [['-1/2*x^2*y^0', '-1/2*x^0*y^3', '-1/2*x^1*y^2'],
      ['-1*x^1*y^1', '1*x^2*y^0', '-1*x^0*y^3'],
      ['-1*x^0*y^2', '1*x^1*y^1', '1*x^2*y^0']],
     [['-2*x^1*y^0', '0', '-1*x^0*y^2'],
      ['-2*x^0*y^1', '1*x^1*y^0', '0'],
      ['0', '-1*x^0*y^1', '1*x^1*y^0']]),
    ([4, 5, 6], [8, 9, 10],
     [['-2*x^1*y^0', '0', '-1*x^0*y^2'],
      ['-2*x^0*y^1', '1*x^1*y^0', '0'],
      ['0', '-1*x^0*y^1', '1*x^1*y^0']],
     [['-1/2*x^2*y^0', '-1/2*x^0*y^3', '-1/2*x^1*y^2'],
      ['-1*x^1*y^1', '1*x^2*y^0', '-1*x^0*y^3'],
      ['-1*x^0*y^2', '1*x^1*y^1', '1*x^2*y^0']]),
]


def _presented(part):
    desc = part.describe()
    assert desc["label"] is None
    return (desc["generator_degrees"], desc["relation_degrees"],
            desc["presentation"], part.mf.psi.entry_strings())


def _recorded(ring, parts):
    """The modules of recorded (gens, rels, phi, psi) entry strings."""
    def matrix(rows, cols, strings):
        return GradedMatrix(ring, rows, cols, [
            [poly_from_string(ring.field, ring.q, ring.p, e) for e in row]
            for row in strings])

    return [MatrixFactorization(
                matrix(gens, rels, phi),
                matrix(rels, [w + ring.deg_g for w in gens], psi)).cok()
            for gens, rels, phi, psi in parts]


def test_double_push_summands(two_branch_ideal, two_branch_datum,
                              cusp_ideal, cusp_datum):
    seq = push(two_branch_ideal, two_branch_datum)
    seq2 = push(seq.middle, two_branch_datum)
    assert seq2.middle.gens == (4, 6, 8, 3, 8, 3, 5, 7)
    parts, frees = decompose(seq2.middle)
    assert sorted(tuple(p.gens) for p in parts) == [(3, 4, 5, 6, 7, 8),
                                                    (3, 8)]
    assert frees == []
    assert [_presented(p) for p in parts] == _TWO_BRANCH_SPLIT

    seqc = push(cusp_ideal, cusp_datum)
    seqc2 = push(seqc.middle, cusp_datum)
    partsc, freesc = decompose(seqc2.middle)
    assert sorted(tuple(p.gens) for p in partsc) == [(2, 3, 4), (3, 5),
                                                     (4, 5, 6)]
    assert freesc == []
    assert [_presented(p) for p in partsc] == _CUSP_SPLIT

    for got, oracle in ((parts, _TWO_BRANCH_PARTS), (partsc, _CUSP_PARTS)):
        for part, old in zip(got, _recorded(got[0].ring, oracle)):
            assert (part.gens, part.rels) == (old.gens, old.rels)
            assert iso_up_to_shift(part, old) == 0


# random_ring seeds whose depth-1 middle term is indecomposable and has
# no alpha in the joint gauge (psi A = gamma psi and A phi = -gamma phi):
# _alpha_beta solves psi A = gamma psi alone, and the push goes through.
@pytest.mark.parametrize("field", ["Q", "F101"])
@pytest.mark.parametrize("seed", [42, 55, 58])
def test_push_on_the_depth_one_summand(seed, field):
    ring = random_ring(random.Random(seed), field_from_string(field))
    gd = gamma_for(ring)
    seq = push(mf_from_ideal(ring).cok(label="I"), gd)
    parts, frees = decompose(seq.middle)
    assert len(parts) == 1 and frees == []
    seq2 = push(parts[0], gd, summands=parts)
    assert seq2.left is parts[0]
    with pytest.raises(VerificationError, match="joint gauge"):
        solve_W(seq2)


@settings(derandomize=True, deadline=None, max_examples=8)
@given(seed=st.integers(0, 10**6), field=st.sampled_from(["Q", "F101"]))
def test_W_completes_gamma_on_eta(seed, field):
    # solve_W does not multiply eta W out: its docstring proves
    # eta W = gamma eta modulo g block by block
    ring = random_ring(random.Random(seed), field_from_string(field))
    seq = push(mf_from_ideal(ring).cok(label="I"), gamma_for(ring))
    W, _, _ = solve_W(seq)
    eta = seq.middle.mf.psi
    assert eta.mul(W).eq_mod_g(arengine._in_ring_matrix(seq.datum, eta))


def test_multiplicity_averages(two_branch_ideal, cusp_ideal):
    assert e_avg(two_branch_ideal) == 4
    assert e_avg(cusp_ideal) == 3
    # b = 0: e(R) is the order of g = y^4 or y^6, and no branch is
    # factored, which would raise NotSquarefreeError
    for make, e_ring in ((_nonreduced_cusp, 4), (_nonreduced_y6, 6)):
        assert e_avg(mf_from_ideal(make()).cok()) == e_ring


@settings(derandomize=True, deadline=None, max_examples=12)
@given(seed=st.integers(0, 10**6), field=st.sampled_from(["Q", "F101", "F7"]))
def test_e_avg_is_the_two_multiplicity_average(seed, field):
    # oracle: the average of e(M) and e(syz M), each read off the ranks
    ring = random_ring(random.Random(seed), field_from_string(field))
    branches = factor_hypersurface(ring)
    I = mf_from_ideal(ring).cok(label="I")
    seq = push(I, gamma_for(ring))
    parts, _ = decompose(seq.middle)
    for M in (I, I.syz(), seq.middle, seq.right, *parts):
        assert e_avg(M) == Fraction(multiplicity(M, branches)
                                    + multiplicity(M.syz(), branches), 2)


def test_double_push_report_passes(two_branch_ring):
    rep = double_push_report(two_branch_ring)
    assert rep["pass"]
    assert rep["column_degrees"]["normalized_tail"] == [-7, -12, -10, -8,
                                                        -6, -11]
    assert rep["c4_strictly_minimal"]
    assert rep["w_corner"] == "1*x^0*y^1"
    assert rep["block_triangular"]
    assert len(rep["summands"]) == 2
    assert rep["free_summands"] == []


def test_double_push_refuses_a_singular_change_of_basis(monkeypatch,
                                                       two_branch_ring):
    # H enters P' only; with a singular scalar part P' is not invertible
    diag = arengine._diag
    monkeypatch.setattr(arengine, "_diag", lambda ring, degs, values:
                        diag(ring, degs, [ring.field.zero] * len(values)))
    with pytest.raises(VerificationError, match="P' is not invertible"):
        double_push_report(two_branch_ring)


def test_explore_certifies_tau_squared(monkeypatch, two_branch_ideal,
                                      two_branch_datum):
    # an identification that never matches splits each vertex, so
    # pushing twice no longer comes back to where it started
    monkeypatch.setattr(arengine, "iso_up_to_shift", lambda M, N: None)
    with pytest.raises(VerificationError, match="tau\\^2"):
        explore_component(two_branch_ideal, two_branch_datum, depth=2)


# On the two-branch ring the walk pushes V0 = I into the middle V2 with
# right term V1, then V1 (right term V0, middle V3) and V2 (right term V3,
# middle parts V1 and V4): so V2 -> V1 is met twice and tau(V1) = V0.


def test_explore_certifies_mesh_multiplicities(monkeypatch, two_branch_ideal,
                                               two_branch_datum):
    # V0's middle counted twice gives V2 -> V1 the value (2, 2), which
    # V2's own push then finds once
    real = arengine.decompose

    def doubled(M):
        parts, frees = real(M)
        return (parts * 2 if M.label == "push(I)" else parts), frees

    monkeypatch.setattr(arengine, "decompose", doubled)
    with pytest.raises(VerificationError,
                       match="^mesh multiplicities disagree on V2 -> V1$"):
        explore_component(two_branch_ideal, two_branch_datum, depth=2)


def test_explore_certifies_the_translation(monkeypatch, two_branch_ideal,
                                           two_branch_datum):
    # V2's right term taken for V1 would make V2 = tau(V1) besides V0
    real = arengine.iso_up_to_shift

    def merged(M, N):
        if (M.label, N.label) == ("cosyz(push(I))(-8)", "cosyz(I)(-8)"):
            return 0
        return real(M, N)

    monkeypatch.setattr(arengine, "iso_up_to_shift", merged)
    with pytest.raises(VerificationError,
                       match="^translation disagrees at V1$"):
        explore_component(two_branch_ideal, two_branch_datum, depth=2)


def test_explore_frees_each_middle_term(monkeypatch, two_branch_ideal,
                                        two_branch_datum):
    # With the cycle collector off, only reference counting frees memory:
    # once its parts are named, nothing holds a pushed middle term, not
    # even the End_0 space that decompose cached on it.
    middles = []
    real = arengine.push

    def spy(M, gd, summands=None):
        seq = real(M, gd, summands)
        middles.append(weakref.ref(seq.middle))
        return seq

    monkeypatch.setattr(arengine, "push", spy)
    enabled = gc.isenabled()
    gc.disable()
    try:
        rep = explore_component(two_branch_ideal, two_branch_datum, depth=3)
        alive = [ref() is not None for ref in middles]
    finally:
        if enabled:
            gc.enable()
    assert len(alive) == rep["sequences"] == 5
    assert not any(alive)


def test_explore_finds_the_tube(two_branch_ideal, two_branch_datum):
    rep = explore_component(two_branch_ideal, two_branch_datum, depth=3)
    assert rep["classification"] == "tube(2)"
    names = [m["name"] for m in rep["modules"]]
    assert names == ["V%d" % i for i in range(7)]
    weights = {m["name"]: m["e_avg"] for m in rep["modules"]}
    assert weights == {"V0": "4", "V1": "4", "V2": "8", "V3": "8",
                       "V4": "12", "V5": "12", "V6": "16"}
    sub = rep["subadditive"]
    assert sub["status"] == "additive"
    assert sub["checked"] == ["V0", "V2"]
    assert sub["failures"] == {}


def test_push_refuses_free_summands(cusp_ring, cusp_datum):
    from arcurves import free_module
    with pytest.raises(InputError):
        push(free_module(cusp_ring, (0,)), cusp_datum)


def _padded(I):
    """I presented with an extra trivial block (1, g): the same module,
    from a factorization with a unit entry."""
    ring = I.ring
    phi, psi = I.mf.phi, I.mf.psi
    w = I.gens[0]
    one = GradedMatrix.identity(ring, (w,))
    g = matfact.g_identity(ring, (w,))
    return MatrixFactorization(
        block_matrix(ring, [[phi, None], [None, one]],
                     rows=phi.rows + one.rows, cols=phi.cols + one.cols),
        block_matrix(ring, [[psi, None], [None, g]],
                     rows=psi.rows + g.rows, cols=psi.cols + g.cols)
    ).cok("padded")


def _through_left(seq):
    # the zero endomorphism of the right term, not of the left one
    right = seq.right
    return seq.factors_through_left(hom_graded(right, right, 0).zero())


# Per input check and certificate of the engine that no config reaches:
# the call on the cusp, the error class and its message.
@pytest.mark.parametrize("call, error, message", [
    # reducedness is checked once, by _alpha_beta, which gamma_endo reaches
    (lambda ring, gd, I: verify_main_theorem(_padded(I), gd),
     InputError, "factorization has unit entries; reduce it first"),
    (lambda ring, gd, I: _through_left(push(I, gd)),
     InputError, "u must be an endomorphism of the left term"),
    (lambda ring, gd, I: push(free_module(ring, (0,)), gd),
     InputError, "free summands admit no almost split sequence"),
    (lambda ring, gd, I: syz_transport(hom_graded(I, I.syz(), 0).zero()),
     InputError, "only endomorphisms transport"),
    (lambda ring, gd, I: syz_transport(hom_graded(I, I, 0).zero(), I),
     InputError, "target is not the syzygy presented by psi"),
    (lambda ring, gd, I: verify_main_theorem(free_module(ring, (0,)), gd),
     InputError, "the theorem applies to indecomposable modules"),
    (lambda ring, gd, I: explore_component(free_module(ring, (0,)), gd),
     InputError, "exploration starts at an indecomposable module"),
    # gamma itself is not in R
    (lambda ring, gd, I: arengine._in_ring_matrix(
        gd, GradedMatrix.identity(ring, (0,))),
     VerificationError, "gamma times entry (0, 0) leaves R"),
])
def test_engine_exits(cusp_ring, cusp_datum, cusp_ideal, call, error,
                      message):
    with pytest.raises(error) as exc:
        call(cusp_ring, cusp_datum, cusp_ideal)
    assert (exc.type, str(exc.value)) == (error, message)


def test_gamma_endo_refuses_an_unsolved_system(monkeypatch, cusp_ideal,
                                               cusp_datum):
    monkeypatch.setattr(arengine, "solve_graded_system", lambda *a, **k: None)
    with pytest.raises(VerificationError) as exc:
        gamma_endo(cusp_ideal, cusp_datum)
    assert str(exc.value) == "gamma endomorphism system has no solution"


def test_solve_W_refuses_an_unsolved_system(monkeypatch, two_branch_ideal,
                                            two_branch_datum):
    seq = push(two_branch_ideal, two_branch_datum)
    monkeypatch.setattr(arengine, "solve_graded_system", lambda *a, **k: None)
    with pytest.raises(VerificationError) as exc:
        solve_W(seq)
    assert str(exc.value) == "the W system has no solution"


def _zp_doubled(monkeypatch):
    # theta is glued by the solved W, but the normal form is written with
    # twice its Z', which misses the corner alpha Z - Z'
    solve = arengine.solve_W

    def doubled(seq):
        W, Z, Zp = solve(seq)
        return W, Z, Zp.scale(2)
    monkeypatch.setattr(arengine, "solve_W", doubled)


def _corner_dropped(monkeypatch):
    # theta is glued by the solved W, but the W read back has a zero
    # corner entry
    solve, real = arengine.solve_W, arengine.double_extension
    solved = {}

    def dropped(seq):
        W, Z, Zp = solve(seq)
        solved["W"] = W
        r = len(seq.left.gens)
        ents = [list(row) for row in W.entries]
        ents[r][r + 1] = W.ring.zero_poly()
        return GradedMatrix(W.ring, W.rows, W.cols, ents), Z, Zp
    monkeypatch.setattr(arengine, "solve_W", dropped)
    monkeypatch.setattr(arengine, "double_extension",
                        lambda seq, W: real(seq, solved["W"]))


def _parts_merged(monkeypatch):
    # the double extension is read as its first part alone
    real = arengine.decompose

    def merged(M):
        parts, frees = real(M)
        return (parts[:1] if M.label == "double push" else parts), frees
    monkeypatch.setattr(arengine, "decompose", merged)


@pytest.mark.parametrize("perturb, message", [
    (_zp_doubled,
     "normal form mismatch: (2, 7): got -1*x^1*y^1, expected -2*x^1*y^1"),
    (_corner_dropped,
     "the glue corner entry is 0, not a nonzero multiple of x^0 y^1"),
    (_parts_merged, "double extension decomposed into 1 nonfree parts"),
])
def test_section7_certificates_fire(monkeypatch, two_branch_ring, perturb,
                                    message):
    perturb(monkeypatch)
    with pytest.raises(VerificationError) as exc:
        double_push_report(two_branch_ring)
    assert str(exc.value) == message


def test_push_counts_the_middle_by_elimination(monkeypatch, cusp_ring,
                                               cusp_datum):
    # dim (cok xi)_d comes from eliminating xi, so an elimination that
    # finds one pivot too many is caught by the additivity check
    real = matfact.GradedModule.nonpivot_basis

    def lossy(self, d):
        basis = real(self, d)
        checked = (self.label == "push(I)"
                   and d == min(self.gens) + self.ring.deg_g)
        return basis[1:] if checked else basis

    monkeypatch.setattr(matfact.GradedModule, "nonpivot_basis", lossy)
    ideal = mf_from_ideal(cusp_ring).cok(label="I")
    with pytest.raises(VerificationError, match="dimension additivity fails"):
        push(ideal, cusp_datum)


@pytest.mark.parametrize("seed", [5, 17, 26])
def test_small_field_walks_report_as_over_f101(seed):
    # These walks reach modules with 8 and 12 generators, more than the
    # characteristic, so the top algebras' radicals take the ell-power
    # traces; seeds 17 and 26 reach 6-dimensional top algebras, larger
    # than 5.
    found = {}
    for field in ("F5", "F7", "F101"):
        ring = random_ring(random.Random(seed), field_from_string(field))
        rep = explore_component(mf_from_ideal(ring).cok(label="I"),
                                gamma_for(ring), depth=3)
        found[field] = (rep["classification"], len(rep["modules"]))
    assert found["F5"] == found["F7"] == found["F101"]
