"""Branchwise traces: integrality, valuations, the stable-zero oracle."""

import importlib
import inspect
import random
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from arcurves import (GradedHom, GradedMatrix, branch_images, end_generators,
                      factor_hypersurface, field_from_string, gamma_endo,
                      gamma_for, hom_graded, is_integral, min_t_valuation,
                      mf_from_ideal, push, random_ring, socle_test,
                      stably_zero_bruteforce, stably_zero_trace, trace_Q,
                      trace_report)
from arcurves import HypersurfaceRing, cli, traceoracle
from arcurves.cli import _endo_corpus
from arcurves.linalg import SparseRREF, solve_sparse_system
from arcurves.modmat import GradedModule, HomSpace, _coefficient_matrix
from arcurves.ring import WPoly
from arcurves.traceoracle import (_branch_trace, _cokernel_trace, _in_ring,
                                  _nonunit_generators, _product_stably_zero,
                                  _ring_preimage, trace_images)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _identity(M):
    space = hom_graded(M, M, 0)
    return space.from_matrix(GradedMatrix.identity(M.ring, M.gens))


def test_trace_of_identity_is_one(two_branch_ring, two_branch_ideal):
    tr = trace_Q(_identity(two_branch_ideal))
    assert tr.in_ring() == two_branch_ring.one()
    assert [img[1] for img in branch_images(tr)] == [0, 0]


def test_trace_is_linear_in_the_monomial(two_branch_ring, two_branch_ideal):
    tr = trace_Q(_identity(two_branch_ideal).times_monomial(1, 0))
    assert tr.in_ring() == two_branch_ring.x_poly()
    assert min_t_valuation(branch_images(tr)) == 1
    assert is_integral(branch_images(tr))


def test_gamma_trace_is_gamma(two_branch_ideal, two_branch_datum):
    gm = gamma_endo(two_branch_ideal, two_branch_datum)
    tr = trace_Q(gm)
    assert tr == two_branch_datum.gamma
    assert tr.in_ring() is None
    assert is_integral(branch_images(tr))


def test_socle_membership(two_branch_ideal, two_branch_datum):
    gm = gamma_endo(two_branch_ideal, two_branch_datum)
    assert socle_test(gm)
    assert not socle_test(_identity(two_branch_ideal))


def test_trace_oracle_matches_lifting(cusp_ideal):
    M = cusp_ideal
    for d in range(-4, 9):
        for h in hom_graded(M, M, d).basis:
            assert stably_zero_trace(h) == stably_zero_bruteforce(h)


@settings(derandomize=True, deadline=None, max_examples=8)
@given(seed=st.integers(0, 10**6), field=st.sampled_from(["Q", "F101"]))
def test_trace_oracle_matches_lifting_on_random_rings(seed, field):
    ring = random_ring(random.Random(seed), field_from_string(field))
    M = mf_from_ideal(ring).cok(label="I")
    for d in range(ring.deg_g + 1):
        for h in hom_graded(M, M, d).basis:
            assert stably_zero_trace(h) == stably_zero_bruteforce(h)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(seed=st.integers(0, 10**6), field=st.sampled_from(["Q", "F101"]),
       e=st.integers(0, 3), data=st.data())
def test_q_membership_matches_branch_preimage(seed, field, e, data):
    # q_membership reads num/x^e off the normal form; _ring_preimage
    # solves for the element of R with the same branch images.
    ring = random_ring(random.Random(seed), field_from_string(field))
    K = ring.field
    branches = factor_hypersurface(ring)
    d = data.draw(st.sampled_from([d for d in range(2 * ring.deg_g + 1)
                                   if ring.graded_piece(d)]))
    basis = ring.graded_piece(d)
    picks = data.draw(st.lists(st.sampled_from(basis), min_size=1,
                               max_size=3, unique=True))
    num = ring.zero_poly()
    for mono in picks:
        c = data.draw(st.integers(1, 5))
        num = num + ring.monomial(*mono, c)
    den = ring.monomial(e, 0)
    images = []
    for branch in branches:
        n_img, x_img = branch.evaluate(num), branch.evaluate(den)
        images.append(None if n_img is None else
                      (K.div(n_img[0], x_img[0]), n_img[1] - x_img[1]))
    expected = _ring_preimage(ring, images, d - e * ring.q)
    assert ring.q_membership(num, den) == expected


def _reference_ring_preimage(ring, branches, images, w):
    """_ring_preimage by one solve per call, verbatim but for its name."""
    if all(img is None for img in images):
        return ring.zero_poly()
    K = ring.field
    basis = ring.graded_piece(w)
    rows = []
    for branch, img in zip(branches, images):
        row, tdeg = branch.piece_row(w)
        if img is not None:
            if img[1] != tdeg:
                return None
            row = dict(row)
            row[len(basis)] = K.neg(img[0])
        rows.append(row)
    sol = solve_sparse_system(rows, len(basis), K)
    if sol is None:
        return None
    return WPoly(K, ring.q, ring.p,
                 {mono: sol[t] for t, mono in enumerate(basis) if t in sol})


def _reference_in_ring(ring, images, w) -> bool:
    """_in_ring by membership in the RREF span of R_w's branch images,
    verbatim but for its name."""
    cache = ring.__dict__.setdefault("_image_spans", {})
    if w not in cache:
        rows = [b.piece_row(w) for b in factor_hypersurface(ring)]
        span = SparseRREF(ring.field)
        for t in range(len(ring.graded_piece(w))):
            span.insert({b: row[t] for b, (row, _) in enumerate(rows)
                         if t in row})
        cache[w] = span, [tdeg for _, tdeg in rows]
    span, tdegs = cache[w]
    if any(img is not None and img[1] != tdeg
           for img, tdeg in zip(images, tdegs)):
        return False
    return span.contains({b: img[0] for b, img in enumerate(images)
                          if img is not None})


def _assert_membership_matches_the_solve(ring, branches, images, w):
    expected = _reference_ring_preimage(ring, branches, images, w)
    assert _in_ring(ring, images, w) == (expected is not None)
    assert _in_ring(ring, images, w) == _reference_in_ring(ring, images, w)
    assert _ring_preimage(ring, images, w) == expected
    return expected is not None


@settings(derandomize=True, deadline=None, max_examples=60)
@given(seed=st.integers(0, 10**6), field=st.sampled_from(["Q", "F101"]),
       data=st.data())
def test_ring_membership_matches_the_solve(seed, field, data):
    # random images: all None, those of an element of R_w (perhaps with
    # one coefficient changed), or arbitrary coefficients at the branch's
    # t-degree or one above it, including branches on which R_w vanishes
    _assert_drawn_membership_matches_the_solve(
        random_ring(random.Random(seed), field_from_string(field)), data)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(field=st.sampled_from(["Q", "F101"]), data=st.data())
def test_ring_membership_matches_the_solve_on_three_branches(field, data):
    # with three branches the annihilator of R_w's images can have two
    # vectors, and an image vector may be killed by one and not the other
    ring = HypersurfaceRing(field_from_string(field), 3, 4, 1,
                            "1*x^0*y^8 - 9*x^3*y^4 + 8*x^6*y^0", m=1, n=2)
    assert len(factor_hypersurface(ring)) == 3
    _assert_drawn_membership_matches_the_solve(ring, data)


def _assert_drawn_membership_matches_the_solve(ring, data):
    K = ring.field
    branches = factor_hypersurface(ring)
    w = data.draw(st.integers(-1, 2 * ring.deg_g))
    kind = data.draw(st.sampled_from(["none", "element", "arbitrary"]))
    if kind == "none":
        images = [None] * len(branches)
    elif kind == "element":
        num = ring.zero_poly()
        for mono in ring.graded_piece(w):
            num = num + ring.monomial(*mono, data.draw(st.integers(-2, 2)))
        images = [b.evaluate(num) for b in branches]
        k = data.draw(st.integers(0, len(branches)))
        if k < len(branches) and images[k] is not None:
            images[k] = (K.add(images[k][0], K.one), images[k][1])
    else:
        images = []
        for b in branches:
            c = data.draw(st.integers(0, 3))
            tdeg = b.piece_row(w)[1]
            images.append(None if c == 0 else (
                K(c), (tdeg or 0) + data.draw(st.integers(0, 1))))
    _assert_membership_matches_the_solve(ring, branches, images, w)


def test_ring_membership_on_the_named_cases(two_branch_ring):
    # the y-axis branch kills y, so R_3 = k y vanishes there; on the
    # binomial branch y has t-degree 3
    ring = two_branch_ring
    branches = factor_hypersurface(ring)
    axis, binomial = branches
    assert axis.piece_row(3) == ({}, None) and binomial.piece_row(3)[1] == 3
    one = ring.field.one
    for images, member in (([None, None], True),
                           ([None, (one, 3)], True),
                           ([None, (one, 4)], False),
                           ([(one, 0), (one, 3)], False),
                           ([(one, 0), None], False)):
        assert _assert_membership_matches_the_solve(
            ring, branches, images, 3) == member
    # R_12 holds x^3 and y^4: both branches at once
    assert axis.piece_row(12)[1] == 3 and binomial.piece_row(12)[1] == 12
    assert _assert_membership_matches_the_solve(
        ring, branches, [(one, 3), (one, 12)], 12)


def test_traces_in_ring_solve_nothing(monkeypatch, two_branch_ring):
    # membership of the branch images in R_w is a product with each vector
    # of the annihilator of R_w's images, made once per degree; no system
    # is solved and nothing is eliminated
    M = mf_from_ideal(two_branch_ring).cok(label="I")
    calls = []
    monkeypatch.setattr(traceoracle, "solve_sparse_system",
                        lambda *a: calls.append(1) or solve_sparse_system(*a))
    contains = SparseRREF.contains
    monkeypatch.setattr(
        SparseRREF, "contains",
        lambda self, row: calls.append(2) or contains(self, row))
    verdicts = [stably_zero_trace(h)
                for d in range(two_branch_ring.deg_g + 1)
                for h in hom_graded(M, M, d).basis]
    assert True in verdicts and False in verdicts
    assert calls == []


def _assert_trace_membership_matches_the_span(ring):
    # every (h, g) test of the trace oracle on I, syz I and push(I).middle,
    # |deg h| <= deg g, against membership in the RREF span
    I = mf_from_ideal(ring).cok(label="I")
    verdicts = set()
    for M in (I, I.syz(), push(I, gamma_for(ring)).middle):
        traces = [_branch_trace(b, M) for b in factor_hypersurface(ring)]
        for d in range(-ring.deg_g, ring.deg_g + 1):
            for h in hom_graded(M, M, d).basis:
                for k, g in enumerate(end_generators(M).gens):
                    w = g.degree + d
                    images = [bt.image(bt.generator_functionals()[k],
                                       h._coefficients(bt.branch), w)
                              for bt in traces]
                    member = _in_ring(ring, images, w)
                    assert member == _reference_in_ring(ring, images, w)
                    verdicts.add(member)
    assert verdicts == {True, False}


@pytest.mark.parametrize("field", ["Q", "F101"])
@pytest.mark.parametrize("f", ["1*x^0*y^0", "1*x^0*y^1"])
def test_trace_membership_matches_the_span(field, f):
    _assert_trace_membership_matches_the_span(
        HypersurfaceRing(field_from_string(field), 3, 4, 1, f, m=1, n=2))


@settings(derandomize=True, deadline=None, max_examples=8)
@given(seed=st.integers(0, 10**6), field=st.sampled_from(["Q", "F101"]))
def test_trace_membership_matches_the_span_on_random_rings(seed, field):
    _assert_trace_membership_matches_the_span(
        random_ring(random.Random(seed), field_from_string(field)))


def test_trace_oracle_reads_homs_on_coordinates(monkeypatch):
    # On the two-branch corpus of verify trace-oracle, both oracles and
    # the End generators read homs on coordinates: no hom matrix is
    # built, and the coordinate accumulator is handed nonzero entries only.
    ring = HypersurfaceRing(field_from_string("Q"), 3, 4, 1, "1*x^0*y^1",
                            m=1, n=2)
    corpus, _ = _endo_corpus(ring)

    def refuse(*args):
        raise AssertionError("a hom matrix was built")

    monkeypatch.setattr(HomSpace, "_matrix", refuse)
    entries = []
    accumulate = GradedModule._accumulate

    def checked(self, out, i, poly, *rest):
        entries.append(poly.is_zero())
        return accumulate(self, out, i, poly, *rest)

    monkeypatch.setattr(GradedModule, "_accumulate", checked)
    agree = []
    for M in corpus:
        assert end_generators(M).gens
        for d in range(-ring.deg_g, ring.deg_g + 1):
            for h in hom_graded(M, M, d).basis:
                agree.append(stably_zero_trace(h) == stably_zero_bruteforce(h))
                trace_images(h)
    assert agree and all(agree)
    assert entries and not any(entries)


@settings(derandomize=True, deadline=None, max_examples=8)
@given(seed=st.integers(0, 10**6), field=st.sampled_from(["Q", "F101"]))
def test_trace_oracle_matches_lifting_on_syzygy_and_push(seed, field):
    ring = random_ring(random.Random(seed), field_from_string(field))
    I = mf_from_ideal(ring).cok(label="I")
    for M in (I.syz(), push(I, gamma_for(ring)).middle):
        spread = max(M.gens) - min(M.gens)
        for d in range(-spread, ring.deg_g + 1):
            for h in hom_graded(M, M, d).basis:
                assert stably_zero_trace(h) == stably_zero_bruteforce(h)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(seed=st.integers(0, 10**6), field=st.sampled_from(["Q", "F101"]))
def test_ring_is_integrally_closed_from_the_conductor_degree(seed, field):
    # R_w is the whole degree-w piece of the integral closure, one t-power
    # per branch whose scale divides w, exactly when the branch images of
    # R_w have that rank.  From the conductor degree a(R) + 1 on this holds
    # (end_generators cuts its window there), and at a(R) it fails.
    ring = random_ring(random.Random(seed), field_from_string(field))
    branches = factor_hypersurface(ring)

    def ranks(w):
        rr = SparseRREF(ring.field)
        for b in branches:
            rr.insert(b.piece_row(w)[0])
        return rr.rank, sum(1 for b in branches if w % b.scale == 0)

    a = ring.gamma_degree
    for w in range(a + 1, a + 2 + 2 * ring.deg_g):
        rank, closure = ranks(w)
        assert rank == closure
    rank, closure = ranks(a)
    assert rank < closure


@pytest.mark.parametrize("ring_name", ["cusp_ring", "two_branch_ring"])
def test_generator_functional_is_the_trace_of_the_composite(ring_name, request):
    ring = request.getfixturevalue(ring_name)
    branches = factor_hypersurface(ring)
    I = mf_from_ideal(ring).cok(label="I")
    for M in (I, I.syz()):
        spread = max(M.gens) - min(M.gens)
        maps = [h for d in range(-spread, ring.deg_g + 1)
                for h in hom_graded(M, M, d).basis]
        for b in branches:
            bt = _branch_trace(b, M)
            for g in maps:
                tau = bt.functional(_coefficient_matrix(b, g.H))
                for h in maps:
                    assert (bt.image(tau, _coefficient_matrix(b, h.H),
                                     g.degree + h.degree)
                            == _cokernel_trace(b, M, g.compose(h)))


@pytest.mark.parametrize("ring_name", ["cusp_ring", "two_branch_ring"])
def test_socle_test_matches_lifting(ring_name, request):
    # socle_test reads each product g h off the branch coefficients of the
    # matrix product; the lifting oracle composes the maps honestly.
    ring = request.getfixturevalue(ring_name)
    I = mf_from_ideal(ring).cok(label="I")
    # End(I) is commutative (I has rank one); the push middle term's is not.
    for M in (I, push(I, gamma_for(ring)).middle):
        nonunits = [g for g in _nonunit_generators(M) if not g.is_zero()]
        for d in range(ring.deg_g + 1):
            for h in hom_graded(M, M, d).basis:
                products = [stably_zero_bruteforce(g.compose(h))
                            for g in nonunits]
                assert products == [_product_stably_zero(g, h)
                                    for g in nonunits]
                by_lift = not stably_zero_bruteforce(h) and all(products)
                assert socle_test(h) == by_lift


def test_trace_oracle_composes_nothing(cusp_ring, cusp_ideal, monkeypatch):
    # Machine-independent operation counts: the trace test reads each
    # trace off per-generator functionals, and the End generators stop
    # at the conductor bound.
    calls = []
    compose = GradedHom.compose

    def counted(self, first):
        calls.append(1)
        return compose(self, first)

    monkeypatch.setattr(GradedHom, "compose", counted)
    M = cusp_ideal
    for d in range(-cusp_ring.deg_g, cusp_ring.deg_g + 1):
        for h in hom_graded(M, M, d).basis:
            stably_zero_trace(h)
    assert len(calls) == 0
    spread = max(M.gens) - min(M.gens)
    assert max(end_generators(M).dims) <= cusp_ring.gamma_degree + spread


def test_end_generator_degrees(two_branch_ideal):
    eg = end_generators(two_branch_ideal)
    info = eg.describe()
    assert info["generator_degrees"] == [0, 5]
    assert info["certified_through"] >= info["window"][1]
    # cached per module
    assert end_generators(two_branch_ideal) is eg


def test_trace_report_shape(two_branch_ideal, two_branch_datum):
    gm = gamma_endo(two_branch_ideal, two_branch_datum)
    rep = trace_report(gm)
    assert sorted(rep.keys()) == ["branches", "degree", "denominator",
                                  "in_ring", "integral", "numerator"]
    assert rep["integral"] is True
    assert rep["in_ring"] is None
    assert rep["degree"] == 8


def test_zero_trace_valuation_is_none(cusp_ideal):
    z = hom_graded(cusp_ideal, cusp_ideal, 1).zero()
    tr = trace_Q(z)
    assert tr.is_zero()
    assert min_t_valuation(branch_images(tr)) is None


def test_end_generators_test_no_membership(monkeypatch, two_branch_ring):
    # x and y multiples of homs are homs: their coordinates are read, not
    # tested against the span of a hom space
    M = mf_from_ideal(two_branch_ring).cok(label="I")
    calls = []
    contains = SparseRREF.contains
    monkeypatch.setattr(
        SparseRREF, "contains",
        lambda self, row: calls.append(1) or contains(self, row))
    assert end_generators(M).gens
    assert calls == []


@pytest.mark.parametrize("ring_name", ["cusp_ring", "two_branch_ring"])
def test_trace_fraction_has_the_trace_images(ring_name, request):
    # trace_Q reconstructs a fraction from trace_images; evaluated afresh
    # on every branch it must give those images back
    ring = request.getfixturevalue(ring_name)
    I = mf_from_ideal(ring).cok(label="I")
    for M in (I, I.syz()):
        for d in range(-ring.deg_g, ring.deg_g + 1):
            for h in hom_graded(M, M, d).basis:
                assert branch_images(trace_Q(h)) == trace_images(h)


def test_no_function_takes_a_branch_list():
    # a trace over Q is its images on every branch of the ring: no
    # function of the oracle may be handed a subset of them
    functions = [obj for obj in vars(traceoracle).values()
                 if inspect.isfunction(obj)
                 and obj.__module__ == traceoracle.__name__]
    assert {f.__name__ for f in functions} >= (
        set(traceoracle.__all__) - {"EndGenerators", "stably_zero_bruteforce"})
    for f in functions:
        assert "branches" not in inspect.signature(f).parameters, f.__name__


def test_trace_sweep_makes_no_fraction(monkeypatch, capsys):
    # verify trace-oracle reads integrality and valuations off the branch
    # images; its report, pinned in perfbench/golden.json, must not need
    # a single fraction reconstructed or preimage solved
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")

    def refuse(*args):
        raise AssertionError("the trace sweep built a fraction")

    monkeypatch.setattr(traceoracle, "_reconstruct_fraction", refuse)
    monkeypatch.setattr(traceoracle, "solve_sparse_system", refuse)
    job = workloads.Job(("verify", "trace-oracle"), "two_branch_q")
    monkeypatch.chdir(workloads.ROOT)
    code = cli.main(job.argv(seed=0))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert workloads.check(job, workloads.load_golden(), code,
                           captured.out, captured.err) == "pass"
