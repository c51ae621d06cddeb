"""Package acceptance suite: nine end-to-end criteria, all exact.

Every check below is exact integer or field arithmetic; there are no
numerical tolerances anywhere.  Each test prints one pass/fail verdict
line, and pytest -v adds one PASSED/FAILED row per criterion.
"""

import random
from fractions import Fraction

import pytest

from arcurves import (GradedMatrix, MatrixFactorization, block_matrix,
                      branch_images, check_subadditive,
                      classify_fragment, decompose, double_extension,
                      double_push_report, e_avg, explore_component, ext1_dim,
                      free_module, gamma_endo, gamma_for, hom_graded,
                      is_integral, iso_up_to_shift, mf_check, mf_from_ideal,
                      min_t_valuation, push, random_ring, solve_W,
                      stable_end_dim, stably_zero_bruteforce,
                      stably_zero_trace, syz_transport, trace_Q, tree_class,
                      verify_main_theorem, verify_syz_gamma)
from arcurves.cli import _is_unit_endo
from arcurves.linalg import rank_dense
from arcurves.matfact import mf_reduce
from tubes import SMALL_TREES, degrees, tube, z_window


def _verdict(num, ok, label):
    print("acceptance criterion %d: %s (%s)"
          % (num, "PASS" if ok else "FAIL", label))
    assert ok, "criterion %d failed: %s" % (num, label)


def _corpus(ring, gd, I):
    """I, its syzygy, one push, and the double-push summands."""
    seq = push(I, gd)
    parts, frees = decompose(push(seq.middle, gd).middle)
    assert frees == []
    return [I, I.syz(), seq.middle] + parts


@pytest.fixture(scope="module")
def endo_sweeps(two_branch_ring, two_branch_datum, two_branch_ideal,
                cusp_ring, cusp_datum, cusp_ideal):
    """Every homogeneous endomorphism of the corpus in |d| <= deg g."""
    rows = []
    for ring, gd, I in ((two_branch_ring, two_branch_datum, two_branch_ideal),
                        (cusp_ring, cusp_datum, cusp_ideal)):
        for M in _corpus(ring, gd, I):
            for d in range(-ring.deg_g, ring.deg_g + 1):
                for h in hom_graded(M, M, d).basis:
                    images = branch_images(trace_Q(h))
                    rows.append({
                        "by_trace": stably_zero_trace(h),
                        "by_lift": stably_zero_bruteforce(h),
                        "integral": is_integral(images),
                        "valuation": min_t_valuation(images),
                        "unit": _is_unit_endo(h),
                    })
    return rows


def _mixed_free_sum(I):
    """I + R(w), w the degree of I's first generator, after the changes
    of basis U = Id + E_(last, 0) and V = Id + e E_(0, last), e = psi's
    first entry: (U phi V, V^-1 psi U^-1) has the free summand's unit in
    a row and a column that mf_reduce must clear before it drops them."""
    ring = I.ring
    phi, psi = I.mf.phi, I.mf.psi
    w = phi.rows[0]
    free = free_module(ring, (w,)).mf
    rows, cols = phi.rows + free.phi.rows, phi.cols + free.phi.cols
    last = len(rows) - 1

    def diag(a, b):
        return block_matrix(ring, [[a, None], [None, b]],
                            rows=a.rows + b.rows, cols=a.cols + b.cols)

    def unipotent(degs, at, e):
        return GradedMatrix(ring, degs, degs, [
            [ring.one() if i == j else e if (i, j) == at else ring.zero_poly()
             for j in range(len(degs))] for i in range(len(degs))])

    e = psi.entries[0][0]
    U, U_inv = (unipotent(rows, (last, 0), c)
                for c in (ring.one(), -ring.one()))
    V, V_inv = (unipotent(cols, (0, last), c) for c in (e, -e))
    mixed = MatrixFactorization(U.mul(diag(phi, free.phi)).mul(V),
                                V_inv.mul(diag(psi, free.psi)).mul(U_inv))
    return mixed, w


def test_criterion_1_factorization_identities(two_branch_ring, cusp_ring):
    """(phi, psi), (xi, eta), (theta, theta') multiply to g Id exactly, and
    so do the pairs the engine derives without multiplying them out: the
    syzygy, a shift, the right term, the split parts and a reduced core."""
    rng = random.Random(20260821)
    rings = [two_branch_ring, cusp_ring]
    rings.extend(random_ring(rng) for _ in range(10))
    ok = True
    for ring in rings:
        assert ring.p <= 7 and ring.q <= 7
        I = mf_from_ideal(ring).cok(label="I")
        gd = gamma_for(ring)
        seq = push(I, gd)
        W, _, _ = solve_W(seq)
        parts, frees = decompose(seq.middle)
        # the second push's middle splits on every ring
        again, frees_again = decompose(push(seq.middle, gd).middle)
        mixed, w = _mixed_free_sum(I)
        core, dropped = mf_reduce(mixed)
        ok = (ok and frees == frees_again == [] and len(again) > 1
              and dropped == [w])
        pairs = [I.mf, I.syz().mf, I.shift(3).mf, seq.middle.mf,
                 seq.right.mf, double_extension(seq, W), core]
        pairs.extend(part.mf for part in parts + again)
        ok = ok and all(mf_check(mf.phi, mf.psi) for mf in pairs)
    _verdict(1, ok, "factorization identities on 12 instances")


def test_criterion_2_oracle_equivalence(endo_sweeps):
    """Trace oracle equals the lifting oracle on the whole corpus."""
    bad = [r for r in endo_sweeps if r["by_trace"] != r["by_lift"]]
    _verdict(2, not bad,
             "oracle agreement on %d endomorphisms" % len(endo_sweeps))


def test_criterion_3_gamma_socle(two_branch_ideal, two_branch_datum,
                                 cusp_ideal, cusp_datum):
    """The gamma endomorphism of (x, y^2) is a stable socle element."""
    ok = True
    for M, gd in ((two_branch_ideal, two_branch_datum),
                  (cusp_ideal, cusp_datum)):
        rep = verify_main_theorem(M, gd)
        witness = trace_Q(gamma_endo(M, gd))
        ok = (ok and rep["pass"] and rep["socle_by_trace"]
              and rep["socle_by_lifting"] and witness == gd.gamma
              and witness.in_ring() is None)
    _verdict(3, ok, "socle witness on both instances")


def test_criterion_4_double_push_pipeline(two_branch_ring):
    """Degree table, minimal corner, block form, two summands."""
    rep = double_push_report(two_branch_ring)
    tail = rep["column_degrees"]["normalized_tail"]
    ok = (rep["pass"]
          and tail == [-7, -12, -10, -8, -6, -11]
          and rep["c4_strictly_minimal"]
          and rep["w_corner"] == "1*x^0*y^1"
          and rep["block_triangular"]
          and len(rep["summands"]) == 2
          and rep["free_summands"] == [])
    _verdict(4, ok, "double push report on the two-branch instance")


def test_criterion_5_syzygy_pairing(cusp_ideal, cusp_datum):
    """Transported gamma pairs to zero against the syzygy gamma."""
    rep1 = verify_syz_gamma(cusp_ideal, cusp_datum)
    seq = push(cusp_ideal, cusp_datum)
    rep2 = verify_syz_gamma(seq.middle, cusp_datum)
    ok = (rep1["pass"] and rep1["ranks"] == [1, 1]
          and rep1["trace_sum_in_ring"] == "0"
          and rep2["pass"] and rep2["ranks"] == [2, 2]
          and rep2["trace_sum_in_ring"] == "0")
    _verdict(5, ok, "syzygy pairing for the ideal and its push")


def test_criterion_6_integrality_and_radical(endo_sweeps, cusp_ideal,
                                             cusp_datum):
    """Traces are branchwise polynomial; nonunits have valuation >= 1."""
    nonintegral = [r for r in endo_sweeps if not r["integral"]]
    nonradical = [r for r in endo_sweeps
                  if not r["unit"] and r["valuation"] is not None
                  and r["valuation"] < 1]
    # the pairing traces of criterion 5 again, explicitly
    h = gamma_endo(cusp_ideal, cusp_datum)
    t = syz_transport(h, cusp_ideal.syz())
    extra_ok = all(is_integral(branch_images(trace_Q(u)))
                   and min_t_valuation(branch_images(trace_Q(u))) >= 1
                   for u in (h, t))
    ok = not nonintegral and not nonradical and extra_ok
    _verdict(6, ok, "integrality and radical valuations, %d traces"
             % len(endo_sweeps))


def test_criterion_7_subadditivity(two_branch_ideal, two_branch_datum):
    """Middle growth is bounded and the mesh inequality holds."""
    rep = explore_component(two_branch_ideal, two_branch_datum, depth=3)
    growth_ok = True
    for entry in rep["modules"]:
        if entry["e_avg_middle"] is None:
            continue
        growth_ok = growth_ok and (Fraction(entry["e_avg_middle"])
                                   <= 2 * Fraction(entry["e_avg"]))
    pushed = [entry for entry in rep["modules"] if entry["pushed"]]
    covered = all(entry["e_avg_middle"] is not None for entry in pushed)

    sub = check_subadditive(tree_class(rep["orbit_quiver"], "V0", 3))
    mesh_ok = sub["status"] != "fails" and sub["checked"]
    direct = rep["subadditive"]
    ok = bool(growth_ok and covered and mesh_ok
              and direct["status"] == "additive" and not direct["failures"])
    _verdict(7, ok, "e growth and subadditivity across the depth-3 fragment")


def test_criterion_8_fragment_classifiers():
    """Tube ranks from quotients; tree shapes from window walks."""
    tubes_ok = all(classify_fragment(tube(4, n)) == "tube(%d)" % n
                   for n in (1, 2, 3))
    trees_ok = all(degrees(tree_class(z_window(vs, es, ns), base, r)) == degs
                   for vs, es, ns, base, r, degs in SMALL_TREES)
    _verdict(8, tubes_ok and trees_ok, "tube ranks and tree shapes")


def test_criterion_9_stable_end_matches_ext(cusp_ideal, cusp_datum):
    """dim stable End equals dim Ext^1 against the cosyzygy, degreewise."""
    D = cusp_ideal.ring.deg_g
    seq = push(cusp_ideal, cusp_datum)
    ok = True
    for M in (cusp_ideal, seq.middle):
        for d in range(-D, D + 1):
            if stable_end_dim(M, d) != ext1_dim(M.mf, M, d):
                ok = False
    _verdict(9, ok, "stable End vs Ext^1 over a width-%d window" % (2 * D))
