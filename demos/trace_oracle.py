"""The trace oracle at work: stable vanishing without lifting a single map.

For the ideal module on the two-branch curve, computes quotient-ring
traces of a few endomorphisms, interprets integrality and valuation,
then sweeps every hom-basis endomorphism over a degree window and
compares the oracle verdict against the honest lifting computation.
"""

from arcurves import (GradedMatrix, HypersurfaceRing, QQ, branch_images,
                      end_generators, gamma_endo, gamma_for, hom_graded,
                      is_integral, mf_from_ideal, min_t_valuation, socle_test,
                      stably_zero_bruteforce, stably_zero_trace, trace_Q,
                      trace_report)


def describe(name, h):
    tr = trace_Q(h)
    images = branch_images(tr)
    lifted = tr.in_ring()
    print("  %-12s trace = (%s)/(%s)" % (name, tr.num.to_string(),
                                         tr.den.to_string()))
    print("               in R: %s   integral: %s   min t-valuation: %s"
          % (lifted.to_string() if lifted is not None else "no",
             is_integral(images), min_t_valuation(images)))
    print("               stably zero: %s   socle: %s"
          % (stably_zero_trace(h), socle_test(h)))


def main():
    ring = HypersurfaceRing(QQ, p=3, q=4, b=QQ(1), f="1*x^0*y^1", m=1, n=2)
    gd = gamma_for(ring)
    I = mf_from_ideal(ring).cok(label="I")

    ident = hom_graded(I, I, 0).from_matrix(GradedMatrix.identity(ring, I.gens))
    print("sample endomorphisms of I = (x, y^2):")
    describe("identity", ident)
    describe("x * id", ident.times_monomial(1, 0))
    describe("gamma_M", gamma_endo(I, gd))

    eg = end_generators(I)
    print("End(I) generator degrees:", [g.degree for g in eg.gens],
          " window cut at a(R) + spread =", eg.hi)

    print()
    print("full report for gamma_M:")
    for key, val in sorted(trace_report(gamma_endo(I, gd)).items()):
        print("  %-12s %s" % (key, val))

    print()
    print("oracle versus lifting, all hom-basis endos with |degree| <= 8:")
    agree = total = stable = 0
    for d in range(-8, 9):
        for h in hom_graded(I, I, d).basis:
            by_trace = stably_zero_trace(h)
            by_lift = stably_zero_bruteforce(h)
            total += 1
            agree += by_trace == by_lift
            stable += by_trace
    print("  %d endomorphisms, %d verdicts agree, %d stably zero"
          % (total, agree, stable))


if __name__ == "__main__":
    main()
