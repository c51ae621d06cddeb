"""One almost split sequence, built and checked end to end.

Starting from the ideal module I = (x, y^2), the gamma endomorphism is
lifted through the factorization, the middle term is assembled, and the
defining lifting property is demonstrated on three test maps.
"""

from arcurves import (GradedMatrix, QQ, HypersurfaceRing, decompose,
                      gamma_endo, gamma_for, hom_graded, mf_from_ideal, push)


def show_matrix(name, mat):
    print("  %s =" % name)
    for row in mat.entry_strings():
        print("      [%s]" % ", ".join(row))


def run(ring, title):
    print("=" * 60)
    print(title)
    gd = gamma_for(ring)
    I = mf_from_ideal(ring).cok(label="I")
    seq = push(I, gd)
    show_matrix("phi", I.mf.phi)
    show_matrix("alpha (gamma pushed onto the generators)", seq.alpha)
    show_matrix("beta (the syzygy-side companion)", seq.beta)
    print("  middle generator degrees:", seq.middle.gens)
    print("  right term:", seq.right.label, seq.right.gens)
    print("  rank vectors: left %(left)s, middle %(middle)s, right %(right)s"
          % seq.ranks)
    parts, frees = decompose(seq.middle)
    print("  middle summands:", [p.gens for p in parts], " frees:", frees)

    ident = hom_graded(I, I, 0).from_matrix(
        GradedMatrix.identity(ring, I.gens))
    print("  identity factors through the middle?",
          seq.factors_through_left(ident))
    print("  x * id factors through the middle? ",
          seq.factors_through_left(ident.times_monomial(1, 0)))
    print("  gamma endo factors through middle? ",
          seq.factors_through_left(gamma_endo(I, gd)))


def main():
    run(HypersurfaceRing(QQ, p=3, q=4, b=QQ(1), f="1*x^0*y^1", m=1, n=2),
        "two-branch curve")
    run(HypersurfaceRing(QQ, p=3, q=4, b=QQ(1), f="1*x^0*y^0", m=1, n=2),
        "cusp domain")


if __name__ == "__main__":
    main()
