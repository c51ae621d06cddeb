"""How the conductor fraction gamma is found and certified.

gamma lives in the total quotient ring, escapes R, and multiplies the
maximal ideal back into R.  The script shows the certified datum for
both instances and checks each certificate by hand.
"""

from arcurves import QQ, HypersurfaceRing, gamma_for


def inspect(ring, title):
    print("=" * 60)
    print(title)
    gd = gamma_for(ring)
    print("  branch semigroup:", gd.branch.generators,
          " frobenius:", gd.branch.frobenius)
    print("  gamma' on the branch:", gd.prime_fraction.to_string())
    print("  z (clearing factor):", gd.z.to_string())
    print("  gamma =", gd.gamma.to_string(), " degree", gd.gamma.degree)
    print("  gamma in R?          ", gd.gamma.in_ring())
    print("  x * gamma in R?      ",
          (gd.gamma * ring.x_poly()).in_ring().to_string())
    print("  y * gamma in R?      ",
          (gd.gamma * ring.y_poly()).in_ring().to_string())
    img = gd.branch.evaluate_q(gd.gamma)
    print("  image on the branch:  %s * t^%d" %
          (img[0], img[1]))


def main():
    inspect(HypersurfaceRing(QQ, p=3, q=4, b=QQ(1), f="1*x^0*y^1"),
            "two-branch curve: gamma = y^4/x")
    inspect(HypersurfaceRing(QQ, p=3, q=4, b=QQ(1), f="1*x^0*y^0"),
            "cusp domain: gamma = y^3/x")


if __name__ == "__main__":
    main()
