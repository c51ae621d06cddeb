"""Branch factorization, parametrizations, semigroups, inverse different."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcurves import (FormSplitError, HypersurfaceRing, InputError,
                      NotSquarefreeError, PrimeField, QQ, factor_hypersurface,
                      field_from_string, gamma_prime, poly_from_string,
                      random_ring, singular_branch)
from arcurves.branches import Branch, _pth_root


def test_two_branch_factorization(two_branch_ring):
    branches = factor_hypersurface(two_branch_ring)
    kinds = sorted(b.kind for b in branches)
    assert kinds == ["binomial", "y-axis"]
    axis = next(b for b in branches if b.kind == "y-axis")
    assert axis.generators == (1,)
    assert axis.frobenius == -1
    assert axis.multiplicity == 1


def test_cusp_factorization(cusp_ring):
    branches = factor_hypersurface(cusp_ring)
    assert len(branches) == 1
    br = branches[0]
    assert br.kind == "binomial"
    assert br.generators == (3, 4)
    assert br.frobenius == 5
    assert br.conductor == 6
    assert br.multiplicity == 3


def test_parametrization_kills_g(two_branch_ring):
    for br in factor_hypersurface(two_branch_ring):
        assert br.evaluate(two_branch_ring.g) is None
        assert br.evaluate(br.h) is None


def _assert_branches_multiply_to_g(ring):
    # factor_hypersurface does not multiply its branches out: its
    # docstring proves that they give g up to a scalar
    product = ring.one()
    for br in factor_hypersurface(ring):
        product = product * br.h
    key = next(iter(product.terms))
    scalar = ring.g.terms[key] * ring.field.inv(product.terms[key])
    assert product * scalar == ring.g


@settings(derandomize=True, deadline=None, max_examples=20)
@given(seed=st.integers(0, 10**6),
       field=st.sampled_from(["Q", "F101", "F7"]))
def test_branches_multiply_back_to_g(seed, field):
    _assert_branches_multiply_to_g(
        random_ring(random.Random(seed), field_from_string(field)))


def test_four_branches_multiply_back_to_g():
    # f = (y^4 - x^3)(y^4 - 8 x^3)(y^4 - 27 x^3), with x^3 + y^4
    ring = HypersurfaceRing(
        QQ, p=3, q=4, b=QQ(1),
        f="1*x^0*y^12-36*x^3*y^8+251*x^6*y^4-216*x^9*y^0", m=1, n=2)
    assert len(factor_hypersurface(ring)) == 4
    _assert_branches_multiply_to_g(ring)


def test_singular_branch_is_the_form_branch(two_branch_ring, cusp_ring):
    for ring in (two_branch_ring, cusp_ring):
        br = singular_branch(ring)
        form = ring.monomial(ring.p, 0, ring.b) + ring.monomial(0, ring.q)
        assert br.kind == "binomial"
        assert br.evaluate(form) is None


def test_singular_branch_with_two_binomials():
    # f = y^4 - x^3 gives g = (x^3 + y^4)(y^4 - x^3), both binomial
    ring = HypersurfaceRing(QQ, p=3, q=4, b=QQ(1),
                            f="1*x^0*y^4-1*x^3*y^0", m=1, n=2)
    branches = factor_hypersurface(ring)
    assert len(branches) == 2
    br = singular_branch(ring)
    form = ring.monomial(3, 0) + ring.monomial(0, 4)
    assert br.evaluate(form) is None


def test_gamma_prime_lands_on_frobenius(cusp_ring):
    br = singular_branch(cusp_ring)
    frac = gamma_prime(br)
    coeff, exp = br.evaluate_q(frac)
    assert exp == br.frobenius
    assert cusp_ring.field(coeff) != 0


def test_form_split_failure_over_small_field():
    # fourth powers in F5 are {0, 1}, so x^4 + y^5 has no branch root
    F = PrimeField(5)
    with pytest.raises(FormSplitError):
        ring = HypersurfaceRing(F, p=4, q=5, b=F(1), f="1*x^0*y^0")
        factor_hypersurface(ring)


def test_repeated_factor_rejected():
    f = poly_from_string(QQ, 4, 3, "1*x^0*y^4+1*x^3*y^0")
    with pytest.raises(NotSquarefreeError):
        HypersurfaceRing(QQ, p=3, q=4, b=QQ(1), f=f)


# Per input check the library API reaches and no config does: the call,
# the error class and its message.
@pytest.mark.parametrize("call, error, message", [
    # a branch x -> t^2, y -> 0 has the semigroup <2>, which no ring gives
    (lambda ring: Branch(ring, "binomial", ring.y_poly(), QQ(1), 2, QQ(0), 0,
                         1),
     InputError, "unsupported semigroup generators (2,)"),
    # b = 0: g = y^4 is not squarefree, which the ring allows when b = 0
    (lambda ring: factor_hypersurface(HypersurfaceRing(QQ, 3, 4, 0,
                                                       "1*x^0*y^0")),
     NotSquarefreeError, "not squarefree"),
])
def test_branch_input_exits(cusp_ring, call, error, message):
    with pytest.raises(error) as exc:
        call(cusp_ring)
    assert (exc.type, str(exc.value)) == (error, message)


def test_branch_images_of_variables(cusp_ring):
    br = singular_branch(cusp_ring)
    cx, ex = br.evaluate(cusp_ring.x_poly())
    cy, ey = br.evaluate(cusp_ring.y_poly())
    assert (ex, ey) == (4, 3)
    # the parametrization satisfies b (c_x)^p + (c_y)^q = 0
    K = cusp_ring.field
    lhs = K(cusp_ring.b * cx ** 3 + cy ** 4)
    assert lhs == 0


def _largest_gap(gens):
    """Frobenius number by enumeration: the largest t below the product of
    the generators that no sum of generators reaches, or -1."""
    reached = {0}
    gaps = []
    for t in range(1, gens[0] * gens[-1] + 1):
        if any(t - g in reached for g in gens):
            reached.add(t)
        else:
            gaps.append(t)
    return max(gaps, default=-1)


def test_frobenius_closed_form_matches_enumeration():
    for p, q in [(3, 4), (3, 5), (3, 7), (4, 5), (4, 7), (5, 6), (5, 7),
                 (7, 3), (7, 6)]:
        b = 1 if p % 2 else -1
        ring = HypersurfaceRing(QQ, p, q, b, "1*x^0*y^1")
        branches = factor_hypersurface(ring)
        assert len(branches) == 2
        for br in branches:
            assert br.frobenius == _largest_gap(br.generators)
            assert br.conductor == br.frobenius + 1


def _in_semigroup(t, gens):
    """Is t a sum of generators?  By enumeration, as in _largest_gap."""
    reached = {0}
    for s in range(1, t + 1):
        if any(s - g in reached for g in gens):
            reached.add(s)
    return t in reached


def _assert_gamma_prime_at_the_largest_gap(br):
    # gamma_prime certifies nothing at run time: its image is a nonzero
    # multiple of t^F, F is a gap, and F plus any generator is not.
    coeff, exp = br.evaluate_q(gamma_prime(br))
    assert exp == br.frobenius and coeff
    assert not _in_semigroup(exp, br.generators)
    assert all(_in_semigroup(exp + g, br.generators) for g in br.generators)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(seed=st.integers(0, 10**6), field=st.sampled_from(["Q", "F101"]))
def test_gamma_prime_sits_at_the_largest_gap(seed, field):
    ring = random_ring(random.Random(seed), field_from_string(field))
    for br in factor_hypersurface(ring):
        _assert_gamma_prime_at_the_largest_gap(br)


def test_gamma_prime_on_the_y_axis_branch(two_branch_ring):
    br = next(b for b in factor_hypersurface(two_branch_ring)
              if b.kind == "y-axis")
    assert br.frobenius == -1
    _assert_gamma_prime_at_the_largest_gap(br)


@pytest.mark.parametrize("ell", [3, 5, 7, 13, 31, 37, 43, 109])
def test_pth_root_is_least_root_over_small_primes(ell):
    K = PrimeField(ell)
    for p in range(2, 9):
        for value in range(1, ell):
            roots = [c for c in range(ell) if pow(c, p, ell) == value]
            expected = roots[0] if roots else None
            assert _pth_root(K, K(value), p) == expected
