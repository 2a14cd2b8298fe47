"""The canonicaliser over Z against the same canonical form computed over Q."""

from fractions import Fraction
from functools import reduce

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from recsums.polyrat import (GCD_PRIME, Polynomial, RationalFunction,  # noqa: E402
                             _cleared, _euclid_z)
from references import canonical_form, euclid_gcd, poly_mul, rf_add  # noqa: E402

# one coefficient in eight is the prime of poly_gcd's fast path, whole or over
# a denominator, so that some cleared leading coefficients are multiples of it
coefficients = st.integers(0, 7).flatmap(
    lambda k: st.sampled_from([GCD_PRIME, -GCD_PRIME, Fraction(GCD_PRIME, 7)]) if k == 0
    else st.fractions(min_value=-40, max_value=40, max_denominator=9))


def polys(max_degree):
    return st.lists(coefficients, max_size=max_degree + 1).map(Polynomial)


@st.composite
def fractions_in_x(draw):
    """(num, den): random cofactors times planted common factors, repeated
    ones included; den may vanish at the origin and num may be zero."""
    num, den = draw(polys(4)), draw(polys(4).filter(bool))
    for _ in range(draw(st.integers(0, 2))):
        factor = draw(polys(2).filter(bool))
        shared = poly_mul(*[factor] * draw(st.integers(1, 3)))
        num, den = poly_mul(num, shared), poly_mul(den, shared)
    origin = Polynomial([0] * draw(st.integers(0, 2)) + [1])   # x^k
    return poly_mul(num, origin) if draw(st.booleans()) else num, poly_mul(den, origin)


X = Polynomial([0, 1])
ONE_MINUS_X = Polynomial([1, -1])
P_X = Polynomial([1, GCD_PRIME])


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(pair=fractions_in_x())
@example(pair=(Polynomial(), Polynomial([0, 0, 3])))                     # zero num
@example(pair=(poly_mul(Polynomial([2]), ONE_MINUS_X), poly_mul(X, X, ONE_MINUS_X)))  # den(0) = 0
@example(pair=(poly_mul(Polynomial([1, -3]), ONE_MINUS_X, ONE_MINUS_X),
               poly_mul(Polynomial([5, 0, -2]), ONE_MINUS_X, ONE_MINUS_X)))  # repeated
@example(pair=(poly_mul(Polynomial([1, 1]), P_X), poly_mul(Polynomial([2, 1]), P_X)))  # lc P
@example(pair=(Polynomial([1, Fraction(GCD_PRIME, 2)]),
               Polynomial([Fraction(-1, 3), 0, -GCD_PRIME])))            # cleared lcs 3P, -6P
def test_canonical_form_equals_the_reference_over_q(pair):
    num, den = pair
    f = RationalFunction(num, den)
    assert (f.num, f.den) == canonical_form(num, den)
    # the integer gcd is the reference gcd cleared: primitive, lc > 0
    u, v = _cleared(num.coeffs, den.coeffs)
    assert _euclid_z(u, v) == _cleared(euclid_gcd(num, den).coeffs)[0]


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(parts=st.lists(st.tuples(polys(3), polys(2).filter(bool)), max_size=4))
def test_sum_equals_the_fold_of_pairwise_addition(parts):
    folded = reduce(rf_add, (RationalFunction(n, d) for n, d in parts),
                    RationalFunction(Polynomial(), Polynomial([1])))
    assert RationalFunction.sum((n.coeffs, d.coeffs) for n, d in parts) == folded
