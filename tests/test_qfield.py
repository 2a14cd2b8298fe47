"""Tests for rational and quadratic-field arithmetic."""

import random
from fractions import Fraction

import pytest

from recsums import seq
from recsums.qfield import (DegenerateSpecError, QuadElem, RecurrenceSpec,
                            is_perfect_square, roots)
from references import binet_coeffs

FIB = RecurrenceSpec(1, 1, 0, 1)
PELL = RecurrenceSpec(2, 1, 0, 1)

SPEC_GRID = [
    FIB,
    PELL,
    RecurrenceSpec(1, 2, 0, 1),
    RecurrenceSpec(3, -2, 2, 1),      # square discriminant, rational roots
    RecurrenceSpec(1, -3, 0, 1),      # negative discriminant
    RecurrenceSpec(1, 1, 2, 1),
    RecurrenceSpec(2, 3, Fraction(1, 2), Fraction(1, 3)),
]


def test_roots_fibonacci():
    alpha, beta = roots(FIB)
    half = Fraction(1, 2)
    assert alpha == QuadElem(half, half, 5)
    assert beta == QuadElem(half, -half, 5)


def test_roots_pell_value():
    alpha, beta = roots(PELL)
    # 1 + sqrt(2), represented over disc 8 as 1 + (1/2) sqrt(8)
    assert alpha == QuadElem(1, Fraction(1, 2), 8)
    assert alpha + beta == 2
    assert alpha * beta == -1


@pytest.mark.parametrize("spec", SPEC_GRID)
def test_roots_satisfy_characteristic_polynomial(spec):
    for root in roots(spec):
        assert root * root - spec.a * root - spec.b == 0


def test_square_discriminant_gives_rational_roots():
    alpha, beta = roots(RecurrenceSpec(3, -2, 0, 1))
    assert isinstance(alpha, Fraction) and isinstance(beta, Fraction)
    assert (alpha, beta) == (2, 1)


def test_degenerate_specs_rejected():
    with pytest.raises(DegenerateSpecError):
        RecurrenceSpec(2, -1, 0, 1)   # a^2 + 4b = 0
    with pytest.raises(DegenerateSpecError):
        RecurrenceSpec(1, 0, 0, 1)


def test_binet_coeffs_fibonacci():
    a_coef, b_coef = binet_coeffs(FIB)
    # A = B = 1/sqrt(5) = (1/5) sqrt(5)
    assert a_coef == QuadElem(0, Fraction(1, 5), 5)
    assert a_coef == b_coef


def test_binet_coeffs_companion_initial_values():
    a_coef, b_coef = binet_coeffs(RecurrenceSpec(1, 1, 2, 1))
    assert a_coef == 1
    assert b_coef == -1   # V_n = alpha^n + beta^n


@pytest.mark.parametrize("spec", SPEC_GRID)
def test_u0_zero_forces_equal_coefficients(spec):
    if spec.u0 != 0:
        return
    alpha, beta = roots(spec)
    a_coef, b_coef = binet_coeffs(spec)
    assert a_coef == b_coef
    assert a_coef == spec.u1 / (alpha - beta)


def test_product_of_roots_is_minus_b():
    alpha, beta = roots(FIB)
    assert alpha * beta == -1


def test_invert_one_plus_sqrt2():
    x = QuadElem(1, 1, 2)
    assert x.invert() == QuadElem(-1, 1, 2)
    assert x * x.invert() == 1


def test_perfect_square_decisions():
    assert is_perfect_square(5) == (False, None)
    assert is_perfect_square(9) == (True, 3)
    assert is_perfect_square(8) == (False, None)
    assert is_perfect_square(0) == (True, 0)
    assert is_perfect_square(-4) == (False, None)


def test_invert_zero_raises():
    with pytest.raises(ZeroDivisionError):
        QuadElem(0, 0, 5).invert()


def test_disc_mismatch_raises():
    with pytest.raises(ValueError):
        QuadElem(1, 1, 5) + QuadElem(1, 1, 8)


def test_square_disc_quadelem_rejected():
    with pytest.raises(ValueError):
        QuadElem(1, 1, 9)


def test_scalar_equality_and_coercion():
    x = QuadElem(Fraction(3, 2), 0, 5)
    assert x == Fraction(3, 2)
    assert x + Fraction(1, 2) == 2
    assert 2 * QuadElem(1, 1, 5) == QuadElem(2, 2, 5)
    assert QuadElem(1, 1, 5) != Fraction(1)


def _random_elem(rng, disc):
    return QuadElem(
        Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
        Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
        disc,
    )


def test_field_axioms_on_random_sample():
    rng = random.Random(20240817)
    for disc in (5, 8, -11, 13):
        for _ in range(40):
            x, y, z = (_random_elem(rng, disc) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            if x:
                assert x * x.invert() == 1


def test_powers_match_repeated_multiplication():
    alpha, _ = roots(FIB)
    acc = QuadElem(1, 0, 5)
    for k in range(12):
        assert alpha**k == acc
        acc = acc * alpha
    assert alpha**-2 == (alpha**2).invert()


@pytest.mark.parametrize("spec", SPEC_GRID)
def test_binet_matches_recurrence(spec):
    alpha, beta = roots(spec)
    a_coef, b_coef = binet_coeffs(spec)
    values = seq.terms(spec, 65)
    for n in range(65):
        assert a_coef * alpha**n - b_coef * beta**n == values[n]
