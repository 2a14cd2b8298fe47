"""Tests for rational and quadratic-field arithmetic."""

import copy
import math
import pickle
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


@pytest.mark.parametrize("field", ("a", "b", "u0", "u1"))
def test_a_float_parameter_is_refused(field):
    params = {"a": 1, "b": 1, "u0": 0, "u1": 1}
    params[field] = {"a": 1.5, "b": 1.0, "u0": 0.1, "u1": 1.0}[field]
    with pytest.raises(TypeError, match=f"^{field}="):
        RecurrenceSpec(**params)


@pytest.mark.parametrize("field", ("a", "b"))
def test_text_is_read_for_the_initial_values_only(field):
    # "1/2" is a rational u0 or u1; a and b are never parsed from text
    params = {"a": 1, "b": 1, "u0": 0, "u1": 1, field: "1"}
    with pytest.raises(TypeError, match=f"^{field}='1' is not an int or a Fraction"):
        RecurrenceSpec(**params)


def test_degenerate_specs_rejected():
    with pytest.raises(DegenerateSpecError):
        RecurrenceSpec(2, -1, 0, 1)   # a^2 + 4b = 0
    with pytest.raises(DegenerateSpecError):
        RecurrenceSpec(1, 0, 0, 1)


def test_equal_specs_hash_equal_whatever_their_input_types():
    specs = [RecurrenceSpec(2, -3, Fraction(1, 2), 1),
             RecurrenceSpec(2, -3, "1/2", "1"),
             RecurrenceSpec(Fraction(2), Fraction(-3), "0.5", Fraction(3, 3))]
    for spec in specs:
        assert spec == specs[0]
        assert hash(spec) == hash(specs[0]) == hash((2, -3, Fraction(1, 2), Fraction(1)))
        assert seq.store(spec) is seq.store(specs[0])
    assert repr(specs[1]) == "RecurrenceSpec(a=2, b=-3, u0=Fraction(1, 2), u1=Fraction(1, 1))"
    assert RecurrenceSpec(2, -3, "1/2", 2) != specs[0]


def test_a_spec_is_a_frozen_value_that_copies_and_pickles():
    spec = RecurrenceSpec(2, -3, Fraction(1, 2), 1)
    clones = [copy.copy(spec), copy.deepcopy(spec)]
    clones += [pickle.loads(pickle.dumps(spec, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in clones:
        assert type(clone) is RecurrenceSpec and clone == spec
        assert hash(clone) == hash(spec) and repr(clone) == repr(spec)
    for name in ("a", "b", "u0", "u1", "_hash", "other"):
        with pytest.raises(AttributeError):
            setattr(spec, name, 1)
        with pytest.raises(AttributeError):
            delattr(spec, name)
    assert (spec.a, spec.b, spec.u0, spec.u1) == (2, -3, Fraction(1, 2), 1)
    assert hash(spec) == hash((2, -3, Fraction(1, 2), Fraction(1)))
    # equal only to a spec, never to the tuple of its parameters
    assert RecurrenceSpec(1, 1, 0, 1) != (1, 1, 0, 1)
    assert RecurrenceSpec(1, 1, 0, 1).__eq__((1, 1, 0, 1)) is NotImplemented


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


def test_results_equal_the_checked_construction():
    # results skip QuadElem's checks; each must be the element the public
    # constructor builds from the same parts, with Fraction parts
    rng = random.Random(24)
    for disc in (5, 8, -3, -11):
        for _ in range(30):
            x, y = _random_elem(rng, disc), _random_elem(rng, disc)
            (p, q), (r, s) = (x.rat, x.coef), (y.rat, y.coef)
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            cases = [
                (x + y, (p + r, q + s)), (x - y, (p - r, q - s)), (-x, (-p, -q)),
                (x * y, (p * r + q * s * disc, p * s + q * r)),
                (x * x * x, (p**3 + 3 * p * q * q * disc, 3 * p * p * q + q**3 * disc)),
                (x**3, (p**3 + 3 * p * q * q * disc, 3 * p * p * q + q**3 * disc)),
                (x**0, (1, 0)), (x + 2, (p + 2, q)), (c * x, (c * p, c * q)),
                (c - x, (c - p, -q)),
            ]
            if x:
                norm = p * p - q * q * disc
                cases.append((x.invert(), (p / norm, -q / norm)))
            for result, (rat, coef) in cases:
                checked = QuadElem(rat, coef, disc)
                assert type(result.rat) is Fraction and type(result.coef) is Fraction
                assert ((result.rat, result.coef, result.disc)
                        == (checked.rat, checked.coef, checked.disc))
                # one reduced triple (p + q*sqrt(D))/e per element
                p_, q_, e_ = result._pqe
                assert math.gcd(p_, q_, e_) == 1 and e_ > 0
                assert result._pqe == checked._pqe
                assert p_ * Fraction(1, e_) == rat and q_ * Fraction(1, e_) == coef
    for disc in (4, 0):
        with pytest.raises(ValueError):
            QuadElem(1, 1, disc)


def test_powers_match_repeated_multiplication():
    rng = random.Random(200)
    for disc in (5, 8, -3, -11):
        bases = [QuadElem(Fraction(1, 2), Fraction(1, 2), disc),
                 QuadElem(0, 1, disc), QuadElem(Fraction(-3, 4), Fraction(2, 9), disc),
                 _random_elem(rng, disc)]
        for x in filter(None, bases):
            inverse = x.invert()
            acc, inv_acc = QuadElem(1, 0, disc), QuadElem(1, 0, disc)
            for k in range(201):
                assert x**k == acc and (x**k)._pqe == acc._pqe
                assert x**-k == inv_acc and (x**-k)._pqe == inv_acc._pqe
                acc, inv_acc = acc * x, inv_acc * inverse
            assert x**-2 == (x**2).invert() == 1 / x**2
        with pytest.raises(ZeroDivisionError):
            QuadElem(0, 0, disc) ** -1


def test_golden_powers_are_lucas_and_fibonacci_halves():
    alpha, _ = roots(FIB)
    fib, luc = seq.terms(FIB, 201), seq.terms(seq.companion(FIB), 201)
    for k in range(201):
        assert alpha**k == QuadElem(luc[k] / 2, fib[k] / 2, 5)
        assert (alpha**k)._pqe[2] == (1 if k % 3 == 0 else 2)
    # far past the grid: each squaring is reduced, so its gcd stays small
    k = 10**5 + 1
    assert (alpha**k)._pqe == (seq.term_fast(seq.companion(FIB), k),
                               seq.term_fast(FIB, k), 2)


def test_str_and_repr_are_pinned():
    alpha, beta = roots(FIB)
    cases = [
        (alpha, "1/2 + 1/2*sqrt(5)", "QuadElem(Fraction(1, 2), Fraction(1, 2), 5)"),
        (alpha**10, "123/2 + 55/2*sqrt(5)",
         "QuadElem(Fraction(123, 2), Fraction(55, 2), 5)"),
        (beta**6, "9 + -4*sqrt(5)", "QuadElem(Fraction(9, 1), Fraction(-4, 1), 5)"),
        (QuadElem(3, 0, -3), "3 + 0*sqrt(-3)",
         "QuadElem(Fraction(3, 1), Fraction(0, 1), -3)"),
        (QuadElem(Fraction(2, 6), Fraction(-5, 10), 8), "1/3 + -1/2*sqrt(8)",
         "QuadElem(Fraction(1, 3), Fraction(-1, 2), 8)"),
    ]
    for value, text, rep in cases:
        assert (str(value), repr(value)) == (text, rep)


def test_quadelem_is_read_only_and_unhashable():
    x = QuadElem(Fraction(1, 2), Fraction(1, 3), 5)
    for name in ("rat", "coef", "disc", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    for name in ("rat", "coef", "disc"):
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert (x.rat, x.coef, x.disc) == (Fraction(1, 2), Fraction(1, 3), 5)
    with pytest.raises(TypeError):
        hash(x)
    for clone in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert clone == x and clone._pqe == x._pqe == (3, 2, 6)


def test_eq_across_discriminants_only_for_rationals():
    assert QuadElem(Fraction(3, 2), 0, 5) == QuadElem(Fraction(3, 2), 0, -3)
    assert QuadElem(1, 1, 5) != QuadElem(1, 1, 8)
    assert QuadElem(1, 0, 5) == 1 and 1 == QuadElem(1, 0, 5)
    assert QuadElem(1, 0, 5) != 1.0   # a float is no exact value


@pytest.mark.parametrize("spec", SPEC_GRID)
def test_binet_matches_recurrence(spec):
    alpha, beta = roots(spec)
    a_coef, b_coef = binet_coeffs(spec)
    values = seq.terms(spec, 65)
    for n in range(65):
        assert a_coef * alpha**n - b_coef * beta**n == values[n]
