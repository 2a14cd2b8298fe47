"""Tests for power generating functions: construction, oracle, paired forms."""

from fractions import Fraction

import pytest

from recsums import seq
from recsums import gfpow
from recsums.gfpow import (SelfCheckError, display_r1, display_r2, display_r3,
                           gf_oracle, gf_power, paired_form)
from recsums.polyrat import Polynomial, RationalFunction
from recsums.qfield import RecurrenceSpec

FIB = RecurrenceSpec(1, 1, 0, 1)
PELL = RecurrenceSpec(2, 1, 0, 1)

GRID_SPECS = [
    RecurrenceSpec(a, b, 0, 1)
    for a, b in ((1, 1), (2, 1), (1, 2), (3, -2), (1, -3))
]
GRID_SPECS_SHIFTED = [
    RecurrenceSpec(a, b, 2, 1)
    for a, b in ((1, 1), (2, 1), (1, 2), (3, -2), (1, -3))
]


def test_first_power_is_the_defining_rational_function():
    assert gf_power(FIB, 1) == RationalFunction(
        Polynomial([0, 1]), Polynomial([1, -1, -1])
    )
    assert gf_power(RecurrenceSpec(1, 2, 0, 1), 1) == RationalFunction(
        Polynomial([0, 1]), Polynomial([1, -1, -2])
    )


def test_square_power_matches_product_form():
    expected = RationalFunction(
        Polynomial([0, 1]) * Polynomial([1, -1]),
        Polynomial([1, 1]) * Polynomial([1, -3, 1]),
    )
    assert gf_power(FIB, 2) == expected


def test_oracle_examples():
    assert gf_oracle(FIB, 2, 6) == (0, 1, 1, 4, 9, 25)
    assert gf_oracle(FIB, 3, 5) == (0, 1, 1, 8, 27)
    zero = RecurrenceSpec(1, 1, 0, 0)
    assert gf_oracle(zero, 2, 5) == (Fraction(0),) * 5


@pytest.mark.parametrize("spec", GRID_SPECS + GRID_SPECS_SHIFTED)
@pytest.mark.parametrize("r", range(1, 5))
def test_expansion_matches_oracle(spec, r):
    assert gf_power(spec, r).expand(32) == gf_oracle(spec, r, 32)


# root ratio a root of unity, so poles coincide and the Theorem 1
# denominator shares a factor with its numerator
ROOT_OF_UNITY_SPECS = [RecurrenceSpec(a, b, 0, 1)
                       for a, b in ((1, -1), (0, 2), (3, -3))]


@pytest.mark.parametrize("spec", ROOT_OF_UNITY_SPECS)
@pytest.mark.parametrize("r", range(1, 11))
def test_expansion_matches_oracle_when_poles_coincide(spec, r):
    assert gf_power(spec, r).expand(3 * r) == gf_oracle(spec, r, 3 * r)


def test_large_power_matches_oracle():
    r = 48
    f = gf_power(FIB, r)
    assert f.den.degree == r + 1
    assert f.expand(3 * r) == gf_oracle(FIB, r, 3 * r)


def _reference_gf_power(spec, r):
    """Theorem 1's denominator multiplied out over Q, times the series
    truncated below x^(r+1): the construction by Polynomial products."""
    b = spec.b
    v = [seq.term(seq.companion(spec), i) for i in range(r + 1)]
    den = Polynomial([1])
    for k in range((r + 1) // 2):
        den = den * Polynomial([1, -(-b) ** k * v[r - 2 * k], (-b) ** r])
    if r % 2 == 0:
        den = den * Polynomial([1, -((-b) ** (r // 2))])
    num = den * Polynomial(gf_oracle(spec, r, r + 1))
    return RationalFunction(Polynomial(num.coeffs[:r + 1]), den)


@pytest.mark.parametrize("spec", GRID_SPECS + GRID_SPECS_SHIFTED + ROOT_OF_UNITY_SPECS)
def test_pole_factors_give_the_polynomial_product(spec):
    for r in range(1, 15):
        assert gf_power(spec, r) == _reference_gf_power(spec, r)


@pytest.mark.parametrize("spec, r, reduced", (
    (FIB, 5, False),
    (RecurrenceSpec(2, -3, Fraction(1, 2), 1), 4, False),
    (RecurrenceSpec(1, -1, 0, 1), 6, True),
    (RecurrenceSpec(0, 2, 0, 1), 5, True),
))
def test_a_moved_coefficient_fails_the_series_check(monkeypatch, spec, r, reduced):
    f = gf_power(spec, r, 3 * r)
    assert (f.den.degree < r + 1) == reduced
    real = gfpow.RationalFunction
    for part in ("num", "den"):
        for j in range(len(getattr(f, part).coeffs)):
            def moved(num, den, part=part, j=j):
                g = real(num, den)
                coeffs = {"num": list(g.num.coeffs), "den": list(g.den.coeffs)}
                coeffs[part][j] += 1
                return real(Polynomial(coeffs["num"]), Polynomial(coeffs["den"]))

            monkeypatch.setattr(gfpow, "RationalFunction", moved)
            with pytest.raises(SelfCheckError, match="the reduced form changed"):
                gf_power(spec, r, 3 * r)


@pytest.mark.parametrize("spec, r", ((FIB, 3), (RecurrenceSpec(1, -1, 0, 1), 4)))
def test_a_term_past_the_built_series_fails_only_a_longer_check(
        monkeypatch, corrupt_store, spec, r):
    f = gf_power(spec, r)
    index = 2 * r + 5
    corrupt_store(monkeypatch, spec, index)
    assert gf_power(spec, r) == f
    assert gf_power(spec, r, index) == f
    with pytest.raises(SelfCheckError) as err:
        gf_power(spec, r, index + 1)
    assert f"r={r}" in str(err.value) and str(spec) in str(err.value)
    assert f"checked over {index + 1} terms" in str(err.value)
    assert f"nonzero at index {index}," in str(err.value)


@pytest.mark.parametrize("wrong", (
    lambda factors: [f for f in factors if f != (-3, 1)],   # a pole pair dropped
    lambda factors: factors + [(1, 0)],                     # degree r + 2
))
def test_wrong_denominator_fails_the_self_check(monkeypatch, wrong):
    right = gfpow._pole_factors
    assert right(FIB, 2) == [(-3, 1), (1, 0)]    # (1 - 3x + x^2)(1 + x)
    monkeypatch.setattr(gfpow, "_pole_factors",
                        lambda spec, r: wrong(right(spec, r)))
    with pytest.raises(SelfCheckError):
        gf_power(FIB, 2)


@pytest.mark.parametrize("spec", GRID_SPECS)
@pytest.mark.parametrize("r", range(1, 7))
def test_denominator_divides_the_pole_product(spec, r):
    from recsums.qfield import roots

    f = gf_power(spec, r)
    assert f.den.degree <= r + 1
    alpha, beta = roots(spec)
    # prod_k (1 - alpha^k beta^(r-k) x) as a coefficient list over Q(sqrt(D))
    product = [1]
    for k in range(r + 1):
        t = alpha**k * beta ** (r - k)
        product = [c - t * prev for c, prev in zip(product + [0], [0] + product)]
    # a QuadElem equals its rational part only when its sqrt(D) part is 0
    rational = [getattr(c, "rat", c) for c in product]
    assert product == rational
    assert Polynomial(rational) % f.den == Polynomial()


@pytest.mark.parametrize("spec", (FIB, PELL))
@pytest.mark.parametrize("r", range(1, 7))
def test_claimed_equals_ground_truth_for_b1(spec, r):
    assert paired_form(spec, r, "general") == gf_power(spec, r)


@pytest.mark.parametrize("spec", GRID_SPECS + GRID_SPECS_SHIFTED)
@pytest.mark.parametrize("r", range(1, 7))
def test_general_paired_form_is_exact_for_all_b(spec, r):
    assert paired_form(spec, r, "general") == gf_power(spec, r)


def test_printed_odd_denominator_only_holds_with_x_restored_b1():
    # restoring the missing x makes the printed odd form exact at b = 1 ...
    assert paired_form(FIB, 3, "b1") == gf_power(FIB, 3)
    # ... but the literal printed form (no x on the middle term) does not
    assert paired_form(FIB, 3, "printed") != gf_power(FIB, 3)
    # ... and the printed -x^2 is wrong once b != 1
    b2 = RecurrenceSpec(1, 2, 0, 1)
    assert paired_form(b2, 3, "b1") != gf_power(b2, 3)
    assert paired_form(b2, 3, "general") == gf_power(b2, 3)


def test_printed_even_form_is_a_b1_statement():
    assert paired_form(FIB, 2, "printed") == gf_power(FIB, 2)
    b2 = RecurrenceSpec(1, 2, 0, 1)
    assert paired_form(b2, 2, "printed") != gf_power(b2, 2)
    assert paired_form(b2, 2, "general") == gf_power(b2, 2)


def test_display_r1_carries_spurious_prefactor():
    assert display_r1(FIB, "printed") != gf_power(FIB, 1)
    assert display_r1(FIB, "unit-prefactor") == gf_power(FIB, 1)
    assert display_r1(PELL, "unit-prefactor") == gf_power(PELL, 1)


def test_display_r2_verbatim_at_b1():
    assert display_r2(FIB) == gf_power(FIB, 2)
    assert display_r2(PELL) == gf_power(PELL, 2)


def test_display_r3_printed_fails_even_for_fibonacci():
    assert display_r3(FIB, "printed") != gf_power(FIB, 3)
    assert display_r3(FIB, "proof-consistent") == gf_power(FIB, 3)
    assert display_r3(PELL, "proof-consistent") == gf_power(PELL, 3)


def test_display_r3_uses_the_printed_denominator_product():
    v_spec = seq.companion(FIB)
    v1, v3 = seq.term(v_spec, 1), seq.term(v_spec, 3)
    den = Polynomial([1, -v3, -1]) * Polynomial([1, v1, -1])
    f = display_r3(FIB, "proof-consistent")
    # canonical form keeps the full degree-4 denominator (no common factor)
    assert f.den == den
    assert gf_power(FIB, 3).den == den


def test_rejects_bad_power():
    with pytest.raises(ValueError):
        gf_power(FIB, 0)
    with pytest.raises(ValueError):
        gf_oracle(FIB, 1, 0)
