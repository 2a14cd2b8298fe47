"""Tests for binomial-weighted sums, collapses, corollaries, and congruences."""

from fractions import Fraction
from math import comb

import pytest

from recsums import seq
from recsums.audit import run_audit
from recsums.binsum import (binom_sum_closed, binom_sum_direct,
                            congruence_exponents, congruence_lhs,
                            corollary_lhs, corollary_rhs, divisible_by_5_pow,
                            fib_weighted_closed, padic_valuation,
                            root_power_collapse)
from recsums.qfield import QuadElem, RecurrenceSpec, roots

FIB = RecurrenceSpec(1, 1, 0, 1)
PELL = RecurrenceSpec(2, 1, 0, 1)


def test_direct_examples():
    assert binom_sum_direct(FIB, 1, 4, 1) == 21          # = F_8
    assert binom_sum_direct(FIB, 2, 2, 1) == 3           # = 5^0 L_2
    assert binom_sum_direct(FIB, 3, 0, 5) == 0
    assert binom_sum_direct(RecurrenceSpec(1, 1, 2, 1), 3, 0, 9) == 8


def test_closed_examples():
    assert binom_sum_closed(FIB, 4, 2, -1) == -1
    assert binom_sum_closed(FIB, 3, 2, 1) == 3
    assert binom_sum_closed(FIB, 3, 2, 1) == Fraction(4 * 3 + 3 * 1, 5)
    spec = RecurrenceSpec(1, 2, 0, 1)
    assert binom_sum_closed(spec, 2, 3, 1) == binom_sum_direct(spec, 2, 3, 1)


GRID_SPECS = (FIB, PELL, RecurrenceSpec(1, 2, 0, 1), RecurrenceSpec(3, -2, 2, 1))


@pytest.mark.parametrize("spec", GRID_SPECS)
@pytest.mark.parametrize("r", (1, 2, 3))
def test_closed_equals_direct_small_grid(spec, r):
    for n in range(0, 13):
        for x in (Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2)):
            assert binom_sum_closed(spec, r, n, x) == binom_sum_direct(spec, r, n, x)


@pytest.mark.parametrize("spec", (
    RecurrenceSpec(1, 1, Fraction(1, 2), Fraction(1, 3)),
    RecurrenceSpec(3, -2, Fraction(-2, 5), Fraction(7, 4)),
    RecurrenceSpec(0, -3, 1, Fraction(-1, 6)),
))
def test_direct_equals_fraction_sum_over_walked_terms(spec):
    for x in (Fraction(2, 3), Fraction(-5, 4), Fraction(0), Fraction(3)):
        for r in (1, 2, 3):
            for n in (0, 1, 7, 30):
                plain = sum((comb(n, i) * seq.term(spec, i) ** r * x**i
                             for i in range(n + 1)), Fraction(0))
                assert binom_sum_direct(spec, r, n, x) == plain


def test_root_power_collapse_examples():
    alpha, _ = roots(FIB)
    ok, value = root_power_collapse(1, 1)
    assert ok
    assert value == alpha * alpha - 1 == alpha          # alpha^2 = alpha + 1
    ok, value = root_power_collapse(2, 1)
    assert ok
    assert value == alpha**4 + 1 == 3 * alpha**2        # L_2 alpha^2
    ok, value = root_power_collapse(3, -1)
    assert ok
    sqrt5 = QuadElem(0, 1, 5)
    assert value == alpha**6 + 1 == sqrt5 * alpha**3 * 2   # sqrt5 alpha^3 F_3


def test_root_power_collapse_full_range():
    for s in range(0, 65):
        for sign in (1, -1):
            ok, _ = root_power_collapse(s, sign)
            assert ok


def test_weighted_families_match_direct():
    for family, rs, n_lo, step in (
        ("thm6-4r", (1, 2, 3), 1, 1),
        ("thm6-4r2-odd", (0, 1, 2, 3), 1, 2),
        ("thm6-4r2-even", (0, 1, 2, 3), 2, 2),
        ("thm9-4r2", (0, 1, 2, 3), 1, 1),
    ):
        for r in rs:
            for n in range(n_lo, 51, step):
                assert fib_weighted_closed(family, r, n) == \
                    corollary_lhs(family, n, r)


def test_weighted_t9_4r_printed_vs_half_subscript():
    # the printed doubled subscript disagrees with the direct sum
    lhs = corollary_lhs("thm9-4r-even", 2, 1)
    assert lhs == -1
    assert fib_weighted_closed("thm9-4r-even", 1, 2, "printed") == Fraction(19, 5)
    assert fib_weighted_closed("thm9-4r-even", 1, 2, "half-subscript") == -1
    for family, n_lo in (("thm9-4r-even", 2), ("thm9-4r-odd", 1)):
        for r in (1, 2):
            for n in range(n_lo, 14, 2):
                lhs = corollary_lhs(family, n, r)
                assert fib_weighted_closed(family, r, n, "half-subscript") == lhs
                assert fib_weighted_closed(family, r, n, "printed") != lhs


def test_weighted_family_parity_enforced():
    with pytest.raises(ValueError):
        fib_weighted_closed("thm6-4r2-odd", 1, 2)
    with pytest.raises(ValueError):
        fib_weighted_closed("thm9-4r-even", 1, 3)
    with pytest.raises(ValueError):
        fib_weighted_closed("thm7-unknown", 1, 1)


def test_corollary_examples():
    lhs, rhs = corollary_lhs("cor7-1", 4), corollary_rhs("cor7-1", 4)
    assert (lhs, rhs, lhs == rhs) == (21, 21, True)
    lhs, rhs = corollary_lhs("cor10-3", 2), corollary_rhs("cor10-3", 2)
    assert lhs == -1 and rhs == -1 and lhs == rhs
    lhs, rhs = corollary_lhs("cor10-4", 2), corollary_rhs("cor10-4", 2)
    assert lhs == -1 and rhs == Fraction(4, 5) and lhs != rhs
    assert corollary_lhs("cor10-4", 2) == corollary_rhs("cor10-4", 2, "times-4")


def test_corollary_small_sweeps():
    for n in range(0, 40):
        for family in ("cor7-1", "cor7-4", "cor7-5", "cor10-1", "cor10-2", "cor10-3"):
            assert corollary_lhs(family, n) == corollary_rhs(family, n)
    for n in range(2, 40, 2):
        assert corollary_lhs("cor7-2", n) == corollary_rhs("cor7-2", n)
        lhs = corollary_lhs("cor10-4", n)
        assert lhs == corollary_rhs("cor10-4", n, "times-4")
        assert lhs != corollary_rhs("cor10-4", n, "printed")
    for n in range(1, 40, 2):
        assert corollary_lhs("cor7-3", n) == corollary_rhs("cor7-3", n)
        assert corollary_lhs("cor10-5", n) == corollary_rhs("cor10-5", n)


def test_cor7_2_fails_at_index_zero():
    # direct sum at upper index 0 is F_0^2 = 0 but the closed form gives 2/5
    assert binom_sum_direct(FIB, 2, 0, 1) == 0
    with pytest.raises(ValueError):
        corollary_rhs("cor7-2", 0)


def test_padic_valuation():
    assert padic_valuation(70) == 1
    assert padic_valuation(75) == 2
    assert padic_valuation(-125) == 3
    assert padic_valuation(12) == 0
    assert padic_valuation(0) is None
    assert divisible_by_5_pow(0, 99)
    assert divisible_by_5_pow(7, 0)
    assert divisible_by_5_pow(7, -3)
    assert not divisible_by_5_pow(7, 1)


def test_congruence_examples():
    assert congruence_lhs("cor8-i", 3) == 70
    assert divisible_by_5_pow(70, 1)
    assert congruence_lhs("cor8-ii", 2) == 75
    assert divisible_by_5_pow(75, 2)
    cell = next(c for c in run_audit(["cor8-iii"]) if c.params == {"r": 0, "n": 1})
    assert cell.witness["lhs"] == "1"
    assert cell.witness["printed_exponent"] == "2"
    assert cell.witness["implied_exponent"] == "0"
    # printed exponent fails, the implied one holds
    assert (cell.verdict, cell.variant) == ("variant-pass", "implied-exponent")


def test_congruence_sweeps():
    for n in range(0, 120):
        assert divisible_by_5_pow(congruence_lhs("cor8-i", n), 1)
        assert divisible_by_5_pow(congruence_lhs("cor8-ii", n), 2)
        assert divisible_by_5_pow(congruence_lhs("cor11-i", n), 1)
        assert divisible_by_5_pow(congruence_lhs("cor11-ii", n), 1)
    for r in (1, 2, 3):
        for n in range(0, 40):
            assert divisible_by_5_pow(congruence_lhs("cor8-v", n, r), 2 * r)


def test_congruence_implied_exponent_holds_in_stated_ranges():
    for r in range(0, 4):
        for n in range(1, 8 * r + 4, 2):
            exps = congruence_exponents("cor8-iii", n, r)
            assert divisible_by_5_pow(congruence_lhs("cor8-iii", n, r),
                                      exps["implied"])
        for n in range(2, 8 * r + 3, 2):
            exps = congruence_exponents("cor8-iv", n, r)
            assert divisible_by_5_pow(congruence_lhs("cor8-iv", n, r),
                                      exps["implied"])


def test_valuation_of_even_index_square_sums_is_exact():
    # sum C(2n,i) F_i^2 = 5^{n-1} L_{2n} with L_{2n} never divisible by 5
    for n in range(1, 61):
        value = binom_sum_direct(FIB, 2, 2 * n, 1)
        assert value.denominator == 1
        assert padic_valuation(value.numerator) == n - 1


def test_each_congruence_integer_is_its_identity_scaled_by_five():
    # a congruence divides the printed numerator of the identity it is read
    # off; times that identity's power of 5 it is the direct sum
    for n in range(1, 14):
        for cong, source, den in (("cor8-i", "cor7-4", 5), ("cor8-ii", "cor7-5", 25),
                                  ("cor11-i", "cor10-2", 5),
                                  ("cor11-ii", "cor10-3", 5)):
            assert Fraction(congruence_lhs(cong, n), den) == corollary_lhs(source, n)
        for r in (1, 2):
            assert Fraction(congruence_lhs("cor8-v", n, r), 5 ** (2 * r)) == \
                corollary_lhs("thm6-4r", n, r)
        cong, source = (("cor8-iii", "thm6-4r2-odd") if n % 2
                        else ("cor8-iv", "thm6-4r2-even"))
        for r in (0, 1, 2):
            five = Fraction(5) ** ((n + 1) // 2 - (2 * r + 1))
            assert five * congruence_lhs(cong, n, r) == corollary_lhs(source, n, r)
