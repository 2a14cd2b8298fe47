"""Tests for binomial-weighted sums, collapses, corollaries, and congruences."""

from fractions import Fraction
from math import comb

import pytest

from recsums import seq
from recsums.audit import REGISTRY, run_audit
from recsums.binsum import (FIB_SUMS, binom_sum_closed, binom_sum_direct,
                            congruence_exponents, congruence_lhs,
                            corollary_lhs, corollary_rhs,
                            fib_weighted_closed, padic_valuation,
                            root_power_collapse)
from recsums.qfield import QuadElem, RecurrenceSpec, roots

FIB = RecurrenceSpec(1, 1, 0, 1)


def _valuation_at_least(value: int, e: int) -> bool:
    """5^e divides value: its valuation is infinite (value 0) or at least e."""
    v = padic_valuation(value)
    return v is None or v >= e


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


def test_weighted_families_match_direct():
    for family, rs, n_lo, step in (
        ("thm6-4r", (1, 2, 3), 1, 1),
        ("thm6-4r2-odd", (0, 1, 2, 3), 1, 2),
        ("thm6-4r2-even", (0, 1, 2, 3), 2, 2),
        ("thm9-4r2", (0, 1, 2, 3), 1, 1),
    ):
        for r in rs:
            ns = range(n_lo, 51, step)
            assert [fib_weighted_closed(family, r, n) for n in ns] == \
                corollary_lhs(family, ns, r)


def test_weighted_t9_4r_printed_vs_half_subscript():
    # the printed doubled subscript disagrees with the direct sum
    assert corollary_lhs("thm9-4r-even", [2], 1) == [-1]
    assert fib_weighted_closed("thm9-4r-even", 1, 2, "printed") == Fraction(19, 5)
    assert fib_weighted_closed("thm9-4r-even", 1, 2, "half-subscript") == -1
    for family, n_lo in (("thm9-4r-even", 2), ("thm9-4r-odd", 1)):
        for r in (1, 2):
            ns = range(n_lo, 14, 2)
            for n, lhs in zip(ns, corollary_lhs(family, ns, r)):
                assert fib_weighted_closed(family, r, n, "half-subscript") == lhs
                assert fib_weighted_closed(family, r, n, "printed") != lhs


def test_weighted_family_parity_enforced():
    with pytest.raises(ValueError):
        fib_weighted_closed("thm6-4r2-odd", 1, 2)
    with pytest.raises(ValueError):
        fib_weighted_closed("thm9-4r-even", 1, 3)
    with pytest.raises(ValueError):
        fib_weighted_closed("thm7-unknown", 1, 1)
    # a displayed identity is no family, nor a family a displayed identity
    with pytest.raises(ValueError, match="unknown family"):
        fib_weighted_closed("cor7-1", 1, 1)
    with pytest.raises(ValueError, match="unknown identity"):
        corollary_rhs("thm6-4r", 1)
    # a variant id is one its claim carries, not read as "not printed"
    with pytest.raises(ValueError, match="unknown variant 'times-4' of thm9-4r-even"):
        fib_weighted_closed("thm9-4r-even", 1, 2, "times-4")
    with pytest.raises(ValueError, match="unknown variant 'half-subscript' of cor10-4"):
        corollary_rhs("cor10-4", 2, "half-subscript")


@pytest.mark.parametrize("family", ("thm6-4r", "thm6-4r2-even", "thm9-4r-even",
                                    "thm9-4r2"))
def test_weighted_families_refuse_n_0_which_they_do_not_state(family):
    # the sum is 0 at n = 0, where the printed thm6-4r2-even gave 4/25 and
    # thm9-4r-even -6/25 at r = 1; each family is printed for n >= 1 or 2
    assert corollary_lhs(family, [0], 1) == [0]
    with pytest.raises(ValueError, match=f"{family} is stated for .*n >= [12]"):
        fib_weighted_closed(family, 1, 0)


@pytest.mark.parametrize("family, r, n", (("thm9-4r-odd", 0, 1), ("thm9-4r-even", 0, 2),
                                          ("thm6-4r", 0, 2), ("thm6-4r2-odd", -1, 1)))
def test_weighted_families_refuse_an_r_with_no_power_to_sum(family, r, n):
    # F_i^(p r + q) with p r + q < 1 is no sum the families state, and the
    # oracle refuses it too; the printed forms gave 0, 0, 4 and 0
    with pytest.raises(ValueError, match="need r >= 1"):
        corollary_lhs(family, [n], r)
    with pytest.raises(ValueError, match=f"{family} at r = {r} sums F_i"):
        fib_weighted_closed(family, r, n)


def test_each_fibonacci_sum_is_served_exactly_on_its_stated_n():
    # every cell of the grid at --max-n 60 is served by its printed form; the
    # n just below each row and an n of the wrong parity are refused
    assert len(FIB_SUMS) == 16
    for cid, (_, _, _, parity, first, _) in FIB_SUMS.items():
        stride = 1 if parity is None else 2
        for row in REGISTRY[cid].rows(60):
            r, ns = row[0].get("r"), [cell["n"] for cell in row]
            def form(n, cid=cid, r=r):
                if r is None:
                    return corollary_rhs(cid, n)
                return fib_weighted_closed(cid, r, n)
            assert ns == list(range(first, ns[-1] + 1, stride)) and ns[-1] >= 59
            for n in ns:
                form(n)
            for n in (first - stride, first + 1) if parity is not None else (first - 1,):
                with pytest.raises(ValueError, match=f"{cid} is stated for"):
                    form(n)


def test_corollary_examples():
    [lhs], rhs = corollary_lhs("cor7-1", [4]), corollary_rhs("cor7-1", 4)
    assert (lhs, rhs, lhs == rhs) == (21, 21, True)
    [lhs], rhs = corollary_lhs("cor10-3", [2]), corollary_rhs("cor10-3", 2)
    assert lhs == -1 and rhs == -1 and lhs == rhs
    [lhs], rhs = corollary_lhs("cor10-4", [2]), corollary_rhs("cor10-4", 2)
    assert lhs == -1 and rhs == Fraction(4, 5) and lhs != rhs
    assert corollary_lhs("cor10-4", [2]) == [corollary_rhs("cor10-4", 2, "times-4")]


def test_corollary_small_sweeps():
    every, even, odd = range(0, 40), range(2, 40, 2), range(1, 40, 2)
    for family in ("cor7-1", "cor7-4", "cor7-5", "cor10-1", "cor10-2", "cor10-3"):
        assert corollary_lhs(family, every) == [corollary_rhs(family, n) for n in every]
    assert corollary_lhs("cor7-2", even) == [corollary_rhs("cor7-2", n) for n in even]
    for n, lhs in zip(even, corollary_lhs("cor10-4", even)):
        assert lhs == corollary_rhs("cor10-4", n, "times-4")
        assert lhs != corollary_rhs("cor10-4", n, "printed")
    for family in ("cor7-3", "cor10-5"):
        assert corollary_lhs(family, odd) == [corollary_rhs(family, n) for n in odd]


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
    assert _valuation_at_least(0, 99)
    assert padic_valuation(7) == 0
    assert _valuation_at_least(7, 0)
    assert _valuation_at_least(7, -3)
    assert not _valuation_at_least(7, 1)


def test_congruence_examples():
    assert congruence_lhs("cor8-i", 3) == 70
    assert padic_valuation(70) == 1
    assert congruence_lhs("cor8-ii", 2) == 75
    assert padic_valuation(75) == 2
    cell = next(c for c in run_audit(["cor8-iii"]) if c.params == {"r": 0, "n": 1})
    assert cell.witness["lhs"] == "1"
    assert cell.witness["printed_exponent"] == "2"
    assert cell.witness["implied_exponent"] == "0"
    # printed exponent fails, the implied one holds
    assert (cell.verdict, cell.variant) == ("variant-pass", "implied-exponent")


def test_congruence_implied_exponent_holds_in_stated_ranges():
    for r in range(0, 4):
        for n in range(1, 8 * r + 4, 2):
            exps = congruence_exponents("cor8-iii", n, r)
            assert _valuation_at_least(congruence_lhs("cor8-iii", n, r),
                                      exps["implied"])
        for n in range(2, 8 * r + 3, 2):
            exps = congruence_exponents("cor8-iv", n, r)
            assert _valuation_at_least(congruence_lhs("cor8-iv", n, r),
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
            assert [Fraction(congruence_lhs(cong, n), den)] == corollary_lhs(source, [n])
        for r in (1, 2):
            assert [Fraction(congruence_lhs("cor8-v", n, r), 5 ** (2 * r))] == \
                corollary_lhs("thm6-4r", [n], r)
        cong, source = (("cor8-iii", "thm6-4r2-odd") if n % 2
                        else ("cor8-iv", "thm6-4r2-even"))
        for r in (0, 1, 2):
            five = Fraction(5) ** ((n + 1) // 2 - (2 * r + 1))
            assert [five * congruence_lhs(cong, n, r)] == corollary_lhs(source, [n], r)
