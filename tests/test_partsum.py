"""Tests for partial sums: direct, closed, general-b, and the Pell sum table."""

from fractions import Fraction

import pytest

from recsums import seq
from recsums.partsum import (HORADAM_VARIANTS, PartialSumQuery, corollary_r1,
                             horadam_direct, horadam_index, horadam_sums,
                             partial_sum_closed, partial_sum_direct,
                             partial_sum_general_b, partial_sum_printed)
from recsums.polyrat import EvalPoleError, Polynomial, RationalFunction
from recsums.qfield import RecurrenceSpec

FIB = RecurrenceSpec(1, 1, 0, 1)
PELL = RecurrenceSpec(2, 1, 0, 1)


def test_direct_examples():
    assert partial_sum_direct(PartialSumQuery(FIB, 5, 1, Fraction(1))) == 12
    assert partial_sum_direct(PartialSumQuery(FIB, 0, 2, Fraction(7))) == 0
    assert partial_sum_direct(PartialSumQuery(FIB, 3, 2, Fraction(1))) == 6


def test_direct_symbolic_polynomial():
    poly = partial_sum_direct(PartialSumQuery(FIB, 4, 1))
    assert poly == Polynomial([0, 1, 1, 2, 3])


def test_closed_symbolic_n1_normalizes_to_x():
    f = partial_sum_closed(PartialSumQuery(FIB, 1, 1))
    assert f == RationalFunction(Polynomial([0, 1]), Polynomial([1]))


def test_closed_pointwise_examples():
    assert partial_sum_closed(PartialSumQuery(FIB, 5, 1, Fraction(1))) == 12
    # Pell partial sum p_1 + ... + p_4 = 20
    assert partial_sum_closed(PartialSumQuery(PELL, 4, 1, Fraction(1))) == 20


@pytest.mark.parametrize("spec", (FIB, PELL))
@pytest.mark.parametrize("r", (1, 2, 3))
def test_closed_symbolic_equals_direct_polynomial(spec, r):
    for n in range(0, 21):
        direct = partial_sum_direct(PartialSumQuery(spec, n, r))
        closed = partial_sum_closed(PartialSumQuery(spec, n, r))
        assert closed == RationalFunction(direct, Polynomial([1]))


@pytest.mark.parametrize("spec", (FIB, PELL))
def test_printed_even_form_fails_but_odd_passes(spec):
    n = 4
    odd = partial_sum_printed(PartialSumQuery(spec, n, 3))
    assert odd == RationalFunction(
        partial_sum_direct(PartialSumQuery(spec, n, 3)), Polynomial([1])
    )
    even = partial_sum_printed(PartialSumQuery(spec, n, 2))
    assert even != RationalFunction(
        partial_sum_direct(PartialSumQuery(spec, n, 2)), Polynomial([1])
    )


def test_closed_requires_u0_zero():
    with pytest.raises(ValueError):
        partial_sum_closed(PartialSumQuery(RecurrenceSpec(1, 1, 2, 1), 3, 1,
                                           Fraction(1)))


def test_closed_routes_general_b_pointwise():
    spec = RecurrenceSpec(1, 2, 0, 1)
    q = PartialSumQuery(spec, 4, 1, Fraction(1))
    assert partial_sum_closed(q) == partial_sum_direct(q) == 10
    with pytest.raises(ValueError):
        partial_sum_closed(PartialSumQuery(spec, 4, 1))   # symbolic needs b=1


def test_closed_reports_denominator_zero():
    spec = RecurrenceSpec(0, 1, 0, 1)   # V_1 = 0, so 1 - x^2 vanishes at 1
    with pytest.raises(EvalPoleError):
        partial_sum_closed(PartialSumQuery(spec, 3, 1, Fraction(1)))


def test_general_b_examples():
    spec = RecurrenceSpec(1, 2, 0, 1)
    assert partial_sum_general_b(PartialSumQuery(spec, 4, 1, Fraction(1))) == 10
    assert partial_sum_general_b(PartialSumQuery(spec, 3, 2, Fraction(1))) == 11
    assert partial_sum_general_b(PartialSumQuery(spec, 9, 3, Fraction(0))) == 0


def test_general_b_singularity_is_removable():
    spec = RecurrenceSpec(0, 1, 0, 1)   # alpha = 1, so alpha^r x = 1 at x = 1
    q = PartialSumQuery(spec, 3, 1, Fraction(1))
    with pytest.raises(EvalPoleError):
        partial_sum_general_b(q, strict=True)
    assert partial_sum_general_b(q) == partial_sum_direct(q)


GENERAL_B_SPECS = (RecurrenceSpec(1, 2, 0, 1), RecurrenceSpec(1, -3, 0, 1))


@pytest.mark.parametrize("spec", GENERAL_B_SPECS)
@pytest.mark.parametrize("r", (1, 2, 3, 4))
def test_general_b_equals_direct_on_grid(spec, r):
    xs = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2))
    for n in range(0, 31):
        for x in xs:
            q = PartialSumQuery(spec, n, r, x)
            assert partial_sum_general_b(q) == partial_sum_direct(q)


def test_corollary_r1_printed_vs_shifted():
    for spec in (FIB, PELL):
        for n in range(0, 21):
            direct = RationalFunction(
                partial_sum_direct(PartialSumQuery(spec, n, 1)), Polynomial([1])
            )
            assert corollary_r1(spec, n, "shifted-exponent") == direct
            if n >= 1:
                assert corollary_r1(spec, n, "printed") != direct


def test_horadam_examples():
    # S_{4n-2} at n=1, (p,q)=(1,2): q_1 (p q_0 + q q_1) = 3 = P_1 + P_2
    assert horadam_sums(1, 2, "S4n-2", 1) == 3
    assert horadam_direct(1, 2, 2) == 3
    assert horadam_sums(1, 2, "S4n", 1) == horadam_direct(1, 2, 4) == 20
    # negative side: S_{-4n+1} at n=1 is P_{-1} + P_{-2} + P_{-3}
    assert horadam_sums(1, 2, "S-4n+1", 1) == horadam_direct(1, 2, -3) == 4


def test_horadam_table_printed_and_corrected():
    for p, q in ((1, 2), (1, 3), (2, 5)):
        for n in range(1, 26):
            for name in HORADAM_VARIANTS:
                direct = horadam_direct(p, q, horadam_index(name, n))
                printed = horadam_sums(p, q, name, n)
                if name == "S4n-1":
                    assert printed != direct
                    assert printed - direct == p - q
                    assert horadam_sums(p, q, name, n, corrected=True) == direct
                else:
                    assert printed == direct


@pytest.mark.parametrize("pq", ((1, 2), (2, 5), (Fraction(1, 3), Fraction(-5, 2))))
def test_horadam_direct_equals_summed_walk(pq):
    handle = seq.generalized_pell(*pq)
    for idx in range(0, 42):
        for sign in (1, -1):
            plain = sum((seq.term(handle, sign * i) for i in range(1, idx + 1)),
                        Fraction(0))
            assert horadam_direct(*pq, sign * idx) == plain


def test_horadam_rejects_bad_input():
    with pytest.raises(ValueError):
        horadam_sums(1, 2, "S4n", 0)
    with pytest.raises(ValueError):
        horadam_sums(1, 2, "S5n", 1)


def test_query_validation():
    with pytest.raises(ValueError):
        PartialSumQuery(FIB, -1, 1)
    with pytest.raises(ValueError):
        PartialSumQuery(FIB, 1, 0)
    with pytest.raises(ValueError):
        partial_sum_closed(PartialSumQuery(FIB, 33, 1))   # symbolic cap
