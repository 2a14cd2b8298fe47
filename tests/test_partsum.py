"""Tests for partial sums: direct, closed, general-b, and the Pell sum table."""

import inspect
from fractions import Fraction
from math import comb

import pytest

from recsums import partsum, seq
from recsums.audit import B1_SPECS
from recsums.partsum import (HORADAM_VARIANTS, corollary_r1, horadam_direct,
                             horadam_index, horadam_sums,
                             partial_sum_closed, partial_sum_direct,
                             partial_sum_general_b, partial_sum_printed)
from recsums.polyrat import Polynomial, RationalFunction
from recsums.qfield import RecurrenceSpec
from references import (corollary_r1_shifted, monomial, poly_add, poly_scale,
                        rf_add)

FIB = RecurrenceSpec(1, 1, 0, 1)
PELL = RecurrenceSpec(2, 1, 0, 1)


def test_direct_examples():
    assert partial_sum_direct(FIB, 1, 5, Fraction(1)) == 12
    assert partial_sum_direct(FIB, 2, 0, Fraction(7)) == 0
    assert partial_sum_direct(FIB, 2, 3, Fraction(1)) == 6
    # power before upper index: the swapped call (FIB, 5, 2, 1) gives 2
    assert partial_sum_direct(FIB, 2, 5, 1) == 40


def test_direct_symbolic_polynomial():
    poly = partial_sum_direct(FIB, 1, 4)
    assert poly == Polynomial([0, 1, 1, 2, 3])


def test_closed_symbolic_n1_normalizes_to_x():
    f = partial_sum_closed(FIB, 1, 1)
    assert f == RationalFunction(Polynomial([0, 1]), Polynomial([1]))


def test_closed_pointwise_examples():
    assert partial_sum_closed(FIB, 1, 5, Fraction(1)) == 12
    # Pell partial sum p_1 + ... + p_4 = 20
    assert partial_sum_closed(PELL, 1, 4, Fraction(1)) == 20


# b = 1, then general b: square D, negative D, and a = 0 with |b| = 1
@pytest.mark.parametrize("spec", (FIB, PELL, RecurrenceSpec(1, 2, 0, 1),
                                  RecurrenceSpec(1, -3, 0, 1),
                                  RecurrenceSpec(0, -1, 0, 1)))
@pytest.mark.parametrize("r", (1, 2, 3))
def test_closed_symbolic_equals_direct_polynomial(spec, r):
    for n in range(0, 21):
        direct = partial_sum_direct(spec, r, n)
        closed = partial_sum_closed(spec, r, n)
        assert closed == RationalFunction(direct, Polynomial([1]))


@pytest.mark.parametrize("spec", (FIB, PELL))
def test_printed_even_form_fails_but_odd_passes(spec):
    n = 4
    odd = partial_sum_printed(spec, 3, n)
    assert odd == RationalFunction(partial_sum_direct(spec, 3, n), Polynomial([1]))
    even = partial_sum_printed(spec, 2, n)
    assert even != RationalFunction(partial_sum_direct(spec, 2, n), Polynomial([1]))


def test_closed_serves_every_initial_value():
    # u0 != 0: Lucas, a rational u0, complex roots, the root-of-unity ratio
    # (1, -1), and a = 0
    for spec in (RecurrenceSpec(1, 1, 2, 1), RecurrenceSpec(1, 2, Fraction(-1, 3), 1),
                 RecurrenceSpec(1, -3, 2, 1), RecurrenceSpec(1, -1, 1, 0),
                 RecurrenceSpec(0, 3, Fraction(1, 2), -1)):
        for r in range(1, 5):
            for n in range(12):
                direct = partial_sum_direct(spec, r, n)
                closed = partial_sum_closed(spec, r, n)
                assert closed == RationalFunction(direct, Polynomial([1])), (spec, r, n)
                for x in (Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2),
                          Fraction(1, 3)):
                    assert (partial_sum_closed(spec, r, n, x)
                            == partial_sum_direct(spec, r, n, x)), (spec, r, n, x)


@pytest.mark.parametrize("n", (33, 120))
def test_closed_symbolic_serves_every_n(n):
    assert partial_sum_closed(FIB, 1, n) == RationalFunction(
        partial_sum_direct(FIB, 1, n), Polynomial([1]))


@pytest.mark.parametrize("spec", (RecurrenceSpec(1, 1, 2, 1),
                                  RecurrenceSpec(1, 2, 0, 1)), ids=("u0", "b"))
def test_printed_form_keeps_its_hypotheses(spec):
    # b = 1 and u0 = 0 are hypotheses of the published claim, not of the sum
    with pytest.raises(ValueError, match="b = 1 and u0 = 0"):
        partial_sum_printed(spec, 2, 4)
    assert partial_sum_closed(spec, 2, 4) == RationalFunction(
        partial_sum_direct(spec, 2, 4), Polynomial([1]))


def test_closed_routes_general_b_pointwise():
    spec = RecurrenceSpec(1, 2, 0, 1)
    args = (spec, 1, 4, Fraction(1))
    assert partial_sum_closed(*args) == partial_sum_direct(*args) == 10
    assert partial_sum_closed(spec, 1, 4) == RationalFunction(
        partial_sum_direct(spec, 1, 4), Polynomial([1]))


def test_closed_reports_denominator_zero():
    # V_1 = 0, so the pair denominator 1 - x^2 vanishes at x = 1; a finite
    # sum has no pole there, and the closed value is the sum
    spec = RecurrenceSpec(0, 1, 0, 1)
    args = (spec, 1, 3, Fraction(1))
    assert partial_sum_closed(*args) == partial_sum_direct(*args) == 2


def test_printed_form_is_symbolic_only():
    # the published form is a b = 1 rational function: it takes no x
    assert list(inspect.signature(partial_sum_printed).parameters) == ["spec", "r", "n"]


@pytest.mark.parametrize("n", (0, 1, 2, 7))
def test_printed_even_form_at_small_n(n):
    # n = 0 puts the x term and the x^{n+1} term in one degree: the printed
    # form negates only the former.  Published form, b = 1, even r:
    # A^r sum_k C(r,k) (V_m x - (-1)^{kn} V_{m(n+1)} x^{n+1}
    #   - (-1)^{k(n+1)} V_{mn} x^{n+2}) / (1 - (-1)^k V_m x + x^2)
    #   + C(r, r/2) A^r sum_{i<=n} ((-1)^{r/2} x)^i,  A^2 = U_1^2 / D
    for spec in (FIB, PELL):
        v = seq.companion(spec)
        for r in (2, 4):
            a2 = Fraction(spec.u1**2, spec.discriminant)
            total = RationalFunction(Polynomial(), Polynomial([1]))
            for k in range(r // 2):
                m = r - 2 * k
                num = poly_add(
                    Polynomial([0, seq.term(v, m)]),
                    monomial(-(-1) ** (k * n) * seq.term(v, m * (n + 1)), n + 1),
                    monomial(-(-1) ** (k * (n + 1)) * seq.term(v, m * n), n + 2))
                den = Polynomial([1, -(-1) ** k * seq.term(v, m), 1])
                total = rf_add(total, RationalFunction(poly_scale(num, comb(r, k)), den))
            eps = (-1) ** (r // 2)
            middle = Polynomial([comb(r, r // 2) * eps**i for i in range(n + 1)])
            total = rf_add(total, RationalFunction(middle, Polynomial([1])))
            expected = RationalFunction(poly_scale(total.num, a2 ** (r // 2)), total.den)
            assert partial_sum_printed(spec, r, n) == expected


def test_pointwise_closed_at_large_n_builds_no_polynomial(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("pointwise closed sum built a polynomial")

    monkeypatch.setattr(partsum, "Polynomial", refuse)
    monkeypatch.setattr(partsum, "RationalFunction", refuse)
    n, x = 10**5, Fraction(1, 2)
    fib = seq.fibonacci()
    f_n, f_next = seq.term_fast(fib, n), seq.term_fast(fib, n + 1)
    expected = (x - f_next * x ** (n + 1) - f_n * x ** (n + 2)) / (1 - x - x * x)
    assert partial_sum_closed(FIB, 1, n, x) == expected


def test_general_b_examples():
    spec = RecurrenceSpec(1, 2, 0, 1)
    assert partial_sum_general_b(spec, 1, 4, Fraction(1)) == 10
    assert partial_sum_general_b(spec, 2, 3, Fraction(1)) == 11
    assert partial_sum_general_b(spec, 3, 9, Fraction(0)) == 0


def test_general_b_singularity_is_removable():
    spec = RecurrenceSpec(0, 1, 0, 1)   # alpha = 1, so alpha^r x = 1 at x = 1
    args = (spec, 1, 3, Fraction(1))
    assert partial_sum_general_b(*args) == partial_sum_direct(*args)


GENERAL_B_SPECS = (RecurrenceSpec(1, 2, 0, 1), RecurrenceSpec(1, -3, 0, 1))


@pytest.mark.parametrize("spec", GENERAL_B_SPECS)
@pytest.mark.parametrize("r", (1, 2, 3, 4))
def test_general_b_equals_direct_on_grid(spec, r):
    xs = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2))
    for n in range(0, 31):
        for x in xs:
            assert partial_sum_general_b(spec, r, n, x) == partial_sum_direct(spec, r, n, x)


def test_corollary_r1_printed_vs_shifted():
    for spec in (FIB, PELL):
        for n in range(0, 21):
            direct = RationalFunction(partial_sum_direct(spec, 1, n), Polynomial([1]))
            assert corollary_r1(spec, n, "shifted-exponent") == direct
            if n >= 1:
                assert corollary_r1(spec, n, "printed") != direct


@pytest.mark.parametrize("spec", (RecurrenceSpec(1, 1, 2, 1),
                                  RecurrenceSpec(1, 2, 0, 1)), ids=("lucas", "b"))
def test_corollary_r1_keeps_its_hypotheses(spec):
    # outside b = 1 and u0 = 0 even the shifted form is not the partial sum
    direct = RationalFunction(partial_sum_direct(spec, 1, 3), Polynomial([1]))
    assert corollary_r1_shifted(spec, 3, "shifted-exponent") != direct
    for variant in ("printed", "shifted-exponent"):
        with pytest.raises(ValueError, match="b = 1 and u0 = 0"):
            corollary_r1(spec, 3, variant)


@pytest.mark.parametrize("variant", ("printed", "shifted-exponent"))
@pytest.mark.parametrize("spec", B1_SPECS)
def test_corollary_r1_equals_the_shifted_monomial_construction(spec, variant):
    # n = 0 and 1 put two of the three terms in one degree
    for n in range(0, 31):
        assert corollary_r1(spec, n, variant) == corollary_r1_shifted(spec, n, variant)


def test_horadam_examples():
    # S_{4n-2} at n=1, (p,q)=(1,2): q_1 (p q_0 + q q_1) = 3 = P_1 + P_2
    assert horadam_sums(1, 2, "S4n-2", 1) == 3
    assert horadam_direct(1, 2, [2]) == [3]
    assert [horadam_sums(1, 2, "S4n", 1)] == horadam_direct(1, 2, [4]) == [20]
    # negative side: S_{-4n+1} at n=1 is P_{-1} + P_{-2} + P_{-3}
    assert [horadam_sums(1, 2, "S-4n+1", 1)] == horadam_direct(1, 2, [-3]) == [4]


def test_horadam_table_printed_and_corrected():
    for p, q in ((1, 2), (1, 3), (2, 5)):
        for n in range(1, 26):
            for name in HORADAM_VARIANTS:
                [direct] = horadam_direct(p, q, [horadam_index(name, n)])
                printed = horadam_sums(p, q, name, n)
                if name == "S4n-1":
                    assert printed != direct
                    assert printed - direct == p - q
                    assert horadam_sums(p, q, name, n, corrected=True) == direct
                else:
                    assert printed == direct


@pytest.mark.parametrize("pq", ((1, 2), (2, 5), (Fraction(1, 3), Fraction(-5, 2))))
def test_horadam_direct_equals_summed_walk(pq):
    pell = seq.generalized_pell(*pq)
    for idx in range(0, 42):
        for sign in (1, -1):
            plain = sum((seq.term(pell, sign * i) for i in range(1, idx + 1)),
                        Fraction(0))
            assert horadam_direct(*pq, [sign * idx]) == [plain]


@pytest.mark.parametrize("pq", ((1, 2), (Fraction(1, 3), Fraction(-5, 2))))
def test_a_horadam_row_is_its_sums_one_index_at_a_time(pq):
    pell = seq.generalized_pell(*pq)
    walks = {sign: [seq.term(pell, sign * i) for i in range(1, 170)] for sign in (1, -1)}
    # the first index may be 0 on either side, and an index may repeat
    rows = [[horadam_index(name, n) for n in range(1, 41)] for name in HORADAM_VARIANTS]
    for idxs in (*rows, [0, -2, -2, -9], [0, 0, 7]):
        walk = walks[-1 if min(idxs) < 0 else 1]
        assert horadam_direct(*pq, idxs) == [
            sum(walk[:abs(idx)], Fraction(0)) for idx in idxs], idxs


def test_a_horadam_row_has_one_sign_and_ascending_indices():
    for idxs in ([3, -5], [-1, 1], [4, 8, -12], [5, 3], [-6, -2], [0, 4, 2]):
        with pytest.raises(ValueError, match=r"one sign and \|idx\| ascending"):
            horadam_direct(1, 2, idxs)


def test_horadam_cells_keep_the_store_cap():
    # the spec constructors are memoised; the stores stay evictable
    seq.store.cache_clear()
    pairs = [(p, q) for p in range(1, 4) for q in range(1, seq.STORE_CAP)]
    for p, q in pairs:
        for sign in (1, -1):
            horadam_direct(p, q, [sign * 9])
            assert seq.store.cache_info().currsize <= seq.STORE_CAP
        horadam_sums(p, q, "S-4n", 3)
    assert seq.store.cache_info().currsize == seq.STORE_CAP
    for memo in (seq.generalized_pell, seq.reflected):
        assert memo.cache_info().currsize <= seq.STORE_CAP
    assert seq.pell_q() is seq.pell_q() == seq.generalized_pell(1, 3)
    assert seq.reflected(seq.pell_q()) is seq.reflected(seq.pell_q())


def test_horadam_rejects_bad_input():
    with pytest.raises(ValueError):
        horadam_sums(1, 2, "S4n", 0)
    with pytest.raises(ValueError):
        horadam_sums(1, 2, "S5n", 1)


def test_query_validation():
    for fn in (partial_sum_direct, partial_sum_closed, partial_sum_general_b,
               partial_sum_printed):
        x = () if fn is partial_sum_printed else (Fraction(1),)
        with pytest.raises(ValueError, match="upper index"):
            fn(FIB, 1, -1, *x)
        with pytest.raises(ValueError, match="power"):
            fn(FIB, 0, 1, *x)
