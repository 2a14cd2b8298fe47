"""Property tests: every closed form read from the Binet-pair table equals its
oracle, the factor-wise series check agrees with expanding against the oracle,
and a rendered generating function parses back to itself.

Specs are drawn non-degenerate, with square and negative discriminants,
a = 0, |b| = 1 and rational initial values among them.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from recsums import seq  # noqa: E402
from recsums.binsum import binom_sum_closed, binom_sum_direct  # noqa: E402
from recsums.gfpow import (SelfCheckError, gf_oracle, gf_power,  # noqa: E402
                           paired_form)
from recsums.partsum import (partial_sum_closed, partial_sum_direct,  # noqa: E402
                             partial_sum_general_b)
from recsums.polyrat import (Polynomial, RationalFunction,  # noqa: E402
                             rf_to_latex, rf_to_text)
from recsums.qfield import RecurrenceSpec  # noqa: E402
from references import parse_rational_function  # noqa: E402

F = Fraction

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def specs(draw):
    """Non-degenerate (a, b, u0, u1); u0 = 0 in about half of the draws."""
    a = draw(st.integers(-4, 4))
    b = draw(st.integers(-4, 4).filter(lambda b: b != 0 and a * a + 4 * b != 0))
    u0 = draw(st.one_of(st.just(F(0)), rationals))
    return RecurrenceSpec(a, b, u0, draw(rationals))


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(spec=specs(), r=st.integers(1, 5), n=st.integers(0, 12), x=rationals)
@example(spec=RecurrenceSpec(1, 2, 0, 1), r=3, n=9, x=F(1, 2))        # square D
@example(spec=RecurrenceSpec(1, -1, 0, F(1, 3)), r=4, n=7, x=F(2))   # negative D
@example(spec=RecurrenceSpec(0, 3, F(1, 2), -1), r=5, n=8, x=F(-1))  # a = 0
@example(spec=RecurrenceSpec(1, -1, 2, 1), r=2, n=12, x=F(1))        # |b| = 1
def test_closed_forms_equal_their_oracles(spec, r, n, x):
    assert binom_sum_closed(spec, r, n, x) == binom_sum_direct(spec, r, n, x)
    walked = [seq.term(spec, i) for i in range(n + 1)]
    direct = partial_sum_direct(spec, r, n, x)
    assert direct == sum((u**r * x**i for i, u in enumerate(walked)), F(0))
    if spec.u0 == 0:
        assert partial_sum_general_b(spec, r, n, x) == direct
        if n <= 8:
            assert partial_sum_closed(spec, r, n) == RationalFunction(
                partial_sum_direct(spec, r, n), Polynomial([1]))
    assert paired_form(spec, r, "general") == gf_power(spec, r)


def _fold(parts):
    total = RationalFunction(Polynomial(), Polynomial([1]))
    for num, den in parts:
        total = total + RationalFunction(num, den)
    return total


NUMS = [[1], [0, 1], [F(1, 2), -1], [2, 0, F(-1, 3)]]


# a = 0 and (1, -1) give pair denominators with common factors (equal root
# moduli, root ratios of finite order)
@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(spec=specs(), r=st.integers(1, 6),
       nums=st.lists(st.lists(rationals, max_size=3), min_size=4, max_size=4))
@example(spec=RecurrenceSpec(0, 3, F(1, 2), -1), r=6, nums=NUMS)    # a = 0
@example(spec=RecurrenceSpec(1, -1, 0, 1), r=6, nums=NUMS)          # (1, -1)
@example(spec=RecurrenceSpec(1, 2, 0, 1), r=5, nums=NUMS)           # square D
@example(spec=RecurrenceSpec(1, -3, 2, 1), r=4, nums=NUMS)          # negative D
def test_rational_function_sum_equals_the_pairwise_fold(spec, r, nums):
    pairs = seq.binet_pairs(spec, r, 1)
    dens = [Polynomial([1, -p, q]) for *_, p, q in pairs]
    paired = [(Polynomial([w0, w1 - p * w0]), den)
              for (w0, w1, p, _), den in zip(pairs, dens)]
    drawn = [(Polynomial(c), den) for c, den in zip(nums, [Polynomial([1]), *dens])]
    for parts in ([], paired, drawn, paired + drawn):
        assert RationalFunction.sum(parts) == _fold(parts)
    assert RationalFunction.sum(paired) == gf_power(spec, r)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(spec=specs(), r=st.integers(1, 6))
@example(spec=RecurrenceSpec(1, 1, 0, 1), r=6)
@example(spec=RecurrenceSpec(0, -1, F(1, 2), F(-2, 3)), r=4)   # a = 0, |b| = 1
def test_rendered_gf_parses_back(spec, r):
    f = gf_power(spec, r)
    assert parse_rational_function(rf_to_text(f)) == f
    assert parse_rational_function(rf_to_latex(f)) == f


# one series term moved, at k: the check of gf_power(spec, r, order) runs over
# max(2r+2, order) terms, and raises exactly when expanding its result that
# far disagrees with the moved series; a = 0 and (1, -1) reduce their
# denominators, square and negative D do not
@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(spec=specs(), r=st.integers(1, 8), order=st.integers(1, 30),
       k=st.integers(0, 36))
@example(spec=RecurrenceSpec(1, 2, 0, 1), r=4, order=15, k=2)
@example(spec=RecurrenceSpec(2, -3, F(1, 2), 1), r=5, order=18, k=17)
@example(spec=RecurrenceSpec(0, 2, 0, 1), r=4, order=12, k=12)
@example(spec=RecurrenceSpec(1, -1, 1, 2), r=6, order=20, k=21)
def test_factor_wise_check_agrees_with_expand(corrupt_store, spec, r, order, k):
    f = gf_power(spec, r, order)
    assert f.expand(order) == gf_oracle(spec, r, order)
    assert f == gf_power(spec, r)
    count = max(2 * r + 2, order)
    moved = list(gf_oracle(spec, r, max(count, k + 1)))
    store = seq.store(spec)
    moved[k] = F(store.numerators(k + 1)[k] + 1, store.den) ** r
    with pytest.MonkeyPatch.context() as patch:
        corrupt_store(patch, spec, k)
        try:
            gf_power(spec, r, order)
            raised = False
        except SelfCheckError:
            raised = True
    assert raised == (f.expand(count) != tuple(moved[:count]))


@st.composite
def recurrences(draw):
    """(coefficients c_0 .. c_{d-1}, initial values) of a rational recurrence
    w_{j+d} = sum_i c_i w_{j+i} of order d = 1 to 4: free coefficients, or
    those of prod (z - root) with roots drawn so that 0, 1, -1 and repeated
    roots are common."""
    d = draw(st.integers(1, 4))
    if draw(st.booleans()):
        coeffs = draw(st.lists(rationals, min_size=d, max_size=d))
    else:
        roots = draw(st.lists(st.one_of(st.sampled_from((F(0), F(1), F(-1))),
                                        rationals), min_size=d, max_size=d))
        coeffs = _coefficients(roots)
    return coeffs, draw(st.lists(rationals, min_size=d, max_size=d))


def _coefficients(roots):
    """c_i with z^d - sum_i c_i z^i = prod (z - root), low degree first."""
    poly = [F(1)]
    for root in roots:
        poly = [lo - root * hi for lo, hi in zip([F(0)] + poly, poly + [F(0)])]
    return [-c for c in poly[:-1]]


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(rec=recurrences())
@example(rec=(_coefficients([F(1)] * 3), [F(2), F(-1, 3), F(5)]))  # triple root 1
@example(rec=(_coefficients([F(0), F(0)]), [F(1, 2), F(3)]))        # double root 0
@example(rec=(_coefficients([F(1), F(-1), F(0), F(1, 2)]),          # 1, -1, 0, 1/2
              [F(1), F(0), F(-2, 3), F(4)]))
@example(rec=([F(7, 3)], [F(-3, 5)]))                               # order 1
def test_kernel_equals_the_walk_at_every_order(rec):
    coeffs, walked = rec
    walked = list(walked)
    d = len(coeffs)
    while len(walked) < 41:
        walked.append(sum(c * w for c, w in zip(coeffs, walked[-d:])))
    for n in range(41):
        assert seq.linear_term(coeffs, walked[:d], n) == walked[n]
