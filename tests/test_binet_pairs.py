"""The rational Binet-pair table and the doubling kernel behind the closed forms.

``seq.binet_pairs`` is checked against the Q(sqrt(D)) Binet expansion built
from ``roots`` and ``references.binet_coeffs`` (compared by ``==``, which
also checks that each value is rational), ``seq.linear_term`` against a
plain Fraction walk (a Binet pair at order 2, its partial sums at order 3,
and any recurrence of order 1 to 4), and the t_k = 1 cases of the sums
against their oracles.
"""

from fractions import Fraction
from math import comb

import pytest

from recsums import seq
from recsums.binsum import binom_sum_closed, binom_sum_direct
from recsums.partsum import (partial_sum_closed, partial_sum_direct,
                             partial_sum_general_b)
from recsums.qfield import RecurrenceSpec, roots
from references import binet_coeffs

F = Fraction

# square D (1, 2), negative D (1, -1), a = 0, root ratios of finite order
# (1, -1) and (3, -3), and rational initial values
SPECS = [
    RecurrenceSpec(1, 1, 0, 1), RecurrenceSpec(1, 2, 0, 1),
    RecurrenceSpec(1, -1, 1, 2), RecurrenceSpec(0, 2, F(1, 3), 1),
    RecurrenceSpec(0, -3, 0, 1), RecurrenceSpec(3, -3, 2, -1),
    RecurrenceSpec(2, 3, F(1, 2), F(-2, 3)), RecurrenceSpec(-2, 1, F(5, 4), 0),
]
XS = (F(0), F(1), F(-1), F(1, 2), F(-2, 3))


def _walk(p, q, w0, w1, count):
    out = [F(w0), F(w1)]
    while len(out) < count:
        out.append(p * out[-1] - q * out[-2])
    return out[:count]


@pytest.mark.parametrize("p, q", (
    (3, 2), (1, -1), (F(1, 3), F(-5, 7)), (F(7, 3), F(2, 5)),
    (F(5, 2), 0), (0, 0),                      # q = 0: a root at 0
    (2, 1), (F(3, 2), F(9, 16)), (-4, 4),      # p^2 = 4q: a double root
))
def test_lucas_term_equals_the_walk(p, q):
    # the term w_n of a Binet pair, w_{j+1} = p w_j - q w_{j-1}, at order 2
    p, q = F(p), F(q)
    for w0, w1 in ((F(2), p), (F(-1, 3), F(4, 5)), (F(0), F(1))):
        walked = _walk(p, q, w0, w1, 41)
        for n in range(41):
            assert seq.linear_term((-q, p), (w0, w1), n) == walked[n]
    with pytest.raises(ValueError, match="index must be >= 0, got -1"):
        seq.linear_term((-q, p), (F(0), F(1)), -1)


@pytest.mark.parametrize("p, q", (
    (3, 2), (F(1, 2), F(-3, 4)),
    (F(5, 2), F(3, 2)), (1, 0),     # 1 - p + q = 0: roots 1 and q
    (2, 1),                         # a double root 1
))
def test_pair_sum_equals_the_summed_walk(p, q):
    # S_n = w_0 + ... + w_n at order 3, roots 1, t and t', as
    # partial_sum_general_b reads each pair: no root is a special case
    p, q = F(p), F(q)
    for w0, w1 in ((F(2), p), (F(-1, 3), F(4, 5))):
        walked = _walk(p, q, w0, w1, 21)
        sums = (w0, w0 + w1, w0 + w1 + walked[2])
        for n in range(20):
            assert (seq.linear_term((q, -p - q, 1 + p), sums, n)
                    == sum(walked[:n + 1]))


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("r", range(1, 6))
def test_binet_pairs_equal_the_quadratic_field_expansion(spec, r):
    alpha, beta = roots(spec)
    a_coef, b_coef = binet_coeffs(spec)
    for x in XS:
        c = [comb(r, k) * a_coef**k * (-b_coef) ** (r - k) for k in range(r + 1)]
        t = [alpha**k * beta ** (r - k) * x for k in range(r + 1)]
        pairs = seq.binet_pairs(spec, r, x)
        assert len(pairs) == r // 2 + 1
        if r % 2 == 0:
            c_mid, t_mid = c[r // 2], t[r // 2]
            *pairs, middle = pairs
            assert middle == (c_mid, c_mid * t_mid, t_mid, 0)
        for k, (w0, w1, p, q) in enumerate(pairs):
            j = r - k
            assert p == t[k] + t[j] and q == t[k] * t[j]
            for i in range(7):
                assert (seq.linear_term((-q, p), (w0, w1), i)
                        == c[k] * t[k] ** i + c[j] * t[j] ** i)


@pytest.mark.parametrize("spec, r, x", (
    (RecurrenceSpec(1, 2, 0, 1), 1, F(1, 2)),   # alpha x = 1: one root is 1
    (RecurrenceSpec(0, 1, 0, 1), 2, F(1)),      # alpha^2 x = beta^2 x = 1: double
    (RecurrenceSpec(0, 1, 0, 1), 2, F(-1)),     # the even-r middle term t = 1
))
def test_removable_cases_equal_the_direct_sums(spec, r, x):
    for n in range(12):
        assert partial_sum_general_b(spec, r, n, x) == partial_sum_direct(spec, r, n, x)
        assert binom_sum_closed(spec, r, n, x) == binom_sum_direct(spec, r, n, x)


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("r", (2, 4))
def test_closed_sums_at_x_zero_where_every_q_is_zero(spec, r):
    assert all(q == 0 for *_, q in seq.binet_pairs(spec, r, 0))
    for n in range(6):
        assert binom_sum_closed(spec, r, n, F(0)) == binom_sum_direct(spec, r, n, F(0))
        if spec.u0 == 0:   # the closed partial sum's hypothesis
            assert (partial_sum_closed(spec, r, n, F(0))
                    == partial_sum_direct(spec, r, n, F(0)))


def test_binet_pairs_is_a_memoised_tuple():
    spec = RecurrenceSpec(2, 3, F(1, 2), F(-2, 3))
    first = seq.binet_pairs(spec, 4, F(1, 2))
    assert isinstance(first, tuple)
    before = seq.binet_pairs.cache_info()
    assert seq.binet_pairs(spec, 4, F(1, 2)) is first
    after = seq.binet_pairs.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    # 1 and Fraction(1) hash and compare equal, so they share one table
    assert seq.binet_pairs(spec, 3, 1) is seq.binet_pairs(spec, 3, F(1))


def test_binet_pairs_cache_stays_within_its_cap():
    for i in range(seq.BINET_CAP + 10):
        seq.binet_pairs(RecurrenceSpec(1, 1, 0, 1), 2, F(i, 7))
    info = seq.binet_pairs.cache_info()
    assert info.maxsize == seq.BINET_CAP
    assert info.currsize <= seq.BINET_CAP
