"""Tests for sequence evaluation: iterative, fast doubling, negative indices."""

from fractions import Fraction

import pytest

from recsums import seq
from recsums.qfield import (RecurrenceSpec, binet_coeffs, rationalize, roots)


def test_fibonacci_term():
    assert seq.term(seq.fibonacci(), 10) == 55


def test_lucas_preset_initial_terms():
    lucas = seq.lucas()
    assert [seq.term(lucas, n) for n in range(5)] == [2, 1, 3, 4, 7]


def test_companion_kind_matches_lucas_numbers():
    v = seq.companion(RecurrenceSpec(1, 1, 0, 1))
    assert [seq.term(v, n) for n in range(5)] == [2, 1, 3, 4, 7]


def test_negative_index_backward_recurrence():
    fib = seq.fibonacci()
    assert seq.term(fib, -3) == 2
    # F_{-n} = (-1)^{n+1} F_n
    for n in range(1, 12):
        assert seq.term(fib, -n) == (-1) ** (n + 1) * seq.term(fib, n)


def test_pell_terms():
    pell = seq.pell()
    assert [seq.term(pell, n) for n in range(1, 6)] == [1, 2, 5, 12, 29]


def test_generalized_pell_indexing():
    h = seq.generalized_pell(1, 3)
    assert [seq.term(h, n) for n in range(5)] == [1, 1, 3, 7, 17]
    assert seq.pell_q().spec == h.spec


def test_preset_parsing():
    assert seq.preset("fibonacci").spec == RecurrenceSpec(1, 1, 0, 1)
    assert seq.preset("gen-pell:1,2").spec == RecurrenceSpec(2, 1, 0, 1)
    with pytest.raises(ValueError):
        seq.preset("golden")


def test_term_fast_examples():
    fib = seq.fibonacci()
    assert seq.term_fast(fib, 20) == 6765
    assert seq.term_fast(fib, 20) == seq.term(fib, 20)
    assert seq.term_fast(fib, 0) == 0
    f16 = seq.term_fast(fib, 16)
    assert f16 == 987
    assert f16 == seq.term_fast(fib, 8) * seq.term_fast(seq.lucas(), 8)


def test_term_fast_rejects_negative():
    with pytest.raises(ValueError):
        seq.term_fast(seq.fibonacci(), -1)


FAST_GRID = [
    RecurrenceSpec(1, 1, 0, 1),
    RecurrenceSpec(1, 2, 0, 1),
    RecurrenceSpec(3, -2, 2, 1),
    RecurrenceSpec(2, 3, Fraction(1, 2), Fraction(1, 3)),
]


@pytest.mark.parametrize("spec", FAST_GRID)
def test_term_fast_agrees_with_iterative_to_2000(spec):
    handle = seq.SequenceHandle(spec)
    values = seq.terms(handle, 2001)
    for n in range(2001):
        assert seq.term_fast(handle, n) == values[n]
    v_handle = seq.companion(spec)
    v_values = seq.terms(v_handle, 201)
    for n in range(201):
        assert seq.term_fast(v_handle, n) == v_values[n]


@pytest.mark.parametrize("spec", FAST_GRID)
def test_companion_identity_rationalizes(spec):
    alpha, beta = roots(spec)
    v = seq.companion(spec)
    for n in range(65):
        assert rationalize(alpha**n + beta**n) == seq.term(v, n)


@pytest.mark.parametrize("spec", FAST_GRID)
def test_backward_forward_consistency(spec):
    handle = seq.SequenceHandle(spec)
    for n in range(1, 20):
        older = seq.term(handle, -n - 1)
        old = seq.term(handle, -n)
        assert spec.a * old + spec.b * older == seq.term(handle, -n + 1)


def test_binet_check_on_rational_initial_values():
    spec = RecurrenceSpec(1, 1, Fraction(1, 2), Fraction(1, 3))
    alpha, beta = roots(spec)
    a_coef, b_coef = binet_coeffs(spec)
    handle = seq.SequenceHandle(spec)
    for n, value in enumerate(seq.terms(handle, 30)):
        assert rationalize(a_coef * alpha**n - b_coef * beta**n) == value


# a = 0, (1, -1), square D = 9 and D = 1, negative D = -3 and -8, rational u0/u1
STORE_SPECS = [
    RecurrenceSpec(1, 1, 0, 1),
    RecurrenceSpec(0, 2, Fraction(-3, 4), Fraction(5, 6)),
    RecurrenceSpec(0, -3, 1, 1),
    RecurrenceSpec(1, -1, Fraction(2, 3), Fraction(-1, 5)),
    RecurrenceSpec(1, 2, 0, 1),
    RecurrenceSpec(3, -2, 2, 1),
    RecurrenceSpec(2, -3, Fraction(1, 2), 1),
    RecurrenceSpec(2, 3, Fraction(1, 2), Fraction(1, 3)),
]


@pytest.mark.parametrize("kind", ("U", "V"))
@pytest.mark.parametrize("spec", STORE_SPECS)
def test_store_term_equals_walk_from_minus_60_to_300(spec, kind):
    handle = seq.SequenceHandle(spec, kind)
    store = seq.PrefixStore(handle)
    # a few far lookups first, so both sides also grow by later extensions
    for n in (150, -30, *range(-60, 301)):
        assert store.term(n) == seq.term(handle, n), n


@pytest.mark.parametrize("spec", STORE_SPECS)
def test_store_prefix_sums_equal_summed_walk(spec):
    handle = seq.SequenceHandle(spec)
    store = seq.PrefixStore(handle)
    for idx in (5, -7, 40, -40, 0, 3, -1, 61, -61):
        sign = 1 if idx > 0 else -1
        expected = sum((seq.term(handle, sign * i) for i in range(1, abs(idx) + 1)),
                       Fraction(0))
        assert store.prefix_sum(idx) == expected, idx


@pytest.mark.parametrize("spec", STORE_SPECS)
def test_store_numerators_are_integers_over_den(spec):
    handle = seq.SequenceHandle(spec)
    store = seq.PrefixStore(handle)
    nums = store.numerators(50)
    assert all(isinstance(v, int) for v in nums)
    walk = [seq.term(handle, n) for n in range(50)]
    assert [Fraction(v, store.den) for v in nums] == store.terms(50) == walk
    assert seq.terms(handle, 50) == walk


def test_store_accessor_is_bounded_lru():
    seq.store.cache_clear()
    handles = [seq.SequenceHandle(RecurrenceSpec(1, 1, 0, k))
               for k in range(1, seq.STORE_CAP + 6)]
    for h in handles:
        seq.store(h).term(20)
        assert seq.store.cache_info().currsize <= seq.STORE_CAP
    assert seq.store.cache_info().currsize == seq.STORE_CAP
    # the most recent STORE_CAP handles are kept; a hit returns the same store
    kept = seq.store(handles[-1])
    hits = seq.store.cache_info().hits
    assert seq.store(handles[-1]) is kept
    assert seq.store.cache_info().hits == hits + 1
    misses = seq.store.cache_info().misses
    seq.store(handles[0])    # evicted long ago: made afresh
    assert seq.store.cache_info().misses == misses + 1
