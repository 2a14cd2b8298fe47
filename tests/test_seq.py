"""Tests for sequence evaluation: iterative, fast doubling, negative indices."""

from fractions import Fraction

import pytest

from recsums import partsum, seq
from recsums.qfield import RecurrenceSpec, roots
from references import binet_coeffs


def test_fibonacci_term():
    assert seq.term(seq.fibonacci(), 10) == 55


def test_lucas_preset_initial_terms():
    lucas = seq.preset("lucas")
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
    pell = seq.preset("pell")
    assert [seq.term(pell, n) for n in range(1, 6)] == [1, 2, 5, 12, 29]


def test_generalized_pell_indexing():
    h = seq.generalized_pell(1, 3)
    assert [seq.term(h, n) for n in range(5)] == [1, 1, 3, 7, 17]
    assert seq.pell_q() == h


def test_preset_parsing():
    assert seq.preset("fibonacci") == RecurrenceSpec(1, 1, 0, 1)
    assert seq.preset("gen-pell:1,2") == RecurrenceSpec(2, 1, 0, 1)
    with pytest.raises(ValueError):
        seq.preset("golden")


def test_term_fast_examples():
    fib = seq.fibonacci()
    assert seq.term_fast(fib, 20) == 6765
    assert seq.term_fast(fib, 20) == seq.term(fib, 20)
    assert seq.term_fast(fib, 0) == 0
    f16 = seq.term_fast(fib, 16)
    assert f16 == 987
    assert f16 == seq.term_fast(fib, 8) * seq.term_fast(seq.preset("lucas"), 8)


FAST_GRID = [
    RecurrenceSpec(1, 1, 0, 1),
    RecurrenceSpec(1, 2, 0, 1),
    RecurrenceSpec(3, -2, 2, 1),
    RecurrenceSpec(2, 3, Fraction(1, 2), Fraction(1, 3)),
]


@pytest.mark.parametrize("spec", FAST_GRID)
def test_term_fast_agrees_with_iterative_to_2000(spec):
    values = seq.terms(spec, 2001)
    for n in range(2001):
        assert seq.term_fast(spec, n) == values[n]
    v_spec = seq.companion(spec)
    v_values = seq.terms(v_spec, 201)
    for n in range(201):
        assert seq.term_fast(v_spec, n) == v_values[n]


@pytest.mark.parametrize("spec", FAST_GRID)
def test_companion_identity_rationalizes(spec):
    alpha, beta = roots(spec)
    v = seq.companion(spec)
    for n in range(65):
        assert alpha**n + beta**n == seq.term(v, n)


@pytest.mark.parametrize("spec", FAST_GRID)
def test_backward_forward_consistency(spec):
    for n in range(1, 20):
        older = seq.term(spec, -n - 1)
        old = seq.term(spec, -n)
        assert spec.a * old + spec.b * older == seq.term(spec, -n + 1)


def test_binet_check_on_rational_initial_values():
    spec = RecurrenceSpec(1, 1, Fraction(1, 2), Fraction(1, 3))
    alpha, beta = roots(spec)
    a_coef, b_coef = binet_coeffs(spec)
    for n, value in enumerate(seq.terms(spec, 30)):
        assert a_coef * alpha**n - b_coef * beta**n == value


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
    # n >= 0 from the store, n < 0 as b^|n| U_n from the reflected spec's store
    sequence = seq.companion(spec) if kind == "V" else spec
    forward = seq.PrefixStore(sequence)
    backward = seq.PrefixStore(seq.reflected(sequence))
    # a few far lookups first, so both stores also grow by later extensions
    for n in (150, -30, *range(-60, 301)):
        if n >= 0:
            assert forward.term(n) == seq.term(sequence, n), n
        else:
            assert backward.term(-n) == sequence.b**-n * seq.term(sequence, n), n
    for store in (forward, backward):
        with pytest.raises(ValueError):
            store.term(-1)


def _prefix_sum(store, k):
    """sum_{i=1}^k U_i as horadam_direct reads it, the plain first-power row
    less U_0: numerators 1 .. k over den."""
    return Fraction(sum(store.numerators(k + 1)[1:]), store.den)


@pytest.mark.parametrize("spec", STORE_SPECS)
def test_store_prefix_sums_equal_summed_walk(spec):
    forward = seq.PrefixStore(spec)
    backward = seq.PrefixStore(seq.reflected(spec))
    b = spec.b
    for idx in (5, -7, 40, -40, 0, 3, -1, 61, -61):
        k = abs(idx)
        if idx >= 0:
            expected = sum((seq.term(spec, i) for i in range(1, k + 1)), Fraction(0))
            assert _prefix_sum(forward, idx) == expected, idx
            continue
        # the reflected spec sums b^i U_{-i}: the sum of U_{-i} when b = 1
        walk = [seq.term(spec, -i) for i in range(1, k + 1)]
        expected = sum((b**i * u for i, u in enumerate(walk, 1)), Fraction(0))
        assert _prefix_sum(backward, k) == expected, idx
        if b == 1:
            assert _prefix_sum(backward, k) == sum(walk, Fraction(0)), idx
    # horadam_direct is that sum on a generalized Pell spec (P_1 = u0,
    # P_2 = u1), read from the reflected spec's store for idx < 0
    pell = seq.generalized_pell(spec.u0, spec.u1)
    for idx in (0, 9, -9, 40, -40):
        sign = -1 if idx < 0 else 1
        walk = (seq.term(pell, sign * i) for i in range(1, abs(idx) + 1))
        assert partsum.horadam_direct(spec.u0, spec.u1, [idx]) == [sum(
            walk, Fraction(0))], idx


def test_a_negative_count_is_refused():
    fib = seq.fibonacci()
    seq.store(fib).term(10)          # a store already holding terms
    for read in (seq.store(fib).numerators, seq.store(fib).terms,
                 lambda count: seq.terms(fib, count)):
        with pytest.raises(ValueError, match="count must be >= 0, got -1"):
            read(-1)
        assert read(0) == []


@pytest.mark.parametrize("spec", STORE_SPECS)
def test_store_numerators_are_integers_over_den(spec):
    store = seq.PrefixStore(spec)
    nums = store.numerators(50)
    assert all(isinstance(v, int) for v in nums)
    walk = [seq.term(spec, n) for n in range(50)]
    assert [Fraction(v, store.den) for v in nums] == store.terms(50) == walk
    assert seq.terms(spec, 50) == walk


def test_store_accessor_is_bounded_lru():
    seq.store.cache_clear()
    specs = [RecurrenceSpec(1, 1, 0, k) for k in range(1, seq.STORE_CAP + 6)]
    for spec in specs:
        seq.store(spec).term(20)
        assert seq.store.cache_info().currsize <= seq.STORE_CAP
    assert seq.store.cache_info().currsize == seq.STORE_CAP
    # the most recent STORE_CAP specs' stores are kept; a hit returns the same store
    kept = seq.store(specs[-1])
    hits = seq.store.cache_info().hits
    assert seq.store(specs[-1]) is kept
    assert seq.store.cache_info().hits == hits + 1
    misses = seq.store.cache_info().misses
    seq.store(specs[0])    # evicted long ago: made afresh
    assert seq.store.cache_info().misses == misses + 1
