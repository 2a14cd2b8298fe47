"""Property tests: the integer prefix store and the doubling kernel against
the reference Fraction walk."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from recsums import partsum, seq  # noqa: E402
from recsums.qfield import RecurrenceSpec  # noqa: E402

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@st.composite
def specs(draw):
    """Non-degenerate (a, b, u0, u1): b != 0 and a^2 + 4b != 0."""
    a = draw(st.integers(-6, 6))
    b = draw(st.integers(-6, 6).filter(lambda b: b != 0 and a * a + 4 * b != 0))
    return RecurrenceSpec(a, b, draw(rationals), draw(rationals))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(spec=specs(), kind=st.sampled_from(("U", "V")),
       indices=st.lists(st.integers(-45, 90), min_size=1, max_size=8))
@example(spec=RecurrenceSpec(0, 2, Fraction(1, 3), 1), kind="U", indices=[-17, 30])
@example(spec=RecurrenceSpec(1, -1, 2, Fraction(-3, 7)), kind="U", indices=[-40, 41])
@example(spec=RecurrenceSpec(0, -1, 1, 1), kind="V", indices=[-9, 12])
@example(spec=RecurrenceSpec(1, 2, Fraction(5, 4), 0), kind="U", indices=[-25, 25])
def test_store_equals_walk(spec, kind, indices):
    # n < 0 is read as b^|n| U_n from the reflected spec's store
    sequence = seq.companion(spec) if kind == "V" else spec
    b = sequence.b
    forward = seq.PrefixStore(sequence)
    backward = seq.PrefixStore(seq.reflected(sequence))
    for n in indices:
        if n >= 0:
            assert forward.term(n) == seq.term(sequence, n)
        else:
            assert backward.term(-n) == b**-n * seq.term(sequence, n)
    # a prefix sum is the numerators 1 .. k summed over den, as horadam_direct
    # reads it from a generalized Pell spec's store (here P_1 = u0, P_2 = u1)
    k = max(abs(n) for n in indices) % 12
    fsum, bsum = (Fraction(sum(s.numerators(k + 1)[1:]), s.den)
                  for s in (forward, backward))
    assert fsum == sum((seq.term(sequence, i) for i in range(1, k + 1)), Fraction(0))
    walk = [seq.term(sequence, -i) for i in range(1, k + 1)]
    assert bsum == sum((b**i * u for i, u in enumerate(walk, 1)), Fraction(0))
    if b == 1:
        assert bsum == sum(walk, Fraction(0))
    pell = seq.generalized_pell(spec.u0, spec.u1)
    for sign in (1, -1):
        assert partsum.horadam_direct(spec.u0, spec.u1, [sign * k]) == [sum(
            (seq.term(pell, sign * i) for i in range(1, k + 1)), Fraction(0))]
    for store in (forward, backward):
        with pytest.raises(ValueError):
            store.term(-1)
        with pytest.raises(ValueError):
            store.numerators(-1)


@st.composite
def wide_specs(draw):
    """Non-degenerate specs with |b| > 1, so b^|n| divides U_n for n < 0."""
    a = draw(st.integers(-6, 6))
    b = draw(st.sampled_from((-6, -5, -4, -3, -2, 2, 3, 4, 5, 6))
             .filter(lambda b: a * a + 4 * b != 0))
    return RecurrenceSpec(a, b, draw(rationals), draw(rationals))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(spec=wide_specs(), indices=st.lists(st.integers(-300, 300), min_size=1,
                                           max_size=8))
# square, negative and non-square discriminants: 9, -11, 13
@example(spec=RecurrenceSpec(1, 2, Fraction(2, 3), Fraction(-5, 4)),
         indices=[-300, -1, 0, 1, 300])
@example(spec=RecurrenceSpec(1, -3, Fraction(1, 2), Fraction(7, 3)),
         indices=[-300, -1, 0, 1, 300])
@example(spec=RecurrenceSpec(1, 3, Fraction(-3, 5), Fraction(1, 6)),
         indices=[-300, -1, 0, 1, 300])
def test_term_fast_equals_walk(spec, indices):
    for n in indices:
        assert seq.term_fast(spec, n) == seq.term(spec, n), n
