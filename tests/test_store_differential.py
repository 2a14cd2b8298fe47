"""Property test: the integer prefix store against the reference Fraction walk."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from recsums import seq  # noqa: E402
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
    handle = seq.SequenceHandle(spec, kind)
    store = seq.PrefixStore(handle)
    for n in indices:
        assert store.term(n) == seq.term(handle, n)
    k = max(abs(n) for n in indices) % 12
    for idx in (k, -k):
        sign = 1 if idx > 0 else -1
        assert store.prefix_sum(idx) == sum(
            (seq.term(handle, sign * i) for i in range(1, k + 1)), Fraction(0))
