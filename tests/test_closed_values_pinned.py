"""Pinned digest of the values the doubling kernel produces.

``term_fast`` at both signs of n, and the pointwise closed partial and
binomial sums, are rendered over a grid of specs (square, negative and
root-of-unity discriminants, a = 0, rational and nonzero initial values),
powers, upper indices and values of x.  A raised error is rendered as its type
and message.  The sha256 of the rendering was taken before the kernel was
rewritten, so any later change to the kernel that moves one value, or one
error, fails here.  It was taken again when the closed partial sums stopped
refusing u0 != 0: the 416 ``sum`` lines of the two specs with u0 != 0 went
from that refusal to values, each equal to ``partial_sum_direct``, and no
other line moved.
"""

import hashlib
from fractions import Fraction

from recsums import seq
from recsums.binsum import binom_sum_closed
from recsums.partsum import partial_sum_general_b
from recsums.qfield import RecurrenceSpec

F = Fraction

SPECS = [
    RecurrenceSpec(1, 1, 0, 1), RecurrenceSpec(2, 1, 0, 1),
    RecurrenceSpec(1, 2, 0, 1), RecurrenceSpec(1, -1, 0, 1),
    RecurrenceSpec(0, 1, 0, 1), RecurrenceSpec(0, -3, 0, 1),
    RecurrenceSpec(3, -3, 0, 2), RecurrenceSpec(2, 3, 0, F(-2, 3)),
    RecurrenceSpec(-2, 1, 0, F(5, 4)), RecurrenceSpec(1, -3, 0, 1),
    RecurrenceSpec(1, 1, 2, 1), RecurrenceSpec(2, -3, F(1, 3), 1),
]
XS = (F(1), F(-1), F(2), F(-1, 2))


def _render(fn, *args) -> str:
    try:
        return str(fn(*args))
    except Exception as exc:   # an error is part of the pinned behaviour
        return f"{type(exc).__name__}: {exc}"


def _lines():
    for spec in SPECS:
        for n in range(-12, 13):
            yield f"term_fast {spec} {n} {_render(seq.term_fast, spec, n)}"
        for r in range(1, 5):
            for n in range(13):
                for x in XS:
                    cell = f"{spec} {r} {n} {x}"
                    yield f"sum {cell} {_render(partial_sum_general_b, spec, r, n, x)}"
                    yield f"binom {cell} {_render(binom_sum_closed, spec, r, n, x)}"


def test_kernel_values_hash_is_pinned():
    lines = list(_lines())
    assert len(lines) == len(SPECS) * (25 + 2 * 4 * 13 * len(XS))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == (
        "444e6138012a77fdda06f7394307197063ac885b429b1c098208b8e0da04cb37")
