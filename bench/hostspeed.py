"""Host-speed probe: how slow this CPU runs right now, next to each operation.

The shared hosts this benchmark runs on change speed in phases of seconds to
minutes: a fixed pure-Python loop runs up to 60% slower in one phase than in
the next, and recsums slows with it.  Raw times of the same code then spread
more from run to run than any regression worth catching.

``slowness()`` times three fixed stdlib-only kernels of the kind recsums runs
(Fraction arithmetic, big-integer multiplication, small-object method calls)
and returns the geometric mean of their times over REFERENCE_S: 1.0 on the
reference host at its usual speed, 1.5 in a phase where it runs 1.5 times
slower.  worker.py probes before the first operation and after every one, and
divides each operation's latency by the mean of the probes on either side, so
the end-to-end times are "seconds at the reference speed".

The kernels share no code with recsums, so no change to recsums moves them.
The garbage collector is off while they run (they make no cycles), so the
size of the heap an operation leaves behind does not move them either.
"""

from __future__ import annotations

import gc
import math
import time
from fractions import Fraction

# Median kernel times on the reference host (Intel Xeon 2.0 GHz, 2 vCPUs,
# Python 3.11.7), taken over 60 s of probes.
REFERENCE_S = {"fraction": 0.00111, "bigint": 0.00094, "objects": 0.00115}

_BIG = 7 ** 3000
_MOD = _BIG + 12345


def _fraction() -> None:
    x = Fraction(1, 3)
    for i in range(1, 140):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i)


def _bigint() -> None:
    y = _BIG
    for _ in range(8):
        y = y * _BIG % _MOD


class _Node:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def join(self, other):
        return _Node(self.v + other.v)


def _objects() -> None:
    seen = {}
    node = _Node(1)
    for i in range(1500):
        node = node.join(_Node(i))
        seen[i & 255] = node


KERNELS = {"fraction": _fraction, "bigint": _bigint, "objects": _objects}


def kernel_times() -> dict[str, float]:
    """Seconds each kernel takes once, with the garbage collector off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        out = {}
        for name, kernel in KERNELS.items():
            t = time.perf_counter()
            kernel()
            out[name] = time.perf_counter() - t
        return out
    finally:
        if was_enabled:
            gc.enable()


def slowness() -> float:
    """Geometric mean of kernel time / reference time: >1 means a slow phase."""
    times = kernel_times()
    return math.exp(sum(math.log(times[k] / REFERENCE_S[k]) for k in KERNELS)
                    / len(KERNELS))


if __name__ == "__main__":
    import statistics
    import sys

    seconds = float(sys.argv[1]) if len(sys.argv) > 1 else 10.0
    samples, start = [], time.perf_counter()
    while time.perf_counter() - start < seconds:
        samples.append(kernel_times())
    for name in KERNELS:
        print(f"{name:9} median {statistics.median(s[name] for s in samples):.6f} s "
              f"over {len(samples)} probes")
