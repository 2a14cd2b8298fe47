"""Direct evaluation of recurrence sequences: prefix stores, fast doubling, the reference walk.

A ``SequenceHandle`` pairs a :class:`RecurrenceSpec` with a kind tag: ``U`` for
the general sequence with the spec's initial values, ``V`` for the companion
sequence (V_0 = 2, V_1 = a, same recurrence).

Every brute-force oracle reads its terms from the handle's ``PrefixStore``:
integer numerators over the common denominator d = lcm(den U_0, den U_1),
forward entries d U_k and backward entries d b^k U_{-k}, with running sums of
both sides beside them.  A store only grows, by extension, and only as far as
a lookup asks.  ``store`` hands out the store of a handle and keeps the
``STORE_CAP`` most recently used ones, so the number of live stores stays
bounded in a long-lived process.

``term`` is the plain walk in exact rational arithmetic: the trusted reference
the store is tested against, and the CLI's walk for a single term, which fills
no store.  ``term_fast`` is the log-time doubling path and is validated
against ``term``, never trusted alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .qfield import RecurrenceSpec


@dataclass(frozen=True)
class SequenceHandle:
    spec: RecurrenceSpec
    kind: str = "U"

    def __post_init__(self):
        if self.kind not in ("U", "V"):
            raise ValueError(f"kind must be 'U' or 'V', got {self.kind!r}")


PRESETS = {
    "fibonacci": (1, 1, 0, 1),
    "lucas": (1, 1, 2, 1),
    "pell": (2, 1, 0, 1),
    "pell-q": (2, 1, 1, 1),
}


def preset(name: str) -> SequenceHandle:
    if name.startswith("gen-pell:"):
        p, q = name.split(":", 1)[1].split(",")
        return generalized_pell(Fraction(p), Fraction(q))
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}")
    a, b, u0, u1 = PRESETS[name]
    return SequenceHandle(RecurrenceSpec(a, b, u0, u1))


def fibonacci() -> SequenceHandle:
    return SequenceHandle(RecurrenceSpec(1, 1, 0, 1))


def lucas() -> SequenceHandle:
    return SequenceHandle(RecurrenceSpec(1, 1, 2, 1))


def pell() -> SequenceHandle:
    return SequenceHandle(RecurrenceSpec(2, 1, 0, 1))


def pell_q() -> SequenceHandle:
    # the half-companion sequence: same recurrence, first two terms 1, 3
    return generalized_pell(1, 3)


def generalized_pell(p, q) -> SequenceHandle:
    # P_1 = p, P_2 = q under P_{n+1} = 2 P_n + P_{n-1}, so P_0 = q - 2p
    p, q = Fraction(p), Fraction(q)
    return SequenceHandle(RecurrenceSpec(2, 1, q - 2 * p, p))


def companion(spec: RecurrenceSpec) -> SequenceHandle:
    return SequenceHandle(spec, "V")


def _initial(h: SequenceHandle) -> tuple[Fraction, Fraction]:
    if h.kind == "V":
        return Fraction(2), Fraction(h.spec.a)
    return h.spec.u0, h.spec.u1


def term(h: SequenceHandle, n: int) -> Fraction:
    """Exact n-th term by the recurrence; negative n by the backward recurrence
    U_{n-1} = (U_{n+1} - a U_n) / b, which stays in Q for any nonzero b."""
    a, b = h.spec.a, h.spec.b
    lo, hi = _initial(h)
    if n >= 0:
        for _ in range(n):
            lo, hi = hi, a * hi + b * lo
        return lo
    for _ in range(-n):
        lo, hi = (hi - a * lo) / b, lo
    return lo


def terms(h: SequenceHandle, count: int) -> list[Fraction]:
    """Terms at indices 0 .. count-1, read from the handle's store."""
    return store(h).terms(count)


class PrefixStore:
    """Integer numerators of one sequence over its common denominator ``den``.

    ``_fwd[k]`` is N_k = d U_k, from N_{k+1} = a N_k + b N_{k-1}.
    ``_bwd[k]`` is M_k = d b^k U_{-k}, from M_{k+1} = -a M_k + b M_{k-1} with
    M_0 = d U_0 and M_1 = d U_1 - a d U_0: the backward recurrence
    U_{n-1} = (U_{n+1} - a U_n) / b times d b^{k+1}, so no division is needed.
    ``_fsum[k]`` is sum_{i=1}^k N_i and ``_bsum[k]`` is
    S_k = b S_{k-1} + M_k = d b^k sum_{i=1}^k U_{-i}.
    """

    __slots__ = ("a", "b", "den", "_fwd", "_bwd", "_fsum", "_bsum")

    def __init__(self, h: SequenceHandle):
        u0, u1 = _initial(h)
        d = lcm(u0.denominator, u1.denominator)
        n0, n1 = int(d * u0), int(d * u1)
        self.a, self.b, self.den = h.spec.a, h.spec.b, d
        self._fwd = [n0, n1]
        self._bwd = [n0, n1 - self.a * n0]
        self._fsum = [0]
        self._bsum = [0]

    def _grow(self, side: list[int], count: int, a: int):
        b = self.b
        lo, hi = side[-2], side[-1]
        for _ in range(count - len(side)):
            lo, hi = hi, a * hi + b * lo
            side.append(hi)

    def numerators(self, count: int) -> list[int]:
        """N_0 .. N_{count-1}: the terms U_0 .. U_{count-1} times ``den``."""
        self._grow(self._fwd, count, self.a)
        return self._fwd[:count]

    def term(self, n: int) -> Fraction:
        """U_n for any integer n; equals term(h, n)."""
        if n >= 0:
            self._grow(self._fwd, n + 1, self.a)
            return Fraction(self._fwd[n], self.den)
        self._grow(self._bwd, 1 - n, -self.a)
        return Fraction(self._bwd[-n], self.den * self.b**-n)

    def terms(self, count: int) -> list[Fraction]:
        """U_0 .. U_{count-1}."""
        d = self.den
        return [Fraction(v, d) for v in self.numerators(count)]

    def prefix_sum(self, idx: int) -> Fraction:
        """sum_{i=1}^{idx} U_i for idx >= 0, sum_{i=1}^{|idx|} U_{-i} for idx < 0."""
        k = abs(idx)
        if idx >= 0:
            side, sums, a, scale, den = self._fwd, self._fsum, self.a, 1, self.den
        else:
            side, sums, a, scale = self._bwd, self._bsum, -self.a, self.b
            den = self.den * self.b**k
        self._grow(side, k + 1, a)
        for i in range(len(sums), k + 1):
            sums.append(scale * sums[-1] + side[i])
        return Fraction(sums[k], den)


# Stores kept alive at once; the least recently used one is dropped beyond it.
STORE_CAP = 16

# The store of a handle, made on first use: store(h).term(n), .prefix_sum(idx).
store = lru_cache(maxsize=STORE_CAP)(PrefixStore)


def _fundamental_pair(a: int, b: int, n: int) -> tuple[int, int]:
    """(F_n, F_{n+1}) for the fundamental solution F_0 = 0, F_1 = 1, by doubling:
    F_{2m} = F_m (2 F_{m+1} - a F_m), F_{2m+1} = F_{m+1}^2 + b F_m^2."""
    if n == 0:
        return 0, 1
    u, w = _fundamental_pair(a, b, n >> 1)
    even = u * (2 * w - a * u)
    odd = w * w + b * u * u
    if n & 1:
        return odd, a * odd + b * even
    return even, odd


def term_fast(h: SequenceHandle, n: int) -> Fraction:
    """Log-time evaluation for n >= 0; identical value to term(h, n).

    General initial values decompose over the fundamental pair:
    U_n = u1 * F_n + u0 * b * F_{n-1}, with b * F_{n-1} = F_{n+1} - a F_n.
    """
    if n < 0:
        raise ValueError("term_fast requires n >= 0")
    a, b = h.spec.a, h.spec.b
    fn, fnext = _fundamental_pair(a, b, n)
    if h.kind == "V":
        return Fraction(2 * fnext - a * fn)
    u0, u1 = h.spec.u0, h.spec.u1
    return u1 * fn + u0 * (fnext - a * fn)
