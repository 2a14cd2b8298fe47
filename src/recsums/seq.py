"""Recurrence sequences: prefix stores, the reference walk, fast doubling, Binet pairs.

A :class:`RecurrenceSpec` names a sequence: its recurrence and its initial
values.  The companion sequence V (V_0 = 2, V_1 = a, same recurrence) is the
spec with those initial values.

Every brute-force oracle reads its terms from the spec's ``PrefixStore``:
integer numerators d U_k over the common denominator d = lcm(den U_0, den U_1),
for k >= 0 only, with their running sums beside them.  A store only grows, by
extension, and only as far as a lookup asks.  A negative index is the
``reflected`` spec read forward, since its k-th term is b^k U_{-k}.  ``store``
hands out the store of a spec, keyed by the spec (frozen and hashable, so
equal specs share one store), and keeps the ``STORE_CAP`` most recently used
ones, so the number of live stores stays bounded in a long-lived process.

``term`` is the plain walk in exact rational arithmetic: the tests' trusted
reference for the store and the kernel, called by no CLI path.  ``lucas_term``
is the one log-time doubling kernel, for any rational second-order recurrence
and initial values; ``term_fast`` is that kernel at every integer index (on
the reflected spec at n < 0), checked against ``term``; it fills no store.

``binet_pairs`` is the table every closed form is evaluated from, over Q: the
Binet terms of U_i^r x^i grouped into Galois-conjugate pairs, each pair a
rational second-order sequence given by its initial values and recurrence,
and for even r the self-conjugate middle term as a last, first-order entry.
It does not depend on the upper index n, so it is built once per (spec, r, x)
and memoised like the stores: an immutable tuple, the ``BINET_CAP`` most
recently used tables kept.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from .qfield import RecurrenceSpec


PRESETS = {
    "fibonacci": (1, 1, 0, 1),
    "lucas": (1, 1, 2, 1),
    "pell": (2, 1, 0, 1),
    "pell-q": (2, 1, 1, 1),
}


def preset(name: str) -> RecurrenceSpec:
    if name.startswith("gen-pell:"):
        try:
            p, q = (Fraction(v) for v in name.split(":", 1)[1].split(","))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"malformed preset {name!r}: expected gen-pell:p,q "
                             f"with rational p and q") from None
        return generalized_pell(p, q)
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}")
    a, b, u0, u1 = PRESETS[name]
    return RecurrenceSpec(a, b, u0, u1)


def fibonacci() -> RecurrenceSpec:
    return RecurrenceSpec(1, 1, 0, 1)


def pell_q() -> RecurrenceSpec:
    # the half-companion sequence: same recurrence, first two terms 1, 3
    return generalized_pell(1, 3)


def generalized_pell(p, q) -> RecurrenceSpec:
    # P_1 = p, P_2 = q under P_{n+1} = 2 P_n + P_{n-1}, so P_0 = q - 2p
    p, q = Fraction(p), Fraction(q)
    return RecurrenceSpec(2, 1, q - 2 * p, p)


def companion(spec: RecurrenceSpec) -> RecurrenceSpec:
    return RecurrenceSpec(spec.a, spec.b, 2, spec.a)


def reflected(spec: RecurrenceSpec) -> RecurrenceSpec:
    """The spec of W_k = b^k U_{-k}: U_{n-1} = (U_{n+1} - a U_n) / b times b^{k+1}
    is W_{k+1} = -a W_k + b W_{k-1}, with W_0 = U_0 and W_1 = U_1 - a U_0."""
    return RecurrenceSpec(-spec.a, spec.b, spec.u0, spec.u1 - spec.a * spec.u0)


def term(spec: RecurrenceSpec, n: int) -> Fraction:
    """Exact n-th term in O(|n|) steps, the tests' reference; negative n by the
    backward recurrence U_{n-1} = (U_{n+1} - a U_n) / b, in Q for b != 0."""
    a, b, lo, hi = spec.a, spec.b, spec.u0, spec.u1
    if n >= 0:
        for _ in range(n):
            lo, hi = hi, a * hi + b * lo
        return lo
    for _ in range(-n):
        lo, hi = (hi - a * lo) / b, lo
    return lo


def terms(spec: RecurrenceSpec, count: int) -> list[Fraction]:
    """Terms at indices 0 .. count-1, read from the spec's store."""
    return store(spec).terms(count)


class PrefixStore:
    """Integer numerators of one sequence over its common denominator ``den``.

    ``_fwd[k]`` is N_k = d U_k, from N_{k+1} = a N_k + b N_{k-1}, and
    ``_fsum[k]`` is sum_{i=1}^k N_i, for k >= 0 only; a negative index is
    read from the store of ``reflected(spec)``.
    """

    __slots__ = ("a", "b", "den", "_fwd", "_fsum")

    def __init__(self, spec: RecurrenceSpec):
        u0, u1 = spec.u0, spec.u1
        d = lcm(u0.denominator, u1.denominator)
        self.a, self.b, self.den = spec.a, spec.b, d
        self._fwd = [int(d * u0), int(d * u1)]
        self._fsum = [0]

    def _grow(self, count: int):
        fwd, a, b = self._fwd, self.a, self.b
        lo, hi = fwd[-2], fwd[-1]
        for _ in range(count - len(fwd)):
            lo, hi = hi, a * hi + b * lo
            fwd.append(hi)

    def numerators(self, count: int) -> list[int]:
        """N_0 .. N_{count-1}: the terms U_0 .. U_{count-1} times ``den``."""
        self._grow(count)
        return self._fwd[:count]

    def term(self, n: int) -> Fraction:
        """U_n for n >= 0; equals term(spec, n)."""
        if n < 0:
            raise ValueError(f"index must be >= 0, got {n}")
        self._grow(n + 1)
        return Fraction(self._fwd[n], self.den)

    def terms(self, count: int) -> list[Fraction]:
        """U_0 .. U_{count-1}."""
        d = self.den
        return [Fraction(v, d) for v in self.numerators(count)]

    def power_sum(self, r: int, n: int, x, binomial: bool) -> Fraction:
        """sum_{i=0}^n w_i U_i^r x^i, with w_i = C(n,i) if binomial, else 1.

        With x = p / q the sum is sum_i w_i N_i^r p^i q^(n-i) over
        den^r q^n: integers until one division.
        """
        x = Fraction(x)
        p, q = x.numerator, x.denominator
        total = 0
        c = 1
        pp = 1
        for i, num in enumerate(self.numerators(n + 1)):
            # Horner in q: after step i, total = sum_{j<=i} w_j N_j^r p^j q^(i-j)
            total = total * q + c * num**r * pp
            if binomial:
                c = c * (n - i) // (i + 1)
            pp *= p
        return Fraction(total, self.den**r * q**n)

    def prefix_sum(self, idx: int) -> Fraction:
        """sum_{i=1}^{idx} U_i for idx >= 0."""
        if idx < 0:
            raise ValueError(f"index must be >= 0, got {idx}")
        self._grow(idx + 1)
        fwd, sums = self._fwd, self._fsum
        for i in range(len(sums), idx + 1):
            sums.append(sums[-1] + fwd[i])
        return Fraction(sums[idx], self.den)


# Stores kept alive at once; the least recently used one is dropped beyond it.
STORE_CAP = 16

# The store of a spec, made on first use: store(spec).term(n), .prefix_sum(idx).
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


def lucas_term(p, q, w0, w1, n: int) -> Fraction:
    """w_n for w_{j+1} = p w_j - q w_{j-1}, with p, q, w0, w1 rational and n >= 0.

    v_j = s^j w_j, with s = lcm(den p, den q), runs on the integer recurrence
    v_{j+1} = (s p) v_j - (s^2 q) v_{j-1}, so the doubling stays in integers:
    v_n = v_1 F_n + v_0 (F_{n+1} - s p F_n).  Nothing here needs distinct or
    nonzero roots.
    """
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    p, q = Fraction(p), Fraction(q)
    s = lcm(p.denominator, q.denominator)
    a = int(s * p)
    fn, fnext = _fundamental_pair(a, -int(s * s * q), n)
    return Fraction(s * w1 * fn + w0 * (fnext - a * fn)) / s**n


def term_fast(spec: RecurrenceSpec, n: int) -> Fraction:
    """U_n for any integer n in log time; identical value to term(spec, n).
    For n = -k < 0 it is term k of ``reflected(spec)``, b^k U_{-k}, over b^k."""
    if n < 0:
        return term_fast(reflected(spec), -n) / Fraction(spec.b) ** -n
    return lucas_term(spec.a, -spec.b, spec.u0, spec.u1, n)


# Binet-pair tables kept at once, keyed by (spec, r, x); at least the number
# of distinct keys one audit claim walks round (thm4 has 64), or its cells,
# sorted by n first, would never hit.
BINET_CAP = 128


@lru_cache(maxsize=BINET_CAP)
def binet_pairs(spec: RecurrenceSpec, r: int, x) -> tuple[tuple, ...]:
    """The Binet expansion of U_i^r x^i, summed over Galois-conjugate pairs.

    U_i^r x^i = sum_k c_k t_k^i with c_k = C(r,k) A^k (-B)^{r-k} and
    t_k = alpha^k beta^{r-k} x.  Conjugation swaps term k and term r-k, so
    w_i = c_k t_k^i + c_{r-k} t_{r-k}^i is rational, with
    w_{i+1} = P w_i - Q w_{i-1}.  Returns one list of (w0, w1, P, Q): an
    entry for each 0 <= k < r/2, and for even r a last entry
    (c, c t, t, 0) for the middle term c_{r/2} t_{r/2}^i, its own conjugate
    (Theorem 1's linear pole).  With N = -AB and m = r - 2k:

        w0 = C(r,k) N^k L0_m,   w1 = C(r,k) (-b N)^k L1_m x,
        P = (-b)^k V_m x,       Q = (-b)^r x^2,

    where V_m = alpha^m + beta^m, L0_m = A^m + (-B)^m and
    L1_m = (A alpha)^m + (-B beta)^m are rational Lucas sequences in m, with
    (P, Q) = (a, -b), (U_0, N) and (U_1, -b N); the middle term has
    c = C(r, r/2) N^{r/2} and t = (-b)^{r/2} x.  Only the middle entry has
    Q = 0 when x != 0.  No value leaves Q, and no store is filled.

    The table is a tuple, memoised per (spec, r, x), the ``BINET_CAP`` most
    recently used ones kept; x = 1 and Fraction(1) share an entry.
    """
    a, b, u0, u1 = spec.a, spec.b, spec.u0, spec.u1
    x = Fraction(x)
    n_ab = -(u1 * u1 - a * u0 * u1 - b * u0 * u0) / spec.discriminant
    pairs = []
    for k in range((r + 1) // 2):
        m = r - 2 * k
        c = comb(r, k)
        pairs.append((
            c * n_ab**k * lucas_term(u0, n_ab, 2, u0, m),
            c * (-b * n_ab) ** k * lucas_term(u1, -b * n_ab, 2, u1, m) * x,
            (-b) ** k * lucas_term(a, -b, 2, a, m) * x,
            (-b) ** r * x * x,
        ))
    if r % 2 == 0:
        c = comb(r, r // 2) * n_ab ** (r // 2)
        t = (-b) ** (r // 2) * x
        pairs.append((c, c * t, t, 0))
    return tuple(pairs)
