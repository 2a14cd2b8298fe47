"""Recurrence sequences: prefix stores, the reference walk, fast doubling, Binet pairs.

A :class:`RecurrenceSpec` names a sequence: its recurrence and its initial
values.  The companion sequence V (V_0 = 2, V_1 = a, same recurrence) is the
spec with those initial values.

Every brute-force oracle reads its terms from the spec's ``PrefixStore``:
integer numerators d U_k over the common denominator d = lcm(den U_0, den U_1),
for k >= 0 only; a sum over them stays in integers until one division.  A
store only grows, by extension, and only as far as a lookup asks; a negative
index or count is refused.  A negative index is the ``reflected`` spec read
forward, since its k-th term is b^k U_{-k}.  ``store``
hands out the store of a spec, keyed by the spec (frozen and hashable, so
equal specs share one store), and keeps the ``STORE_CAP`` most recently used
ones, so the number of live stores stays bounded in a long-lived process.

``term`` is the plain walk in exact rational arithmetic: the tests' trusted
reference for the store and the kernel, called by no CLI path.
``_doubling`` is the one log-time doubling kernel, for a rational linear
recurrence of any order d with constant coefficients and any initial values:
it doubles z^n modulo the characteristic polynomial (Fiduccia's method) in
one of two rings, with one loop body.  Over ints, ``linear_term`` reduces its
result once to a Fraction, for every exact caller; ``term_fast`` is that at
order 2 at every integer index (on the reflected spec at n < 0), checked
against ``term``.  Over exact Decimal integers, ``term_text`` returns the
printed U_n at n >= 0 without ever holding it as an int, for a large value
(``cli._cmd_seq`` holds the cut between the two).  Neither fills a store.

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
from math import gcd, isqrt, lcm

from .polyrat import _decimal, _exact_decimal
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

    ``_fwd[k]`` is N_k = d U_k, from N_{k+1} = a N_k + b N_{k-1}, for k >= 0
    only; a negative index is read from the store of ``reflected(spec)``.
    Sums read the numerators and divide once, by a power of ``den``.
    """

    __slots__ = ("a", "b", "den", "_fwd")

    def __init__(self, spec: RecurrenceSpec):
        u0, u1 = spec.u0, spec.u1
        d = lcm(u0.denominator, u1.denominator)
        self.a, self.b, self.den = spec.a, spec.b, d
        self._fwd = [int(d * u0), int(d * u1)]

    def _grow(self, count: int):
        fwd, a, b = self._fwd, self.a, self.b
        lo, hi = fwd[-2], fwd[-1]
        for _ in range(count - len(fwd)):
            lo, hi = hi, a * hi + b * lo
            fwd.append(hi)

    def numerators(self, count: int) -> list[int]:
        """N_0 .. N_{count-1}: the terms U_0 .. U_{count-1} times ``den``."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
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


# Stores kept alive at once; the least recently used one is dropped beyond it.
STORE_CAP = 16

# The store of a spec, made on first use: store(spec).term(n), .numerators(count).
store = lru_cache(maxsize=STORE_CAP)(PrefixStore)


def _scale(coeffs) -> int:
    """An s making every a_i = c_i s^{d-i} an integer, built from the top
    coefficient down: a denominator s^{d-i} already clears adds nothing, a
    square one at d - i = 2 adds its root (so x = p/q's q^2 in a Binet pair's
    Q adds q, not q^2), and any other adds itself."""
    s, d = 1, len(coeffs)
    for i in range(d - 1, -1, -1):
        den = coeffs[i].denominator
        if s ** (d - i) % den:
            root = isqrt(den)
            s = lcm(s, root if d - i == 2 and root * root == den else den)
    return s


def _doubling(coeffs, initial, n: int, ring=int):
    """(v, e s^n) with w_n = v / (e s^n), v in the ring ``ring`` maps ints
    into: ``int`` itself, or ``polyrat._decimal`` for exact Decimal integers
    (inside ``polyrat._exact_decimal()``, and for integer c_i only).

    v_j = s^j w_j, with s from ``_scale``, runs on the integer recurrence with
    coefficients a_i = c_i s^{d-i}.  Fiduccia's method doubles z^n modulo
    z^d - sum_i a_i z^i in the ring: square, shift by z where the bit of n is
    set, and fold the top degrees down.  If the remainder is sum_i r_i z^i,
    v_n = sum_i r_i v_i; with e the common denominator of the initial values,
    v = sum_i r_i s^i (e w_i).  Nothing here needs distinct or nonzero roots.
    """
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    d = len(coeffs)
    s = _scale(coeffs)
    e = lcm(*[w.denominator for w in initial])
    a = [ring(c.numerator * (s ** (d - i) // c.denominator))
         for i, c in enumerate(coeffs)]
    rem = [1] + [0] * (d - 1)         # int 0 and 1 mix exactly with Decimals
    for bit in bin(n)[2:]:
        o = bit == "1"
        sq = [0] * (2 * d)
        for i, ri in enumerate(rem):
            if ri:
                sq[2 * i + o] += ri * ri
                for j in range(i + 1, d):
                    sq[i + j + o] += 2 * ri * rem[j]
        for k in range(2 * d - 1, d - 1, -1):
            top = sq[k]
            if top:
                for i, ai in enumerate(a, k - d):
                    sq[i] += top * ai
        rem = sq[:d]
    v = sum(r * ring(s**i * w.numerator * (e // w.denominator))
            for i, (r, w) in enumerate(zip(rem, initial)))
    return v, e * s**n


def linear_term(coeffs, initial, n: int) -> Fraction:
    """w_n for w_{j+d} = c_0 w_j + c_1 w_{j+1} + ... + c_{d-1} w_{j+d-1}, from
    the rational coefficients c_i and initial values w_0 .. w_{d-1}, n >= 0:
    ``_doubling`` in ints, reduced once."""
    return Fraction(*_doubling(coeffs, initial, n))


def term_fast(spec: RecurrenceSpec, n: int) -> Fraction:
    """U_n for any integer n in log time; identical value to term(spec, n).
    For n = -k < 0 it is term k of ``reflected(spec)``, b^k U_{-k}, over b^k."""
    if n < 0:
        return term_fast(reflected(spec), -n) / Fraction(spec.b) ** -n
    return linear_term((spec.b, spec.a), (spec.u0, spec.u1), n)


def term_text(spec: RecurrenceSpec, n: int) -> str:
    """str(term_fast(spec, n)) for n >= 0, with ``_doubling`` run over exact
    Decimal integers: the coefficients b, a are integers, so s = 1 and
    U_n = v / e.  v is reduced by g = gcd(v mod e, e), divided exactly, and
    printed by str(), which libmpdec does in linear time.  No int ever holds
    U_n, so it is never converted to decimal; only the initial values (and
    v mod e, below e) cross between the rings.  ``cli._cmd_seq`` says where
    the CLI calls it."""
    with _exact_decimal():
        v, e = _doubling((spec.b, spec.a), (spec.u0, spec.u1), n, _decimal)
        g = gcd(int(v % _decimal(e)), e)
        num = str(v if g == 1 else v // _decimal(g))
        return num if g == e else num + "/" + str(_decimal(e // g))


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
    pairs, c = [], 1                # c = C(r, k)
    for k in range((r + 1) // 2):
        m = r - 2 * k
        pairs.append((
            c * n_ab**k * linear_term((-n_ab, u0), (2, u0), m),
            c * (-b * n_ab) ** k * linear_term((b * n_ab, u1), (2, u1), m) * x,
            (-b) ** k * linear_term((b, a), (2, a), m) * x,
            (-b) ** r * x * x,
        ))
        c = c * (r - k) // (k + 1)
    if r % 2 == 0:
        c *= n_ab ** (r // 2)
        t = (-b) ** (r // 2) * x
        pairs.append((c, c * t, t, 0))
    return tuple(pairs)
