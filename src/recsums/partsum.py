"""Closed forms and oracles for partial sums S = sum_{i=0}^n U_i^r x^i.

The closed forms here assume U_0 = 0 and are stated for b = 1 (both classical
exemplar sequences, the Fibonacci and Pell families, have b = 1); the general-b
evaluator ``partial_sum_general_b`` comes straight from the geometric-sum
identity, summed over Q one Binet pair at a time
(:func:`recsums.seq.binet_pairs`), and is exact for every nonzero b.  The
published even-power closed form is garbled (sign flips and a dropped constant
term); ``partial_sum_closed`` uses the corrected form, and the audit registry
keeps the printed one as a failing claim with the corrected variant attached.

Also here: the eight closed-form partial sums for the generalized Pell
sequence P_1 = p, P_2 = q, P_{n+1} = 2 P_n + P_{n-1}, expressed through the
half-companion sequence q_n (first terms 1, 3), with negative-index sums
evaluated by the backward recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import seq
from .polyrat import EvalPoleError, Polynomial, RationalFunction, poly_to_text
from .qfield import RecurrenceSpec

SYMBOLIC_LIMIT = 32


@dataclass(frozen=True)
class PartialSumQuery:
    """Sum parameters: spec, upper index n, power r, and the evaluation point x.

    x = None selects symbolic mode (polynomial / rational-function output,
    n <= SYMBOLIC_LIMIT); a Fraction x selects pointwise evaluation.
    """

    spec: RecurrenceSpec
    n: int
    r: int
    x: Fraction | None = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("upper index must be >= 0")
        if self.r < 1:
            raise ValueError("power must be >= 1")
        if self.x is not None:
            object.__setattr__(self, "x", Fraction(self.x))


def _require_closed(q: PartialSumQuery):
    if q.spec.u0 != 0:
        raise ValueError("closed forms require u0 = 0")
    if q.x is None and q.n > SYMBOLIC_LIMIT:
        raise ValueError(f"symbolic mode supports n <= {SYMBOLIC_LIMIT}")


def partial_sum_direct(q: PartialSumQuery):
    """Exact finite sum by direct evaluation; works for any initial values."""
    handle = seq.SequenceHandle(q.spec)
    if q.x is None:
        return Polynomial([t**q.r for t in seq.terms(handle, q.n + 1)])
    return seq.store(handle).power_sum(q.r, q.n, q.x, binomial=False)


def _sum_pieces(spec: RecurrenceSpec, n: int, r: int, style: str):
    """Numerator/denominator pairs of the b = 1 closed form, plus the middle
    geometric piece for even r, as (prefactor, list[(num_poly, den_poly)],
    middle_poly).  style: "corrected" or "printed"."""
    u = seq.store(seq.SequenceHandle(spec)).term
    v = seq.store(seq.companion(spec)).term
    a2 = spec.u1 * spec.u1 / Fraction(spec.discriminant)
    pieces = []
    if r % 2 == 1:
        pref = a2 ** ((r - 1) // 2)
        for k in range((r - 1) // 2 + 1):
            s = (-1) ** k
            m = r - 2 * k
            num = Polynomial(
                [0, comb(r, k) * u(m)]
            ) - Polynomial([comb(r, k) * (-1) ** (k * n) * u(m * (n + 1))]).shift(
                n + 1
            ) - Polynomial(
                [comb(r, k) * (-1) ** (k * (n + 1)) * u(m * n)]
            ).shift(n + 2)
            den = Polynomial([1, -s * v(m), -1])
            pieces.append((num, den))
        return pref, pieces, None
    pref = a2 ** (r // 2)
    for k in range(r // 2):
        s = (-1) ** k
        m = r - 2 * k
        if style == "corrected":
            num = (
                Polynomial([2 * s, -v(m)])
                - Polynomial([(-1) ** (k * n) * v(m * (n + 1))]).shift(n + 1)
                + Polynomial([(-1) ** (k * (n + 1)) * v(m * n)]).shift(n + 2)
            )
        else:
            num = (
                Polynomial([0, v(m)])
                - Polynomial([(-1) ** (k * n) * v(m * (n + 1))]).shift(n + 1)
                - Polynomial([(-1) ** (k * (n + 1)) * v(m * n)]).shift(n + 2)
            )
        num = num.scale(comb(r, k))
        den = Polynomial([1, -s * v(m), 1])
        pieces.append((num, den))
    eps = (-1) ** (r // 2)
    middle = Polynomial([eps**i for i in range(n + 1)])
    mid_coeff = comb(r, r // 2) * (eps if style == "corrected" else 1)
    return pref, pieces, middle.scale(mid_coeff)


def _closed_value(spec, n, r, x, style):
    pref, pieces, middle = _sum_pieces(spec, n, r, style)
    total = Fraction(0)
    for num, den in pieces:
        dv = den(x)
        if not dv:
            raise EvalPoleError(
                f"denominator {poly_to_text(den)} vanishes at x = {x}"
            )
        total += num(x) / dv
    if middle is not None:
        total += middle(x)
    return pref * total


def _closed_symbolic(spec, n, r, style) -> RationalFunction:
    pref, pieces, middle = _sum_pieces(spec, n, r, style)
    total = RationalFunction.zero()
    for num, den in pieces:
        total = total + RationalFunction(num, den)
    if middle is not None:
        total = total + RationalFunction(middle, Polynomial([1]))
    return pref * total


def partial_sum_closed(q: PartialSumQuery):
    """Closed-form value of the partial sum; equals partial_sum_direct exactly.

    Requires u0 = 0.  For b != 1 the quadratic-denominator form does not
    apply and pointwise queries are routed to partial_sum_general_b.
    """
    _require_closed(q)
    if q.spec.b != 1:
        if q.x is None:
            raise ValueError("symbolic closed form requires b = 1; "
                             "evaluate pointwise via partial_sum_general_b")
        return partial_sum_general_b(q)
    if q.x is None:
        return _closed_symbolic(q.spec, q.n, q.r, "corrected")
    return _closed_value(q.spec, q.n, q.r, q.x, "corrected")


def partial_sum_printed(q: PartialSumQuery):
    """The published closed form, evaluated literally (audit input only).

    Identical to partial_sum_closed for odd r; for even r it keeps the
    published numerator signs, dropped constant, and unsigned middle term.
    """
    _require_closed(q)
    if q.spec.b != 1:
        raise ValueError("published form is a b = 1 claim")
    if q.x is None:
        return _closed_symbolic(q.spec, q.n, q.r, "printed")
    return _closed_value(q.spec, q.n, q.r, q.x, "printed")


def corollary_r1(spec: RecurrenceSpec, n: int, variant: str = "printed") -> RationalFunction:
    """First-power corollary x(U_1 - U_{n+1} x^n - U_n x^{n+?}) / (1 - V_1 x - x^2).

    printed: exponents (n, n+2) inside the parentheses; the shifted variant
    uses (n, n+1), which matches the r = 1 case of the main closed form.
    """
    if variant not in ("printed", "shifted-exponent"):
        raise ValueError(f"unknown variant {variant!r}")
    u = seq.store(seq.SequenceHandle(spec)).term
    last = n + 2 if variant == "printed" else n + 1
    inner = (
        Polynomial([spec.u1])
        - Polynomial([u(n + 1)]).shift(n)
        - Polynomial([u(n)]).shift(last)
    )
    return RationalFunction(inner.shift(1), Polynomial([1, -spec.a, -1]))


def _geometric_pair_sum(w0, w1, p, q, n: int) -> Fraction:
    """sum_{i=0}^n w_i for w_{i+1} = p w_i - q w_{i-1} (a geometric sum if q = 0).

    Summing the recurrence gives
    (1 - p + q) S = w0 + w1 - p w0 - w_{n+1} + q w_n.
    When 1 - p + q = 0, one root is 1 and the other is q, so
    w_i = (w0 - e) + e q^i with e = (w1 - w0) / (q - 1); when q = 1 as well,
    the root 1 is double and w_i = w0 + (w1 - w0) i.
    """
    f = 1 - p + q
    if f:
        w_n, w_next = (seq.lucas_term(p, q, w0, w1, i) for i in (n, n + 1))
        return (w0 + w1 - p * w0 - w_next + q * w_n) / f
    if q != 1:
        e = (w1 - w0) / (q - 1)
        return (n + 1) * (w0 - e) + e * (q ** (n + 1) - 1) / (q - 1)
    return (n + 1) * w0 + (w1 - w0) * Fraction(n * (n + 1), 2)


def partial_sum_general_b(q: PartialSumQuery) -> Fraction:
    """Exact partial sum for any nonzero b, from the geometric-sum identity

        S = sum_k C(r,k) A^k (-B)^{r-k} sum_{i=0}^n t_k^i,
        t_k = alpha^k beta^{r-k} x,

    summed over Q one Galois-conjugate pair (k, r-k) at a time, as the
    rational sequence of ``seq.binet_pairs``.  Requires u0 = 0.

    t_k = 1 is a removable case, not a pole: the pair then has the root 1
    (specs with a rational root of unit modulus hit it, e.g. beta = -1 for
    a = 1, b = 2), and its sum is taken from the closed form for that root.
    """
    if q.spec.u0 != 0:
        raise ValueError("closed forms require u0 = 0")
    if q.x is None:
        raise ValueError("general-b evaluator is pointwise; pass x")
    pairs, middle = seq.binet_pairs(q.spec, q.r, q.x)
    total = sum((_geometric_pair_sum(*pair, q.n) for pair in pairs), Fraction(0))
    if middle is not None:
        c, t = middle
        total += _geometric_pair_sum(c, c * t, t, 0, q.n)
    return total


# --- generalized Pell partial-sum table -------------------------------------

HORADAM_VARIANTS = (
    "S4n", "S4n-2", "S4n+1", "S4n-1",
    "S-4n", "S-4n+2", "S-4n+1", "S-4n-1",
)


def horadam_index(variant: str, n: int) -> int:
    return {
        "S4n": 4 * n, "S4n-2": 4 * n - 2, "S4n+1": 4 * n + 1, "S4n-1": 4 * n - 1,
        "S-4n": -4 * n, "S-4n+2": -4 * n + 2,
        "S-4n+1": -4 * n + 1, "S-4n-1": -4 * n - 1,
    }[variant]


def horadam_sums(p, q, variant: str, n: int, corrected: bool = False) -> Fraction:
    """Closed form for the partial sum named by `variant`, n >= 1.

    The published S4n-1 form ends in -q; brute-force comparison shows the
    correct tail is -p (`corrected=True` selects it).  The other seven match
    the direct sums as printed.
    """
    if n < 1:
        raise ValueError("table index must be >= 1")
    if variant not in HORADAM_VARIANTS:
        raise ValueError(f"unknown table entry {variant!r}")
    p, q = Fraction(p), Fraction(q)
    qq = seq.store(seq.pell_q()).term
    if variant == "S4n":
        return qq(2 * n) * (p * qq(2 * n - 1) + q * qq(2 * n)) + p - q
    if variant == "S4n-2":
        return qq(2 * n - 1) * (p * qq(2 * n - 2) + q * qq(2 * n - 1))
    if variant == "S4n+1":
        return qq(2 * n) * (p * qq(2 * n) + q * qq(2 * n + 1)) - q
    if variant == "S4n-1":
        tail = -p if corrected else -q
        return qq(2 * n) * (p * qq(2 * n - 2) + q * qq(2 * n - 1)) + tail
    if variant == "S-4n":
        return qq(2 * n) * (-p * qq(2 * n + 2) + q * qq(2 * n + 1)) + 3 * p - q
    if variant == "S-4n+2":
        return qq(2 * n) * (-p * qq(2 * n) + q * qq(2 * n - 1)) + 2 * p
    if variant == "S-4n+1":
        return qq(2 * n) * (p * qq(2 * n + 1) - q * qq(2 * n)) + p
    return qq(2 * n + 1) * (p * qq(2 * n + 2) - q * qq(2 * n + 1)) + 2 * p - q


def horadam_direct(p, q, idx: int) -> Fraction:
    """sum_{i=1}^{idx} P_i for idx > 0, sum_{i=1}^{|idx|} P_{-i} for idx < 0."""
    return seq.store(seq.generalized_pell(p, q)).prefix_sum(idx)
