"""Closed forms and oracles for partial sums S = sum_{i=0}^n U_i^r x^i.

Every sum function takes ``(spec, r, n, x)``, as ``binsum``'s do: the power
before the upper index.  x = None selects symbolic mode (a polynomial or
rational function in x), a rational x a value.

The closed forms hold for every initial value, every nonzero b and every n.
Both come from the list of :func:`recsums.seq.binet_pairs`, built from any
U_0 and U_1, each entry a rational sequence of order at most two: the
symbolic form adds one rational function per entry, and the pointwise
evaluator ``partial_sum_general_b`` reads each entry's partial sums as one
term of an order-3 recurrence, with no division, so a vanishing pair
denominator 1 - P + Q (a root 1) needs no special case.
The paper states the form for b = 1, where the pair denominators are
1 - (-1)^k V_{r-2k} x + x^2.  The published even-power form is garbled (sign
flips and a dropped constant term); ``partial_sum_closed`` uses the
corrected form, and the audit registry keeps the printed one
(``partial_sum_printed``) as a failing claim with the corrected variant
attached.

Also here: the eight closed-form partial sums for the generalized Pell
sequence P_1 = p, P_2 = q, P_{n+1} = 2 P_n + P_{n-1}, expressed through the
half-companion sequence q_n (first terms 1, 3), with negative-index sums
read forward from the reflected spec's store.
"""

from __future__ import annotations

from fractions import Fraction

from . import seq
from .polyrat import Polynomial, RationalFunction
from .qfield import RecurrenceSpec


def _check(r: int, n: int):
    """Reject what no sum serves: n < 0 or r < 1."""
    if n < 0:
        raise ValueError("upper index must be >= 0")
    if r < 1:
        raise ValueError("power must be >= 1")


def partial_sum_direct(spec: RecurrenceSpec, r: int, n: int, x=None):
    """Exact finite sum by direct evaluation; works for any initial values.

    x = None gives the polynomial sum_i U_i^r x^i, a rational x its value.
    """
    _check(r, n)
    if x is None:
        return Polynomial([t**r for t in seq.terms(spec, n + 1)])
    return seq.store(spec).power_row(r, [n], x, False)[0]


def _symbolic_sum(spec: RecurrenceSpec, r: int, n: int,
                  printed: bool = False) -> RationalFunction:
    """sum_{i=0}^n U_i^r x^i as a rational function in x, one entry of
    ``seq.binet_pairs(spec, r, 1)`` at a time.  The middle entry of even r
    (the one with Q = 0) is the polynomial sum_{i<=n} c t^i x^i.

    ``printed`` selects the published even-r form (a b = 1 claim; for odd r
    it is the form above): each pair numerator loses its constant and has
    its x and x^{n+2} terms negated, and the middle term loses its sign
    (-1)^{r/2}.
    """
    printed = printed and r % 2 == 0
    parts = []
    for w0, w1, p, q in seq.binet_pairs(spec, r, 1):
        if not q:
            c = w0 * (-1) ** (r // 2) if printed else w0
            parts.append(([c * p**i for i in range(n + 1)], [1]))
            continue
        # the pair's generating function minus x^{n+1} times that of the
        # shifted pair: w0 + (w1 - p w0) x - w_{n+1} x^{n+1} + q w_n x^{n+2},
        # where at n = 0 the x term and the x^{n+1} term share a degree
        w_n, w_next = seq.linear_row([((-q, p), (w0, w1))], [n, n + 1])
        terms = (0, w0), (1, w1 - p * w0), (n + 1, -w_next), (n + 2, q * w_n)
        if printed:
            _, (_, lin), high, (top, last) = terms
            terms = ((1, -lin), high, (top, -last))
        num = [Fraction(0)] * (n + 3)
        for k, c in terms:
            num[k] += c
        parts.append((num, [1, -p, q]))
    return RationalFunction.sum(parts)


def partial_sum_closed(spec: RecurrenceSpec, r: int, n: int, x=None):
    """Closed-form value of the partial sum; equals partial_sum_direct exactly.

    Symbolic sums (x = None) get the rational function built pair by pair;
    pointwise sums are partial_sum_general_b.  Both hold for every initial
    value and every nonzero b.
    """
    if x is not None:
        return partial_sum_general_b(spec, r, n, x)
    _check(r, n)
    return _symbolic_sum(spec, r, n)


def partial_sum_printed(spec: RecurrenceSpec, r: int, n: int) -> RationalFunction:
    """The published closed form as a rational function in x (audit input only).

    Identical to partial_sum_closed for odd r; for even r it keeps the
    published numerator signs, dropped constant, and unsigned middle term.
    b = 1 and u0 = 0 are the published claim's hypotheses, so nothing else
    is served here.
    """
    _check(r, n)
    seq.require_b1_u0(spec)
    return _symbolic_sum(spec, r, n, printed=True)


def corollary_r1(spec: RecurrenceSpec, n: int, variant: str = "printed") -> RationalFunction:
    """First-power corollary x(U_1 - U_{n+1} x^n - U_n x^{n+?}) / (1 - V_1 x - x^2).

    printed: exponents (n, n+2) inside the parentheses; the shifted variant
    uses (n, n+1), which matches the r = 1 case of the main closed form.
    Both are claims for b = 1 and u0 = 0 only.
    """
    seq.require_b1_u0(spec)
    if variant not in ("printed", "shifted-exponent"):
        raise ValueError(f"unknown variant {variant!r}")
    u = seq.store(spec).term
    last = n + 2 if variant == "printed" else n + 1
    # x times the parenthesis; at n = 0 the U_1 and U_{n+1} terms share a degree
    num = [0] * (last + 2)
    for k, c in ((1, spec.u1), (n + 1, -u(n + 1)), (last + 1, -u(n))):
        num[k] += c
    return RationalFunction(num, [1, -spec.a, -1])


def partial_sum_general_b(spec: RecurrenceSpec, r: int, n: int, x) -> Fraction:
    """Exact partial sum for any nonzero b, from the geometric-sum identity

        S = sum_k C(r,k) A^k (-B)^{r-k} sum_{i=0}^n t_k^i,
        t_k = alpha^k beta^{r-k} x,

    summed over Q one entry of ``seq.binet_pairs`` at a time.

    An entry's partial sums S_j = w_0 + ... + w_j have the roots 1, t_k and
    t_{r-k}: S_{j+3} = (1 + P) S_{j+2} - (P + Q) S_{j+1} + Q S_j, read off at
    j = n by ``seq.linear_row`` (one doubling kernel call per entry) from
    S_0, S_1, S_2.  A root t_k equal to 1, or to 0, is no special case.
    """
    if x is None:
        raise ValueError("general-b evaluator is pointwise; pass x")
    _check(r, n)
    return seq.linear_row([((q, -p - q, 1 + p), (w0, w0 + w1, w0 + w1 + p * w1 - q * w0))
                           for w0, w1, p, q in seq.binet_pairs(spec, r, x)], [n])[0]


# --- generalized Pell partial-sum table -------------------------------------

# table entry -> (sign, offset) of its index sign 4n + offset
_HORADAM_INDEX = {"S4n": (1, 0), "S4n-2": (1, -2), "S4n+1": (1, 1), "S4n-1": (1, -1),
                  "S-4n": (-1, 0), "S-4n+2": (-1, 2), "S-4n+1": (-1, 1), "S-4n-1": (-1, -1)}
HORADAM_VARIANTS = tuple(_HORADAM_INDEX)


def horadam_index(variant: str, n: int) -> int:
    if variant not in _HORADAM_INDEX:
        raise ValueError(f"unknown table entry {variant!r}")
    sign, offset = _HORADAM_INDEX[variant]
    return sign * 4 * n + offset


def horadam_sums(p, q, variant: str, n: int, corrected: bool = False) -> Fraction:
    """Closed form for the partial sum named by `variant`, n >= 1.

    The published S4n-1 form ends in -q; brute-force comparison shows the
    correct tail is -p (`corrected=True` selects it).  The other seven match
    the direct sums as printed.
    """
    if n < 1:
        raise ValueError("table index must be >= 1")
    horadam_index(variant, n)       # refuses an unknown entry
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


def horadam_direct(p, q, idxs) -> list[Fraction]:
    """sum_{i=1}^{idx} P_i for idx > 0, sum_{i=1}^{|idx|} P_{-i} for idx < 0
    (the reflected spec's b^i P_{-i}, with b = 1), at each idx of idxs: the
    store's plain row of first powers at x = 1, which starts at i = 0, less
    its P_0."""
    sizes = [abs(idx) for idx in idxs]
    signs = {idx > 0 for idx in idxs if idx}
    if len(signs) > 1 or sizes != sorted(sizes):
        raise ValueError(f"a row of indices has one sign and |idx| ascending, not {idxs}")
    spec = seq.generalized_pell(p, q)
    store = seq.store(seq.reflected(spec) if False in signs else spec)
    first = store.term(0)
    return [total - first for total in store.power_row(1, sizes, 1, False)]
