"""Binomial-weighted sums sum_i C(n,i) U_i^r x^i and their closed forms.

``binom_sum_closed`` evaluates the fully general identity

    sum_{k=0}^r C(r,k) A^k (-B)^{r-k} (1 + alpha^k beta^{r-k} x)^n

over Q, one Galois-conjugate pair of terms at a time: each entry of
:func:`recsums.seq.binet_pairs` gives a rational second-order sequence in n,
read off by ``seq.linear_row``: one call of the doubling kernel
``seq.linear_term`` per pair at a single n, and along a longer row one
doubling to its first n and then a step per n.  Both sums take
``(spec, r, n, x)``, as ``partsum``'s do.  It carries no b = 1 caveat.  Each
sum is its row function at a row of one n: ``binom_row_direct`` reads the
store's ``PrefixStore.power_row``, and ``binom_row_closed`` steps the pairs.
Only ``root_power_collapse``, a statement about Q(sqrt(5)) itself, computes
with ``QuadElem``.  The Fibonacci specializations at x = +/-1 are named by
their claim ids, and ``FIB_SUMS`` states each once: its sum, the n its
printed form is stated for and its variant ids.  The six thm6/thm9 families
and the ten cor7/cor10 displayed identities share one oracle,
``corollary_lhs``, the direct row, and one guard; the families share one
sum, ``_bracket``.  ``CONGRUENCE_CLAIMS`` gives each 5-adic congruence the
identity whose printed numerator it reads and its exponents.  The nearest
derivation-consistent variant is evaluated wherever a printed subscript or
coefficient fails the oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from . import seq
from .qfield import QuadElem, RecurrenceSpec, roots

# The store accessor under its old cache's name: bench/worker.py reads
# binsum._term_prefix.cache_info() for the benchmark's term_prefix metrics.
_term_prefix = seq.store


def binom_sum_direct(spec: RecurrenceSpec, r: int, n: int, x) -> Fraction:
    """sum_{i=0}^n C(n,i) U_i^r x^i by direct exact summation over the store."""
    return binom_row_direct(spec, r, [n], x)[0]


def binom_row_direct(spec: RecurrenceSpec, r: int, ns, x) -> list[Fraction]:
    """``binom_sum_direct`` at each n of the row ns, by the store's
    ``power_row``: a Pascal sweep for several n, the pointwise sum for one."""
    _check(r)
    return seq.store(spec).power_row(r, ns, x, True)


def binom_sum_closed(spec: RecurrenceSpec, r: int, n: int, x) -> Fraction:
    """Closed-form value; equals binom_sum_direct exactly for every spec."""
    return binom_row_closed(spec, r, [n], x)[0]


def binom_row_closed(spec: RecurrenceSpec, r: int, ns, x) -> list[Fraction]:
    """``binom_sum_closed`` at each n of the row ns, by ``seq.linear_row``.

    Entry k of ``seq.binet_pairs`` contributes c_k (1 + t_k)^n plus its
    conjugate: a rational sequence with roots 1 + t_k, 1 + t_{r-k}, so
    P' = 2 + P, Q' = 1 + P + Q, and initial values w0, w0 + w1.  The middle
    entry (c, c t, t, 0) of even r gives roots 1 and 1 + t with initial
    values c, c (1 + t): the sequence c (1 + t)^n, also at t = 0 or -1.
    """
    _check(r)
    return seq.linear_row([((-1 - p - q, 2 + p), (w0, w0 + w1))
                           for w0, w1, p, q in seq.binet_pairs(spec, r, x)], ns)


def _check(r: int):
    if r < 1:       # the row's n are checked where it is read
        raise ValueError(f"need r >= 1, got {r}")


# --- Fibonacci/Lucas scalar helpers -----------------------------------------


_FIB = seq.fibonacci()
_LUC = seq.companion(_FIB)


def _fib(n: int) -> int:
    return seq.store(_FIB).term(n).numerator


def _luc(n: int) -> int:
    return seq.store(_LUC).term(n).numerator


def root_power_collapse(s: int, sign: int) -> tuple[bool, QuadElem]:
    """Check the golden-root power collapses in exact Q(sqrt(5)) arithmetic.

    sign=-1: alpha^{2s} - (-1)^s = sqrt(5) alpha^s F_s   (beta line: -sqrt(5) beta^s F_s)
    sign=+1: alpha^{2s} + (-1)^s = L_s alpha^s           (beta line:  L_s beta^s)

    Returns (both lines hold, alpha-side left value); a failed check is a test
    failure for the caller, not a runtime error here.
    """
    if s < 0 or sign not in (1, -1):
        raise ValueError("need s >= 0 and sign in {1, -1}")
    alpha, beta = roots(_FIB)
    sqrt5 = alpha - beta
    fs, ls = _fib(s), _luc(s)
    eps = (-1) ** s
    alpha_s, beta_s = alpha**s, beta**s
    lhs_a = alpha_s * alpha_s + sign * eps
    lhs_b = beta_s * beta_s + sign * eps
    if sign == -1:
        ok = lhs_a == sqrt5 * alpha_s * fs and lhs_b == -sqrt5 * beta_s * fs
    else:
        ok = lhs_a == ls * alpha_s and lhs_b == ls * beta_s
    return ok, lhs_a


# --- the sixteen Fibonacci identities at x = +/-1 ----------------------------

# claim id -> (p, q, x, parity, first, variants): the claim's left side is
# sum_{i<=n} C(n,i) F_i^(p r + q) x^i, its printed form is stated for every
# n >= first of that parity (None: either), and variants are the ids of its
# corrected forms.  A claim with p = 4 is a thm6/thm9 family in r.
FIB_SUMS = {
    "thm6-4r": (4, 0, 1, None, 1, ()),
    "thm6-4r2-odd": (4, 2, 1, 1, 1, ()),
    "thm6-4r2-even": (4, 2, 1, 0, 2, ()),
    "thm9-4r-even": (4, 0, -1, 0, 2, ("half-subscript",)),
    "thm9-4r-odd": (4, 0, -1, 1, 1, ("half-subscript",)),
    "thm9-4r2": (4, 2, -1, None, 1, ()),
    "cor7-1": (0, 1, 1, None, 0, ()), "cor7-2": (0, 2, 1, 0, 2, ()),
    "cor7-3": (0, 2, 1, 1, 1, ()), "cor7-4": (0, 3, 1, None, 0, ()),
    "cor7-5": (0, 4, 1, None, 0, ()),
    "cor10-1": (0, 1, -1, None, 0, ()), "cor10-2": (0, 2, -1, None, 0, ()),
    "cor10-3": (0, 3, -1, None, 0, ()), "cor10-4": (0, 4, -1, 0, 2, ("times-4",)),
    "cor10-5": (0, 4, -1, 1, 1, ()),
}


def corollary_lhs(claim: str, ns, r: int = 0) -> list[Fraction]:
    """Left side of one Fibonacci identity at each n of the row ns, by
    direct summation."""
    if claim not in FIB_SUMS:
        raise ValueError(f"unknown identity {claim!r}")
    p, q, x, *_ = FIB_SUMS[claim]
    return binom_row_direct(_FIB, p * r + q, ns, x)


def _stated(claim: str, n: int, variant: str, family: bool) -> tuple:
    """The FIB_SUMS row of a family (or of a displayed identity), once n is
    one its printed form is stated for and variant one of its forms."""
    row = FIB_SUMS.get(claim)
    if row is None or bool(row[0]) != family:
        raise ValueError(f"unknown {'family' if family else 'identity'} {claim!r}")
    _, _, _, parity, first, variants = row
    if n < first or parity not in (None, n % 2):
        kind = {None: "", 0: "even ", 1: "odd "}[parity]
        raise ValueError(f"{claim} is stated for {kind}n >= {first}")
    if variant != "printed" and variant not in variants:
        raise ValueError(f"unknown variant {variant!r} of {claim}")
    return row


def _bracket(m: int, n: int, x, y, sign, scale: int = 1) -> int:
    """sum_{k<m} sign(k) C(2m,k) x(m-k)^n y(scale (m-k) n), with x and y each
    _fib or _luc: the paired Binet terms of sum C(n,i) F_i^(2m) (+/-1)^i,
    collapsed by lemma5."""
    return sum(sign(k) * comb(2 * m, k) * x(m - k) ** n * y(scale * (m - k) * n)
               for k in range(m))


# claim id -> the integer its printed right side scales, at (n, r); each
# congruence of CONGRUENCE_CLAIMS is a statement about one of these
_NUMERATORS = {
    "cor7-4": lambda n, r: 2**n * _fib(2 * n) + 3 * _fib(n),
    "cor7-5": lambda n, r: (3**n * _luc(2 * n) - 4 * (-1) ** n * _luc(n)
                            + 6 * 2**n),
    "cor10-2": lambda n, r: (-1) ** n * _luc(n) - 2 ** (n + 1),
    "cor10-3": lambda n, r: (-2) ** n * _fib(n) - 3 * _fib(2 * n),
    "thm6-4r": lambda n, r: (
        _bracket(2 * r, n, _luc, _luc, lambda k: (-1) ** (k * (n + 1)))
        + comb(4 * r, 2 * r) * 2**n),
    "thm6-4r2-odd": lambda n, r: _bracket(2 * r + 1, n, _fib, _fib, lambda k: 1),
    "thm6-4r2-even": lambda n, r: _bracket(2 * r + 1, n, _fib, _luc,
                                           lambda k: (-1) ** k),
}


def fib_weighted_closed(family: str, r: int, n: int, variant: str = "printed") -> Fraction:
    """Printed right side of one thm6/thm9 family, exact in Q.

    It sums F_i^(2m), and its power of 5 is 5^-m, or 5^((n+1)//2 - m) for a
    family that needs one parity of n.  The thm9-4r families carry a
    "half-subscript" variant: the printed index L_{(4r-2k)n} / F_{(4r-2k)n}
    (scale 2 in ``_bracket``) against the derivation's (2r-k)n.
    """
    p, q, _, parity, _, _ = _stated(family, n, variant, True)
    if p * r + q < 1:
        raise ValueError(f"{family} at r = {r} sums F_i^{p * r + q}; the power must be >= 1")
    m = (p * r + q) // 2
    five = Fraction(5) ** (-m if parity is None else (n + 1) // 2 - m)
    scale = 2 if variant == "printed" else 1
    if family == "thm9-4r-even":
        return five * _bracket(m, n, _fib, _luc, lambda k: (-1) ** k, scale)
    if family == "thm9-4r-odd":
        return -five * _bracket(m, n, _fib, _fib, lambda k: 1, scale)
    if family == "thm9-4r2":
        return five * (_bracket(m, n, _luc, _luc,
                                lambda k: (-1) ** (k * (n + 1) + n))
                       - comb(2 * m, m) * 2**n)
    return five * _NUMERATORS[family](n, r)


def corollary_rhs(family: str, n: int, variant: str = "printed") -> Fraction:
    """Printed right side of one displayed identity; never asserts equality.

    n is always the upper summation index, served where ``FIB_SUMS`` states
    the identity (cor7-2 fails at index 0).  cor10-4 carries the "times-4"
    variant 5^{n/2-2}(L_{2n} - 4 L_n).
    """
    _stated(family, n, variant, False)
    five = Fraction(5)
    if family in _NUMERATORS:
        return Fraction(_NUMERATORS[family](n, 0), 25 if family == "cor7-5" else 5)
    if family == "cor7-1":
        return Fraction(_fib(2 * n))
    if family == "cor7-2":
        return five ** (n // 2 - 1) * _luc(n)
    if family == "cor7-3":
        return five ** ((n - 1) // 2) * _fib(n)
    if family == "cor10-1":
        return Fraction(-_fib(n))
    if family == "cor10-4":
        mult = 1 if variant == "printed" else 4
        return five ** (n // 2 - 2) * (_luc(2 * n) - mult * _luc(n))
    # cor10-5
    return -(five ** ((n + 1) // 2 - 2)) * (_fib(2 * n) + 4 * _fib(n))


# --- 5-adic congruence claims -------------------------------------------------


def padic_valuation(n: int, p: int = 5) -> int | None:
    """Exact p-adic valuation by repeated division; None (=infinity) for 0."""
    if n == 0:
        return None
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# congruence claim id -> (the identity whose integer it divides by a power of
# 5, the required 5-exponents at (n, r)): the printed one, plus the
# integrality-implied one for the two claims whose printed exponent fails
# simple instances
CONGRUENCE_CLAIMS = {
    "cor8-i": ("cor7-4", lambda n, r: {"printed": 1}),
    "cor8-ii": ("cor7-5", lambda n, r: {"printed": 2}),
    "cor8-iii": ("thm6-4r2-odd", lambda n, r: {
        "printed": 4 * r + 2 - (n - 1) // 2, "implied": 2 * r + 1 - (n + 1) // 2}),
    "cor8-iv": ("thm6-4r2-even", lambda n, r: {
        "printed": 4 * r + 2 - n // 2, "implied": 2 * r + 1 - n // 2}),
    "cor8-v": ("thm6-4r", lambda n, r: {"printed": 2 * r}),
    "cor11-i": ("cor10-2", lambda n, r: {"printed": 1}),
    "cor11-ii": ("cor10-3", lambda n, r: {"printed": 1}),
}


def _congruence(claim: str) -> tuple:
    if claim not in CONGRUENCE_CLAIMS:
        raise ValueError(f"unknown congruence claim {claim!r}")
    return CONGRUENCE_CLAIMS[claim]


def congruence_lhs(claim: str, n: int, r: int = 0) -> int:
    """The integer of one congruence: its identity's printed numerator."""
    return _NUMERATORS[_congruence(claim)[0]](n, r)


def congruence_exponents(claim: str, n: int, r: int = 0) -> dict[str, int]:
    """Required 5-exponents, read from ``CONGRUENCE_CLAIMS``."""
    return _congruence(claim)[1](n, r)
