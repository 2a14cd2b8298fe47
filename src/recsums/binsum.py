"""Binomial-weighted sums sum_i C(n,i) U_i^r x^i and their closed forms.

``binom_sum_closed`` evaluates the fully general identity

    sum_{k=0}^r C(r,k) A^k (-B)^{r-k} (1 + alpha^k beta^{r-k} x)^n

over Q, one Galois-conjugate pair of terms at a time: each entry of
:func:`recsums.seq.binet_pairs` gives a rational second-order sequence in n,
read off by the doubling kernel ``seq.lucas_term``.  Both sums take
``(spec, r, n, x)``, as ``partsum``'s do.  It carries no b = 1 caveat.
Only ``root_power_collapse``, a statement about Q(sqrt(5)) itself, computes
with ``QuadElem``.  The Fibonacci specializations at x = +/-1 are named by
their claim ids: the six thm6/thm9 families and the ten cor7/cor10 displayed
identities share one oracle, ``corollary_lhs``, the direct sum, and the
families share one sum, ``_bracket``.  Each 5-adic congruence reads the
printed numerator of the identity it comes from.  The nearest
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
    if r < 1 or n < 0:
        raise ValueError("need r >= 1 and n >= 0")
    return seq.store(spec).power_sum(r, n, x, binomial=True)


def binom_sum_closed(spec: RecurrenceSpec, r: int, n: int, x) -> Fraction:
    """Closed-form value; equals binom_sum_direct exactly for every spec.

    Entry k of ``seq.binet_pairs`` contributes c_k (1 + t_k)^n plus its
    conjugate: a rational sequence with roots 1 + t_k, 1 + t_{r-k}, so
    P' = 2 + P, Q' = 1 + P + Q, and initial values w0, w0 + w1.  The middle
    entry (c, c t, t, 0) of even r gives roots 1 and 1 + t with initial
    values c, c (1 + t): the sequence c (1 + t)^n, also at t = 0 or -1.
    """
    if r < 1 or n < 0:
        raise ValueError("need r >= 1 and n >= 0")
    return sum((seq.lucas_term(2 + p, 1 + p + q, w0, w0 + w1, n)
                for w0, w1, p, q in seq.binet_pairs(spec, r, x)), Fraction(0))


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
    lhs_a = alpha ** (2 * s) + sign * eps
    lhs_b = beta ** (2 * s) + sign * eps
    if sign == -1:
        ok = lhs_a == sqrt5 * alpha**s * fs and lhs_b == -sqrt5 * beta**s * fs
    else:
        ok = lhs_a == ls * alpha**s and lhs_b == ls * beta**s
    return ok, lhs_a


# --- the sixteen Fibonacci identities at x = +/-1 ----------------------------

# claim id -> (p, q, x): the claim's left side is
# sum_{i<=n} C(n,i) F_i^(p r + q) x^i
_FIB_SUMS = {
    "thm6-4r": (4, 0, 1), "thm6-4r2-odd": (4, 2, 1), "thm6-4r2-even": (4, 2, 1),
    "thm9-4r-even": (4, 0, -1), "thm9-4r-odd": (4, 0, -1), "thm9-4r2": (4, 2, -1),
    "cor7-1": (0, 1, 1), "cor7-2": (0, 2, 1), "cor7-3": (0, 2, 1),
    "cor7-4": (0, 3, 1), "cor7-5": (0, 4, 1),
    "cor10-1": (0, 1, -1), "cor10-2": (0, 2, -1), "cor10-3": (0, 3, -1),
    "cor10-4": (0, 4, -1), "cor10-5": (0, 4, -1),
}


def corollary_lhs(claim: str, n: int, r: int = 0) -> Fraction:
    """Left side of one Fibonacci identity, by direct summation."""
    if claim not in _FIB_SUMS:
        raise ValueError(f"unknown identity {claim!r}")
    p, q, x = _FIB_SUMS[claim]
    return binom_sum_direct(_FIB, p * r + q, n, x)


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

# claim id -> the parity of n its printed form needs (None: every n)
WEIGHTED_FAMILIES = {
    "thm6-4r": None, "thm6-4r2-odd": 1, "thm6-4r2-even": 0,
    "thm9-4r-even": 0, "thm9-4r-odd": 1, "thm9-4r2": None,
}


def fib_weighted_closed(family: str, r: int, n: int, variant: str = "printed") -> Fraction:
    """Printed right side of one thm6/thm9 family, exact in Q.

    It sums F_i^(2m), and its power of 5 is 5^-m, or 5^((n+1)//2 - m) for a
    family that needs one parity of n.  The thm9-4r families carry a
    "half-subscript" variant: the printed index L_{(4r-2k)n} / F_{(4r-2k)n}
    (scale 2 in ``_bracket``) against the derivation's (2r-k)n.
    """
    if family not in WEIGHTED_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    parity = WEIGHTED_FAMILIES[family]
    if parity is not None and n % 2 != parity:
        raise ValueError(f"this family needs {'odd' if parity else 'even'} n")
    p, q, _ = _FIB_SUMS[family]
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

    n is always the upper summation index; cor7-2 needs it even and >= 2
    (the identity fails at index 0), cor7-3 odd, cor10-4 even >= 2, cor10-5
    odd.  cor10-4 carries the "times-4" variant 5^{n/2-2}(L_{2n} - 4 L_n).
    """
    five = Fraction(5)
    if family == "cor7-1":
        return Fraction(_fib(2 * n))
    if family == "cor7-2":
        if n % 2 == 1 or n < 2:
            raise ValueError("needs even n >= 2 (the identity fails at index 0)")
        return five ** (n // 2 - 1) * _luc(n)
    if family == "cor7-3":
        if n % 2 == 0:
            raise ValueError("needs odd n")
        return five ** ((n - 1) // 2) * _fib(n)
    if family in ("cor7-4", "cor7-5", "cor10-2", "cor10-3"):
        return Fraction(_NUMERATORS[family](n, 0), 25 if family == "cor7-5" else 5)
    if family == "cor10-1":
        return Fraction(-_fib(n))
    if family == "cor10-4":
        if n % 2 == 1 or n < 2:
            raise ValueError("needs even n >= 2")
        mult = 1 if variant == "printed" else 4
        return five ** (n // 2 - 2) * (_luc(2 * n) - mult * _luc(n))
    if family == "cor10-5":
        if n % 2 == 0:
            raise ValueError("needs odd n")
        return -(five ** ((n + 1) // 2 - 2)) * (_fib(2 * n) + 4 * _fib(n))
    raise ValueError(f"unknown identity {family!r}")


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


# congruence claim id -> the identity whose integer it divides by a power of 5
CONGRUENCE_CLAIMS = {
    "cor8-i": "cor7-4", "cor8-ii": "cor7-5", "cor8-iii": "thm6-4r2-odd",
    "cor8-iv": "thm6-4r2-even", "cor8-v": "thm6-4r",
    "cor11-i": "cor10-2", "cor11-ii": "cor10-3",
}


def congruence_lhs(claim: str, n: int, r: int = 0) -> int:
    """The integer of one congruence: its identity's printed numerator."""
    if claim not in CONGRUENCE_CLAIMS:
        raise ValueError(f"unknown congruence claim {claim!r}")
    return _NUMERATORS[CONGRUENCE_CLAIMS[claim]](n, r)


def congruence_exponents(claim: str, n: int, r: int = 0) -> dict[str, int]:
    """Required 5-exponents: the printed one, plus the integrality-implied one
    for the two claims whose printed exponent fails simple instances."""
    if claim == "cor8-i":
        return {"printed": 1}
    if claim == "cor8-ii":
        return {"printed": 2}
    if claim == "cor8-iii":
        return {"printed": 4 * r + 2 - (n - 1) // 2,
                "implied": 2 * r + 1 - (n + 1) // 2}
    if claim == "cor8-iv":
        return {"printed": 4 * r + 2 - n // 2, "implied": 2 * r + 1 - n // 2}
    if claim == "cor8-v":
        return {"printed": 2 * r}
    if claim in ("cor11-i", "cor11-ii"):
        return {"printed": 1}
    raise ValueError(f"unknown congruence claim {claim!r}")


def divisible_by_5_pow(value: int, exponent: int) -> bool:
    if exponent <= 0 or value == 0:
        return True
    v = padic_valuation(value)
    return v is not None and v >= exponent
