"""Binomial-weighted sums sum_i C(n,i) U_i^r x^i and their closed forms.

``binom_sum_closed`` evaluates the fully general identity

    sum_{k=0}^r C(r,k) A^k (-B)^{r-k} (1 + alpha^k beta^{r-k} x)^n

in exact field arithmetic and rationalizes; it carries no b = 1 caveat.  The
Fibonacci specializations at x = +/-1 (Lucas/Fibonacci collapses, the ten
displayed identities, and the 5-adic congruences) are evaluated side by side
with the direct sums; every printed right-hand side is a claim object, and the
nearest derivation-consistent variant is evaluated wherever a printed
subscript or coefficient fails the oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from . import seq
from .qfield import QuadElem, RecurrenceSpec, binet_coeffs, rationalize, roots

# The store accessor under its old cache's name: bench/worker.py reads
# binsum._term_prefix.cache_info() for the benchmark's term_prefix metrics.
_term_prefix = seq.store


def binom_sum_direct(spec: RecurrenceSpec, r: int, n: int, x) -> Fraction:
    """sum_{i=0}^n C(n,i) U_i^r x^i by direct exact summation.

    With U_i = N_i / d from the prefix store and x = p / q, the sum is
    sum_i C(n,i) N_i^r p^i q^(n-i) over d^r q^n: integers until one division.
    """
    if r < 1 or n < 0:
        raise ValueError("need r >= 1 and n >= 0")
    x = Fraction(x)
    st = seq.store(seq.SequenceHandle(spec))
    p, q = x.numerator, x.denominator
    total = 0
    c = 1
    pp = 1
    for i, num in enumerate(st.numerators(n + 1)):
        # Horner in q: after step i, total = sum_{j<=i} C(n,j) N_j^r p^j q^(i-j)
        total = total * q + c * num**r * pp
        c = c * (n - i) // (i + 1)
        pp *= p
    return Fraction(total, st.den**r * q**n)


def binom_sum_closed(spec: RecurrenceSpec, r: int, n: int, x) -> Fraction:
    """Closed-form value; equals binom_sum_direct exactly for every spec."""
    if r < 1 or n < 0:
        raise ValueError("need r >= 1 and n >= 0")
    x = Fraction(x)
    alpha, beta = roots(spec)
    a_coef, b_coef = binet_coeffs(spec)
    total = 0
    for k in range(r + 1):
        base = 1 + alpha**k * beta ** (r - k) * x
        total = total + comb(r, k) * a_coef**k * (-b_coef) ** (r - k) * base**n
    return rationalize(total)


# --- Fibonacci/Lucas scalar helpers -----------------------------------------


_FIB = seq.fibonacci()
_LUC = seq.companion(_FIB.spec)


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
    alpha, beta = roots(RecurrenceSpec(1, 1, 0, 1))
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


# --- the six x = +/-1 closed-form families ----------------------------------

WEIGHTED_FAMILIES = (
    "T6-4r", "T6-4r2-odd", "T6-4r2-even",
    "T9-4r-even", "T9-4r-odd", "T9-4r2",
)


def fib_weighted_closed(family: str, r: int, n: int, variant: str = "printed") -> Fraction:
    """Printed right-hand side of one closed-form family, exact in Q.

    The T9-4r families carry a "half-subscript" variant: the printed index
    L_{(4r-2k)n} / F_{(4r-2k)n} against the derivation's (2r-k)n.
    """
    if family not in WEIGHTED_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    five = Fraction(5)
    if family == "T6-4r":
        acc = sum(
            (-1) ** (k * (n + 1)) * comb(4 * r, k) * _luc(2 * r - k) ** n
            * _luc((2 * r - k) * n)
            for k in range(2 * r)
        )
        return five ** (-2 * r) * (acc + comb(4 * r, 2 * r) * 2**n)
    if family == "T6-4r2-odd":
        if n % 2 == 0:
            raise ValueError("this family needs odd n")
        acc = sum(
            comb(4 * r + 2, k) * _fib(2 * r + 1 - k) ** n * _fib(n * (2 * r + 1 - k))
            for k in range(2 * r + 1)
        )
        return five ** ((n + 1) // 2 - (2 * r + 1)) * acc
    if family == "T6-4r2-even":
        if n % 2 == 1:
            raise ValueError("this family needs even n")
        acc = sum(
            (-1) ** k * comb(4 * r + 2, k) * _fib(2 * r + 1 - k) ** n
            * _luc(n * (2 * r + 1 - k))
            for k in range(2 * r + 1)
        )
        return five ** (n // 2 - (2 * r + 1)) * acc
    if family in ("T9-4r-even", "T9-4r-odd"):
        sub = (lambda k: (4 * r - 2 * k) * n) if variant == "printed" else (
            lambda k: (2 * r - k) * n
        )
        if family == "T9-4r-even":
            if n % 2 == 1:
                raise ValueError("this family needs even n")
            acc = sum(
                (-1) ** k * _fib(2 * r - k) ** n * _luc(sub(k)) * comb(4 * r, k)
                for k in range(2 * r)
            )
            return five ** (n // 2 - 2 * r) * acc
        if n % 2 == 0:
            raise ValueError("this family needs odd n")
        acc = sum(
            _fib(2 * r - k) ** n * _fib(sub(k)) * comb(4 * r, k)
            for k in range(2 * r)
        )
        return -(five ** ((n + 1) // 2 - 2 * r)) * acc
    acc = sum(
        (-1) ** (k * (n + 1) + n) * comb(4 * r + 2, k) * _luc(2 * r + 1 - k) ** n
        * _luc((2 * r + 1 - k) * n)
        for k in range(2 * r + 1)
    )
    return five ** (-(2 * r + 1)) * (acc - 2**n * comb(4 * r + 2, 2 * r + 1))


def weighted_family_lhs(family: str, r: int, n: int) -> Fraction:
    """Matching direct sum for a closed-form family."""
    fib = RecurrenceSpec(1, 1, 0, 1)
    power = 4 * r if family in ("T6-4r", "T9-4r-even", "T9-4r-odd") else 4 * r + 2
    x = 1 if family.startswith("T6") else -1
    return binom_sum_direct(fib, power, n, x)


# --- the ten displayed identities at x = +/-1 --------------------------------

COROLLARY_FAMILIES = (
    "cor7-1", "cor7-2", "cor7-3", "cor7-4", "cor7-5",
    "cor10-1", "cor10-2", "cor10-3", "cor10-4", "cor10-5",
)


def corollary_identity(family: str, n: int, variant: str = "printed"):
    """(lhs, rhs, equal) for one displayed identity; never asserts equality.

    n is always the upper summation index; cor7-2 needs it even and >= 2
    (the identity fails at index 0), cor7-3 odd, cor10-4 even >= 2, cor10-5
    odd.  cor10-4 carries the "times-4" variant 5^{n/2-2}(L_{2n} - 4 L_n).
    """
    fib = RecurrenceSpec(1, 1, 0, 1)
    five = Fraction(5)
    if family == "cor7-1":
        lhs, rhs = binom_sum_direct(fib, 1, n, 1), Fraction(_fib(2 * n))
    elif family == "cor7-2":
        if n % 2 == 1 or n < 2:
            raise ValueError("needs even n >= 2 (the identity fails at index 0)")
        lhs = binom_sum_direct(fib, 2, n, 1)
        rhs = five ** (n // 2 - 1) * _luc(n)
    elif family == "cor7-3":
        if n % 2 == 0:
            raise ValueError("needs odd n")
        lhs = binom_sum_direct(fib, 2, n, 1)
        rhs = five ** ((n - 1) // 2) * _fib(n)
    elif family == "cor7-4":
        lhs = binom_sum_direct(fib, 3, n, 1)
        rhs = Fraction(2**n * _fib(2 * n) + 3 * _fib(n), 5)
    elif family == "cor7-5":
        lhs = binom_sum_direct(fib, 4, n, 1)
        rhs = Fraction(3**n * _luc(2 * n) - 4 * (-1) ** n * _luc(n) + 6 * 2**n, 25)
    elif family == "cor10-1":
        lhs, rhs = binom_sum_direct(fib, 1, n, -1), Fraction(-_fib(n))
    elif family == "cor10-2":
        lhs = binom_sum_direct(fib, 2, n, -1)
        rhs = Fraction((-1) ** n * _luc(n) - 2 ** (n + 1), 5)
    elif family == "cor10-3":
        lhs = binom_sum_direct(fib, 3, n, -1)
        rhs = Fraction((-2) ** n * _fib(n) - 3 * _fib(2 * n), 5)
    elif family == "cor10-4":
        if n % 2 == 1 or n < 2:
            raise ValueError("needs even n >= 2")
        lhs = binom_sum_direct(fib, 4, n, -1)
        mult = 1 if variant == "printed" else 4
        rhs = five ** (n // 2 - 2) * (_luc(2 * n) - mult * _luc(n))
    elif family == "cor10-5":
        if n % 2 == 0:
            raise ValueError("needs odd n")
        lhs = binom_sum_direct(fib, 4, n, -1)
        rhs = -(five ** ((n + 1) // 2 - 2)) * (_fib(2 * n) + 4 * _fib(n))
    else:
        raise ValueError(f"unknown identity {family!r}")
    return lhs, rhs, lhs == rhs


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


CONGRUENCE_CLAIMS = ("cor8-i", "cor8-ii", "cor8-iii", "cor8-iv", "cor8-v",
                     "cor11-i", "cor11-ii")


def congruence_lhs(claim: str, n: int, r: int = 0) -> int:
    if claim == "cor8-i":
        return 2**n * _fib(2 * n) + 3 * _fib(n)
    if claim == "cor8-ii":
        return 3**n * _luc(2 * n) - 4 * (-1) ** n * _luc(n) + 6 * 2**n
    if claim == "cor8-iii":
        return sum(
            comb(4 * r + 2, k) * _fib(2 * r + 1 - k) ** n * _fib(n * (2 * r + 1 - k))
            for k in range(2 * r + 1)
        )
    if claim == "cor8-iv":
        return sum(
            (-1) ** k * comb(4 * r + 2, k) * _fib(2 * r + 1 - k) ** n
            * _luc(n * (2 * r + 1 - k))
            for k in range(2 * r + 1)
        )
    if claim == "cor8-v":
        return sum(
            (-1) ** (k * (n + 1)) * comb(4 * r, k) * _luc(2 * r - k) ** n
            * _luc((2 * r - k) * n)
            for k in range(2 * r)
        ) + comb(4 * r, 2 * r) * 2**n
    if claim == "cor11-i":
        return (-1) ** n * _luc(n) - 2 ** (n + 1)
    if claim == "cor11-ii":
        return (-2) ** n * _fib(n) - 3 * _fib(2 * n)
    raise ValueError(f"unknown congruence claim {claim!r}")


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


def congruence_check(claim: str, cells) -> list[dict]:
    """Per-cell divisibility verdicts over an iterable of (r, n) pairs.

    Each row records the exact sum, its 5-adic valuation, and a verdict for
    every required exponent registered for the claim.
    """
    rows = []
    for r, n in cells:
        lhs = congruence_lhs(claim, n, r)
        exps = congruence_exponents(claim, n, r)
        row = {"r": r, "n": n, "lhs": lhs, "valuation": padic_valuation(lhs)}
        for name, e in exps.items():
            row[f"{name}_exponent"] = e
            row[f"{name}_ok"] = divisible_by_5_pow(lhs, e)
        rows.append(row)
    return rows
