"""Closed-form generating functions for r-th powers of recurrence terms.

``gf_power`` is the ground truth, built over Z and Q only.  Its denominator is
Theorem 1's product of conjugate-pole pairs,

    prod_k (1 - (-b)^k V_{r-2k} x + (-b)^r x^2),   0 <= k < r/2,

times 1 - (-b)^{r/2} x for even r: degree r+1, constant term 1, and each pair
is (1 - alpha^k beta^{r-k} x)(1 - alpha^{r-k} beta^k x).  Its numerator is
that denominator times the brute-force series U_0^r, U_1^r, ... truncated
below x^{r+1}.  Coefficients r+1 .. 2r+1 of the same product must vanish; a
nonzero one raises ``SelfCheckError``.  Two fractions with numerators of
degree <= r and denominators of degree <= r+1 are equal once they agree mod
x^{2r+2}, so the check proves the result equals the series, and the truth
stays derived from brute force rather than from the Binet closed form.

``paired_form`` evaluates the paired-term closed form itself from the Binet
coefficients over Q(sqrt(D)): quadratic denominators
1 - (-b)^k V_{r-2k} x + (-b)^r x^2, plus the k = r/2 pole
1/(1 - (-b)^{r/2} x) for even r.  Its "general" style is the exact form; the
audit registry also builds the less-corrected readings of that form to
document exactly which printings hold and under what hypotheses; see
:mod:`recsums.audit`.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from . import seq
from .polyrat import Polynomial, PowerSeries, RationalFunction, descend
from .qfield import RecurrenceSpec, binet_coeffs, roots


class SelfCheckError(ArithmeticError):
    """A built generating function disagrees with the brute-force series."""


def _theorem1_denominator(spec: RecurrenceSpec, r: int) -> Polynomial:
    """Product of Theorem 1's pole pairs (and the middle pole for even r)."""
    b = spec.b
    v = seq.terms(seq.companion(spec), r + 1)
    den = Polynomial([1])
    for k in range((r + 1) // 2):
        den = den * Polynomial([1, -(-b) ** k * v[r - 2 * k], (-b) ** r])
    if r % 2 == 0:
        den = den * Polynomial([1, -((-b) ** (r // 2))])
    return den


def gf_power(spec: RecurrenceSpec, r: int) -> RationalFunction:
    """Rational function over Q whose Maclaurin coefficients are U_n^r."""
    if r < 1:
        raise ValueError("power must be >= 1")
    den = _theorem1_denominator(spec, r)
    series = gf_oracle(spec, r, 2 * r + 2).coefficients
    d = den.coeffs
    # coefficients 0 .. 2r+1 of den * series; a full product would also form
    # the costliest, unneeded ones above x^{2r+1}
    prod = [sum(d[j] * series[i - j] for j in range(min(i + 1, len(d))))
            for i in range(2 * r + 2)]
    if any(prod[r + 1:]):
        raise SelfCheckError(
            f"gf_power({spec}, r={r}): denominator times the series is not a "
            f"polynomial of degree <= {r}")
    return RationalFunction(Polynomial(prod[:r + 1]), den)


def gf_oracle(spec: RecurrenceSpec, r: int, order: int) -> PowerSeries:
    """[U_0^r, ..., U_{order-1}^r] purely by recurrence and powering."""
    if order < 1:
        raise ValueError("order must be >= 1")
    handle = seq.SequenceHandle(spec)
    return PowerSeries.of(t**r for t in seq.terms(handle, order))


# Denominator styles for the paired-term form.  "printed" is the literal
# published shape (odd case: middle term with no x and a bare -x^2; even case:
# +x^2 and middle pole 1/(1-(-1)^{r/2}x)).  "b1" restores the visibly missing
# x but keeps the printed x^2 coefficient.  "general" uses the exact pair
# product (1 - alpha^k beta^{r-k} x)(1 - alpha^{r-k} beta^k x), whose x^2
# coefficient is (alpha beta)^r = (-b)^r, and the exact middle pole.
ODD_STYLES = ("printed", "b1", "general")
EVEN_STYLES = ("printed", "general")


def paired_form(spec: RecurrenceSpec, r: int, style: str) -> RationalFunction:
    """Paired-term closed form for the power generating function, descended to Q."""
    alpha, beta = roots(spec)
    a_coef, b_coef = binet_coeffs(spec)
    b = spec.b
    v = seq.store(seq.companion(spec)).term
    total = RationalFunction.zero()
    if r % 2 == 1:
        if style not in ODD_STYLES:
            raise ValueError(f"unknown odd-case style {style!r}")
        for k in range((r - 1) // 2 + 1):
            pref = (-1) ** k * (a_coef * b_coef) ** k * comb(r, k)
            m = r - 2 * k
            num0 = a_coef**m - b_coef**m
            num1 = Fraction((-b) ** k) * (b_coef**m * alpha**m - a_coef**m * beta**m)
            vm = (-b) ** k * v(m)
            if style == "printed":
                den = Polynomial([1 - vm, 0, -1])
            elif style == "b1":
                den = Polynomial([1, -vm, -1])
            else:
                den = Polynomial([1, -vm, (-b) ** r])
            total = total + RationalFunction(
                Polynomial([pref * num0, pref * num1]), den
            )
    else:
        if style not in EVEN_STYLES:
            raise ValueError(f"unknown even-case style {style!r}")
        for k in range(r // 2):
            pref = (-1) ** k * (a_coef * b_coef) ** k * comb(r, k)
            m = r - 2 * k
            num0 = b_coef**m + a_coef**m
            num1 = -Fraction((-b) ** k) * (b_coef**m * alpha**m + a_coef**m * beta**m)
            vm = (-b) ** k * v(m)
            if style == "printed":
                den = Polynomial([1, -vm, 1])
            else:
                den = Polynomial([1, -vm, (-b) ** r])
            total = total + RationalFunction(
                Polynomial([pref * num0, pref * num1]), den
            )
        mid = comb(r, r // 2) * a_coef ** (r // 2) * (-b_coef) ** (r // 2)
        pole = (-1) ** (r // 2) if style == "printed" else (-b) ** (r // 2)
        total = total + RationalFunction(Polynomial([mid]), Polynomial([1, -pole]))
    return descend(total)


# --- the three displayed first-power/square/cube forms (U_0 = 0, b = 1) -----


def _require_u0_zero(spec: RecurrenceSpec):
    if spec.u0 != 0:
        raise ValueError("displayed forms assume U_0 = 0")


def _a_squared(spec: RecurrenceSpec) -> Fraction:
    # A = B = u1 / sqrt(D) when u0 = 0, so A^2 = u1^2 / D is rational
    return spec.u1 * spec.u1 / Fraction(spec.discriminant)


def display_r1(spec: RecurrenceSpec, variant: str = "printed") -> RationalFunction:
    """First-power display: A^2 U_1 x / (1 - V_1 x - x^2); the variant drops
    the A^2 prefactor (the r = 1 case of the paired form has prefactor A^0)."""
    _require_u0_zero(spec)
    if variant not in ("printed", "unit-prefactor"):
        raise ValueError(f"unknown variant {variant!r}")
    v1 = spec.a
    pref = _a_squared(spec) * spec.u1 if variant == "printed" else spec.u1
    return RationalFunction(Polynomial([0, pref]), Polynomial([1, -v1, -1]))


def display_r2(spec: RecurrenceSpec) -> RationalFunction:
    """Square display: -A^2 (V_2 + 2) x (x - 1) / ((x + 1)(x^2 - V_2 x + 1))."""
    _require_u0_zero(spec)
    v2 = seq.store(seq.companion(spec)).term(2)
    c = _a_squared(spec) * (v2 + 2)
    num = Polynomial([0, -c]) * Polynomial([-1, 1])
    den = Polynomial([1, 1]) * Polynomial([1, -v2, 1])
    return RationalFunction(num, den)


def display_r3(spec: RecurrenceSpec, variant: str = "printed") -> RationalFunction:
    """Cube display over the denominator (1 - V_3 x - x^2)(1 + b V_1 x - x^2).

    printed: A^4 U_1 x ((a^2+2b) - 2 a^2 b x - (a^2+2b) x^2).
    proof-consistent: U_1^3 x (1 - 2 a b x - x^2), i.e. the pair sum
    A^2 (U_3 x / d0 + 3 b U_1 x / d1) with the binomial weight kept.
    """
    _require_u0_zero(spec)
    a, b, u1 = spec.a, spec.b, spec.u1
    v = seq.store(seq.companion(spec)).term
    v1, v3 = v(1), v(3)
    den = Polynomial([1, -v3, -1]) * Polynomial([1, b * v1, -1])
    if variant == "printed":
        a4 = _a_squared(spec) ** 2
        c0 = Fraction(a * a + 2 * b)
        num = Polynomial([0, a4 * u1 * c0, a4 * u1 * Fraction(-2 * a * a * b),
                          a4 * u1 * (-c0)])
    elif variant == "proof-consistent":
        num = Polynomial([0, u1**3, u1**3 * Fraction(-2 * a * b), -(u1**3)])
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return RationalFunction(num, den)
