"""Closed-form generating functions for r-th powers of recurrence terms.

``gf_power`` is the ground truth, built over Z and Q only.  Its denominator D
is Theorem 1's product of conjugate-pole pairs,

    prod_k (1 - (-b)^k V_{r-2k} x + (-b)^r x^2),   0 <= k < r/2,

times 1 - (-b)^{r/2} x for even r: degree r+1, constant term 1, and each pair
is (1 - alpha^k beta^{r-k} x)(1 - alpha^{r-k} beta^k x).  That product is the
recurrence U_n^r satisfies, and each factor 1 + c1 x + c2 x^2 acts on a
series t as the three-term operator t_i += c1 t_{i-1} + c2 t_{i-2}.  Applied
to the impulse 1, 0, 0, ... the factors give D.  Applied to the brute-force
integer series N_0^r .. N_{M-1}^r, with N_i = d U_i from the spec's prefix
store and M = max(2r+2, check_terms), they give d^r times D * series mod x^M.
Every step multiplies big terms by a factor's small coefficients, and the
dominant pair (k = 0) runs first, so with real roots the terms shrink as the
operators run.  Entries 0 .. r over d^r are the numerator; every entry past r
must vanish, and a nonzero one raises ``SelfCheckError``.  Since D(0) = 1,
num / D then expands to the series exactly, to M terms; and two fractions
with numerators of degree <= r and denominators of degree <= r+1 are equal
once they agree mod x^{2r+2}, so the result is the series' generating
function, derived from brute force rather than from the Binet closed form.
Checking more terms is the same annihilation run further, in the same pass.
Canonicalising num / D divides out a common factor when the root ratio is a
root of unity; the reduced f is then checked against num / D by one cross
product, so the f returned is the one whose terms were checked.

``paired_form`` evaluates the paired-term closed form itself, over Q: each
Galois-conjugate pair of Binet terms is one rational second-order sequence
(:func:`recsums.seq.binet_pairs`), whose generating function has the quadratic
denominator 1 - (-b)^k V_{r-2k} x + (-b)^r x^2; the middle entry of even r
is the k = r/2 pole 1/(1 - (-b)^{r/2} x).  Its "general" style is the exact
form; the audit registry also builds the less-corrected readings of that form
to document exactly which printings hold and under what hypotheses; see
:mod:`recsums.audit`.
"""

from __future__ import annotations

from fractions import Fraction

from . import seq
from .polyrat import RationalFunction, _cleared, _mul
from .qfield import RecurrenceSpec


class SelfCheckError(ArithmeticError):
    """A built generating function disagrees with the brute-force series."""


def _pole_factors(spec: RecurrenceSpec, r: int) -> list[tuple[int, int]]:
    """(c1, c2) of each of Theorem 1's factors 1 + c1 x + c2 x^2, the dominant
    pair (k = 0) first; the linear middle factor of even r has c2 = 0."""
    b = spec.b
    v = seq.store(seq.companion(spec)).numerators(r + 1)   # V_0 .. V_r; den 1
    factors = [(-((-b) ** k) * v[r - 2 * k], (-b) ** r) for k in range((r + 1) // 2)]
    if r % 2 == 0:
        factors.append((-((-b) ** (r // 2)), 0))
    return factors


def _annihilate(factors, t: list[int]) -> list[int]:
    """t times each factor 1 + c1 x + c2 x^2 in turn, mod x^len(t), in place."""
    for c1, c2 in factors:
        for i in range(len(t) - 1, 1, -1):
            t[i] += c1 * t[i - 1] + c2 * t[i - 2]
        if len(t) > 1:
            t[1] += c1 * t[0]
    return t


def gf_power(spec: RecurrenceSpec, r: int, check_terms: int = 0) -> RationalFunction:
    """Rational function over Q whose Maclaurin coefficients are U_n^r,
    checked against the first max(2r+2, check_terms) of them."""
    if r < 1:
        raise ValueError("power must be >= 1")
    if Fraction(spec.a).denominator != 1:
        # _pole_factors reads the companion store's numerators as V_k itself
        raise ValueError(f"gf_power({spec}, r={r}): a = {spec.a} is not an "
                         f"integer; Theorem 1's pole factors are served for an "
                         f"integer a only")
    factors = _pole_factors(spec, r)
    st = seq.store(spec)
    count = max(2 * r + 2, check_terms)
    t = _annihilate(factors, [n**r for n in st.numerators(count)])
    if any(t[r + 1:]):
        bad = next(i for i in range(r + 1, count) if t[i])
        raise SelfCheckError(
            f"gf_power({spec}, r={r}), checked over {count} terms: denominator "
            f"times the series is nonzero at index {bad}, past the numerator's "
            f"degree {r}")
    scale = st.den**r
    num, den = t[:r + 1], _annihilate(factors, [1] + [0] * (r + 1))
    f = RationalFunction(num, [scale * c for c in den])
    # f must be num / (scale den): coefficient by coefficient when it kept
    # den (den(0) = 1), else by one cross product of integer lists with no
    # trailing zeros, compared whole
    fn = f.num.coeffs
    if f.den.coeffs == tuple(den):
        same = (len(fn) <= len(num) and not any(num[len(fn):]) and all(
            c.numerator * scale == n * c.denominator for c, n in zip(fn, num)))
    else:
        (fn, fd), (n,) = _cleared(fn, f.den.coeffs), _cleared(num)
        same = _mul(fn, [scale * c for c in den]) == _mul(fd, n)
    if not same:
        raise SelfCheckError(f"gf_power({spec}, r={r}), checked over {count} "
                             f"terms: the reduced form changed the value")
    return f


def gf_oracle(spec: RecurrenceSpec, r: int, order: int) -> tuple[Fraction, ...]:
    """(U_0^r, ..., U_{order-1}^r) purely by recurrence and powering."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return tuple(t**r for t in seq.terms(spec, order))


# Denominator styles for the paired-term form.  "printed" is the literal
# published shape (odd case: middle term with no x and a bare -x^2; even case:
# +x^2 and middle pole 1/(1-(-1)^{r/2}x)).  "b1" restores the visibly missing
# x but keeps the printed x^2 coefficient.  "general" uses the exact pair
# product (1 - alpha^k beta^{r-k} x)(1 - alpha^{r-k} beta^k x), whose x^2
# coefficient is (alpha beta)^r = (-b)^r, and the exact middle pole.
ODD_STYLES = ("printed", "b1", "general")
EVEN_STYLES = ("printed", "general")


def paired_form(spec: RecurrenceSpec, r: int, style: str) -> RationalFunction:
    """Paired-term closed form for the power generating function, over Q.

    Entry k contributes sum_i w_i x^i = (w0 + (w1 - P w0) x) / (1 - P x + Q x^2)
    with (w0, w1, P, Q) from ``seq.binet_pairs`` at x = 1; for the middle
    entry (c, c t, t, 0) of even r that is c / (1 - t x).  The styles change
    only the denominators.
    """
    if style not in (ODD_STYLES if r % 2 else EVEN_STYLES):
        case = "odd" if r % 2 else "even"
        raise ValueError(f"unknown {case}-case style {style!r}")
    parts = []
    for w0, w1, p, q in seq.binet_pairs(spec, r, 1):
        if style == "general":
            den = [1, -p, q]
        elif not q:   # the even-r middle pole, printed as 1 - (-1)^{r/2} x
            den = [1, -((-1) ** (r // 2))]
        elif r % 2 == 0:
            den = [1, -p, 1]
        elif style == "b1":
            den = [1, -p, -1]
        else:
            den = [1 - p, 0, -1]
        parts.append(([w0, w1 - p * w0], den))
    return RationalFunction.sum(parts)


# --- the three displayed first-power/square/cube forms (U_0 = 0, b = 1) -----


def _a_squared(spec: RecurrenceSpec) -> Fraction:
    # A = B = u1 / sqrt(D) when u0 = 0, so A^2 = u1^2 / D is rational
    return spec.u1 * spec.u1 / Fraction(spec.discriminant)


def display_r1(spec: RecurrenceSpec, variant: str = "printed") -> RationalFunction:
    """First-power display: A^2 U_1 x / (1 - V_1 x - x^2); the variant drops
    the A^2 prefactor (the r = 1 case of the paired form has prefactor A^0)."""
    seq.require_b1_u0(spec)
    if variant not in ("printed", "unit-prefactor"):
        raise ValueError(f"unknown variant {variant!r}")
    v1 = spec.a
    pref = _a_squared(spec) * spec.u1 if variant == "printed" else spec.u1
    return RationalFunction([0, pref], [1, -v1, -1])


def display_r2(spec: RecurrenceSpec) -> RationalFunction:
    """Square display: -A^2 (V_2 + 2) x (x - 1) / ((x + 1)(x^2 - V_2 x + 1))."""
    seq.require_b1_u0(spec)
    v2 = seq.store(seq.companion(spec)).term(2)
    c = _a_squared(spec) * (v2 + 2)
    return RationalFunction(_mul([0, -c], [-1, 1]), _mul([1, 1], [1, -v2, 1]))


def display_r3(spec: RecurrenceSpec, variant: str = "printed") -> RationalFunction:
    """Cube display over the denominator (1 - V_3 x - x^2)(1 + b V_1 x - x^2).

    printed: A^4 U_1 x ((a^2+2b) - 2 a^2 b x - (a^2+2b) x^2).
    proof-consistent: U_1^3 x (1 - 2 a b x - x^2), i.e. the pair sum
    A^2 (U_3 x / d0 + 3 b U_1 x / d1) with the binomial weight kept.
    """
    seq.require_b1_u0(spec)
    a, b, u1 = spec.a, spec.b, spec.u1
    v = seq.store(seq.companion(spec)).term
    v1, v3 = v(1), v(3)
    den = _mul([1, -v3, -1], [1, b * v1, -1])
    if variant == "printed":
        a4 = _a_squared(spec) ** 2
        c0 = Fraction(a * a + 2 * b)
        num = [0, a4 * u1 * c0, a4 * u1 * Fraction(-2 * a * a * b), a4 * u1 * (-c0)]
    elif variant == "proof-consistent":
        num = [0, u1**3, u1**3 * Fraction(-2 * a * b), -(u1**3)]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return RationalFunction(num, den)
