"""Polynomials over Q and canonical rational functions.

The closed forms reach their rational functions through rational Binet pairs
(:func:`recsums.seq.binet_pairs`), so nothing here is generic over a field.
``Polynomial`` is a value, not an algebra: it holds a result's coefficients,
ints and Fractions, and its only arithmetic is evaluation.  The polynomial
arithmetic lives in this module's functions on integer coefficient lists
(``_cleared``, ``_mul``, ``_add``, ``_euclid_z``, ``_exact_quotient``).
Rational functions are kept in a canonical reduced form: gcd(num, den) is a
unit, and the denominator is scaled so its constant term is 1 when possible
(monic otherwise), so generating-function denominators print in the familiar
``1 - x - x^2`` shape.

Canonicalisation runs over Z.  num and den are cleared once to integer
polynomials over one common denominator; their gcd is taken over Z (a
coprimality proof mod a large prime, else Euclid on integer remainders made
primitive, Knuth's TAOCP vol. 2, section 4.6.1) and divided out exactly; only
then is each coefficient made a Fraction, once.  A sum of rational functions,
one per Binet pair, is put over the product of their denominators as integer
polynomials and canonicalised once (``RationalFunction.sum``).

Every exact value recsums prints (CLI values, audit witnesses, printed
coefficients) goes through ``_text``: the bytes of str(), in subquadratic time.
The printers take the magnitudes already rendered, so ``rf_renderings`` gives
the text, LaTeX, numerator and denominator forms from one ``_text`` call per
nonzero coefficient.  The one exception is a large ``seq`` value
(``recsums.cli._cmd_seq`` holds the cut): :func:`recsums.seq.term_text`
builds it as exact Decimal integers, so U_n itself is never converted.  Both
compute in ``_exact_decimal()``, the one exact decimal context.
"""

from __future__ import annotations

import decimal
from fractions import Fraction
from math import gcd, lcm


class EvalPoleError(ValueError):
    """Evaluation or expansion hit a zero of the denominator."""


class Polynomial:
    """Dense univariate polynomial; index = degree; no trailing zeros.  An
    int coefficient stays an int; anything else is made a Fraction."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if type(c) is int or type(c) is Fraction else Fraction(c)
              for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        # -1 for the zero polynomial
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial([other])
        if not isinstance(other, Polynomial):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        # __eq__ matches a constant polynomial to its coefficient; the hash
        # must do the same
        if len(self.coeffs) > 1:
            return hash(self.coeffs)
        return hash(self.coeffs[0] if self.coeffs else 0)

    def coeff(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"


def _cleared(*seqs) -> list[list[int]]:
    """L s for each sequence s of ints and Fractions, as integer lists with
    no trailing zeros; L is the lcm of every denominator, one scale for all,
    so the ratio of any two is kept."""
    scale = lcm(*[c.denominator for s in seqs for c in s])
    out = []
    for s in seqs:
        ints = [c.numerator * (scale // c.denominator) for c in s]
        while ints and not ints[-1]:
            ints.pop()
        out.append(ints)
    return out


def _mul(u: list[int], v: list[int]) -> list[int]:
    """u v; also over Fractions, for the displayed forms' factors."""
    if not u or not v:
        return []
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v, i):
                out[j] += a * b
    return out


def _add(u: list[int], v: list[int]) -> list[int]:
    if len(u) < len(v):
        u, v = v, u
    out = list(u)
    for i, b in enumerate(v):
        out[i] += b
    while out and not out[-1]:
        out.pop()
    return out


# Modulus of the coprimality fast path in poly_gcd.  A pair whose leading
# coefficient it divides is rare and goes straight to Euclid.
GCD_PRIME = 2**61 - 1


def _coprime_mod_prime(u: list[int], v: list[int]) -> bool:
    """True when the integer polynomials u and v are proven coprime over Q by
    Euclid mod GCD_PRIME.

    If the prime divides neither leading coefficient, a common factor over Q,
    taken as a primitive integer divisor of both, has a leading coefficient
    the prime does not divide either, so it keeps its degree mod the prime:
    a constant gcd mod the prime proves a constant gcd over Q.  False means
    "not proven", never "not coprime".
    """
    if not u or not v or not u[-1] % GCD_PRIME or not v[-1] % GCD_PRIME:
        return False
    u = [c % GCD_PRIME for c in u]
    v = [c % GCD_PRIME for c in v]
    while len(v) > 1:
        inv = pow(v[-1], -1, GCD_PRIME)
        while len(u) >= len(v):
            c = u[-1] * inv % GCD_PRIME
            k = len(u) - len(v)
            for i, vc in enumerate(v):
                u[k + i] = (u[k + i] - c * vc) % GCD_PRIME
            while u and not u[-1]:
                u.pop()
        if not u:
            return False
        u, v = v, u
    return True


def _primitive(f: list[int]) -> list[int]:
    """f over its content, leading coefficient positive; f nonzero."""
    c = gcd(*f)
    if f[-1] < 0:
        c = -c
    return f if c == 1 else [a // c for a in f]


def _euclid_z(u: list[int], v: list[int]) -> list[int]:
    """The primitive gcd over Z of integer polynomials u and v, leading
    coefficient positive; [] when both are zero.

    Each remainder step removes the top term c of r by g with m =
    gcd(lc(g), c): r <- (lc(g)/m) r - (c/m) x^k g, exactly over Z; each
    remainder is made primitive once, when it is complete.  Every remainder
    is an integer multiple of the remainder over Q, so the last nonzero one
    is the gcd over Q up to a unit, and primitive it is the gcd over Z.
    """
    while v:
        r = list(u)
        lead, dv = v[-1], len(v)
        while len(r) >= dv:
            c = r.pop()
            m = gcd(lead, c)
            a, b = lead // m, c // m
            k = len(r) + 1 - dv
            if a != 1:
                r = [a * x for x in r]
            for i in range(dv - 1):
                r[k + i] -= b * v[i]
            while r and not r[-1]:
                r.pop()
        u, v = v, _primitive(r) if r else r
    return _primitive(u) if u else u


def _exact_quotient(f: list[int], g: list[int]) -> list[int]:
    """f / g over Z, for integer polynomials g dividing f."""
    f = list(f)
    lead, dg = g[-1], len(g)
    quot = [0] * (len(f) - dg + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = quot[k] = f[k + dg - 1] // lead
        if c:
            for i in range(dg - 1):
                f[k + i] -= c * g[i]
    return quot


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Gcd over Q, returned monic, computed over Z.

    Each operand is cleared to an integer polynomial unless its coefficients
    are ints already, as the canonicaliser hands them over.  Pairs proven
    coprime mod a large prime return 1 at once; every other pair runs Euclid
    over Z (``_euclid_z``), whose primitive gcd is then made monic.
    """
    u, v = (list(f.coeffs) if all(type(c) is int for c in f.coeffs)
            else _cleared(f.coeffs)[0] for f in (p, q))
    if _coprime_mod_prime(u, v):
        return Polynomial([1])
    g = _euclid_z(u, v)
    return Polynomial([Fraction(c, g[-1]) for c in g])


class RationalFunction:
    """num/den in canonical form: gcd-reduced, den(0) = 1 when den(0) != 0.

    Canonicalisation runs over Z: num and den are cleared to integers over
    one common denominator, their gcd is taken over Z (``poly_gcd``) and
    divided out exactly, and each coefficient becomes one Fraction c / s,
    where s is den(0), or den's leading coefficient when den(0) = 0.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        """num and den are Polynomials, or iterables of ints and Fractions
        in ascending degree."""
        n, d = _cleared(*(f.coeffs if isinstance(f, Polynomial) else tuple(f)
                          for f in (num, den)))
        if not d:
            raise ZeroDivisionError("zero denominator polynomial")
        g = poly_gcd(Polynomial(n), Polynomial(d))
        if g.degree > 0:
            (g,) = _cleared(g.coeffs)
            n, d = _exact_quotient(n, g), _exact_quotient(d, g)
        scale = d[0] or d[-1]
        object.__setattr__(self, "num", Polynomial([Fraction(c, scale) for c in n]))
        object.__setattr__(self, "den", Polynomial([Fraction(c, scale) for c in d]))

    @classmethod
    def sum(cls, parts) -> RationalFunction:
        """The sum of num/den over the (num, den) pairs in ``parts``, each a
        sequence of ints and Fractions in ascending degree: put over the
        product of the dens as integer lists and canonicalised once.  The one
        way to add rational functions."""
        num, den = [], [1]
        for n, d in parts:
            n, d = _cleared(n, d)
            num, den = _add(_mul(num, d), _mul(n, den)), _mul(den, d)
        return cls(num, den)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def evaluate(self, x):
        dv = self.den(x)
        if not dv:
            raise EvalPoleError(f"denominator vanishes at x = {x}")
        return self.num(x) / dv

    def expand(self, order: int) -> tuple[Fraction, ...]:
        """First `order` Maclaurin coefficients via the denominator recurrence.

        c_i = (num_i - sum_{j>=1} den_j c_{i-j}) / den_0, exact arithmetic.
        """
        d0 = self.den.coeff(0)
        if not d0:
            raise EvalPoleError("pole at the origin: den(0) = 0")
        coeffs = []
        dd = self.den.degree
        for i in range(order):
            acc = self.num.coeff(i)
            for j in range(1, min(i, dd) + 1):
                acc = acc - self.den.coeff(j) * coeffs[i - j]
            coeffs.append(acc / d0)
        return tuple(coeffs)

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"


# --- plain-text / LaTeX rendering (ascending degree, explicit signs) -------

# Largest bit length rendered by plain str(), which is quadratic in the digit
# count on CPython 3.11; above it `_text` goes through decimal, whose
# multiplication is subquadratic.  On a 2-core Xeon host the two meet between
# 3 * 2^13 and 2^15 bits (about 1 ms); at 694,000 bits, F(10^6), str() takes
# 0.84 s and `_text` 0.07 s.  `cli._cmd_seq` reuses it as its cut between
# the int and the Decimal ring.
_STR_BITS = 1 << 15
# Width in bits of the pieces `_text` hands to Decimal() directly.
_PIECE_BITS = 2048
# Decimal arithmetic on integers that is exact or raises: digits for any
# operand, and every rounding (Inexact) trapped beside the default traps.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                         traps=[decimal.Inexact, decimal.InvalidOperation,
                                decimal.DivisionByZero, decimal.Overflow])


def _exact_decimal():
    """A ``with`` block computing in a copy of ``_EXACT``: a localcontext, so
    the caller's decimal context is back in place on exit."""
    return decimal.localcontext(_EXACT)


def _decimal(m: int) -> decimal.Decimal:
    """The int m as an exact Decimal, in subquadratic time, inside
    ``_exact_decimal()``; Decimal(m) itself takes time quadratic in m's digits.

    |m| is split at half its width by shifts, with no int division; the
    pieces are joined as lo + hi * 2^h in decimal, exactly: the Inexact trap
    would raise on any rounding."""
    powers = {}

    def two_to(w):
        if w not in powers:
            powers[w] = (decimal.Decimal(2) ** w if w <= _PIECE_BITS
                         else two_to(w >> 1) * two_to(w - (w >> 1)))
        return powers[w]

    def join(m, w):
        if w <= _PIECE_BITS:
            return decimal.Decimal(m)
        h = w >> 1
        hi = m >> h
        return join(m - (hi << h), h) + join(hi, w - h) * two_to(h)

    d = join(abs(m), m.bit_length())
    return -d if m < 0 else d


def _text(value) -> str:
    """str(value) for an int or a Fraction, in subquadratic time: str() up to
    ``_STR_BITS`` bits, else str() of ``_decimal``.  Private: tracers time
    public functions."""
    num, den = value.numerator, value.denominator
    if num.bit_length() <= _STR_BITS and den.bit_length() <= _STR_BITS:
        try:
            return str(value)
        except ValueError:   # over the interpreter's int-to-str digit limit
            pass
    if den != 1:
        return f"{_text(num)}/{_text(den)}"
    with _exact_decimal():
        return str(_decimal(num))


def _magnitudes(p: Polynomial) -> list[str]:
    """``_text`` of |c| for each coefficient c of p, by degree ("" for 0)."""
    return [_text(abs(c)) if c else "" for c in p.coeffs]


def _term_body(c: Fraction, k: int, latex: bool, mag: str) -> str:
    if k == 0:
        return mag
    if k == 1:
        xpart = "x"
    elif latex:
        xpart = f"x^{{{k}}}"
    else:
        xpart = f"x^{k}"
    if mag == "1":
        return xpart
    if c.denominator == 1:
        return f"{mag}{xpart}"
    return f"({mag}){xpart}"


def poly_to_text(p: Polynomial, latex: bool = False, mags=None) -> str:
    """p in ascending degree; ``mags``, p's ``_magnitudes`` when the caller
    already has them, saves rendering the coefficients again."""
    if mags is None:
        mags = _magnitudes(p)
    parts = []
    for k, c in enumerate(p.coeffs):
        if c:
            sign = (" - " if c < 0 else " + ") if parts else ("-" if c < 0 else "")
            parts.append(sign + _term_body(c, k, latex, mags[k]))
    return "".join(parts) or "0"


def rf_to_text(f: RationalFunction, mags=None) -> str:
    """num/den; ``mags`` is None or the pair of f.num's and f.den's
    ``_magnitudes``."""
    num_mags, den_mags = mags or (None, None)
    num = poly_to_text(f.num, mags=num_mags)
    if f.den == Polynomial([1]):
        return num
    if len(f.num.coeffs) - f.num.coeffs.count(0) > 1:   # more than one term
        num = f"({num})"
    return f"{num}/({poly_to_text(f.den, mags=den_mags)})"


def rf_to_latex(f: RationalFunction, mags=None) -> str:
    """\\frac{num}{den}; ``mags`` as for ``rf_to_text``."""
    num_mags, den_mags = mags or (None, None)
    num = poly_to_text(f.num, latex=True, mags=num_mags)
    if f.den == Polynomial([1]):
        return num
    return f"\\frac{{{num}}}{{{poly_to_text(f.den, latex=True, mags=den_mags)}}}"


def rf_renderings(f: RationalFunction) -> dict[str, str]:
    """rf_to_text and rf_to_latex of f and poly_to_text of its num and den,
    under the keys text, latex, num and den, each coefficient rendered once."""
    mags = _magnitudes(f.num), _magnitudes(f.den)
    return {"text": rf_to_text(f, mags), "latex": rf_to_latex(f, mags),
            "num": poly_to_text(f.num, mags=mags[0]),
            "den": poly_to_text(f.den, mags=mags[1])}
