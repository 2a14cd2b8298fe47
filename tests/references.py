"""Test-only references: the parser of the rendering grammar, which reads the
CLI's text and LaTeX output back, the Binet coefficients in Q(sqrt(D)), the
store's power sum as one plain loop, the doubling kernel ending in a
plain last doubling, polynomial arithmetic over Q on Polynomial values (which
have none of their own; it shares no code with ``recsums.polyrat``), the
canonical form of a rational function computed over Q by Euclid, and the
first-power corollary built from shifted monomials."""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from recsums.polyrat import Polynomial, RationalFunction
from recsums import seq
from recsums.qfield import QuadElem, RecurrenceSpec, roots
from recsums.seq import _scale


def parse_polynomial(text: str) -> Polynomial:
    """Parse the CLI polynomial grammar: signed terms in ascending degree,
    integer or (p/q) coefficients, x^k powers (optional LaTeX braces)."""
    text = text.replace(" ", "")
    if not text:
        raise ValueError("empty polynomial text")
    term_re = re.compile(
        r"(?P<sign>[+-]?)"
        r"(?P<coef>\(\d+/\d+\)|\d+(?:/\d+)?)?"
        r"(?P<x>x(?:\^\{?(?P<exp>\d+)\}?)?)?"
    )
    coeffs: dict[int, Fraction] = {}
    pos = 0
    while pos < len(text):
        m = term_re.match(text, pos)
        if not m or m.end() == pos or (m.group("coef") is None and m.group("x") is None):
            raise ValueError(f"cannot parse polynomial at ...{text[pos:]!r}")
        sign = -1 if m.group("sign") == "-" else 1
        coef_text = m.group("coef")
        coef = Fraction(coef_text.strip("()")) if coef_text else Fraction(1)
        if m.group("x"):
            k = int(m.group("exp")) if m.group("exp") else 1
        else:
            k = 0
        coeffs[k] = coeffs.get(k, Fraction(0)) + sign * coef
        pos = m.end()
    out = [Fraction(0)] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return Polynomial(out)


def parse_rational_function(text: str) -> RationalFunction:
    """Parse text or LaTeX output of the gf renderer back to canonical form."""
    text = text.strip()
    if text.startswith("\\frac"):
        body = text[len("\\frac"):]
        parts = []
        depth = 0
        start = None
        for i, ch in enumerate(body):
            if ch == "{":
                if depth == 0:
                    start = i + 1
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    parts.append(body[start:i])
        if len(parts) != 2:
            raise ValueError("malformed \\frac expression")
        return RationalFunction(parse_polynomial(parts[0]),
                                parse_polynomial(parts[1]))
    if "/(" in text:
        num_text, den_text = text.split("/(", 1)
        if not den_text.endswith(")"):
            raise ValueError("malformed rational function text")
        num_text = num_text.strip()
        if num_text.startswith("(") and num_text.endswith(")"):
            num_text = num_text[1:-1]
        return RationalFunction(parse_polynomial(num_text),
                                parse_polynomial(den_text[:-1]))
    return RationalFunction(parse_polynomial(text), Polynomial([1]))



def binet_coeffs(spec: RecurrenceSpec) -> tuple[Fraction | QuadElem, Fraction | QuadElem]:
    """Coefficients (A, B) with U_n = A*alpha^n - B*beta^n; A = B when U_0 = 0."""
    alpha, beta = roots(spec)
    delta = alpha - beta
    a_coef = (spec.u1 - spec.u0 * beta) / delta
    b_coef = (spec.u1 - spec.u0 * alpha) / delta
    return a_coef, b_coef


def power_sum_loop(store, r: int, n: int, x, binomial: bool) -> Fraction:
    """``PrefixStore.power_row`` at a row of one n as one loop over the
    store's numerators at every n, the reference for its binary splitting of
    binomial sums.

    sum_{i=0}^n w_i U_i^r x^i, with w_i = C(n,i) if binomial, else 1.  With
    x = p / q the sum is sum_i w_i N_i^r p^i q^(n-i) over den^r q^n:
    integers until one division.
    """
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    total = 0
    c = 1
    pp = 1
    for i, num in enumerate(store.numerators(n + 1)):
        # Horner in q: after step i, total = sum_{j<=i} w_j N_j^r p^j q^(i-j)
        total = total * q + c * num**r * pp
        if binomial:
            c = c * (n - i) // (i + 1)
        pp *= p
    return Fraction(total, store.den**r * q**n)


def doubling_loop(coeffs, initial, n: int, ring=int):
    """``seq._doubling`` with a last doubling and a dot product in place of
    its Hankel form, the reference for that final step: (v, e s^n) with
    w_n = v / (e s^n), in the ring ``ring`` maps ints into.

    v_j = s^j w_j, with s from ``seq._scale``, runs on the integer recurrence
    with coefficients a_i = c_i s^{d-i}.  Fiduccia's method doubles z^n modulo
    z^d - sum_i a_i z^i in the ring: square, shift by z where the bit of n is
    set, and fold the top degrees down.  If the remainder is sum_i r_i z^i,
    v_n = sum_i r_i v_i; with e the common denominator of the initial values,
    v = sum_i r_i s^i (e w_i).
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


def poly_add(*ps: Polynomial) -> Polynomial:
    """The sum of the Polynomials ps over Q."""
    n = max((len(p.coeffs) for p in ps), default=0)
    return Polynomial([sum(p.coeff(i) for p in ps) for i in range(n)])


def poly_scale(p: Polynomial, c) -> Polynomial:
    """c p for a scalar c."""
    return Polynomial([a * c for a in p.coeffs])


def poly_mul(*ps: Polynomial) -> Polynomial:
    """The product of the Polynomials ps over Q, schoolbook."""
    out = Polynomial([1])
    for p in ps:
        prod = [Fraction(0)] * (len(out.coeffs) + len(p.coeffs))
        for i, a in enumerate(out.coeffs):
            for j, b in enumerate(p.coeffs):
                prod[i + j] += a * b
        out = Polynomial(prod)
    return out


def poly_divmod(p: Polynomial, q: Polynomial) -> tuple[Polynomial, Polynomial]:
    """(quotient, remainder) of p by a nonzero q over Q, by long division."""
    rem = list(p.coeffs)
    dq, lead = len(q.coeffs), q.coeffs[-1]
    quot = [Fraction(0)] * max(0, len(rem) - dq + 1)
    while len(rem) >= dq:
        c = Fraction(rem[-1]) / lead
        k = len(rem) - dq
        quot[k] = c
        for i, qc in enumerate(q.coeffs):
            rem[k + i] -= c * qc
        while rem and not rem[-1]:
            rem.pop()
    return Polynomial(quot), Polynomial(rem)


def rf_add(f: RationalFunction, g: RationalFunction) -> RationalFunction:
    """f + g as (f.num g.den + g.num f.den) / (f.den g.den) over Q, then
    canonicalised: the pairwise reference for ``RationalFunction.sum``."""
    return RationalFunction(poly_add(poly_mul(f.num, g.den), poly_mul(g.num, f.den)),
                            poly_mul(f.den, g.den))


def euclid_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Gcd over Q by Euclid on Fraction coefficients, returned monic: the
    reference for ``polyrat.poly_gcd``, which runs over Z."""
    while q:
        p, q = q, poly_divmod(p, q)[1]
    return poly_scale(p, 1 / Fraction(p.coeffs[-1])) if p else p


def canonical_form(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """(num, den) of ``RationalFunction(num, den)``, computed over Q: divide
    both by ``euclid_gcd``, then scale den(0) to 1, or den's leading
    coefficient when den(0) = 0."""
    g = euclid_gcd(num, den)
    num, den = poly_divmod(num, g)[0], poly_divmod(den, g)[0]
    scale = Fraction(den.coeff(0) or den.coeffs[-1])
    return poly_scale(num, 1 / scale), poly_scale(den, 1 / scale)


def monomial(c, k: int) -> Polynomial:
    """c x^k."""
    return Polynomial([0] * k + [c])


def corollary_r1_shifted(spec: RecurrenceSpec, n: int, variant: str) -> RationalFunction:
    """``partsum.corollary_r1`` built as x (U_1 - U_{n+1} x^n - U_n x^last)
    from differences of shifted monomials."""
    u = seq.store(spec).term
    last = n + 2 if variant == "printed" else n + 1
    inner = poly_add(
        Polynomial([spec.u1]),
        monomial(-u(n + 1), n),
        monomial(-u(n), last),
    )
    return RationalFunction(poly_mul(inner, monomial(1, 1)), Polynomial([1, -spec.a, -1]))
