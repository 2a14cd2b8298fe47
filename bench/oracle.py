"""Exact reference values for checking CLI outputs, independent of recsums.

Every value here comes from integer recurrences and plain ``Fraction``
arithmetic written in this file.  Nothing is imported from ``recsums``, so a
change that breaks ``recsums.seq`` (or any other module) cannot also break the
check that judges it.  A spec is a tuple ``(a, b, u0, u1)`` of ints and
Fractions for ``U_{n+1} = a U_n + b U_{n-1}``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm


def term(spec, n: int) -> Fraction:
    """U_n for n >= 0, as U_n = u1 F_n + u0 b F_{n-1} with F_0 = 0, F_1 = 1.

    M^k = [[F_{k+1}, b F_k], [F_k, b F_{k-1}]] for M = [[a, b], [1, 0]], so a
    power of M is kept as (F_{k+1}, F_k, b F_{k-1}) and M^n found by squaring.
    """
    a, b, u0, u1 = spec
    rp, rq, rs = 1, 0, 1          # M^0
    mp, mq, ms = a, 1, 0          # M^1
    while n:
        if n & 1:
            rp, rq, rs = (rp * mp + b * rq * mq, rq * mp + rs * mq,
                          b * rq * mq + rs * ms)
        n >>= 1
        if n:
            bq2 = b * mq * mq
            mp, mq, ms = mp * mp + bq2, mq * (mp + ms), bq2 + ms * ms
    return Fraction(u1) * rq + Fraction(u0) * rs


_POW10: dict[int, int] = {}


def _digits_value(digits: str) -> int:
    """int(digits) by halving, which needs only multiplications: CPython's
    own str <-> int conversion is quadratic in the digit count."""
    if len(digits) <= 1000:
        return int(digits)
    low = len(digits) // 2
    if low not in _POW10:
        _POW10[low] = 10**low
    return _digits_value(digits[:-low]) * _POW10[low] + _digits_value(digits[-low:])


def renders(value: Fraction, text: str) -> bool:
    """text == str(value), decided without rendering value in decimal."""
    num, sep, den = text.partition("/")
    sign = num.startswith("-")
    num = num[1:] if sign else num
    for part in (num, den) if sep else (num,):
        if not part.isdigit() or not part.isascii() or (part[0] == "0" and part != "0"):
            return False
    if (sign and value >= 0) or (not sign and value < 0):
        return False
    if bool(sep) != (value.denominator != 1):
        return False
    return (_digits_value(num) == abs(value.numerator)
            and (not sep or _digits_value(den) == value.denominator))


def scaled_terms(spec, count: int) -> tuple[list[int], int]:
    """Integers N_0 .. N_{count-1} and d > 0 with U_i = N_i / d."""
    a, b, u0, u1 = spec
    u0, u1 = Fraction(u0), Fraction(u1)
    d = lcm(u0.denominator, u1.denominator)
    lo, hi = int(u0 * d), int(u1 * d)
    out = []
    for _ in range(count):
        out.append(lo)
        lo, hi = hi, a * hi + b * lo
    return out, d


def _weighted_sum(spec, r: int, n: int, x: Fraction, binomial: bool) -> Fraction:
    # sum_i w_i U_i^r x^i with U_i = N_i / d, x = p / q and w_i = C(n, i) or 1,
    # as (sum_i w_i N_i^r p^i q^(n-i)) / (d^r q^n), summed Horner-style in q
    ns, d = scaled_terms(spec, n + 1)
    p, q = x.numerator, x.denominator
    total, w, p_i = 0, 1, 1
    for i, v in enumerate(ns):
        total = total * q + w * v**r * p_i
        p_i *= p
        if binomial:
            w = w * (n - i) // (i + 1)
    return Fraction(total, d**r * q**n)


def binom_sum(spec, r: int, n: int, x: Fraction) -> Fraction:
    """sum_{i=0}^n C(n,i) U_i^r x^i."""
    return _weighted_sum(spec, r, n, x, True)


def partial_sum(spec, r: int, n: int, x: Fraction) -> Fraction:
    """sum_{i=0}^n U_i^r x^i."""
    return _weighted_sum(spec, r, n, x, False)


# --- generating functions ------------------------------------------------------

_TERM = re.compile(
    r"\s*(?P<sign>[+-]?)\s*"
    r"(?:\((?P<pn>\d+)/(?P<pd>\d+)\)|(?P<n>\d+)(?:/(?P<d>\d+))?)?"
    r"(?P<x>x(?:\^(?P<k>\d+))?)?\s*"
)


def parse_poly(text: str) -> list[Fraction]:
    """Coefficients, by ascending degree, of a rendered polynomial such as
    ``1 - 3x + (2/3)x^2``; raises ValueError on anything else."""
    coeffs: dict[int, Fraction] = {}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m.end() == pos or not (m["pn"] or m["n"] or m["x"]):
            raise ValueError(f"unparsable polynomial text at {text[pos:pos + 40]!r}")
        if m["pn"]:
            c = Fraction(int(m["pn"]), int(m["pd"]))
        elif m["n"]:
            c = Fraction(int(m["n"]), int(m["d"] or 1))
        else:
            c = Fraction(1)
        k = (int(m["k"]) if m["k"] else 1) if m["x"] else 0
        if k in coeffs:
            raise ValueError(f"repeated degree {k}")
        coeffs[k] = -c if m["sign"] == "-" else c
        pos = m.end()
    if not coeffs:
        raise ValueError("empty polynomial text")
    out = [Fraction(0)] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return out


def parse_rf(text: str) -> tuple[list[Fraction], list[Fraction]]:
    """(numerator, denominator) of ``num``, ``num/(den)`` or ``(num)/(den)``."""
    text = text.strip()
    num, sep, den = text.partition("/(")
    if not sep:
        return parse_poly(text), [Fraction(1)]
    if not den.endswith(")"):
        raise ValueError("denominator is not parenthesised")
    if num.startswith("(") and num.endswith(")"):
        num = num[1:-1]
    return parse_poly(num), parse_poly(den[:-1])


def gf_mismatch(spec, r: int, text: str) -> str | None:
    """None when ``text`` is the power generating function sum_n U_n^r x^n in
    canonical form (den(0) = 1), else the reason it is not.

    The true function is T/Q with deg T <= r and deg Q <= r + 1, so N/D equals
    it as soon as their series agree on more than
    max(deg N + r + 1, deg D + r) coefficients.
    """
    try:
        num, den = parse_rf(text)
    except ValueError as exc:
        return str(exc)
    if den[0] != 1:
        return f"denominator constant term is {den[0]}, not 1"
    order = max(len(num) + r + 1, len(den) + r)
    ns, d = scaled_terms(spec, order)
    series: list[Fraction] = []
    for i in range(order):
        acc = num[i] if i < len(num) else Fraction(0)
        for j in range(1, min(i, len(den) - 1) + 1):
            acc -= den[j] * series[i - j]
        series.append(acc)
        if acc != Fraction(ns[i] ** r, d**r):
            return f"coefficient {i} is {acc}, expected {Fraction(ns[i] ** r, d ** r)}"
    return None
