"""Test-only references: the parser of the rendering grammar, which reads the
CLI's text and LaTeX output back, and the Binet coefficients in Q(sqrt(D))."""

from __future__ import annotations

import re
from fractions import Fraction

from recsums.polyrat import Polynomial, RationalFunction
from recsums.qfield import QuadElem, RecurrenceSpec, roots


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
