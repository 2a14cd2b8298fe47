"""Recurrence specs, and exact arithmetic in quadratic extensions Q(sqrt(D)).

``RecurrenceSpec`` holds the parameters every other module works from.
``QuadElem`` holds values p + q*sqrt(D) with D a non-square integer, and
``roots`` gives the characteristic roots alpha, beta in it.
The closed forms do not compute here: with rational initial values, Binet
terms come in Galois-conjugate pairs whose sums are rational, and
:func:`recsums.seq.binet_pairs` evaluates them over Q.  QuadElem remains for
statements that are themselves about Q(sqrt(5)) (``binsum.root_power_collapse``)
and for the tests' independent Binet reference, which builds the coefficients
A, B from ``roots``.  A QuadElem equals a rational only when its sqrt(D) part
is 0, so comparing one with a Fraction by ``==`` checks that it is rational.

Square discriminants never construct a QuadElem: Q[t]/(t^2 - D) has zero
divisors when D is a perfect square, so inversion would fail there.  Specs
with a square discriminant get rational roots as plain Fractions.
Negative discriminants are allowed; the arithmetic is formally identical and
every sequence value is still rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class DegenerateSpecError(ValueError):
    """Recurrence parameters outside the contract (b = 0 or a^2 + 4b = 0)."""


def is_perfect_square(d: int) -> tuple[bool, int | None]:
    """Exact integer square decision: (is_square, nonnegative root or None)."""
    if d < 0:
        return False, None
    r = math.isqrt(d)
    if r * r == d:
        return True, r
    return False, None


@dataclass(frozen=True, eq=False)
class QuadElem:
    """Element rat + coef*sqrt(disc) of Q(sqrt(disc)), disc a non-square integer.

    Immutable; all operations return new values.  Two QuadElems compose only
    when their discriminants match.  Plain ints and Fractions coerce into the
    rational part, so mixed expressions like ``1 - alpha * x`` work directly.
    """

    rat: Fraction
    coef: Fraction
    disc: int

    def __post_init__(self):
        object.__setattr__(self, "rat", Fraction(self.rat))
        object.__setattr__(self, "coef", Fraction(self.coef))
        if self.disc == 0:
            raise ValueError("discriminant must be nonzero")
        square, root = is_perfect_square(self.disc)
        if square:
            raise ValueError(
                f"discriminant {self.disc} = {root}^2 is a perfect square; "
                "use plain rational arithmetic"
            )

    def _coerce(self, other):
        if isinstance(other, QuadElem):
            if other.disc != self.disc:
                raise ValueError(
                    f"discriminant mismatch: {self.disc} vs {other.disc}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return QuadElem(Fraction(other), Fraction(0), self.disc)
        return None

    def __bool__(self):
        return bool(self.rat) or bool(self.coef)

    def __eq__(self, other):
        if isinstance(other, QuadElem):
            if other.disc != self.disc:
                return (not self.coef and not other.coef
                        and self.rat == other.rat)
            return self.rat == other.rat and self.coef == other.coef
        if isinstance(other, (int, Fraction)):
            return not self.coef and self.rat == other
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElem(self.rat + o.rat, self.coef + o.coef, self.disc)

    __radd__ = __add__

    def __neg__(self):
        return QuadElem(-self.rat, -self.coef, self.disc)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElem(self.rat - o.rat, self.coef - o.coef, self.disc)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElem(
            self.rat * o.rat + self.coef * o.coef * self.disc,
            self.rat * o.coef + self.coef * o.rat,
            self.disc,
        )

    __rmul__ = __mul__

    def invert(self) -> QuadElem:
        # (p + q*sqrt(D))^-1 = (p - q*sqrt(D)) / (p^2 - q^2 D); the norm is
        # nonzero for nonzero elements because D is not a square.
        norm = self.rat * self.rat - self.coef * self.coef * self.disc
        if not norm:
            raise ZeroDivisionError("inversion of zero element")
        return QuadElem(self.rat / norm, -self.coef / norm, self.disc)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.invert()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.invert()

    def __pow__(self, n: int):
        if n < 0:
            return self.invert() ** (-n)
        result = QuadElem(Fraction(1), Fraction(0), self.disc)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __str__(self):
        return f"{self.rat} + {self.coef}*sqrt({self.disc})"

    def __repr__(self):
        return f"QuadElem({self.rat!r}, {self.coef!r}, {self.disc})"


@dataclass(frozen=True)
class RecurrenceSpec:
    """Parameters of U_{n+1} = a*U_n + b*U_{n-1} with initial values U_0, U_1.

    Non-degenerate: a^2 + 4b != 0 so the characteristic roots are distinct,
    and b != 0 so the recurrence is genuinely second order.  Initial values
    may be arbitrary rationals.
    """

    a: int
    b: int
    u0: Fraction
    u1: Fraction

    def __post_init__(self):
        object.__setattr__(self, "u0", Fraction(self.u0))
        object.__setattr__(self, "u1", Fraction(self.u1))
        if self.b == 0:
            raise DegenerateSpecError("b = 0 gives a first-order recurrence")
        if self.a * self.a + 4 * self.b == 0:
            raise DegenerateSpecError(
                f"a^2 + 4b = 0 for a={self.a}, b={self.b}: double root"
            )

    @property
    def discriminant(self) -> int:
        return self.a * self.a + 4 * self.b

    def __str__(self):
        return f"a={self.a},b={self.b},u0={self.u0},u1={self.u1}"


def roots(spec: RecurrenceSpec) -> tuple[Fraction | QuadElem, Fraction | QuadElem]:
    """Characteristic roots (alpha, beta) of x^2 - a x - b.

    alpha carries the +sqrt(D) branch.  For a square discriminant both roots
    are plain Fractions; otherwise they are QuadElems over disc D.
    """
    d = spec.discriminant
    square, root = is_perfect_square(d)
    if square:
        alpha = Fraction(spec.a + root, 2)
        beta = Fraction(spec.a - root, 2)
        return alpha, beta
    half = Fraction(1, 2)
    alpha = QuadElem(Fraction(spec.a, 2), half, d)
    beta = QuadElem(Fraction(spec.a, 2), -half, d)
    return alpha, beta

