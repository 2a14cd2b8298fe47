"""Recurrence specs, and exact arithmetic in quadratic extensions Q(sqrt(D)).

``RecurrenceSpec`` holds the parameters every other module works from.
``QuadElem`` holds values (p + q*sqrt(D))/e, D a non-square integer, as one
integer triple over one common denominator (Cohen, GTM 138, 4.2), and
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


class QuadElem:
    """Element (p + q*sqrt(disc))/e of Q(sqrt(disc)), disc a non-square integer.

    One integer triple with gcd(p, q, e) = 1 and e > 0, so equal elements have
    equal triples: each operation does its integer products and one gcd, and
    a power squares raw triples, one gcd a step.  ``rat`` = p/e, ``coef``
    = q/e (Fractions) and ``disc`` are read-only.  Two QuadElems compose only
    when their discriminants match; ints and Fractions coerce into the
    rational part, so mixed expressions like ``1 - alpha * x`` work directly.
    """

    __slots__ = ("_pqe", "_disc")

    def __new__(cls, rat, coef, disc: int):
        rat, coef = Fraction(rat), Fraction(coef)
        if disc == 0:
            raise ValueError("discriminant must be nonzero")
        square, root = is_perfect_square(disc)
        if square:
            raise ValueError(f"discriminant {disc} = {root}^2 is a perfect square; "
                             "use plain rational arithmetic")
        d, f = rat.denominator, coef.denominator
        return _reduced(rat.numerator * f, coef.numerator * d, d * f, disc)

    def __reduce__(self):   # copy and pickle through the checked constructor
        return QuadElem, (self.rat, self.coef, self._disc)

    rat = property(lambda self: Fraction(self._pqe[0], self._pqe[2]), doc="p/e")
    coef = property(lambda self: Fraction(self._pqe[1], self._pqe[2]), doc="q/e")
    disc = property(lambda self: self._disc)

    def _triple(self, other):
        """other's reduced (p, q, e) over this disc; None for a foreign type."""
        if isinstance(other, QuadElem):
            if other._disc != self._disc:
                raise ValueError(f"discriminant mismatch: {self._disc} vs {other.disc}")
            return other._pqe
        if isinstance(other, int):
            return other, 0, 1
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator
        return None

    def __bool__(self):
        return self._pqe[0] != 0 or self._pqe[1] != 0

    def __eq__(self, other):
        if isinstance(other, QuadElem):
            # over different discriminants only rationals can be equal
            return self._pqe == other._pqe and (
                other._disc == self._disc or self._pqe[1] == 0)
        o = self._triple(other)
        return NotImplemented if o is None else self._pqe == o

    def __add__(self, other):
        o = self._triple(other)
        if o is None:
            return NotImplemented
        (p, q, e), (r, s, f) = self._pqe, o
        return _reduced(p * f + r * e, q * f + s * e, e * f, self._disc)

    __radd__ = __add__

    def __neg__(self):
        p, q, e = self._pqe
        return _reduced(-p, -q, e, self._disc)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._triple(other)
        if o is None:
            return NotImplemented
        (p, q, e), (r, s, f) = self._pqe, o
        return _reduced(p * r + q * s * self._disc, p * s + q * r, e * f, self._disc)

    __rmul__ = __mul__

    def invert(self) -> QuadElem:
        # e/(p + q*sqrt(D)) = e*(p - q*sqrt(D)) / (p^2 - q^2 D), the norm
        # nonzero as D is not a square; _reduced moves the norm's sign to p, q
        p, q, e = self._pqe
        norm = p * p - q * q * self._disc
        if not norm:
            raise ZeroDivisionError("inversion of zero element")
        return _reduced(e * p, -e * q, norm, self._disc)

    def __truediv__(self, other):
        o = self._triple(other)
        return NotImplemented if o is None else self * _reduced(*o, self._disc).invert()

    def __rtruediv__(self, other):
        o = self._triple(other)
        return NotImplemented if o is None else _reduced(*o, self._disc) * self.invert()

    def __pow__(self, n: int):
        if n < 0:
            return self.invert() ** (-n)
        d = self._disc
        p, q, e = self._pqe
        x, y, z = 1, 0, 1
        while n:
            if n & 1:
                x, y, z = _lowest(x * p + y * q * d, x * q + y * p, z * e)
            n >>= 1
            if n:
                p, q, e = _lowest(p * p + q * q * d, 2 * p * q, e * e)
        return _reduced(x, y, z, d)

    def __str__(self):
        return f"{self.rat} + {self.coef}*sqrt({self._disc})"

    def __repr__(self):
        return f"QuadElem({self.rat!r}, {self.coef!r}, {self._disc})"


def _lowest(p: int, q: int, e: int) -> tuple[int, int, int]:
    """(p, q, e) over gcd(e, p, q), e > 0; a small e first keeps the gcd linear."""
    g = math.gcd(e, p, q) if e > 0 else -math.gcd(e, p, q)
    return (p // g, q // g, e // g) if g != 1 else (p, q, e)


def _reduced(p: int, q: int, e: int, disc: int) -> QuadElem:
    """(p + q*sqrt(disc))/e, e != 0, without the checks: disc is already checked."""
    elem = object.__new__(QuadElem)
    elem._pqe = _lowest(p, q, e)
    elem._disc = disc
    return elem


class RecurrenceSpec:
    """Parameters of U_{n+1} = a*U_n + b*U_{n-1} with initial values U_0, U_1.

    Non-degenerate: a^2 + 4b != 0 so the characteristic roots are distinct,
    and b != 0 so the recurrence is genuinely second order.  Initial values
    may be arbitrary rationals.  Parameters are ints or Fractions, u0 and u1
    also rational text such as "1/2"; a float raises TypeError.

    A spec is a frozen value, equal to a spec of the same (a, b, u0, u1).  It
    keys every store and memo, so its hash, hash((a, b, u0, u1)), is computed
    once, on construction.
    """

    __slots__ = ("a", "b", "u0", "u1", "_hash")

    def __init__(self, a, b, u0, u1):
        for name, value, kinds in (("a", a, (int, Fraction)), ("b", b, (int, Fraction)),
                                   ("u0", u0, (int, Fraction, str)),
                                   ("u1", u1, (int, Fraction, str))):
            if not isinstance(value, kinds):
                raise TypeError(f"{name}={value!r} is not an int or a Fraction")
        u0, u1 = Fraction(u0), Fraction(u1)
        if b == 0:
            raise DegenerateSpecError("b = 0 gives a first-order recurrence")
        if a * a + 4 * b == 0:
            raise DegenerateSpecError(f"a^2 + 4b = 0 for a={a}, b={b}: double root")
        for name, value in zip(self.__slots__, (a, b, u0, u1, hash((a, b, u0, u1)))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), (self.a, self.b, self.u0, self.u1)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.a, self.b, self.u0, self.u1) == (other.a, other.b, other.u0, other.u1)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (f"{type(self).__qualname__}(a={self.a!r}, b={self.b!r}, "
                f"u0={self.u0!r}, u1={self.u1!r})")

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

