"""`polyrat._text` renders an int or a Fraction as exactly the bytes of str().

Above `polyrat._STR_BITS` it splits |n| at half its width and joins the halves
in decimal, down to pieces of at most `polyrat._PIECE_BITS` bits; the edges
below sit where a split, a piece or a carry into the next power of ten could go
wrong.  With `_STR_BITS` set to 0 the decimal path also runs on small values.
The polynomial and rational-function printers render every coefficient
through it, so they print big coefficients as str() would, and the tests'
parser (`references.parse_rational_function`) reads them back.
"""

import random
import sys
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from recsums import polyrat  # noqa: E402
from recsums.polyrat import (Polynomial, RationalFunction,  # noqa: E402
                             poly_to_text, rf_to_latex, rf_to_text)
from references import parse_rational_function  # noqa: E402

pytestmark = pytest.mark.usefixtures("unlimited_str")
CROSS, PIECE = polyrat._STR_BITS, polyrat._PIECE_BITS


def _assert_text_is_str(v):
    """On both paths: from the crossover on, and in decimal down to 1 bit."""
    try:
        for bits in (CROSS, 0):
            polyrat._STR_BITS = bits
            assert polyrat._text(v) == str(v)
    finally:
        polyrat._STR_BITS = CROSS


def _edges():
    yield from (0, 1)
    for w in (PIECE - 1, PIECE, PIECE + 1, 2 * PIECE, CROSS - 1, CROSS,
              CROSS + 1, 2 * CROSS, 3 * CROSS + PIECE + 1):
        yield from (1 << w, (1 << w) - 1, (1 << w) + 1)
        if w > PIECE:
            # a full piece next to an empty one, and the reverse
            yield from ((1 << w) + (1 << PIECE) - 1, ((1 << w) - 1) ^ (1 << PIECE))
    for k in (6_000, 9_863, 9_864, 9_865, 10_000, 20_000, 40_000):
        yield from (10**k, 10**k - 1, 10**k + 1)


EDGES = list(_edges())


@pytest.mark.parametrize("n", EDGES, ids=lambda n: f"{n.bit_length()}bits")
def test_text_is_str_at_the_edges(n):
    _assert_text_is_str(n)
    _assert_text_is_str(-n)


def _int(bits, seed, negative):
    n = random.Random(seed).getrandbits(bits)
    return -n if negative else n


INTS = st.builds(_int, st.integers(0, 150_000), st.integers(0, 2**32),
                 st.booleans())


@settings(max_examples=60, deadline=None)
@given(n=INTS)
def test_text_is_str_for_ints(n):
    _assert_text_is_str(n)


@settings(max_examples=40, deadline=None)
@given(num=INTS, den=st.builds(abs, INTS).filter(bool))
def test_text_is_str_for_fractions(num, den):
    _assert_text_is_str(Fraction(num, den))
    _assert_text_is_str(Fraction(num))


def test_text_is_str_for_fractions_above_the_crossover_on_both_sides():
    num, den = 3**40_000 + 1, 2**70_001 * 7
    for v in (Fraction(num, den), Fraction(-num, den), Fraction(den, num),
              Fraction(-den), Fraction(-1, den)):
        assert polyrat._text(v) == str(v)


def test_small_values_take_the_str_shortcut(monkeypatch):
    # with decimal out of reach, only the str() shortcut can render them
    monkeypatch.setattr(polyrat, "decimal", None)
    top = (1 << CROSS) - 1
    for v in (0, -7, top, -top, Fraction(-3, 4), Fraction(top, top - 2),
              Fraction(12)):
        assert polyrat._text(v) == str(v)


def test_text_needs_no_lift_of_the_int_str_digit_limit():
    values = (10**5_000, -(10**9_000) - 1, Fraction(1, 10**4_400),
              Fraction(10**4_301 + 1, 3), 10**20_000)
    expected = [str(v) for v in values]
    sys.set_int_max_str_digits(4_300)   # the fixture restores the old limit
    assert [polyrat._text(v) for v in values] == expected


BIG = Fraction(3**40_000, 7)


def test_printers_render_coefficients_above_the_crossover_as_str():
    assert BIG.numerator.bit_length() > CROSS
    top = -(2**70_001 + 1)
    num = Polynomial([BIG, 0, top, -BIG])
    den = Polynomial([1, Fraction(-1, 3)])
    f = RationalFunction(num, den)
    assert (f.num, f.den) == (num, den)
    body = f"{BIG} - {-top}x^2 - ({BIG})x^3"
    assert poly_to_text(num) == body
    assert poly_to_text(num, latex=True) == body.replace("x^2", "x^{2}").replace(
        "x^3", "x^{3}")
    assert rf_to_text(f) == f"({body})/(1 - (1/3)x)"
    assert rf_to_latex(f) == (f"\\frac{{{poly_to_text(num, latex=True)}}}"
                              f"{{1 - (1/3)x}}")
    for text in (rf_to_text(f), rf_to_latex(f)):
        assert parse_rational_function(text) == f
