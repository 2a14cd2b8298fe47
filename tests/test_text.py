"""`cli._text` renders an int or a Fraction as exactly the bytes of str().

Above `cli._STR_BITS` it splits |n| at half its width and joins the halves in
decimal, down to pieces of at most `cli._PIECE_BITS` bits; the edges below sit
where a split, a piece or a carry into the next power of ten could go wrong.
With `_STR_BITS` set to 0 the decimal path also runs on small values.
"""

import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from recsums import cli  # noqa: E402

pytestmark = pytest.mark.usefixtures("unlimited_str")
CROSS, PIECE = cli._STR_BITS, cli._PIECE_BITS


def _assert_text_is_str(v):
    """On both paths: from the crossover on, and in decimal down to 1 bit."""
    try:
        for bits in (CROSS, 0):
            cli._STR_BITS = bits
            assert cli._text(v) == str(v)
    finally:
        cli._STR_BITS = CROSS


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
        assert cli._text(v) == str(v)
