"""The doubling kernel in its two rings, and the scale it runs at.

``seq._doubling`` is Fiduccia's method with one loop body.  Over ints it
serves every Fraction caller (``linear_term``); over exact Decimal integers it
builds ``seq.term_text``, the printed value of a large ``seq``, which must be
the bytes ``polyrat._text`` gives for the int ring's value at every n, the
cut included.  Both rings compute in ``polyrat._exact_decimal()``, a
localcontext, so the caller's decimal context survives them.
"""

import contextlib
import decimal
import hashlib
import io
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from recsums import cli, polyrat, seq  # noqa: E402
from recsums.polyrat import _text  # noqa: E402
from recsums.qfield import DegenerateSpecError, RecurrenceSpec  # noqa: E402
from references import doubling_loop  # noqa: E402

INITIAL = [Fraction(v) for v in ("0", "1", "-1", "2", "1/2", "-1/2", "2/3", "-1/3",
                                 "5/6", "-4/9")]


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.integers(-6, 6), st.integers(-6, 6), st.sampled_from(INITIAL),
       st.sampled_from(INITIAL), st.integers(0, 3000))
def test_the_decimal_ring_prints_the_int_rings_value(a, b, u0, u1, n):
    try:
        spec = RecurrenceSpec(a, b, u0, u1)
    except DegenerateSpecError:
        assume(False)
    assert seq.term_text(spec, n) == _text(seq.term_fast(spec, n))


@pytest.mark.parametrize("spec, n, text", (
    # a = 0, u0 = 0: every even term is 0, printed without a sign
    (RecurrenceSpec(0, 1, 0, 1), 0, "0"),
    (RecurrenceSpec(0, 1, 0, 1), 10, "0"),
    (RecurrenceSpec(0, -3, 0, Fraction(-1, 3)), 8, "0"),
    (RecurrenceSpec(0, -3, 0, Fraction(-1, 3)), 5, "-3"),
    (RecurrenceSpec(1, 1, 0, -1), 10, "-55"),
    (RecurrenceSpec(1, 1, 0, Fraction(-1, 3)), 10, "-55/3"),
    (RecurrenceSpec(1, 1, 0, Fraction(-1, 5)), 10, "-11"),   # 5 | F_10
    (RecurrenceSpec(2, -3, Fraction(1, 3), Fraction(-5, 2)), 7, "-45/2"),
    # period 6, U_n = 0 at n = 1 mod 3: the Hankel step's last division is
    # 0 by a negative pivot, a Decimal -0 unless normalised
    (RecurrenceSpec(1, -1, 1, 0), 4, "0"),
    (RecurrenceSpec(1, -1, 1, 0), 100_000, "0"),
))
def test_the_decimal_ring_at_zero_and_negative_values(spec, n, text):
    assert _text(seq.term_fast(spec, n)) == text
    assert seq.term_text(spec, n) == text


def test_the_decimal_ring_refuses_a_negative_index():
    with pytest.raises(ValueError, match="index must be >= 0"):
        seq.term_text(seq.fibonacci(), -1)


# sha256 of the CLI's output before the Decimal ring printed it: n = 43,689
# is below the cut (the int ring), 43,691 and 10^6 above it
FIB_SEQ_OUTPUT = {
    (43_689, "text"): "ca75851145275bc9d3501edc37a17729be3a5ba5c5df1c0f77deb9fc26784eb9",
    (43_689, "structured"): "256491d41edd6c01fa9f0291de535a2a817bb1ba5a6e6eeb329a1277dc213a94",
    (43_691, "text"): "2ac2a809cfeb1abcd5c37b750fcfee84b427832d0e8d36ee78c9a7dc93b42163",
    (43_691, "structured"): "435fc8f36e0b92ea072efd6918668ae39c3040cbfc7119eae07583bd19dfc464",
    (10**6, "text"): "4910cacc5301426acb02007430c3fc38d210674f0bea972e8d354a831a4af73d",
    (10**6, "structured"): "5124073b61f275ef15e16620d1f1b1b0c45072e1262cddddea3553cf9b05fd14",
}


@pytest.mark.parametrize("n, fmt", FIB_SEQ_OUTPUT)
def test_seq_prints_the_same_bytes_on_both_sides_of_the_cut(monkeypatch, n, fmt):
    rings = []
    for name in ("term_fast", "term_text"):
        real = getattr(seq, name)
        monkeypatch.setattr(seq, name, lambda *args, real=real, name=name:
                            rings.append(name) or real(*args))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["seq", "--preset", "fibonacci", "--n", str(n),
                         "--format", fmt]) == 0
    assert rings == ["term_fast" if n < 43_691 else "term_text"]
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == FIB_SEQ_OUTPUT[n, fmt]


def test_the_cut_is_where_text_leaves_str():
    def bits(n):
        args = cli.build_parser().parse_args(["seq", "--preset", "fibonacci",
                                              "--n", str(n)])
        return cli._predict(args, seq.fibonacci())[0]

    assert bits(43_690) == polyrat._STR_BITS < bits(43_691)


def _context():
    ctx = decimal.getcontext()
    return ctx.prec, ctx.Emax, ctx.Emin, dict(ctx.traps)


def test_exact_decimal_work_leaves_the_callers_context_alone():
    with decimal.localcontext() as ctx:   # a caller's own, unusual context
        ctx.prec, ctx.Emax, ctx.Emin = 17, 999, -999
        ctx.traps[decimal.Inexact] = False
        ctx.traps[decimal.Overflow] = False
        before = _context()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["seq", "--preset", "fibonacci", "--n", "200000"]) == 0
        assert _context() == before
        value = 3**63_000                 # 99,853 bits: past `_text`'s cut
        assert value.bit_length() > 3 * polyrat._STR_BITS
        _text(value)
        assert _context() == before


# --- the last step: the Hankel form of the first 2d terms --------------------

# zeros often, so pivots (h_o = 0, a Schur entry 0) and rows (r_i = 0) drop
# out; the fractions make s > 1 and e > 1
COEFF = [Fraction(v) for v in ("0", "0", "1", "-1", "2", "-3", "1/2", "-5/3", "3/4")]
START = [Fraction(v) for v in ("0", "0", "1", "-1", "2", "1/3", "-1/2")]


@st.composite
def _kernel_inputs(draw):
    d = draw(st.integers(1, 4))
    coeffs = draw(st.lists(st.sampled_from(COEFF), min_size=d, max_size=d))
    initial = draw(st.lists(st.sampled_from(START), min_size=d, max_size=d))
    n = draw(st.integers(0, 2 * d + 1) | st.integers(0, 3000))
    return coeffs, initial, n


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(_kernel_inputs())
@example(([Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)], 10))    # h_0 = 0
@example(([Fraction(3), Fraction(0)], [Fraction(0), Fraction(1)], 2001))  # a = 0: r_i = 0
@example(([Fraction(0), Fraction(2)], [Fraction(1), Fraction(2)], 100))   # Schur entry 0
@example(([Fraction(0), Fraction(5)], [Fraction(3), Fraction(-1)], 37))   # a root 0
@example(([Fraction(0), Fraction(0)], [Fraction(3), Fraction(-1)], 9))    # z^m = 0
@example(([Fraction(-2, 9), Fraction(4, 3)], [Fraction(1), Fraction(1, 3)], 999))
@example(([Fraction(-1)], [Fraction(1, 2)], 2))
@example(([Fraction(0)] * 3 + [Fraction(1)], [Fraction(0)] * 4, 3000))
def test_the_hankel_step_gives_the_last_doublings_value(inputs):
    coeffs, initial, n = inputs
    assert seq._doubling(coeffs, initial, n) == doubling_loop(coeffs, initial, n)
    if all(c.denominator == 1 for c in coeffs):
        with polyrat._exact_decimal():
            v, e = seq._doubling(coeffs, initial, n, polyrat._decimal)
            ref, e_ref = doubling_loop(coeffs, initial, n, polyrat._decimal)
        assert (str(v), e) == (str(ref), e_ref)


# --- the scale s: every a_i = c_i s^{d-i} an integer -------------------------


def test_a_binet_pair_at_x_p_over_q_scales_by_q():
    # the two pairs' kernel coefficients of binet_pairs(fibonacci, 3, 1/2):
    # Q = (-b)^3 x^2 carries q^2 = 4, but q = 2 clears it at d - i = 2
    (w0, w1, p, q), _ = seq.binet_pairs(seq.fibonacci(), 3, Fraction(1, 2))
    binom = (-1 - p - q, 2 + p)
    partial = (q, -p - q, 1 + p)
    assert binom == (Fraction(-11, 4), 4)
    assert partial == (Fraction(-1, 4), Fraction(-7, 4), 3)
    assert seq._scale(binom) == seq._scale(partial) == 2


RATIONAL = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 60))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(RATIONAL, min_size=1, max_size=5))
def test_every_scaled_coefficient_is_an_integer(coeffs):
    s, d = seq._scale(coeffs), len(coeffs)
    assert s >= 1
    assert all((c * s ** (d - i)).denominator == 1 for i, c in enumerate(coeffs))
