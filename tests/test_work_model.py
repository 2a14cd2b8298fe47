"""The CLI's work prediction bounds the values it prints.

``cli._predict`` prices a command from its input alone, and its first result
is the bit length of the command's largest operand.  Every number a served
command prints, numerators, denominators and coefficients alike, must then
have at most twice that many bits; a prediction that forgets a size, such as
the initial values' bits H, breaks this on the inputs where that size
dominates.
"""

import contextlib
import io
import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from recsums import cli  # noqa: E402

RATIONALS = st.builds(lambda p, q: f"{p}/{q}",
                      st.integers(-(2**40), 2**40), st.integers(1, 40))
SPECS = st.tuples(st.integers(-5, 5), st.integers(-5, 5).filter(bool),
                  RATIONALS, RATIONALS)


def _flags(spec):
    a, b, u0, u1 = spec
    return [f"--a={a}", f"--b={b}", f"--u0={u0}", f"--u1={u1}"]


def _within_model(argv) -> bool:
    """Run argv; True when it is not served or every number it prints has at
    most twice the predicted bits of its largest operand."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        if cli.main(argv) != 0:
            return True
    args = cli.build_parser().parse_args(argv)
    bits, _ = cli._predict(args, cli._spec_from_args(args))
    return max(int(d).bit_length() for d in re.findall(r"\d+", out.getvalue())) <= 2 * bits


COMMANDS = st.one_of(
    st.builds(lambda s, n: ["seq", *_flags(s), f"--n={n}"],
              SPECS, st.integers(-60, 60)),
    st.builds(lambda s, r, t: ["gf", *_flags(s), f"--power={r}", f"--check-terms={t}"],
              SPECS, st.integers(1, 5), st.integers(0, 12)),
    st.builds(lambda c, s, n, r, x, m: [c, *_flags(s), f"--n={n}", f"--power={r}",
                                        f"--x={x}", m],
              st.sampled_from(["sum", "binom-sum"]), SPECS, st.integers(0, 12),
              st.integers(1, 4), RATIONALS,
              st.sampled_from(["--direct", "--closed", "--both"])),
)
# the initial values' bits dominate each of these
BIG_INITIAL_VALUES = (
    ["seq", "--a=1", "--b=1", "--u0=0", f"--u1={2**40}", "--n=2"],
    ["seq", "--a=2", "--b=-3", "--u0=1/3", f"--u1={2**40}", "--n=-3"],
    ["gf", "--a=1", "--b=1", "--u0=0", f"--u1={2**40}", "--power=3"],
    ["sum", "--a=1", "--b=1", "--u0=0", f"--u1={2**40}", "--n=2", "--power=3",
     "--x=1", "--both"],
    ["binom-sum", "--a=1", "--b=1", "--u0=1", f"--u1={2**40}", "--n=2",
     "--power=3", "--x=1/2", "--both"],
    ["sum", "--a=1", "--b=1", f"--u0={2**40}", "--u1=1", "--n=2", "--power=3",
     "--x=1", "--closed"],
)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(COMMANDS)
@example(BIG_INITIAL_VALUES[0])
@example(BIG_INITIAL_VALUES[1])
@example(BIG_INITIAL_VALUES[2])
@example(BIG_INITIAL_VALUES[3])
@example(BIG_INITIAL_VALUES[4])
@example(BIG_INITIAL_VALUES[5])
def test_every_printed_number_fits_the_predicted_operand(argv):
    assert _within_model(argv), argv


def test_a_prediction_without_the_initial_values_breaks_the_bound(monkeypatch):
    monkeypatch.setattr(cli, "_init_bits", lambda spec: 0)
    assert not any(_within_model(argv) for argv in BIG_INITIAL_VALUES)
