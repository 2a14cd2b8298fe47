"""Tests for the command-line interface: outputs, exit codes, round-trips."""

import json
import sys
from fractions import Fraction

import pytest

from recsums import audit, binsum, cli, gfpow, partsum, polyrat, seq
from recsums.cli import (AUDIT_MAX_N_LIMIT, WORK_LIMIT, _growth, _init_bits,
                         main)
from recsums.gfpow import gf_power
from recsums.polyrat import (Polynomial, RationalFunction, poly_to_text,
                             rf_to_latex, rf_to_text)
from recsums.qfield import RecurrenceSpec
from references import parse_polynomial, parse_rational_function, poly_add


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seq_fibonacci(capsys):
    code, out, _ = run_cli(capsys, "seq", "--preset", "fibonacci", "--n", "10")
    assert (code, out.strip()) == (0, "55")


def test_seq_lucas_initial_term(capsys):
    code, out, _ = run_cli(capsys, "seq", "--preset", "lucas", "--n", "0")
    assert (code, out.strip()) == (0, "2")


def test_seq_walk_fills_no_store(capsys):
    before = seq.store.cache_info()
    code, out, _ = run_cli(capsys, "seq", "--a", "1", "--b", "1", "--u0", "0",
                           "--u1", "7", "--n", "300")
    assert code == 0 and out.strip() == str(7 * seq.term_fast(seq.fibonacci(), 300))
    assert seq.store.cache_info() == before


def _refuse(*args):
    raise AssertionError("a refused input reached the computation")


def _args(argv):
    args = cli.build_parser().parse_args(cli._join_signed_rationals(list(argv)))
    return args, cli._spec_from_args(args)


def _served(argv) -> bool:
    """Whether the work prediction serves the CLI arguments argv."""
    _, terms = cli._predict(*_args(argv))
    return sum(w for w, _, _ in terms) <= WORK_LIMIT


def _boundary(argv, start: int) -> int:
    """The largest v >= start whose argv(v) the prediction serves; it must
    serve argv(start), and its work grows with v."""
    assert _served(argv(start)), argv(start)
    lo, hi = start, 2 * start + 1
    while _served(argv(hi)):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _served(argv(mid)) else (lo, mid)
    return lo


def _served_then_refused(capsys, argv, last, flag, patch):
    """argv(last) is served with the computation stubbed by patch(fn), fn
    returning 7, and argv(last + 1) is refused before it, naming flag and the
    limit."""
    patch(lambda *args: 7)
    code, out, _ = run_cli(capsys, *argv(last))
    assert code == 0 and out.strip()
    patch(_refuse)
    code, out, err = run_cli(capsys, *argv(last + 1))
    assert (code, out) == (2, "")
    assert f"set by {flag}" in err and f"work limit of {WORK_LIMIT}" in err
    return err


# each row starts at the first n an earlier size limit refused, n * power =
# 20,001 terms at x = 1: the prediction serves it, and refuses one step past
# its own boundary
@pytest.mark.parametrize("command", ("sum", "binom-sum"))
@pytest.mark.parametrize("mode", ((), ("--both",), ("--direct",)))
@pytest.mark.parametrize("n, power", ((20001, 1), (6667, 3)))
def test_direct_sum_beyond_the_limit_exits_two(capsys, monkeypatch, command,
                                               mode, n, power):
    def argv(m):
        return (command, "--preset", "fibonacci", "--n", str(m), "--power",
                str(power), "--x", "1", *mode)

    _served_then_refused(capsys, argv, _boundary(argv, n), "--n",
                         lambda fn: _patch_every_sum(monkeypatch, fn))


def test_direct_sum_at_the_limit_and_closed_beyond_it_are_served(
        capsys, monkeypatch, unlimited_str):
    def argv(m, mode="--direct"):
        return ("binom-sum", "--preset", "fibonacci", "--n", str(m), "--power",
                "1", "--x", "1", mode)

    n = _boundary(argv, 20000)
    monkeypatch.setattr(binsum, "binom_sum_direct", lambda *args: 7)
    code, out, _ = run_cli(capsys, *argv(n))
    assert (code, out.strip()) == (0, "7")
    monkeypatch.setattr(binsum, "binom_sum_direct", _refuse)
    code, out, _ = run_cli(capsys, *argv(n + 1, "--closed"))
    # sum_i C(n,i) F_i = F_{2n}
    assert (code, out.strip()) == (0, str(seq.term_fast(seq.fibonacci(), 2 * n + 2)))


# x = 123456789/987654323: bit_length(|p| q) = 57, so each term counts 1 + 56
BIG_X = "123456789/987654323"


def _patch_every_sum(monkeypatch, fn):
    for module, name in (
            (partsum, "partial_sum_direct"), (partsum, "partial_sum_closed"),
            (binsum, "binom_sum_direct"), (binsum, "binom_sum_closed")):
        monkeypatch.setattr(module, name, fn)


def _patch_every_term(monkeypatch, fn):
    """Stub both ways `seq` computes U_n: in ints, and in Decimal as text."""
    monkeypatch.setattr(seq, "term_fast", fn)
    monkeypatch.setattr(seq, "term_text", lambda *args: str(fn(*args)))


def _bits(*argv) -> int:
    """The prediction's bits for the largest operand of argv."""
    return cli._predict(*_args(argv))[0]


def _direct_sum_bits(x="1/2", flags=("--preset", "fibonacci")) -> int:
    return _bits("sum", *flags, "--n", "10", "--power", "3", f"--x={x}",
                 "--direct")


def test_sum_size_counts_the_bits_of_x():
    # each index adds bit_length(|p| q) - 1 bits of x = p/q to the total
    assert _direct_sum_bits(0) == _direct_sum_bits(1) == _direct_sum_bits(-1)
    assert _direct_sum_bits("1/2") == _direct_sum_bits(1) + 10
    assert _direct_sum_bits("-2/3") == _direct_sum_bits(1) + 20
    assert _direct_sum_bits(BIG_X) == _direct_sum_bits(1) + 56 * 10
    # the spec's growth weighs the power, not the bits of x
    fast = ("--a", "1000", "--b", "1", "--u0", "0", "--u1", "1")
    assert (_direct_sum_bits("1/2", fast) - _direct_sum_bits(1, fast)
            == _direct_sum_bits("1/2") - _direct_sum_bits(1))


def test_sum_size_counts_the_bits_of_the_initial_values():
    # every term carries the H bits of the initial values once per power
    big = ("--a", "1", "--b", "1", "--u0", "0", "--u1", "255")
    assert _direct_sum_bits("1/2", big) == _direct_sum_bits("1/2") + 3 * 7
    assert _init_bits(RecurrenceSpec(1, 1, 0, 1)) == 1
    assert _init_bits(RecurrenceSpec(1, 1, Fraction(1, 2), 255)) == 9   # 1, 510 over 2
    # the common denominator counts too: U_0 = 1/255 has 8 bits
    assert _init_bits(RecurrenceSpec(1, 1, Fraction(1, 255), Fraction(1, 255))) == 8


def test_huge_initial_values_are_refused_naming_their_bits(capsys, monkeypatch,
                                                            unlimited_str):
    _patch_every_sum(monkeypatch, _refuse)
    u1 = "1" + "0" * 30_000
    for mode in ("--direct", "--both"):
        code, out, err = run_cli(capsys, "binom-sum", "--a", "1", "--b", "1",
                                 "--u0", "0", "--u1", u1, "--n", "20000",
                                 "--power", "1", "--x", "1", mode)
        assert (code, out) == (2, "")
        assert "initial values of 99658 bits" in err and "set by --n" in err


@pytest.mark.parametrize("a, b, g", (
    (1, 1, 1), (-1, 1, 1), (2, 1, 2), (3, 3, 3), (1000, 1, 19),
    # complex roots: rho^2 = |b|, so (3, -3) is not weighed like (3, 3)
    (3, -3, 1), (-3, -3, 1), (1, -3, 1), (-1, -3, 1), (2, -3, 1), (-2, -3, 1),
    (0, 3, 1), (0, -3, 1),
))
def test_growth_weighs_the_largest_root(a, b, g):
    assert _growth(RecurrenceSpec(a, b, 0, 1)) == g


# for n < 0 the growth is that of rho^2 b^2: U_n is a numerator over b^|n|
@pytest.mark.parametrize("a, b, g", (
    (1, 1, 1), (1, -1, 1), (1000, 1, 19), (1, 2, 4), (0, -2, 3),
    (0, -3, 4), (2, -3, 4), (-3, -3, 4), (3, 3, 7), (1, -7, 8),
))
def test_growth_at_negative_n_counts_the_denominator(a, b, g):
    spec = RecurrenceSpec(a, b, 0, 1)
    assert _growth(spec, -1) == _growth(spec, -10**6) == g
    assert _growth(spec, 0) == _growth(spec)


def _spec_flags(a, b):
    return ["--a", str(a), "--b", str(b), "--u0", "0", "--u1", "1"]


# n is the last index an earlier bound, |n| g <= limit with g the growth at
# n's sign, served; the prediction still serves it, with or without the no-op
# --fast, and refuses one step past its own boundary, naming the growth
@pytest.mark.parametrize("flags, n, fast, limit", (
    (["--preset", "fibonacci"], 4_000_000, True, 4_000_000),
    (_spec_flags(3, 3), 4_000_000 // 3, True, 4_000_000),
    (_spec_flags(1000, 1), 4_000_000 // 19, False, 4_000_000),
    (_spec_flags(1000, 1), -(4_000_000 // 19), False, 4_000_000),
    (["--preset", "fibonacci"], -4_000_000, False, 4_000_000),
    (_spec_flags(2, -3), 4_000_000, False, 4_000_000),
    (_spec_flags(2, -3), -(4_000_000 // 4), True, 4_000_000),
    (_spec_flags(3, 3), -(4_000_000 // 7), False, 4_000_000),
))
def test_seq_budget_counts_the_spec_growth(capsys, monkeypatch, flags, n, fast,
                                           limit):
    def argv(m):
        return ("seq", *flags, "--n", str(m if n > 0 else -m),
                *(["--fast"] if fast else []))

    g = _growth(_args(argv(1))[1], n)
    assert abs(n) == limit // g
    monkeypatch.setattr(seq, "term", _refuse)
    err = _served_then_refused(
        capsys, argv, _boundary(argv, abs(n)), "--n",
        lambda fn: _patch_every_term(monkeypatch, fn))
    assert f"spec growth {g}," in err


def test_seq_prices_the_reduction_over_a_huge_initial_denominator(capsys,
                                                                 monkeypatch):
    # U_n = 7 F_n / 10^286000, over a 950,072-bit denominator: either ring's
    # reduction by it (a gcd in ints, int(v mod e) in Decimal) was unpriced,
    # and such an input at n = 3,000,000 ran for 5.7 to 6.8 s.  The argument
    # is too long for one shell argument, so the argv goes to main directly.
    _patch_every_term(monkeypatch, _refuse)
    big = ["--a", "1", "--b", "1", "--u0", "0", "--u1", "7/1" + "0" * 286000]
    code, out, err = run_cli(capsys, "seq", *big, "--n", "3000000")
    assert (code, out) == (2, "")
    assert ("is the reduction over the initial denominator of 950072 bits, set "
            "by --u0/--u1" in err)
    # integer initial values have no such phase
    for flags in (big[:-2] + ["--u1", "7"], ["--preset", "fibonacci"]):
        for n in ("3000000", "-3000000"):
            _, terms = cli._predict(*_args(("seq", *flags, "--n", n)))
            assert not [phase for _, _, phase in terms if "initial" in phase]


@pytest.mark.parametrize("command", ("sum", "binom-sum"))
def test_sum_budget_counts_the_spec_growth(capsys, monkeypatch, command):
    # (1000, 1) has g = 19; n = 1,052 was the last index an earlier size
    # limit, n * 19 <= 20,000, served
    def argv(m):
        return (command, *_spec_flags(1000, 1), "--n", str(m), "--power", "1",
                "--x", "1", "--direct")

    err = _served_then_refused(capsys, argv, _boundary(argv, 1052),
                               "--n", lambda fn: _patch_every_sum(monkeypatch, fn))
    assert "spec growth 19," in err


@pytest.mark.parametrize("command, module, names", (
    ("sum", partsum, ("partial_sum_direct", "partial_sum_closed")),
    ("binom-sum", binsum, ("binom_sum_direct", "binom_sum_closed")),
))
def test_cli_passes_spec_power_n_x_to_every_sum(capsys, monkeypatch, command,
                                                module, names):
    calls = []
    for name in names:
        monkeypatch.setattr(module, name,
                            lambda *args, name=name: calls.append((name, args)) or 7)
    code, out, _ = run_cli(capsys, command, "--preset", "fibonacci", "--n", "5",
                           "--power", "2", "--x", "1/2", "--format", "structured")
    assert code == 0
    cell = json.loads(out)["claims"][0]
    assert cell["id"] == command
    assert cell["cells"][0]["params"] == {
        "spec": "a=1,b=1,u0=0,u1=1", "n": 5, "r": 2, "x": "1/2"}
    args = (seq.fibonacci(), 2, 5, Fraction(1, 2))
    assert calls == [(names[0], args), (names[1], args)]


# n is the first index an earlier size limit, n (1 + h) <= limit with h the
# bits of x, refused: the prediction serves it, and refuses one step past its
# own boundary
@pytest.mark.parametrize("command", ("sum", "binom-sum"))
@pytest.mark.parametrize("mode, n, x, limit", (
    ((), 351, BIG_X, 20_000),
    (("--both",), 351, BIG_X, 20_000),
    (("--direct",), 351, BIG_X, 20_000),
    (("--direct",), 20_000 // 2 + 1, "1/2", 20_000),
    (("--closed",), 300_000 // 2 + 1, "1/2", 300_000),
    (("--closed",), 300_000 // 3 + 1, "-2/3", 300_000),
))
def test_sum_beyond_its_size_limit_exits_two(capsys, monkeypatch, command,
                                             mode, n, x, limit):
    def argv(m):
        return (command, "--preset", "fibonacci", "--n", str(m), "--power", "1",
                f"--x={x}", *mode)

    h = (abs(Fraction(x).numerator) * Fraction(x).denominator).bit_length() - 1
    assert (n - 1) * (1 + h) <= limit < n * (1 + h)
    _served_then_refused(capsys, argv, _boundary(argv, n), "--n",
                         lambda fn: _patch_every_sum(monkeypatch, fn))


@pytest.mark.parametrize("command", ("sum", "binom-sum"))
@pytest.mark.parametrize("mode", ((), ("--direct",), ("--closed",)))
@pytest.mark.parametrize("flags, named", (
    (("--n", "-5", "--power", "1"), "--n -5"),
    (("--n", "5", "--power", "0"), "--power 0"),
    (("--n", "5", "--power", "-2"), "--power -2"),
), ids=("negative-n", "zero-power", "negative-power"))
def test_sum_below_its_range_exits_two_naming_the_flag(capsys, monkeypatch,
                                                       command, mode, flags,
                                                       named):
    _patch_every_sum(monkeypatch, _refuse)
    code, out, err = run_cli(capsys, command, "--preset", "fibonacci", *flags,
                             "--x", "1", *mode)
    assert (code, out) == (2, "")
    assert named in err


@pytest.mark.parametrize("command", ("sum", "binom-sum"))
def test_sums_exactly_at_each_size_limit_are_served(capsys, monkeypatch,
                                                    command):
    _patch_every_sum(monkeypatch, lambda *args: 7)
    for mode, start in (("--direct", 20_000 // 2), ("--closed", 300_000 // 2)):
        def argv(m):
            return (command, "--preset", "fibonacci", "--n", str(m), "--power",
                    "1", "--x", "1/2", mode)

        code, out, _ = run_cli(capsys, *argv(_boundary(argv, start)))
        assert (code, out.strip()) == (0, "7")


# n = 0 and 1 are cheap, but the Binet-pair table grows with the power
@pytest.mark.parametrize("command", ("sum", "binom-sum"))
@pytest.mark.parametrize("mode", ((), ("--closed",)))
@pytest.mark.parametrize("n", (0, 1))
def test_the_binet_pair_table_counts_against_the_budget(capsys, monkeypatch,
                                                        command, mode, n):
    _patch_every_sum(monkeypatch, _refuse)
    code, out, err = run_cli(capsys, command, "--preset", "fibonacci", "--n",
                             str(n), "--power", "8000", "--x", "1", *mode)
    assert (code, out) == (2, "")
    assert "Binet-pair table" in err and "set by --power" in err


@pytest.mark.parametrize("mode", ((), ("--both",), ("--closed",)))
def test_closed_partial_sum_serves_a_nonzero_u0(capsys, mode):
    # Lucas, u0 = 2: 2^3 - 1/2 + 3^3 / 4 - 4^3 / 8 = 25/4
    code, out, err = run_cli(capsys, "sum", "--preset", "lucas", "--n", "3",
                             "--power", "3", "--x=-1/2", *mode)
    assert (code, err) == (0, "")
    assert out == ("25/4\n" if mode == ("--closed",)
                   else "direct=25/4 closed=25/4 match\n")
    if mode != ("--closed",):
        code, out, _ = run_cli(capsys, "sum", "--preset", "lucas", "--n", "300",
                               "--power", "3", "--x=-1/2", *mode)
        assert code == 0 and out.endswith(" match\n")


def test_seq_negative_index_and_fast(capsys):
    code, out, _ = run_cli(capsys, "seq", "--preset", "fibonacci", "--n", "-3")
    assert (code, out.strip()) == (0, "2")
    code, out, _ = run_cli(capsys, "seq", "--preset", "fibonacci", "--n", "30",
                           "--fast")
    assert (code, out.strip()) == (0, "832040")
    code, out, _ = run_cli(capsys, "seq", "--preset", "fibonacci", "--n", "-3",
                           "--fast")
    assert (code, out.strip()) == (0, "2")


# |b| > 1 and rational initial values; the last two rows, one step past an
# earlier limit, are served or refused as the prediction says, so their term
# is stubbed
@pytest.mark.parametrize("n", (0, 1, 37, -1, -37, 2000, -2000,
                               4_000_001, -1_000_001))
def test_seq_prints_the_same_bytes_with_and_without_fast(capsys, monkeypatch, n):
    flags = ["--a", "2", "--b", "-3", "--u0", "1/3", "--u1", "-5/2", "--n", str(n)]
    if abs(n) > 2000:
        _patch_every_term(monkeypatch, lambda *args: 7)
    plain = run_cli(capsys, "seq", *flags)
    assert run_cli(capsys, "seq", *flags, "--fast") == plain
    spec = RecurrenceSpec(2, -3, Fraction(1, 3), Fraction(-5, 2))
    if abs(n) <= 2000:
        assert plain == (0, f"{seq.term(spec, n)}\n", "")
    else:
        assert plain[0] == (0 if _served(["seq", *flags]) else 2)


def test_seq_rejects_degenerate_spec(capsys):
    code, _, err = run_cli(capsys, "seq", "--a", "1", "--b", "0",
                           "--u0", "0", "--u1", "1", "--n", "3")
    assert code == 2
    assert "invalid spec" in err


def test_seq_rational_initial_values(capsys):
    code, out, _ = run_cli(capsys, "seq", "--a", "1", "--b", "1",
                           "--u0", "1/2", "--u1", "1/3", "--n", "2")
    assert (code, out.strip()) == (0, "5/6")


FIB_FLAGS = ["--preset", "fibonacci"]
# |b| > 1, rational initial values: U_n at n < 0 is a Fraction over 3^|n|
RATIONAL_FLAGS = ["--a", "2", "--b", "-3", "--u0", "1/3", "--u1", "-5/2"]
RATIONAL_SPEC = RecurrenceSpec(2, -3, Fraction(1, 3), Fraction(-5, 2))


@pytest.mark.parametrize("flags, spec, n", (
    (FIB_FLAGS, seq.fibonacci(), 10),
    (RATIONAL_FLAGS, RATIONAL_SPEC, -37),
))
def test_seq_structured_output_is_a_single_cell_report(capsys, flags, spec, n):
    term = str(seq.term_fast(spec, n))
    code, out, _ = run_cli(capsys, "seq", *flags, "--n", str(n),
                           "--format", "structured")
    assert code == 0
    claim = json.loads(out)["claims"][0]
    assert claim["id"] == "seq"
    assert claim["cells"] == [{"params": {"spec": str(spec), "n": n},
                               "verdict": "pass", "witness": {"value": term}}]
    for fmt in ((), ("--format", "text"), ("--format", "latex")):
        assert run_cli(capsys, "seq", *flags, "--n", str(n), *fmt) == \
            (0, term + "\n", "")


# Each value is above the 2^15-bit crossover of `cli._text`, where it stops
# calling str(): F(200000) has 138,852 bits, and U_{-25000} of RATIONAL_SPEC
# is a Fraction over 2 * 3^25001, 39,626 bits (its numerator, 19,814 bits, is
# below it; at -20000 both are).  u1 = 3^30000 scales every term of a sum
# past the crossover while the direct side stays small.
BIG_U1 = 3**30000


@pytest.mark.parametrize("flags, spec, n", (
    (FIB_FLAGS, seq.fibonacci(), 200_000),
    (RATIONAL_FLAGS, RATIONAL_SPEC, -20_000),
    (RATIONAL_FLAGS, RATIONAL_SPEC, -25_000),
))
def test_seq_above_the_crossover_prints_the_bytes_of_str(capsys, unlimited_str,
                                                        flags, spec, n):
    assert run_cli(capsys, "seq", *flags, "--n", str(n)) == \
        (0, f"{seq.term_fast(spec, n)}\n", "")


@pytest.mark.parametrize("command, module, name, power", (
    ("sum", partsum, "partial_sum_direct", 2),
    ("binom-sum", binsum, "binom_sum_direct", 1),
))
def test_sums_above_the_crossover_print_the_bytes_of_str(capsys, unlimited_str,
                                                         command, module, name,
                                                         power):
    spec = RecurrenceSpec(1, 1, 0, BIG_U1)
    value = getattr(module, name)(spec, power, 20, Fraction(-1, 2))
    assert abs(value.numerator).bit_length() > 2**15
    flags = ["--a", "1", "--b", "1", "--u0", "0", "--u1", str(BIG_U1),
             "--n", "20", "--power", str(power), "--x", "-1/2", "--both"]
    assert run_cli(capsys, command, *flags) == \
        (0, f"direct={value} closed={value} match\n", "")
    code, out, _ = run_cli(capsys, command, *flags, "--format", "structured")
    assert code == 0
    cell = json.loads(out)["claims"][0]["cells"][0]
    assert cell["witness"] == {"direct": str(value), "closed": str(value)}
    for mode in ("--direct", "--closed"):
        assert run_cli(capsys, command, *flags[:-1], mode) == \
            (0, f"{value}\n", "")


def test_gf_text_output(capsys):
    code, out, _ = run_cli(capsys, "gf", "--preset", "fibonacci", "--power", "1")
    assert (code, out.strip()) == (0, "x/(1 - x - x^2)")
    code, out, _ = run_cli(capsys, "gf", "--a", "1", "--b", "2",
                           "--u0", "0", "--u1", "1", "--power", "1")
    assert (code, out.strip()) == (0, "x/(1 - x - 2x^2)")


def test_gf_oracle_check_passes(capsys):
    code, out, _ = run_cli(capsys, "gf", "--preset", "fibonacci", "--power", "2",
                           "--check-terms", "32")
    assert code == 0
    assert out.strip() == "(x - x^2)/(1 - 2x - 2x^2 + x^3)"


def test_gf_structured_output(capsys):
    code, out, _ = run_cli(capsys, "gf", "--preset", "fibonacci", "--power", "1",
                           "--format", "structured", "--check-terms", "8")
    assert code == 0
    doc = json.loads(out)
    cell = doc["claims"][0]["cells"][0]
    assert cell["witness"]["text"] == "x/(1 - x - x^2)"
    assert cell["witness"]["oracle_terms"] == "8"


def test_gf_structured_renders_each_coefficient_once(capsys, monkeypatch):
    spec = RecurrenceSpec(1, -3, 2, 1)
    f = gf_power(spec, 6)
    expected = {"text": rf_to_text(f), "latex": rf_to_latex(f),
                "num": poly_to_text(f.num), "den": poly_to_text(f.den)}
    rendered = []
    real = polyrat._text
    monkeypatch.setattr(polyrat, "_text", lambda v: rendered.append(v) or real(v))
    code, out, _ = run_cli(capsys, "gf", "--a", "1", "--b", "-3", "--u0", "2",
                           "--u1", "1", "--power", "6", "--format", "structured")
    assert code == 0
    assert json.loads(out)["claims"][0]["cells"][0]["witness"] == expected
    nonzero = [c for c in f.num.coeffs + f.den.coeffs if c]
    assert sorted(rendered) == sorted(abs(c) for c in nonzero)


def _patch_gf(monkeypatch, fn):
    """gf_power calls fn, which may raise, and returns x/(1 - x - x^2)
    without building or checking anything."""
    f = gf_power(seq.fibonacci(), 1)
    monkeypatch.setattr(gfpow, "gf_power",
                        lambda spec, r, check_terms: fn(spec, r) and f)


def _gf_served_then_refused(capsys, monkeypatch, argv, last, flag):
    return _served_then_refused(capsys, argv, last, flag,
                                lambda fn: _patch_gf(monkeypatch, fn))


def test_gf_power_beyond_the_limit_exits_two(capsys, monkeypatch):
    def argv(r):
        return ("gf", "--preset", "fibonacci", "--power", str(r))

    _gf_served_then_refused(capsys, monkeypatch, argv, _boundary(argv, 192),
                            "--power")


def test_gf_negative_check_terms_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(gfpow, "gf_power", _refuse)
    code, out, err = run_cli(capsys, "gf", "--preset", "fibonacci", "--power", "2",
                             "--check-terms", "-3")
    assert (code, out) == (2, "")
    assert "--check-terms -3" in err


@pytest.mark.parametrize("power", ("0", "-3"))
def test_gf_power_below_one_exits_two_naming_the_flag(capsys, monkeypatch, power):
    monkeypatch.setattr(gfpow, "gf_power", _refuse)
    code, out, err = run_cli(capsys, "gf", "--preset", "fibonacci",
                             "--power", power)
    assert (code, out) == (2, "")
    assert f"--power {power}" in err


def test_gf_check_terms_beyond_the_limit_exits_two(capsys, monkeypatch):
    def argv(t):
        return ("gf", "--preset", "fibonacci", "--power", "2",
                "--check-terms", str(t))

    _gf_served_then_refused(capsys, monkeypatch, argv, _boundary(argv, 384),
                            "--check-terms")


# each row was served at (192 // g, 384 // g) by earlier limits on power * g
# and check-terms * g, and still is; from there the prediction serves each
# flag to its own boundary and refuses one step past it.  (1000, 1) has
# g = 19; initial numerators of 8 bits over their common denominator (255
# and -3 over 7; 255 and -255) stay served.
@pytest.mark.parametrize("flags, g", (
    (["--preset", "fibonacci"], 1),
    (_spec_flags(1000, 1), 19),
    (["--a", "1", "--b", "-3", "--u0", "255/7", "--u1", "-3/7"], 1),
    (["--a", "2", "--b", "1", "--u0", "255", "--u1", "-255"], 2),
), ids=("fibonacci", "1000-1", "1-minus3-8bit", "2-1-8bit"))
def test_gf_budget_counts_the_spec_growth(capsys, monkeypatch, flags, g):
    start = {"--power": 192 // g, "--check-terms": 384 // g}
    for flag in start:
        def argv(v, flag=flag):
            values = {**start, flag: v}
            return ("gf", *flags, *(str(x) for kv in values.items() for x in kv))

        err = _gf_served_then_refused(capsys, monkeypatch, argv,
                                      _boundary(argv, start[flag]), flag)
        assert f"spec growth {g}," in err


# u1 = 10^1000: initial numerators of 3,322 bits, carried r times by every term
BIG_INIT = ["--a", "1", "--b", "1", "--u0", "0", "--u1", str(10**1000)]


def test_gf_budget_counts_the_initial_values(capsys, monkeypatch):
    monkeypatch.setattr(gfpow, "gf_power", _refuse)
    code, out, err = run_cli(capsys, "gf", *BIG_INIT, "--power", "128")
    assert (code, out) == (2, "")
    assert "initial values of 3322 bits" in err and "set by --power" in err
    # earlier limits served --power 46 with a 92-term check and --power 20
    # with a 214-term check; the prediction serves each to its own boundary
    for power, check in ((46, 92), (20, 214)):
        def with_check(t, power=power):
            return ("gf", *BIG_INIT, "--power", str(power), "--check-terms", str(t))

        _gf_served_then_refused(capsys, monkeypatch, with_check,
                                _boundary(with_check, check), "--check-terms")

    def twice(r):
        return ("gf", *BIG_INIT, "--power", str(r), "--check-terms", str(2 * r))

    r = _boundary(twice, 46)
    _patch_gf(monkeypatch, _refuse)
    code, out, err = run_cli(capsys, "gf", *BIG_INIT, "--power", str(r + 1),
                             "--check-terms", str(2 * r + 2))
    assert (code, out) == (2, "") and "initial values of 3322 bits" in err


@pytest.mark.usefixtures("unlimited_str")
def test_gf_serves_big_initial_values_at_a_small_power(capsys):
    code, out, _ = run_cli(capsys, "gf", *BIG_INIT, "--power", "8",
                           "--check-terms", "16")
    f = parse_rational_function(out.strip())
    assert code == 0 and f == gf_power(RecurrenceSpec(1, 1, 0, 10**1000), 8)
    assert f.expand(16)[1] == 10**8000


def test_gf_check_never_expands_an_unreduced_denominator(capsys, monkeypatch):
    def no_expand(self, order):
        raise AssertionError("expand ran on a built generating function")

    # Fibonacci keeps Theorem 1's denominator; (1, -1) reduces it by a gcd
    flags = (["--preset", "fibonacci"], _spec_flags(1, -1))
    expected = [rf_to_text(gf_power(spec, 20))
                for spec in (seq.fibonacci(), RecurrenceSpec(1, -1, 0, 1))]
    monkeypatch.setattr(RationalFunction, "expand", no_expand)
    for spec_flags, text in zip(flags, expected):
        code, out, _ = run_cli(capsys, "gf", *spec_flags, "--power", "20",
                               "--check-terms", "60")
        assert (code, out.strip()) == (0, text)


def test_gf_check_mismatch_exits_three(capsys, monkeypatch):
    real = gfpow.RationalFunction

    def wrong(num, den):   # canonicalisation that moves a coefficient
        f = real(num, den)
        return real(poly_add(f.num, Polynomial([0, 0, 1])), f.den)

    monkeypatch.setattr(gfpow, "RationalFunction", wrong)
    code, out, err = run_cli(capsys, "gf", "--preset", "fibonacci", "--power", "3",
                             "--check-terms", "9")
    assert (code, out) == (3, "")
    assert "gf_power(" in err and "r=3), checked over 9 terms" in err
    assert "the reduced form changed the value" in err


def test_gf_check_terms_reach_past_the_built_series(capsys, monkeypatch,
                                                    corrupt_store):
    # r = 3 builds from 8 terms; a term moved at index 8 is read only by a
    # check of 9 or more
    corrupt_store(monkeypatch, seq.fibonacci(), 8)
    argv = ("gf", "--preset", "fibonacci", "--power", "3")
    assert run_cli(capsys, *argv, "--check-terms", "8")[0] == 0
    code, out, err = run_cli(capsys, *argv, "--check-terms", "9")
    assert (code, out) == (3, "")
    assert "checked over 9 terms" in err and "nonzero at index 8," in err


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("argv, code", (
    (["seq", "--preset", "fibonacci", "--n", "10"], 0),
    (["gf", "--preset", "fibonacci", "--power", "2"], 3),
    (["gf", "--preset", "fibonacci", "--power", "0"], 2),
    (["seq", "--preset", "fibonacci"], SystemExit),   # argparse: --n missing
), ids=("served", "failed", "refused", "usage"))
def test_main_restores_the_int_str_digit_limit(capsys, monkeypatch, argv, code):
    def fail(spec, r, check_terms):
        raise gfpow.SelfCheckError("series does not fit")

    monkeypatch.setattr(gfpow, "gf_power", fail)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        if code is SystemExit:
            with pytest.raises(SystemExit):
                main(argv)
        else:
            assert main(argv) == code
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("via_config", (False, True))
def test_audit_max_n_beyond_the_limit_exits_two(capsys, monkeypatch, tmp_path,
                                                via_config):
    def refuse(*args, **kwargs):
        raise AssertionError("the audit ran past the limit")

    monkeypatch.setattr(audit, "run_audit", refuse)
    over = str(AUDIT_MAX_N_LIMIT + 1)
    if via_config:
        cfg = tmp_path / "audit.cfg"
        cfg.write_text(f"max-n = {over}\n")
        argv = ("--config", str(cfg))
    else:
        argv = ("--max-n", over)
    code, out, err = run_cli(capsys, "audit", "--claims", "cor7-1", *argv)
    assert (code, out) == (2, "")
    assert str(AUDIT_MAX_N_LIMIT) in err


@pytest.mark.parametrize("via_config", (False, True))
def test_audit_negative_max_n_exits_two(capsys, monkeypatch, tmp_path, via_config):
    monkeypatch.setattr(audit, "run_audit", _refuse)
    if via_config:
        cfg = tmp_path / "audit.cfg"
        cfg.write_text("max-n = -3\n")
        argv = ("--config", str(cfg))
    else:
        argv = ("--max-n", "-3")
    code, out, err = run_cli(capsys, "audit", "--claims", "cor7-1", *argv)
    assert (code, out) == (2, "")
    assert "--max-n -3" in err


@pytest.mark.parametrize("claims", ("", ",", " , "))
def test_audit_claims_naming_no_id_exits_two(capsys, monkeypatch, claims):
    monkeypatch.setattr(audit, "run_audit", _refuse)
    code, out, err = run_cli(capsys, "audit", f"--claims={claims}")
    assert (code, out) == (2, "")
    assert "--claims" in err


def test_audit_timings_go_to_stderr_and_leave_stdout_alone(capsys):
    argv = ["audit", "--claims", "cor7-1,thm1-odd", "--max-n", "6",
            "--format", "structured"]
    code, plain, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    code, timed, err = run_cli(capsys, *argv, "--timings")
    assert code == 0 and timed == plain
    lines = err.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "timing cor7-1", "timing thm1-odd", "timing total"]
    assert ", 7 cells, " in lines[0] and ", 30 cells, " in lines[1]
    assert ", 37 cells, " in lines[2] and lines[2].endswith(" cells/s")


def test_audit_timings_count_the_rows_a_claim_walks(capsys):
    code, _, err = run_cli(capsys, "audit", "--claims",
                           "thm4,thm6-4r,cor7-1,thm2-S4n,eq2", "--timings")
    assert code == 0
    lines = dict(line.split(": ", 1) for line in err.splitlines())
    assert lines["timing thm4"].split(", ")[1:3] == ["704 cells", "64 rows"]
    assert lines["timing thm2-S4n"].split(", ")[1:3] == ["75 cells", "3 rows"]
    assert lines["timing thm6-4r"].split(", ")[1:3] == ["40 cells", "2 rows"]
    assert lines["timing cor7-1"].split(", ")[1:3] == ["101 cells", "1 row"]
    assert "row" not in lines["timing eq2"] + lines["timing total"]


@pytest.mark.parametrize("fmt", ("text", "structured"))
def test_audit_claims_named_twice_run_once(capsys, fmt):
    code, once, _ = run_cli(capsys, "audit", "--claims", "eq2", "--format", fmt)
    assert code == 0
    for claims in ("eq2,eq2", " eq2 ,eq2,"):
        assert run_cli(capsys, "audit", "--claims", claims, "--format", fmt) == (
            0, once, "")
    results = audit.run_audit(["eq2", "eq2"])
    assert results == audit.run_audit(["eq2"])
    assert (audit.report(results, fmt, selection=["eq2", "eq2"])
            == audit.report(results, fmt, selection=["eq2"]))


def test_audit_max_n_zero_is_served(capsys):
    code, out, _ = run_cli(capsys, "audit", "--claims", "cor7-1,cor7-2",
                           "--max-n", "0")
    assert code == 0
    assert out == ("claim cor7-1: cells=1 pass=1 variant-pass=0 fail=0\n"
                   "total: claims=1 cells=1 pass=1 variant-pass=0 fail=0\n")


def test_audit_that_evaluates_no_cell_exits_zero(capsys):
    # cor8-iii's index starts above 0, so --max-n 0 leaves it no row
    assert run_cli(capsys, "audit", "--claims", "cor8-iii", "--max-n", "0") == (
        0, "nothing run: no cells evaluated\n", "")


def test_audit_max_n_at_the_limit_is_served(capsys, monkeypatch):
    seen = {}

    def record(selection, max_n=None):
        seen["max_n"] = max_n
        return []

    monkeypatch.setattr(audit, "run_audit", record)
    code, _, _ = run_cli(capsys, "audit", "--claims", "cor7-1", "--max-n",
                         str(AUDIT_MAX_N_LIMIT))
    assert (code, seen) == (0, {"max_n": AUDIT_MAX_N_LIMIT})


def test_audit_cell_error_exits_three(capsys, monkeypatch):
    claim = audit.REGISTRY["cor7-1"]

    def broken(cell):
        raise ValueError("a check that breaks")

    def check(cells):
        return map(broken, cells)

    monkeypatch.setitem(audit.REGISTRY, "cor7-1", claim._replace(check=check))
    code, out, err = run_cli(capsys, "audit", "--claims", "cor7-1", "--max-n", "2")
    assert (code, out) == (3, "")
    assert "cor7-1" in err and "a check that breaks" in err


def test_gf_self_check_failure_exits_three(capsys, monkeypatch):
    def fail(spec, r, check_terms):
        raise gfpow.SelfCheckError("series does not fit")

    monkeypatch.setattr(gfpow, "gf_power", fail)
    code, out, err = run_cli(capsys, "gf", "--preset", "fibonacci",
                             "--power", "2")
    assert (code, out) == (3, "")
    assert "series does not fit" in err


def test_sum_both_match(capsys):
    code, out, _ = run_cli(capsys, "sum", "--preset", "fibonacci", "--n", "5",
                           "--power", "1", "--x", "1", "--both")
    assert code == 0
    assert out.strip() == "direct=12 closed=12 match"


def test_sum_direct_pell(capsys):
    code, out, _ = run_cli(capsys, "sum", "--preset", "pell", "--n", "4",
                           "--power", "1", "--x", "1", "--direct")
    assert (code, out.strip()) == (0, "20")


def test_sum_zero_upper_index(capsys):
    code, out, _ = run_cli(capsys, "sum", "--preset", "fibonacci", "--n", "0",
                           "--power", "2", "--x", "7", "--direct")
    assert (code, out.strip()) == (0, "0")


def test_sum_denominator_zero_exit_code(capsys):
    code, out, err = run_cli(capsys, "sum", "--a", "0", "--b", "1", "--u0", "0",
                           "--u1", "1", "--n", "3", "--power", "1", "--x", "1",
                           "--closed")
    assert (code, out.strip(), err) == (0, "2", "")
    code, out, _ = run_cli(capsys, "sum", "--a", "0", "--b", "1", "--u0", "0",
                           "--u1", "1", "--n", "3", "--power", "1", "--x", "1",
                           "--both")
    assert (code, out.strip()) == (0, "direct=2 closed=2 match")


def test_binom_sum_examples(capsys):
    code, out, _ = run_cli(capsys, "binom-sum", "--preset", "fibonacci",
                           "--n", "4", "--power", "1", "--x", "1", "--both")
    assert code == 0
    assert out.strip() == "direct=21 closed=21 match"
    code, out, _ = run_cli(capsys, "binom-sum", "--preset", "fibonacci",
                           "--n", "2", "--power", "4", "--x", "-1", "--direct")
    assert (code, out.strip()) == (0, "-1")
    code, out, _ = run_cli(capsys, "binom-sum", "--preset", "fibonacci",
                           "--n", "0", "--power", "3", "--x", "5", "--direct")
    assert (code, out.strip()) == (0, "0")


def test_audit_pass_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "audit", "--claims", "cor7-1", "--max-n", "50")
    assert code == 0
    assert "claim cor7-1: cells=51 pass=51" in out


def test_audit_variant_pass_exit_zero_and_documented(capsys):
    code, out, _ = run_cli(capsys, "audit", "--claims", "cor8-iii", "--max-n", "9")
    assert code == 0
    assert "variant-pass via implied-exponent" in out


def test_audit_unknown_claim_exit_two(capsys):
    code, _, err = run_cli(capsys, "audit", "--claims", "cor99-z")
    assert code == 2
    assert "unknown claim" in err


def test_audit_structured_to_file_deterministic(tmp_path, capsys):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for path in (out_a, out_b):
        code, _, _ = run_cli(capsys, "audit", "--claims", "eq1,eq2,eq3",
                             "--format", "structured", "--out", str(path))
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_config_file_sets_defaults(tmp_path, capsys):
    cfg = tmp_path / "audit.cfg"
    cfg.write_text("# defaults\nmax-n = 5\nformat = structured\n")
    code, out, _ = run_cli(capsys, "audit", "--claims", "cor7-1",
                           "--config", str(cfg))
    assert code == 0
    doc = json.loads(out)
    assert doc["run"]["max_n"] == 5
    assert len(doc["claims"][0]["cells"]) == 6


@pytest.mark.parametrize("text, named", (
    ("format = xml\n", ("'xml'", "text, latex, structured")),
    ("maxn = 5\n", ("maxn", "max-n, format")),
    ("max-n = 5\nMax-N = 7\n", ("Max-N", "max-n, format")),
    ("max-n = abc\n", ("'max-n = abc'", "integer")),
), ids=("bad-format", "misspelt-key", "wrong-case-key", "non-integer-max-n"))
def test_config_file_with_a_bad_key_or_format_exits_two(tmp_path, capsys,
                                                        monkeypatch, text,
                                                        named):
    monkeypatch.setattr(audit, "run_audit", _refuse)
    cfg = tmp_path / "audit.cfg"
    cfg.write_text(text)
    code, out, err = run_cli(capsys, "audit", "--claims", "cor7-1",
                             "--config", str(cfg))
    assert (code, out) == (2, "")
    assert all(word in err for word in named) and str(cfg) in err


def test_gen_pell_preset(capsys):
    code, out, _ = run_cli(capsys, "seq", "--preset", "gen-pell:2,5", "--n", "3")
    assert (code, out.strip()) == (0, "12")


@pytest.mark.parametrize("name", ("gen-pell:1,1/0", "gen-pell:1", "gen-pell:1,2,3",
                                  "gen-pell:a,b", "gen-pell:"))
def test_malformed_gen_pell_preset_exits_two(capsys, monkeypatch, name):
    monkeypatch.setattr(seq, "term_fast", _refuse)
    code, out, err = run_cli(capsys, "seq", "--preset", name, "--n", "3")
    assert (code, out) == (2, "")
    assert repr(name) in err and "Traceback" not in err
    with pytest.raises(ValueError, match="malformed preset"):
        seq.preset(name)


def test_negative_rational_option_values(capsys):
    code, out, _ = run_cli(capsys, "binom-sum", "--preset", "fibonacci",
                           "--n", "8", "--power", "2", "--x", "-1/2", "--both")
    assert code == 0
    assert out.strip().endswith("match")
    code, out, _ = run_cli(capsys, "seq", "--a", "3", "--b", "-2",
                           "--u0", "-1/2", "--u1", "2", "--n", "5")
    assert (code, out.strip()) == (0, "77")


def test_missing_spec_flags_exit_two(capsys):
    code, _, err = run_cli(capsys, "seq", "--a", "1", "--n", "3")
    assert code == 2
    assert "missing spec flags" in err


# --- rendering-grammar round-trip --------------------------------------------


def test_parse_polynomial_round_trip():
    assert parse_polynomial("1 - x - x^2") == Polynomial([1, -1, -1])
    assert parse_polynomial("(5/2)x + 3") == Polynomial([3, "5/2"])
    assert parse_polynomial("-x^3") == Polynomial([0, 0, 0, -1])
    assert parse_polynomial("0") == Polynomial()
    with pytest.raises(ValueError):
        parse_polynomial("x + +")


@pytest.mark.parametrize("r", (1, 2, 3, 4, 5))
def test_latex_round_trip_equals_canonical_form(capsys, r):
    spec = RecurrenceSpec(1, 1, 0, 1)
    code = main(["gf", "--preset", "fibonacci", "--power", str(r),
                 "--format", "latex"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert parse_rational_function(out) == gf_power(spec, r)


def test_text_round_trip_equals_canonical_form(capsys):
    for flags, spec in (
        (["--preset", "pell"], RecurrenceSpec(2, 1, 0, 1)),
        (["--a", "1", "--b", "2", "--u0", "0", "--u1", "1"],
         RecurrenceSpec(1, 2, 0, 1)),
        (["--a", "1", "--b", "1", "--u0", "2", "--u1", "1"],
         RecurrenceSpec(1, 1, 2, 1)),
    ):
        for r in (1, 2, 3):
            code = main(["gf", *flags, "--power", str(r)])
            out = capsys.readouterr().out.strip()
            assert code == 0
            assert parse_rational_function(out) == gf_power(spec, r)


def test_parse_rational_function_plain_polynomial():
    assert parse_rational_function("1 + 2x") == RationalFunction(
        Polynomial([1, 2]), Polynomial([1])
    )
