"""Tests for the command-line interface: outputs, exit codes, round-trips."""

import dataclasses
import json
from fractions import Fraction

import pytest

from recsums import audit, binsum, gfpow, partsum, seq
from recsums.cli import (AUDIT_MAX_N_LIMIT, GF_CHECK_TERMS_LIMIT,
                         GF_POWER_LIMIT, SEQ_LIMIT, SUM_CLOSED_LIMIT,
                         SUM_SIZE_LIMIT, _growth, _sum_size, main,
                         parse_polynomial, parse_rational_function)
from recsums.gfpow import gf_power
from recsums.polyrat import Polynomial, RationalFunction
from recsums.qfield import RecurrenceSpec


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


@pytest.mark.parametrize("command", ("sum", "binom-sum"))
@pytest.mark.parametrize("mode", ((), ("--both",), ("--direct",)))
@pytest.mark.parametrize("n, power", ((SUM_SIZE_LIMIT + 1, 1), (6667, 3)))
def test_direct_sum_beyond_the_limit_exits_two(capsys, monkeypatch, command,
                                               mode, n, power):
    assert n * power == SUM_SIZE_LIMIT + 1
    for module, name in (
            (partsum, "partial_sum_direct"), (partsum, "partial_sum_closed"),
            (binsum, "binom_sum_direct"), (binsum, "binom_sum_closed")):
        monkeypatch.setattr(module, name, _refuse)
    code, out, err = run_cli(capsys, command, "--preset", "fibonacci", "--n",
                             str(n), "--power", str(power), "--x", "1", *mode)
    assert (code, out) == (2, "")
    assert str(SUM_SIZE_LIMIT) in err and "--closed" in err


def test_direct_sum_at_the_limit_and_closed_beyond_it_are_served(capsys,
                                                                monkeypatch):
    monkeypatch.setattr(binsum, "binom_sum_direct", lambda *args: 7)
    code, out, _ = run_cli(capsys, "binom-sum", "--preset", "fibonacci", "--n",
                           str(SUM_SIZE_LIMIT), "--power", "1", "--x", "1",
                           "--direct")
    assert (code, out.strip()) == (0, "7")
    monkeypatch.setattr(binsum, "binom_sum_direct", _refuse)
    n = SUM_SIZE_LIMIT + 1
    code, out, _ = run_cli(capsys, "binom-sum", "--preset", "fibonacci", "--n",
                           str(n), "--power", "1", "--x", "1", "--closed")
    # sum_i C(n,i) F_i = F_{2n}
    assert (code, out.strip()) == (0, str(seq.term_fast(seq.fibonacci(), 2 * n)))


# x = 123456789/987654323: bit_length(|p| q) = 57, so each term counts 1 + 56
BIG_X = "123456789/987654323"


def _patch_every_sum(monkeypatch, fn):
    for module, name in (
            (partsum, "partial_sum_direct"), (partsum, "partial_sum_closed"),
            (binsum, "binom_sum_direct"), (binsum, "binom_sum_closed")):
        monkeypatch.setattr(module, name, fn)


def test_sum_size_counts_the_bits_of_x():
    assert _sum_size(10, 3, Fraction(0), 1) == 30
    assert _sum_size(10, 3, Fraction(1), 1) == _sum_size(10, 3, Fraction(-1), 1) == 30
    assert _sum_size(10, 3, Fraction(1, 2), 1) == 40
    assert _sum_size(10, 3, Fraction(-2, 3), 1) == 50
    assert _sum_size(351, 1, Fraction(BIG_X), 1) == SUM_SIZE_LIMIT + 7
    # the spec's growth weighs the power, not the bits of x
    assert _sum_size(10, 3, Fraction(1, 2), 19) == 10 * (3 * 19 + 1)


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


# each row is served at n and refused one step beyond it, with or without the
# no-op --fast
@pytest.mark.parametrize("flags, n, fast, limit", (
    (["--preset", "fibonacci"], SEQ_LIMIT, True, SEQ_LIMIT),
    (_spec_flags(3, 3), SEQ_LIMIT // 3, True, SEQ_LIMIT),
    (_spec_flags(1000, 1), SEQ_LIMIT // 19, False, SEQ_LIMIT),
    (_spec_flags(1000, 1), -(SEQ_LIMIT // 19), False, SEQ_LIMIT),
    (["--preset", "fibonacci"], -SEQ_LIMIT, False, SEQ_LIMIT),
    (_spec_flags(2, -3), SEQ_LIMIT, False, SEQ_LIMIT),
    (_spec_flags(2, -3), -(SEQ_LIMIT // 4), True, SEQ_LIMIT),
    (_spec_flags(3, 3), -(SEQ_LIMIT // 7), False, SEQ_LIMIT),
))
def test_seq_budget_counts_the_spec_growth(capsys, monkeypatch, flags, n, fast,
                                           limit):
    mode = ["--fast"] if fast else []
    monkeypatch.setattr(seq, "term_fast", lambda *args: 7)
    monkeypatch.setattr(seq, "term", _refuse)
    code, out, _ = run_cli(capsys, "seq", *flags, "--n", str(n), *mode)
    assert (code, out.strip()) == (0, "7")
    monkeypatch.setattr(seq, "term_fast", _refuse)
    beyond = n + 1 if n > 0 else n - 1
    code, out, err = run_cli(capsys, "seq", *flags, "--n", str(beyond), *mode)
    assert (code, out) == (2, "")
    assert str(limit) in err and "growth" in err


@pytest.mark.parametrize("command", ("sum", "binom-sum"))
def test_sum_budget_counts_the_spec_growth(capsys, monkeypatch, command):
    # (1000, 1) has g = 19: size n * (power * 19 + 0) at x = 1
    n = SUM_SIZE_LIMIT // 19
    _patch_every_sum(monkeypatch, lambda *args: 7)
    code, out, _ = run_cli(capsys, command, *_spec_flags(1000, 1), "--n", str(n),
                           "--power", "1", "--x", "1", "--direct")
    assert (code, out.strip()) == (0, "7")
    _patch_every_sum(monkeypatch, _refuse)
    code, out, err = run_cli(capsys, command, *_spec_flags(1000, 1), "--n",
                             str(n + 1), "--power", "1", "--x", "1", "--direct")
    assert (code, out) == (2, "")
    assert str(SUM_SIZE_LIMIT) in err and "growth 19" in err


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


@pytest.mark.parametrize("command", ("sum", "binom-sum"))
@pytest.mark.parametrize("mode, n, x, limit", (
    ((), 351, BIG_X, SUM_SIZE_LIMIT),
    (("--both",), 351, BIG_X, SUM_SIZE_LIMIT),
    (("--direct",), 351, BIG_X, SUM_SIZE_LIMIT),
    (("--direct",), SUM_SIZE_LIMIT // 2 + 1, "1/2", SUM_SIZE_LIMIT),
    (("--closed",), SUM_CLOSED_LIMIT // 2 + 1, "1/2", SUM_CLOSED_LIMIT),
    (("--closed",), SUM_CLOSED_LIMIT // 3 + 1, "-2/3", SUM_CLOSED_LIMIT),
))
def test_sum_beyond_its_size_limit_exits_two(capsys, monkeypatch, command,
                                             mode, n, x, limit):
    _patch_every_sum(monkeypatch, _refuse)
    code, out, err = run_cli(capsys, command, "--preset", "fibonacci", "--n",
                             str(n), "--power", "1", f"--x={x}", *mode)
    assert (code, out) == (2, "")
    assert str(limit) in err


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
    for mode, n in (("--direct", SUM_SIZE_LIMIT // 2),
                    ("--closed", SUM_CLOSED_LIMIT // 2)):
        code, out, _ = run_cli(capsys, command, "--preset", "fibonacci",
                               "--n", str(n), "--power", "1", "--x", "1/2",
                               mode)
        assert (code, out.strip()) == (0, "7")


def test_seq_negative_index_and_fast(capsys):
    code, out, _ = run_cli(capsys, "seq", "--preset", "fibonacci", "--n", "-3")
    assert (code, out.strip()) == (0, "2")
    code, out, _ = run_cli(capsys, "seq", "--preset", "fibonacci", "--n", "30",
                           "--fast")
    assert (code, out.strip()) == (0, "832040")
    code, out, _ = run_cli(capsys, "seq", "--preset", "fibonacci", "--n", "-3",
                           "--fast")
    assert (code, out.strip()) == (0, "2")


# |b| > 1 and rational initial values; the last two rows are refused
@pytest.mark.parametrize("n", (0, 1, 37, -1, -37, 2000, -2000,
                               SEQ_LIMIT + 1, -(SEQ_LIMIT // 4) - 1))
def test_seq_prints_the_same_bytes_with_and_without_fast(capsys, n):
    flags = ["--a", "2", "--b", "-3", "--u0", "1/3", "--u1", "-5/2", "--n", str(n)]
    plain = run_cli(capsys, "seq", *flags)
    assert run_cli(capsys, "seq", *flags, "--fast") == plain
    spec = RecurrenceSpec(2, -3, Fraction(1, 3), Fraction(-5, 2))
    if abs(n) <= 2000:
        assert plain == (0, f"{seq.term(spec, n)}\n", "")
    else:
        assert (plain[0], plain[1]) == (2, "")


def test_seq_rejects_degenerate_spec(capsys):
    code, _, err = run_cli(capsys, "seq", "--a", "1", "--b", "0",
                           "--u0", "0", "--u1", "1", "--n", "3")
    assert code == 2
    assert "invalid spec" in err


def test_seq_rational_initial_values(capsys):
    code, out, _ = run_cli(capsys, "seq", "--a", "1", "--b", "1",
                           "--u0", "1/2", "--u1", "1/3", "--n", "2")
    assert (code, out.strip()) == (0, "5/6")


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


def test_gf_power_beyond_the_limit_exits_two(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("gf_power ran past the limit")

    monkeypatch.setattr(gfpow, "gf_power", refuse)
    limit = str(GF_POWER_LIMIT + 1)
    code, out, err = run_cli(capsys, "gf", "--preset", "fibonacci",
                             "--power", limit)
    assert (code, out) == (2, "")
    assert str(GF_POWER_LIMIT) in err


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
    def refuse(*args):
        raise AssertionError("gf_power ran past the limit")

    monkeypatch.setattr(gfpow, "gf_power", refuse)
    code, out, err = run_cli(capsys, "gf", "--preset", "fibonacci", "--power", "2",
                             "--check-terms", str(GF_CHECK_TERMS_LIMIT + 1))
    assert (code, out) == (2, "")
    assert str(GF_CHECK_TERMS_LIMIT) in err


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


def test_audit_max_n_zero_is_served(capsys):
    code, out, _ = run_cli(capsys, "audit", "--claims", "cor7-1,cor7-2",
                           "--max-n", "0")
    assert code == 0
    assert out == ("claim cor7-1: cells=1 pass=1 variant-pass=0 fail=0\n"
                   "total: claims=1 cells=1 pass=1 variant-pass=0 fail=0\n")


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

    def check(params):
        raise ValueError("a check that breaks")

    monkeypatch.setitem(audit.REGISTRY, "cor7-1",
                        dataclasses.replace(claim, check=check))
    code, out, err = run_cli(capsys, "audit", "--claims", "cor7-1", "--max-n", "2")
    assert (code, out) == (3, "")
    assert "cor7-1" in err and "a check that breaks" in err


def test_gf_self_check_failure_exits_three(capsys, monkeypatch):
    def fail(spec, r):
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
), ids=("bad-format", "misspelt-key", "wrong-case-key"))
def test_config_file_with_a_bad_key_or_format_exits_two(tmp_path, capsys,
                                                        monkeypatch, text,
                                                        named):
    monkeypatch.setattr(audit, "run_audit", _refuse)
    cfg = tmp_path / "audit.cfg"
    cfg.write_text(text)
    code, out, err = run_cli(capsys, "audit", "--claims", "cor7-1",
                             "--config", str(cfg))
    assert (code, out) == (2, "")
    assert all(word in err for word in named)


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
