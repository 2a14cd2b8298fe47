"""Tests for the command-line interface: outputs, exit codes, round-trips."""

import dataclasses
import json

import pytest

from recsums import audit, gfpow, seq
from recsums.cli import (GF_CHECK_TERMS_LIMIT, GF_POWER_LIMIT, SEQ_WALK_LIMIT,
                         main, parse_polynomial, parse_rational_function)
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


@pytest.mark.parametrize("n", (SEQ_WALK_LIMIT + 1, -SEQ_WALK_LIMIT - 1))
def test_seq_walk_beyond_the_limit_exits_two(capsys, monkeypatch, n):
    def refuse(*args):
        raise AssertionError("the walk ran past the limit")

    monkeypatch.setattr(seq, "term", refuse)
    code, out, err = run_cli(capsys, "seq", "--preset", "fibonacci", "--n", str(n))
    assert (code, out) == (2, "")
    assert str(SEQ_WALK_LIMIT) in err and "--fast" in err


def test_seq_negative_index_and_fast(capsys):
    code, out, _ = run_cli(capsys, "seq", "--preset", "fibonacci", "--n", "-3")
    assert (code, out.strip()) == (0, "2")
    code, out, _ = run_cli(capsys, "seq", "--preset", "fibonacci", "--n", "30",
                           "--fast")
    assert (code, out.strip()) == (0, "832040")
    code, _, err = run_cli(capsys, "seq", "--preset", "fibonacci", "--n", "-3",
                           "--fast")
    assert code == 2 and "fast" in err


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


def test_gf_check_terms_beyond_the_limit_exits_two(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("gf_power ran past the limit")

    monkeypatch.setattr(gfpow, "gf_power", refuse)
    code, out, err = run_cli(capsys, "gf", "--preset", "fibonacci", "--power", "2",
                             "--check-terms", str(GF_CHECK_TERMS_LIMIT + 1))
    assert (code, out) == (2, "")
    assert str(GF_CHECK_TERMS_LIMIT) in err


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
    code, _, err = run_cli(capsys, "sum", "--a", "0", "--b", "1", "--u0", "0",
                           "--u1", "1", "--n", "3", "--power", "1", "--x", "1",
                           "--closed")
    assert code == 4
    assert "vanishes" in err


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


def test_gen_pell_preset(capsys):
    code, out, _ = run_cli(capsys, "seq", "--preset", "gen-pell:2,5", "--n", "3")
    assert (code, out.strip()) == (0, "12")


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
