"""Tests for the claim registry, grid runner, and report formats."""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recsums import gfpow, seq
from recsums.audit import (REGISTRY, AuditCellError, UnknownClaimError,
                           _json, has_unexplained_failure, report,
                           run_audit, structured_report, structured_report_text,
                           text_report)
from recsums.cli import main
from recsums.gfpow import gf_power
from recsums.polyrat import Polynomial, RationalFunction


def test_every_claim_has_a_nonempty_default_grid():
    for claim in REGISTRY.values():
        rows = claim.rows(None)
        assert rows and all(rows), claim.id


def test_registry_ids_are_unique_and_documented():
    assert len(REGISTRY) == len({c.id for c in REGISTRY.values()})
    for claim in REGISTRY.values():
        assert claim.description


# every hypothesis a claim prints, as a test of one cell's params
HYPOTHESES = {
    "b=1": lambda c: c["spec"].b == 1,
    "u0=0": lambda c: c["spec"].u0 == 0,
    "n even": lambda c: c["n"] % 2 == 0,
    "n odd": lambda c: c["n"] % 2 == 1,
    "n>=1": lambda c: c["n"] >= 1,
    "n>=2": lambda c: c["n"] >= 2,
    "n<=8r+2": lambda c: c["n"] <= 8 * c["r"] + 2,
    "n<=8r+3": lambda c: c["n"] <= 8 * c["r"] + 3,
    "r even": lambda c: c["r"] % 2 == 0,
    "r odd": lambda c: c["r"] % 2 == 1,
    "r>=1": lambda c: c["r"] >= 1,
    "r in 1..3": lambda c: c["r"] in (1, 2, 3),
}


@pytest.mark.parametrize("max_n", (None, 0, 3, 60, 120))
def test_every_cell_meets_the_hypotheses_its_claim_prints(max_n):
    for claim in REGISTRY.values():
        keys = [name for name, _ in claim.axes]
        if claim.index:
            keys.append(claim.index[0])
        for row in claim.rows(max_n):
            for cell in row:
                assert list(cell) == keys, claim.id
                for hypothesis in claim.hypotheses:
                    assert HYPOTHESES[hypothesis](cell), (claim.id, hypothesis, cell)


def test_cor7_1_small_grid_all_pass():
    results = run_audit(["cor7-1"], max_n=10)
    assert len(results) == 11
    assert all(r.verdict == "pass" for r in results)


def test_thm2_s4n_2_passes():
    results = run_audit(["thm2-S4n-2"], max_n=5)
    assert len(results) == 15
    assert all(r.verdict == "pass" for r in results)


def test_cor8_iii_records_both_exponents():
    results = run_audit(["cor8-iii"], max_n=1)
    cell = [r for r in results if r.params == {"r": 0, "n": 1}][0]
    assert cell.verdict == "variant-pass"
    assert cell.variant == "implied-exponent"
    assert cell.witness["lhs"] == "1"
    assert cell.witness["printed_exponent"] == "2"
    assert cell.witness["implied_exponent"] == "0"


def test_eq1_finding_recorded_with_witness():
    results = run_audit(["eq1"])
    assert all(r.verdict == "variant-pass" for r in results)
    assert all(r.variant == "unit-prefactor" for r in results)
    fib_cell = results[0]
    assert "(1/5)x" in fib_cell.witness["rhs"]
    assert fib_cell.witness["lhs"] == "x/(1 - x - x^2)"


def test_unknown_claim_rejected():
    with pytest.raises(UnknownClaimError):
        run_audit(["cor99-x"])


def _break_cell(monkeypatch, cid, n):
    """Make claim `cid` raise a plain ValueError on its cell with params n."""
    claim = REGISTRY[cid]

    def check(cells):
        for cell, verdict in zip(cells, claim.check(cells)):
            if cell["n"] == n:
                raise ValueError("sqrt(5) part left over")
            yield verdict

    monkeypatch.setitem(REGISTRY, cid, dataclasses.replace(claim, check=check))


def test_check_error_names_claim_and_cell(monkeypatch):
    _break_cell(monkeypatch, "cor7-1", 2)
    with pytest.raises(AuditCellError) as info:
        run_audit(["cor7-1"], max_n=4)
    err = info.value
    assert not isinstance(err, ValueError)
    assert (err.claim_id, err.params) == ("cor7-1", {"n": 2})
    assert type(err.__cause__) is ValueError
    assert "cor7-1" in str(err) and "'n': 2" in str(err)
    assert "sqrt(5) part left over" in str(err)


def test_empty_results_report():
    assert text_report([]).startswith("nothing run")
    assert not has_unexplained_failure([])


def test_structured_report_schema():
    results = run_audit(["eq2", "cor7-1"], max_n=5)
    doc = structured_report(results, ["eq2", "cor7-1"], 5)
    assert doc["run"]["tool"] == "recsums"
    assert doc["run"]["selection"] == ["cor7-1", "eq2"]
    assert doc["run"]["max_n"] == 5
    ids = [c["id"] for c in doc["claims"]]
    assert ids == sorted(ids)
    for claim in doc["claims"]:
        assert set(claim["totals"]) == {"pass", "variant_pass", "fail"}
        assert sum(claim["totals"].values()) == len(claim["cells"])
        for cell in claim["cells"]:
            assert cell["verdict"] in ("pass", "variant-pass", "fail")
            assert all(isinstance(v, (str, int)) for v in cell["params"].values())
    text = structured_report_text(results, ["eq2", "cor7-1"], 5)
    assert json.loads(text) == doc


# strings with quotes, backslashes, control characters and non-ASCII
_AWKWARD = ["", "\"", "\\", "\x00\x1f\x7f", "\u00e9\u2028\U0001d11e", "a\tb\nc\r"]
_REPORT_VALUES = st.recursive(
    st.none() | st.integers() | st.integers(min_value=-10**80, max_value=10**80)
    | st.text() | st.sampled_from(_AWKWARD),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=25,
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_REPORT_VALUES)
@example({"b": [], "a": {}, "c": [{}, [None, -0, 10**60, -(10**60)]],
          "\u00e9": "\"\\/"})
def test_report_writer_is_json_dumps_sorted_with_indent_2(value):
    assert _json(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [1.5, True, (1, 2), {"k": [0.0]}, {1: "int key"}])
def test_report_writer_refuses_what_a_report_never_holds(value):
    with pytest.raises(TypeError):
        _json(value)


def test_structured_report_is_deterministic():
    selection = ["eq1", "eq3", "thm2-S4n-1", "cor8-iii", "lemma5"]
    first = structured_report_text(run_audit(selection, max_n=9), selection, 9)
    second = structured_report_text(run_audit(selection, max_n=9), selection, 9)
    assert first == second


@pytest.fixture(scope="module")
def default_results():
    return run_audit("all")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_default_report_hash_matches_the_bench_reference(default_results):
    # the byte-identical report every refactor of the closed forms must keep;
    # the benchmark checks the same digest
    ref = Path(__file__).resolve().parent.parent / "bench" / "audit_reference.json"
    expected = json.loads(ref.read_text(encoding="utf-8"))["report_sha256"]
    text = structured_report_text(default_results, "all", None)
    assert _sha256(text) == expected


def test_default_text_report_hash_is_pinned(default_results):
    assert _sha256(text_report(default_results)) == (
        "ca97b4a930b2f38d531e04f6ce2032de7ee83a5cf0d1715dfdb2e8df681f1776")


FIBONACCI_CLAIMS = sorted(cid for cid in REGISTRY
                          if cid.startswith(("thm6-", "thm9-", "cor7-", "cor8-",
                                             "cor10-", "cor11-")))


def test_fibonacci_claims_report_hash_at_max_n_60_is_pinned():
    # thm6/thm9 cells run up to n = 60 here; the default grid stops at 20
    assert len(FIBONACCI_CLAIMS) == 23
    results = run_audit(FIBONACCI_CLAIMS, max_n=60)
    text = structured_report_text(results, FIBONACCI_CLAIMS, 60)
    assert _sha256(text) == (
        "04acce26a01db0d9a5ddce59c1ff7d75a054c6b3974590bc82423d051f2a997e")


@pytest.mark.parametrize("max_n, digest", (
    (0, "4bc23d3d6e53147ee3c72beb4b60e47bf89eb3b2a0e38e3330dff8499809c9a5"),
    (3, "4ba5facca8e6a95738c643e0320f2b94de955542239bf33ba719f823f74ffaef"),
    (60, "57c9808a45e14630d3a211783e5ac1cbdf33a4dd4197728afd5ddecc49734472"),
    # above the CLI's --max-n limit: served through the library only
    (240, "9b2e40f09de6656ea30cb56390ebe6ec044e12fba94e801c9f739969ca92c314"),
))
def test_small_grid_report_hashes_are_pinned(max_n, digest):
    # a wrong first n or stride of a row shows on the smallest grids first
    text = structured_report_text(run_audit("all", max_n=max_n), "all", max_n)
    assert _sha256(text) == digest


# the claims whose closed side reads seq.binet_pairs or builds a gf
BINET_CLAIMS = ["cor-sn1", "eq1", "eq2", "eq3", "thm1-even", "thm1-odd",
                "thm3-even", "thm3-odd", "thm4"]


def test_closed_form_claims_report_hash_at_max_n_60_is_pinned():
    results = run_audit(BINET_CLAIMS, max_n=60)
    assert len(results) == 4280
    text = structured_report_text(results, BINET_CLAIMS, 60)
    assert _sha256(text) == (
        "3d2ee1f4de6eef1a5c879d39023476dddff77b332a91738c6d2831f769ed2fec")


HORADAM_CLAIMS = sorted(cid for cid in REGISTRY if cid.startswith("thm2-"))


def test_horadam_claims_report_hash_at_max_n_120_is_pinned():
    # the oracle horadam_direct runs one prefix per row up to index
    # 4n + 1 = 481 here, on both signs; the default grid stops at 101
    assert len(HORADAM_CLAIMS) == 8
    results = run_audit(HORADAM_CLAIMS, max_n=120)
    assert len(results) == 2880
    text = structured_report_text(results, HORADAM_CLAIMS, 120)
    assert _sha256(text) == (
        "49245e694209aa2a66b2bffd0e3bccc9e06cf7f0ba759486bab7c62841a7a8d2")


def test_no_claim_reads_more_binet_tables_than_the_cache_keeps(monkeypatch):
    # a thm3 or thm4 row reads its one table for all its cells; a claim that
    # reads more tables than BINET_CAP keeps builds them all again when it is
    # run again in one process
    real, keys, current = seq.binet_pairs, {}, [None]

    def spy(spec, r, x):
        keys.setdefault(current[0], set()).add((spec, r, x))
        return real(spec, r, x)

    monkeypatch.setattr(seq, "binet_pairs", spy)
    for cid in REGISTRY:
        current[0] = cid
        run_audit([cid])
    assert {"thm1-odd", "thm1-even", "thm3-odd", "thm3-even", "thm4"} <= set(keys)
    assert len(keys["thm4"]) == 64
    for cid, tables in keys.items():
        assert len(tables) <= seq.BINET_CAP, cid


def test_a_variant_pass_witness_shows_the_variant_as_the_left_side(default_results):
    # the congruences' implied-exponent variant-passes carry no value witness
    witnesses = [r.witness for r in default_results if r.verdict == "variant-pass"
                 and REGISTRY[r.claim_id].check.__qualname__.startswith("_compare.")]
    assert len(witnesses) == 309
    for witness in witnesses:
        assert witness["variant_rhs"] == witness["lhs"] != witness["rhs"]


def test_report_dispatch():
    results = run_audit(["eq2"])
    assert report(results, "text").startswith("claim eq2")
    assert report(results, "structured").startswith("{")


def test_selection_all_covers_registry():
    results = run_audit("all", max_n=2)
    assert {r.claim_id for r in results} == set(REGISTRY)


def test_known_misprints_variant_pass_and_nothing_fails():
    selection = ["thm1-odd", "thm1-even", "eq3", "thm2-S4n-1", "thm3-even",
                 "cor-sn1", "thm9-4r-even", "thm9-4r-odd", "cor10-4",
                 "cor8-iii", "cor8-iv"]
    results = run_audit(selection, max_n=8)
    assert not has_unexplained_failure(results)
    by_claim = {}
    for r in results:
        by_claim.setdefault(r.claim_id, []).append(r)
    # the printed forms of these claims never survive on their own
    for cid in ("eq3", "thm2-S4n-1", "thm3-even",
                "thm9-4r-even", "thm9-4r-odd", "cor10-4"):
        assert all(r.verdict == "variant-pass" for r in by_claim[cid]), cid
    # the printed first-power corollary only survives the degenerate n = 0 cell
    for r in by_claim["cor-sn1"]:
        expected = "pass" if r.params["n"] == 0 else "variant-pass"
        assert r.verdict == expected
    # odd-power paired form: restoring x suffices at b=1, general-b otherwise
    verdicts = {r.variant for r in by_claim["thm1-odd"]}
    assert verdicts == {"with-x", "general-b"}
    assert all(r.verdict == "variant-pass" for r in by_claim["thm1-odd"])


def _wrong_display_r1(spec, variant="printed"):
    return RationalFunction(Polynomial([0, 7]), Polynomial([1, -1]))


def test_a_form_matching_no_variant_fails_with_its_witness(monkeypatch, capsys):
    monkeypatch.setattr(gfpow, "display_r1", _wrong_display_r1)
    results = run_audit(["eq1"])
    assert results and all(r.verdict == "fail" for r in results)
    assert all(r.variant is None for r in results)
    assert all(set(r.witness) == {"lhs", "rhs"} for r in results)
    assert results[0].witness["rhs"] == "7x/(1 - x)"
    assert has_unexplained_failure(results)
    assert main(["audit", "--claims", "eq1"]) == 1
    assert "fail=2" in capsys.readouterr().out


def test_variants_are_built_only_when_the_printed_form_fails(monkeypatch):
    def display_r1(spec, variant="printed"):
        if variant != "printed":
            raise AssertionError("a variant was built for a passing cell")
        return gf_power(spec, 1)

    monkeypatch.setattr(gfpow, "display_r1", display_r1)
    results = run_audit(["eq1"])
    assert results and all(r.verdict == "pass" for r in results)
