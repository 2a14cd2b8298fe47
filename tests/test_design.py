"""Design guards.

Closed forms compute over Q; QuadElem stays where Q(sqrt(D)) is the subject.
QuadElem is the arithmetic of ``lemma5`` (``binsum.root_power_collapse``, a
statement about Q(sqrt(5))) and the tests' Binet reference.  Every closed form
reaches Q through ``seq.binet_pairs``, so polynomials and rational functions
hold Fractions only.

Every audit claim that compares a value with a printed form is one
``audit._compare`` check, and a sequence is named by its ``RecurrenceSpec``.
Every sum of U_i^r x^i, weighted or not, takes ``(spec, r, n, ...)``.

The Fibonacci claims at x = +/-1 are named by their claim ids in binsum:
one direct-sum oracle serves all sixteen value claims, the thm6/thm9 families
share one bracket sum, and each congruence reads its identity's numerator.

``recsums seq`` serves every index through the one doubling kernel, under one
limit; the walk ``seq.term`` is the tests' reference only.
"""

import inspect
import re
from pathlib import Path

import pytest

from recsums import binsum, cli, partsum, seq
from recsums.audit import REGISTRY
from recsums.binsum import CONGRUENCE_CLAIMS
from recsums.polyrat import Polynomial
from recsums.qfield import QuadElem, RecurrenceSpec

SRC = Path(__file__).resolve().parent.parent / "src" / "recsums"


def test_quadelem_is_named_only_where_it_is_the_subject():
    naming = {p.name for p in SRC.glob("*.py")
              if "QuadElem" in p.read_text(encoding="utf-8")}
    assert naming <= {"qfield.py", "binsum.py", "__init__.py"}


@pytest.mark.parametrize("module", ("gfpow.py", "partsum.py"))
def test_closed_form_modules_take_only_the_spec_from_qfield(module):
    text = (SRC / module).read_text(encoding="utf-8")
    assert re.findall(r"from \.qfield import ([^\n]*)", text) == ["RecurrenceSpec"]


def test_polynomials_are_rational_only():
    assert "qfield" not in (SRC / "polyrat.py").read_text(encoding="utf-8")
    with pytest.raises(TypeError):
        Polynomial([QuadElem(1, 1, 5)])


def test_every_value_claim_is_one_comparison():
    own_checks = {"lemma5", *CONGRUENCE_CLAIMS}
    assert own_checks <= set(REGISTRY)
    for cid, claim in REGISTRY.items():
        compared = claim.check.__qualname__.startswith("_compare.")
        assert compared == (cid not in own_checks), cid


def test_a_sequence_is_named_by_its_spec():
    assert not hasattr(seq, "SequenceHandle")
    spec = seq.fibonacci()
    assert isinstance(spec, RecurrenceSpec)
    assert seq.store(spec) is seq.store(RecurrenceSpec(1, 1, 0, 1))


def test_every_sum_takes_spec_power_then_upper_index():
    assert not hasattr(partsum, "PartialSumQuery")
    sums = {f"{mod.__name__}.{name}": fn
            for mod in (partsum, binsum) for name, fn in vars(mod).items()
            if re.fullmatch(r"(partial|binom)_sum_\w+", name)}
    assert len(sums) == 6, sorted(sums)
    for name, fn in sums.items():
        assert list(inspect.signature(fn).parameters)[:3] == ["spec", "r", "n"], name


def test_the_cli_serves_seq_through_the_kernel_under_one_limit():
    calling = [p.name for p in SRC.glob("*.py")
               if "seq.term(" in p.read_text(encoding="utf-8")]
    assert calling == []
    assert [name for name in vars(cli)
            if name.startswith("SEQ_") and name.endswith("LIMIT")] == ["SEQ_LIMIT"]


def test_binsum_names_the_fibonacci_claims_by_claim_id():
    tables = {"families": binsum.WEIGHTED_FAMILIES, "oracle": binsum._FIB_SUMS,
              "numerators": binsum._NUMERATORS,
              "congruences": binsum.CONGRUENCE_CLAIMS}
    for name, table in tables.items():
        assert set(table) <= set(REGISTRY), name
    assert set(CONGRUENCE_CLAIMS.values()) <= set(binsum._NUMERATORS)
    value_claims = {cid for cid in REGISTRY
                    if cid.startswith(("thm6-", "thm9-", "cor7-", "cor10-"))}
    assert set(binsum._FIB_SUMS) == value_claims and len(value_claims) == 16
    assert [name for name in vars(binsum) if name.startswith("_t6_")] == []
    assert not hasattr(binsum, "weighted_family_lhs")
