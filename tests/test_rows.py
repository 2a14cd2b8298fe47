"""Rows of sums against their pointwise values, and the audit's rows.

A row fixes (spec, r, x) and walks n.  The oracle reads every row from the
store's ``PrefixStore.power_row``: a binomial row of several n is one Pascal
sweep over the store's numerators, a plain row one running Horner total.  The
closed form's row steps each Binet pair's integer state (``seq.linear_row``);
a single n is the pointwise sum on both sides, and both refuse a row that is
not a non-empty, ascending list of n >= 0.  The audit hands each row of a
claim to its check, which evaluates it once per side; no row's values outlive
the claim.
"""

import ast
import dataclasses
import gc
import inspect
import re
import textwrap
import weakref
from fractions import Fraction as F

import pytest

from recsums import audit, binsum, gfpow, partsum, seq
from recsums.audit import PELL, REGISTRY, AuditCellError, run_audit
from recsums.cli import main
from recsums.qfield import RecurrenceSpec
from references import power_sum_loop

XS = (F(0), F(1), F(-1), F(2), F(-1, 2), F(1, 3))
# rational initial values throughout; complex roots (1, -3) and the root
# ratios of finite order of (1, -1) and a = 0
SPECS = (RecurrenceSpec(1, -3, F(1, 2), F(-2, 3)),
         RecurrenceSpec(1, -1, F(2, 3), F(-1, 2)),
         RecurrenceSpec(0, 2, 1, F(1, 3)))
TOP = 300
assert seq.SPLIT_CUTOFF < TOP


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_the_sweep_equals_the_pointwise_sum_on_every_n_to_300(spec):
    # below SPLIT_CUTOFF the pointwise sum is the Horner loop, from it the split
    for r in (1, 2, 3, 4):
        for x in XS:
            pointwise = [binsum.binom_sum_direct(spec, r, n, x) for n in range(TOP + 1)]
            assert binsum.binom_row_direct(spec, r, range(TOP + 1), x) == pointwise
            for start in (1, 2):
                ns = range(start, TOP + 1, 2)
                assert binsum.binom_row_direct(spec, r, ns, x) == pointwise[start::2]
            # the plain row, one running total, against the pointwise plain sum
            plain = [partsum.partial_sum_direct(spec, r, n, x) for n in range(TOP + 1)]
            store = seq.store(spec)
            assert store.power_row(r, range(TOP + 1), x, False) == plain
            for ns in (range(1, TOP + 1, 2), [0, 0, 7, 7, 7, 150, TOP, TOP]):
                assert store.power_row(r, ns, x, False) == [plain[n] for n in ns]


@pytest.mark.parametrize("spec", (*SPECS, RecurrenceSpec(1, 1, 0, 1),
                                  RecurrenceSpec(3, -2, 2, 1)), ids=str)
def test_the_stepped_closed_row_equals_the_closed_sum(spec):
    for r in (1, 2, 3, 4):
        for x in XS:
            for ns in (range(0, 40), range(1, 30), range(2, 40), range(7, 60, 3)):
                assert binsum.binom_row_closed(spec, r, ns, x) == [
                    binsum.binom_sum_closed(spec, r, n, x) for n in ns]


def test_a_row_of_one_cell_is_the_pointwise_sum(monkeypatch):
    # one n at or above SPLIT_CUTOFF is split, never swept: the Pascal sweep
    # gives the same values, so only the path it takes shows the choice
    spec = RecurrenceSpec(1, 1, 0, 1)
    splits, additions = [], []
    real_split, real_add = seq._binomial_split, seq.add

    def split(nums, r, n, p, q, lo, hi):
        splits.append((n, lo, hi))
        return real_split(nums, r, n, p, q, lo, hi)

    def add(a, b):
        additions.append(1)
        return real_add(a, b)

    monkeypatch.setattr(seq, "_binomial_split", split)
    monkeypatch.setattr(seq, "add", add)
    store = seq.store(spec)
    pointwise = power_sum_loop(store, 2, 300, 3, True)
    assert binsum.binom_row_direct(spec, 2, [300], 3) == [pointwise]
    assert [cut for cut in splits if cut[1:] == (0, 301)] == [(300, 0, 301)]
    assert not additions
    splits.clear()
    assert binsum.binom_sum_direct(spec, 2, 300, 3) == pointwise
    assert (300, 0, 301) in splits and not additions
    # a row of several n is swept, and a single n below the cutoff is Horner's
    splits.clear()
    assert binsum.binom_row_direct(spec, 2, [299, 300], 3) == [
        power_sum_loop(store, 2, 299, 3, True), pointwise]
    assert not splits and additions
    additions.clear()
    assert binsum.binom_row_direct(spec, 2, [seq.SPLIT_CUTOFF - 1], 3) == [
        power_sum_loop(store, 2, seq.SPLIT_CUTOFF - 1, 3, True)]
    assert not splits and not additions


def test_the_sweep_reads_only_the_store():
    # the oracle stays independent of the closed form it audits; thm2's row,
    # a prefix of the store's numerators, reads no half-companion sequence,
    # and thm3's, prefixes of one series of powers, no Binet pair
    for fn in (seq.PrefixStore.power_row, binsum.binom_row_direct, binsum.corollary_lhs,
               partsum.horadam_direct, audit._partial_sum_truth, gfpow.gf_oracle):
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        named = {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}
        assert not named & {"binet_pairs", "linear_term", "linear_row", "_doubling",
                            "horadam_sums", "pell_q"}, fn


class _Values(list):
    """A row side's values, in a list a weak reference can follow."""


def _spy_rows(monkeypatch, *names):
    """Weak references to every row of values that binsum's row functions
    ``names`` return from here on, and the length of each row."""
    made, lengths = [], []
    for name in names:
        def spy(*args, real=getattr(binsum, name)):
            values = _Values(real(*args))
            made.append(weakref.ref(values))
            lengths.append(len(values))
            return values

        monkeypatch.setattr(binsum, name, spy)
    return made, lengths


def test_each_row_is_walked_once_a_side_and_dropped_with_its_claim(monkeypatch):
    made, lengths = _spy_rows(monkeypatch, "binom_row_direct", "binom_row_closed")
    results = run_audit(["thm4"], 120)
    assert len(results) == 64 * 121 and lengths == [121] * 128
    gc.collect()
    assert all(values() is None for values in made)


def test_rows_are_dropped_when_a_cell_raises(monkeypatch):
    made, lengths = _spy_rows(monkeypatch, "corollary_lhs")
    claim = REGISTRY["cor7-1"]

    def check(cells):
        for cell, verdict in zip(cells, claim.check(cells)):
            if cell["n"] == 3:
                raise ValueError("broken")
            yield verdict

    monkeypatch.setitem(REGISTRY, "cor7-1", dataclasses.replace(claim, check=check))
    with pytest.raises(AuditCellError):
        run_audit(["cor7-1"], max_n=6)
    gc.collect()
    assert lengths == [7] and all(values() is None for values in made)


def test_a_raise_in_a_row_side_names_the_rows_first_cell(monkeypatch, capsys):
    # the sweep runs before any verdict of its row: the row's first cell is due
    real, broken = binsum.binom_row_direct, (PELL, 3, F(-1, 2))

    def row(spec, r, ns, x):
        if (spec, r, x) == broken:
            raise ValueError("a sweep that breaks")
        return real(spec, r, ns, x)

    monkeypatch.setattr(binsum, "binom_row_direct", row)
    with pytest.raises(AuditCellError) as info:
        run_audit(["thm4"])
    assert (info.value.claim_id, info.value.params) == (
        "thm4", {"spec": PELL, "r": 3, "x": F(-1, 2), "n": 0})
    assert main(["audit", "--claims", "thm4"]) == 3
    err = capsys.readouterr().err
    assert "thm4" in err and "a sweep that breaks" in err


def test_a_check_called_on_its_own_reads_a_row_of_one_cell():
    for cid, params in (("thm4", {"spec": RecurrenceSpec(1, 1, 0, 1), "r": 3, "n": 9,
                                  "x": F(-1, 2)}),
                        ("cor10-4", {"n": 6})):
        [result] = [r for r in run_audit([cid]) if r.params == params]
        assert [*REGISTRY[cid].check([params])] == [(result.verdict, result.variant,
                                                     result.witness)]


def test_rows_are_declared_for_the_binomial_claims():
    # a row fixes every param but n: (spec, r, x) for thm4, r or none for the others
    walked = ("thm4", *binsum.FIB_SUMS)
    assert all(REGISTRY[cid].index[0] == "n" for cid in walked)
    axes = {cid: [name for name, _ in REGISTRY[cid].axes] for cid in walked}
    assert axes.pop("thm4") == ["spec", "r", "x"]
    assert all(names in ([], ["r"]) for names in axes.values()), axes


@pytest.mark.parametrize("ns", ([5, 3], [2, 4, 3], [], [-1, 2]), ids=str)
def test_a_row_that_is_not_ascending_n_is_refused_by_name(ns):
    fib = RecurrenceSpec(1, 1, 0, 1)
    for row in (lambda: binsum.binom_row_direct(fib, 2, ns, 1),
                lambda: binsum.binom_row_closed(fib, 2, ns, 1),
                lambda: binsum.corollary_lhs("cor7-1", ns),
                lambda: seq.store(fib).power_row(1, ns, 1, False),
                lambda: seq.linear_row([((1, 1), (0, 1))], ns)):
        with pytest.raises(ValueError, match=re.escape(f"ascending list of n >= 0, not {ns}")):
            row()
    with pytest.raises(ValueError, match=r"not \[\]"):
        partsum.horadam_direct(1, 2, [])
