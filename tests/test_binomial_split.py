"""The binomial-weighted oracle's binary splitting against the plain loop it
replaces from ``seq.SPLIT_CUTOFF`` on, and the CLI's output above the cutoff
pinned as the loop printed it."""

import hashlib
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from recsums import binsum, partsum, seq  # noqa: E402
from recsums.cli import main  # noqa: E402
from recsums.qfield import RecurrenceSpec  # noqa: E402
from references import power_sum_loop  # noqa: E402

CUT, LEAF = seq.SPLIT_CUTOFF, seq.SPLIT_LEAF
# n + 1 terms: around the cutoff, halving down to leaves of exactly LEAF
# terms (LEAF 2^k), to one term more (LEAF 2^k + 1), and to LEAF + 1 terms
SIZES = (CUT - 1, CUT, CUT + 1, 2 * CUT + 1, 1000,
         LEAF * 32 - 1, LEAF * 32, (LEAF + 1) * 16 - 1)
XS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2),
      Fraction(1, 3), Fraction(-5, 7))
# discriminants 5, 9 (square), -11 and -8 (negative); a = 0 and (1, -1) give
# a root ratio of finite order
AB = ((1, 1), (1, 2), (1, -3), (2, -3), (0, 3), (0, -2), (1, -1))
rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def specs(draw):
    a, b = draw(st.sampled_from(AB))
    return RecurrenceSpec(a, b, draw(rationals), draw(rationals))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(spec=specs(), r=st.integers(1, 4), x=st.sampled_from(XS),
       n=st.sampled_from(SIZES))
@example(spec=RecurrenceSpec(1, 2, Fraction(2, 3), Fraction(-5, 4)), r=4,
         x=Fraction(-5, 7), n=CUT)
@example(spec=RecurrenceSpec(1, -3, Fraction(1, 2), 1), r=3, x=Fraction(2), n=CUT + 1)
@example(spec=RecurrenceSpec(0, 3, Fraction(1, 2), 1), r=2, x=Fraction(1, 3), n=1000)
@example(spec=RecurrenceSpec(1, -1, 1, 2), r=4, x=Fraction(-1), n=LEAF * 32)
@example(spec=RecurrenceSpec(1, 1, 0, 1), r=1, x=Fraction(0), n=2 * CUT + 1)
def test_binomial_split_equals_loop(spec, r, x, n):
    store = seq.store(spec)
    assert binsum.binom_sum_direct(spec, r, n, x) == power_sum_loop(store, r, n, x, True)
    assert partsum.partial_sum_direct(spec, r, n, x) == power_sum_loop(store, r, n, x, False)


def test_split_serves_binomial_sums_from_the_cutoff(monkeypatch):
    def refuse(*args):
        raise AssertionError("split")

    monkeypatch.setattr(seq, "_binomial_split", refuse)
    spec = seq.fibonacci()
    binsum.binom_sum_direct(spec, 2, CUT - 1, 3)
    for n in (CUT - 1, CUT, 1000):
        partsum.partial_sum_direct(spec, 2, n, 3)
    with pytest.raises(AssertionError, match="split"):
        binsum.binom_sum_direct(spec, 2, CUT, 3)


# stdout of `binom-sum --direct` above the cutoff, as the loop printed it
PINNED = (
    (("binom-sum", "--preset", "fibonacci", "--power", "1", "--x", "1", "--direct",
      "--n", "1000"),
     "f844911bd8d3bc69010d9cc922b16c9baa6023e196ed1d051a1679831f6a8dbf"),
    (("binom-sum", "--a=1", "--b=-3", "--u0=1/2", "--u1=1", "--power", "4", "--x=2",
      "--direct", "--n", "700"),
     "de03e214865c13512f20f36ecd9f7530c1ac846ac927b5ad333931e8f64175f4"),
    (("binom-sum", "--a=0", "--b=3", "--u0=2/3", "--u1=-1", "--power", "3",
      "--x=-5/7", "--direct", "--n", "513"),
     "4c91139e0572ffbd57f2ab0b34a9757b90c01f1de6434730ddc8e1ea3bcce07f"),
)


@pytest.mark.parametrize("argv, digest", PINNED)
def test_direct_binomial_output_is_pinned(capsys, argv, digest):
    assert main(list(argv)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
