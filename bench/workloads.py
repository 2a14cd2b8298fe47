"""Seeded operation lists for the three workloads.

An operation is a JSON-ready dict.  ``{"claim": id}`` runs one audit claim;
``{"argv": [...], "check": {...}}`` is one ``recsums.cli.main`` call plus what
the oracle needs to judge its output.  The same (workload, seed) always gives
the same list, and every draw is an input the CLI contract serves (exit 0), so
a failed operation is a signal about the program, never about the generator.

Draws are stratified so that the cost of one pass changes little from seed to
seed: each log-scaled size range is cut into one stratum per query and each
query draws inside its own stratum (see ``_strata``), and every gf-powers spec
comes from a slot whose candidates cost about the same.  The seed still picks every spec,
initial value, size and the order of the queries.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

WORKLOADS = ("audit", "gf-powers", "evaluate")

# Claim ids of the registry at the default grid, in the sorted order run_audit
# and the structured report use.
CLAIMS = (
    "cor-sn1", "cor10-1", "cor10-2", "cor10-3", "cor10-4", "cor10-5",
    "cor11-i", "cor11-ii", "cor7-1", "cor7-2", "cor7-3", "cor7-4", "cor7-5",
    "cor8-i", "cor8-ii", "cor8-iii", "cor8-iv", "cor8-v", "eq1", "eq2", "eq3",
    "lemma5", "thm1-even", "thm1-odd", "thm2-S-4n", "thm2-S-4n+1",
    "thm2-S-4n+2", "thm2-S-4n-1", "thm2-S4n", "thm2-S4n+1", "thm2-S4n-1",
    "thm2-S4n-2", "thm3-even", "thm3-odd", "thm4", "thm6-4r", "thm6-4r2-even",
    "thm6-4r2-odd", "thm9-4r-even", "thm9-4r-odd", "thm9-4r2",
)

# gf-powers: one spec per slot, r = 1..GF_MAX_POWER for each.  The candidates
# of a slot took within about 10% of the same time over that r range in a
# measured run, so the draw changes little but which spec fills each slot.
# Every draw has square, positive non-square and negative discriminants,
# a = 0, (a, b) = (1, -1), and rational initial values.
GF_MAX_POWER = 14
GF_SLOTS = (
    # square discriminant, integer initial values
    ((1, 2, 0, 1), (3, -2, 0, 1)),
    # square discriminant, rational initial values
    ((3, -2, "1/2", "-1"), (1, 2, "1/3", 2)),
    # D = 5 (Fibonacci roots)
    ((1, 1, 0, 1), (-1, 1, 0, 1)),
    # negative discriminant
    ((2, -3, 0, 1), (-1, -3, 0, 1), (2, -3, "1/2", 1)),
    # mid-cost: negative or positive non-square discriminant
    ((1, -3, 0, 1), (1, 1, 2, 1), (1, -3, "1/2", 1)),
    # costlier positive non-square discriminant
    ((1, 3, 0, 1), (1, 1, "-1/2", 2)),
    # costliest: larger |a| or |b|, some with rational initial values
    ((-2, -3, 1, "1/2"), (2, 1, 0, 1), (3, -1, 0, 1), (-1, 1, "2/3", "1/2")),
    # a = 0: roots +-sqrt(b), ratio -1
    ((0, 2, 0, 1), (0, -2, 1, 1), (0, 3, "1/2", 1)),
    # (a, b) = (1, -1): root ratio a primitive sixth root of unity
    ((1, -1, 0, 1), (1, -1, 1, 2)),
    # other root-of-unity ratios, or (1, -1) with rational initial values
    ((2, -2, 1, "-1/3"), (1, -1, "1/2", "-1/3"), (3, -3, 0, 1)),
)

# evaluate: query j takes its (a, b) from family j % 3, so the costliest
# strata always meet the same families.  Within a family the dominant root has
# the same modulus, so the size of U_n at a given n does not depend on the draw.
EVAL_FAMILIES = (
    ((1, 1), (-1, 1)),                        # b = 1, |alpha| = 1.618: `sum` closed form
    ((1, -3), (-1, -3), (2, -3), (-2, -3)),   # complex roots, |alpha| = sqrt(3)
    ((0, 3), (0, -3), (3, -3), (-3, -3)),     # |alpha| = sqrt(3), root ratio of finite order
)
EVAL_INIT = (0, 1, 2, -1, Fraction(1, 2), Fraction(2, 3), Fraction(-1, 3))
EVAL_X = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2), Fraction(1, 3))
EVAL_FAST = (30, 1_000, 1_000_000)     # (queries, n low, n high)
EVAL_WALK = (25, 100, 20_000)
EVAL_BINOM = (30, 10, 4_000)
EVAL_SUM = (30, 10, 2_000)
EVAL_MAX_POWER = 4
_GOLDEN = (math.sqrt(5) - 1) / 2


def _spec_flags(spec) -> list[str]:
    a, b, u0, u1 = spec
    return [f"--a={a}", f"--b={b}", f"--u0={u0}", f"--u1={u1}"]


def _spec_json(spec) -> list[str]:
    return [str(v) for v in spec]


def _strata(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """One log-uniform draw from each of `count` equal log-width strata.

    The offsets within the strata follow a Kronecker sequence from one random
    start, so that each offset is uniform but together they cover [0, 1)
    evenly: the sizes as a whole, and so the cost quantiles, vary little with
    the seed.
    """
    span = math.log(hi) - math.log(lo)
    start = rng.random()
    return [
        min(hi, max(lo, round(lo * math.exp(
            span * (j + (start + j * _GOLDEN) % 1.0) / count))))
        for j in range(count)
    ]


def _gf_ops(rng: random.Random) -> list[dict]:
    ops = []
    for slot in GF_SLOTS:
        spec = rng.choice(slot)
        for r in range(1, GF_MAX_POWER + 1):
            ops.append({
                "argv": ["gf", *_spec_flags(spec), "--power", str(r),
                         "--check-terms", str(3 * r)],
                "check": {"kind": "gf", "spec": _spec_json(spec), "r": r},
            })
    return ops


def _eval_spec(rng: random.Random, j: int, u0_zero: bool = False):
    a, b = rng.choice(EVAL_FAMILIES[j % len(EVAL_FAMILIES)])
    while True:
        u0 = 0 if u0_zero else rng.choice(EVAL_INIT)
        u1 = rng.choice(EVAL_INIT)
        if u0 or u1:
            return a, b, u0, u1


def _eval_ops(rng: random.Random) -> list[dict]:
    ops = []
    for fast, (count, lo, hi) in ((True, EVAL_FAST), (False, EVAL_WALK)):
        for j, n in enumerate(_strata(rng, count, lo, hi)):
            spec = _eval_spec(rng, j)
            argv = ["seq", *_spec_flags(spec), "--n", str(n)]
            ops.append({
                "argv": argv + ["--fast"] if fast else argv,
                "check": {"kind": "seq", "spec": _spec_json(spec), "n": n},
            })
    # r and x cycle along the strata like the spec family, with periods 4 and
    # 5 coprime to 3, so every combination recurs over 60 strata.
    for cmd, kind, (count, lo, hi) in (("binom-sum", "binom", EVAL_BINOM),
                                       ("sum", "sum", EVAL_SUM)):
        for j, n in enumerate(_strata(rng, count, lo, hi)):
            # `sum --both` serves only u0 = 0 (the closed forms assume it)
            spec = _eval_spec(rng, j, u0_zero=(kind == "sum"))
            r = 1 + j % EVAL_MAX_POWER
            x = EVAL_X[j % len(EVAL_X)]
            ops.append({
                "argv": [cmd, *_spec_flags(spec), "--n", str(n), "--power", str(r),
                         f"--x={x}", "--both"],
                "check": {"kind": kind, "spec": _spec_json(spec), "n": n, "r": r,
                          "x": str(x)},
            })
    rng.shuffle(ops)
    return ops


def make_ops(workload: str, seed: int) -> list[dict]:
    """The operation list of one pass of `workload` for `seed`."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "audit":
        # the claim set and order are the paper's; the seed has nothing to vary
        return [{"claim": cid} for cid in CLAIMS]
    if workload == "gf-powers":
        return _gf_ops(rng)
    if workload == "evaluate":
        return _eval_ops(rng)
    raise ValueError(f"unknown workload {workload!r}")
