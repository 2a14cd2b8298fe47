"""Claim registry and grid runner with deterministic verdict reports.

Every closed-form identity served by this package is registered here as a
claim: an independent brute-force oracle, the printed form, and the ids of
its corrected variants, compared over a parameter grid, cell by cell (one
check, built by ``_compare``).  Where a printed subscript, sign, or prefactor
is known to disagree with the oracle, the claim carries variant ids; they are
tried in order, and only when the printed form fails.  A cell whose printed
form fails but whose variant matches reports ``variant-pass`` with the
failing witness attached, so the corrected-identity table is itself a
deliverable.  ``lemma5`` (an identity in Q(sqrt(5))) and the 5-adic
congruences (valuations, not values) have checks of their own.

Reports are fully deterministic: same selection and grid, byte-identical
structured output (no timestamps, sorted keys, stable cell ordering).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import binsum, gfpow, partsum, seq
from .polyrat import Polynomial, RationalFunction, rf_to_text
from .qfield import RecurrenceSpec


class UnknownClaimError(ValueError):
    pass


class AuditCellError(RuntimeError):
    """A claim's check raised on one cell; names the claim and the cell.

    Not a ValueError, so the CLI reports it as an internal-consistency error
    (exit 3) rather than as a usage error."""

    def __init__(self, claim_id: str, params: dict, cause: Exception):
        super().__init__(f"claim {claim_id} at {_params_json(params)}: "
                         f"{type(cause).__name__}: {cause}")
        self.claim_id = claim_id
        self.params = params


@dataclass(frozen=True)
class Claim:
    id: str
    description: str
    hypotheses: tuple[str, ...]
    grid: Callable[[int | None], list[dict]]
    check: Callable[[dict], tuple[str, str | None, dict | None]]


@dataclass(frozen=True)
class AuditResult:
    claim_id: str
    params: dict
    verdict: str  # "pass" | "fail" | "variant-pass"
    variant: str | None = None
    witness: dict | None = None


def _fmt(value) -> str:
    if isinstance(value, RationalFunction):
        return rf_to_text(value)
    if isinstance(value, Polynomial):
        return rf_to_text(RationalFunction(value, Polynomial([1])))
    return str(value)


# --- grids -------------------------------------------------------------------

GF_AB = ((1, 1), (2, 1), (1, 2), (3, -2), (1, -3))
GF_INITS = ((0, 1), (2, 1))
FIB = RecurrenceSpec(1, 1, 0, 1)
PELL = RecurrenceSpec(2, 1, 0, 1)
B1_SPECS = (FIB, PELL)
THM4_SPECS = (FIB, PELL, RecurrenceSpec(1, 2, 0, 1), RecurrenceSpec(3, -2, 2, 1))
HORADAM_PQ = ((1, 2), (1, 3), (2, 5))


def _cap(default: int, max_n: int | None, hard: int | None = None) -> int:
    n = default if max_n is None else max_n
    if hard is not None:
        n = min(n, hard)
    return n


def _n_range(lo: int, default_hi: int, max_n, step: int = 1, hard=None):
    return list(range(lo, _cap(default_hi, max_n, hard) + 1, step))


# --- checkers ----------------------------------------------------------------


def _compare(truth, form, variants=()):
    """Check that compares truth(cell) with form(cell, "printed").

    When they differ, form(cell, vid) is built for each variant id in turn,
    and the first match gives ``variant-pass``; no variant is built for a
    cell whose printed form holds.
    """
    def check(cell):
        lhs = truth(cell)
        printed = form(cell, "printed")
        if lhs == printed:
            return "pass", None, None
        witness = {"lhs": _fmt(lhs), "rhs": _fmt(printed)}
        for vid in variants:
            value = form(cell, vid)
            if value == lhs:
                witness["variant_rhs"] = _fmt(value)
                return "variant-pass", vid, witness
        return "fail", None, witness

    return check


# variant id -> gfpow.paired_form style
_THM1_STYLES = {"printed": "printed", "with-x": "b1", "general-b": "general"}


def _thm1_truth(cell):
    return gfpow.gf_power(cell["spec"], cell["r"])


def _thm1_form(cell, vid):
    return gfpow.paired_form(cell["spec"], cell["r"], _THM1_STYLES[vid])


def _partial_sum_truth(cell):
    # cor-sn1 cells carry no r: that corollary sums first powers
    return RationalFunction(
        partsum.partial_sum_direct(cell["spec"], cell.get("r", 1), cell["n"]),
        Polynomial([1]))


def _thm3_form(cell, vid):
    # "proof-derived" is the corrected form
    fn = partsum.partial_sum_printed if vid == "printed" else partsum.partial_sum_closed
    return fn(cell["spec"], cell["r"], cell["n"])


def _fib_sum_truth(cid):
    return lambda c: binsum.corollary_lhs(cid, c["n"], c.get("r", 0))


def _check_lemma5(cell):
    ok, value = binsum.root_power_collapse(cell["s"], cell["sign"])
    if ok:
        return "pass", None, None
    return "fail", None, {"lhs": str(value), "rhs": "collapse identity"}


def _check_congruence(claim):
    def check(cell):
        n = cell["n"]
        r = cell.get("r", 0)
        lhs = binsum.congruence_lhs(claim, n, r)
        exps = binsum.congruence_exponents(claim, n, r)
        val = binsum.padic_valuation(lhs)
        witness = {"lhs": str(lhs),
                   "valuation": "infinite" if val is None else str(val)}
        for name, e in exps.items():
            witness[f"{name}_exponent"] = str(e)
        if binsum.divisible_by_5_pow(lhs, exps["printed"]):
            if "implied" in exps:
                return "pass", None, witness
            return "pass", None, None
        if "implied" in exps and binsum.divisible_by_5_pow(lhs, exps["implied"]):
            return "variant-pass", "implied-exponent", witness
        return "fail", None, witness

    return check


# --- registry ----------------------------------------------------------------


def _gf_specs():
    return [RecurrenceSpec(a, b, u0, u1) for a, b in GF_AB for u0, u1 in GF_INITS]


def _build_registry() -> dict[str, Claim]:
    claims: list[Claim] = []

    claims.append(Claim(
        "thm1-odd",
        "odd-power generating function: paired terms with quadratic "
        "denominators; printed middle term lacks x and the x^2 coefficient "
        "is a bare -1 (exact pair product has (-b)^r x^2)",
        ("r odd",),
        lambda max_n: [{"spec": s, "r": r} for s in _gf_specs() for r in (1, 3, 5)],
        _compare(_thm1_truth, _thm1_form, ("with-x", "general-b")),
    ))
    claims.append(Claim(
        "thm1-even",
        "even-power generating function: paired terms plus the simple middle "
        "pole; printed x^2 coefficient +1 and middle pole 1/(1-(-1)^{r/2}x) "
        "(exact values are (-b)^r and (-b)^{r/2})",
        ("r even",),
        lambda max_n: [{"spec": s, "r": r} for s in _gf_specs() for r in (2, 4, 6)],
        _compare(_thm1_truth, _thm1_form, ("general-b",)),
    ))
    claims.append(Claim(
        "eq1",
        "first-power display A^2 U_1 x/(1 - V_1 x - x^2); the closed form's "
        "r = 1 prefactor is A^0 = 1, so the printed A^2 is spurious",
        ("b=1", "u0=0"),
        lambda max_n: [{"spec": s} for s in B1_SPECS],
        _compare(lambda c: gfpow.gf_power(c["spec"], 1),
                 lambda c, v: gfpow.display_r1(c["spec"], v), ("unit-prefactor",)),
    ))
    claims.append(Claim(
        "eq2",
        "square display -A^2(V_2+2) x (x-1) / ((x+1)(x^2 - V_2 x + 1))",
        ("b=1", "u0=0"),
        lambda max_n: [{"spec": s} for s in B1_SPECS],
        _compare(lambda c: gfpow.gf_power(c["spec"], 2),
                 lambda c, _: gfpow.display_r2(c["spec"])),
    ))
    claims.append(Claim(
        "eq3",
        "cube display A^4 U_1 x((a^2+2b) - 2a^2 b x - (a^2+2b) x^2) over "
        "(1 - V_3 x - x^2)(1 + b V_1 x - x^2); fails even at a = b = 1 "
        "(prefactor should be A^2 with the binomial weight 3 kept, giving "
        "U_1^3 x (1 - 2ab x - x^2) over the same denominator)",
        ("b=1", "u0=0"),
        lambda max_n: [{"spec": s} for s in B1_SPECS],
        _compare(lambda c: gfpow.gf_power(c["spec"], 3),
                 lambda c, v: gfpow.display_r3(c["spec"], v), ("proof-consistent",)),
    ))

    for name in partsum.HORADAM_VARIANTS:
        desc = f"generalized Pell partial sum {name} via the half-companion sequence"
        variants = ()
        if name == "S4n-1":
            desc += "; printed tail -q is off by q-p, the exact tail is -p"
            variants = ("minus-p",)
        claims.append(Claim(
            f"thm2-{name}", desc, ("n>=1",),
            lambda max_n: [
                {"pq": pq, "n": n}
                for pq in HORADAM_PQ
                for n in _n_range(1, 25, max_n)
            ],
            _compare(
                lambda c, name=name: partsum.horadam_direct(
                    *c["pq"], partsum.horadam_index(name, c["n"])),
                lambda c, v, name=name: partsum.horadam_sums(
                    *c["pq"], name, c["n"], corrected=v == "minus-p"),
                variants),
        ))

    claims.append(Claim(
        "thm3-odd",
        "odd-power partial sum: numerators U_{r-2k} x - (-1)^{kn} "
        "U_{(r-2k)(n+1)} x^{n+1} - (-1)^{k(n+1)} U_{(r-2k)n} x^{n+2}",
        ("b=1", "u0=0"),
        lambda max_n: [
            {"spec": s, "r": r, "n": n}
            for s in B1_SPECS for r in (1, 3)
            for n in _n_range(0, 12, max_n, hard=partsum.SYMBOLIC_LIMIT - 2)
        ],
        _compare(_partial_sum_truth, _thm3_form),
    ))
    claims.append(Claim(
        "thm3-even",
        "even-power partial sum: the printed numerator flips two signs, drops "
        "the constant 2(-1)^k, and omits (-1)^{r/2} on the middle term; the "
        "derivation-consistent form passes",
        ("b=1", "u0=0"),
        lambda max_n: [
            {"spec": s, "r": r, "n": n}
            for s in B1_SPECS for r in (2, 4)
            for n in _n_range(0, 12, max_n, hard=partsum.SYMBOLIC_LIMIT - 2)
        ],
        _compare(_partial_sum_truth, _thm3_form, ("proof-derived",)),
    ))
    claims.append(Claim(
        "cor-sn1",
        "first-power partial sum display x(U_1 - U_{n+1} x^n - U_n x^{n+2}) / "
        "(1 - V_1 x - x^2); the last inner exponent should be n+1",
        ("b=1", "u0=0"),
        lambda max_n: [
            {"spec": s, "n": n}
            for s in B1_SPECS
            for n in _n_range(0, 20, max_n, hard=partsum.SYMBOLIC_LIMIT - 2)
        ],
        _compare(_partial_sum_truth,
                 lambda c, v: partsum.corollary_r1(c["spec"], c["n"], v),
                 ("shifted-exponent",)),
    ))

    claims.append(Claim(
        "thm4",
        "binomial-weighted sum equals sum_k C(r,k) A^k (-B)^{r-k} "
        "(1 + alpha^k beta^{r-k} x)^n for every nondegenerate spec",
        (),
        lambda max_n: [
            {"spec": s, "r": r, "n": n, "x": x}
            for s in THM4_SPECS
            for r in (1, 2, 3, 4)
            for n in _n_range(0, 10, max_n)
            for x in (Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2))
        ],
        _compare(
            lambda c: binsum.binom_sum_direct(c["spec"], c["r"], c["n"], c["x"]),
            lambda c, _: binsum.binom_sum_closed(c["spec"], c["r"], c["n"], c["x"])),
    ))
    claims.append(Claim(
        "lemma5",
        "golden-root power collapses alpha^{2s} -+ (-1)^s = sqrt(5) alpha^s F_s "
        "/ L_s alpha^s and the beta companions, exact in Q(sqrt(5))",
        (),
        lambda max_n: [
            {"s": s, "sign": sign}
            for s in _n_range(0, 64, max_n)
            for sign in (1, -1)
        ],
        _check_lemma5,
    ))

    weighted = (
        ("thm6-4r",
         "sum C(n,i) F_i^{4r} = 5^{-2r}(sum_k (-1)^{k(n+1)} C(4r,k) L_{2r-k}^n "
         "L_{(2r-k)n} + C(4r,2r) 2^n)",
         ("r>=1", "n>=1"), (1, 2), 1, 1, ()),
        ("thm6-4r2-odd",
         "sum C(n,i) F_i^{4r+2} = 5^{(n+1)/2-(2r+1)} sum_k C(4r+2,k) "
         "F_{2r+1-k}^n F_{n(2r+1-k)} for odd n",
         ("n odd", "n>=1"), (0, 1, 2), 1, 2, ()),
        ("thm6-4r2-even",
         "sum C(n,i) F_i^{4r+2} = 5^{n/2-(2r+1)} sum_k (-1)^k C(4r+2,k) "
         "F_{2r+1-k}^n L_{n(2r+1-k)} for even n",
         ("n even", "n>=2"), (0, 1, 2), 2, 2, ()),
        ("thm9-4r-even",
         "alternating sum of F_i^{4r}: printed subscript L_{(4r-2k)n} doubles "
         "the derivation's (2r-k)n",
         ("n even", "n>=2", "r>=1"), (1, 2), 2, 2, ("half-subscript",)),
        ("thm9-4r-odd",
         "alternating sum of F_i^{4r}: printed subscript F_{(4r-2k)n} doubles "
         "the derivation's (2r-k)n",
         ("n odd", "n>=1", "r>=1"), (1, 2), 1, 2, ("half-subscript",)),
        ("thm9-4r2",
         "alternating sum of F_i^{4r+2} via L_{2r+1-k}^n L_{(2r+1-k)n} minus "
         "the 2^n middle binomial",
         ("n>=1",), (0, 1, 2), 1, 1, ()),
    )
    for cid, desc, hyp, rs, n_lo, n_step, variants in weighted:
        claims.append(Claim(
            cid, desc, hyp,
            (lambda rs=rs, n_lo=n_lo, n_step=n_step: lambda max_n: [
                {"r": r, "n": n}
                for r in rs
                for n in _n_range(n_lo, 20, max_n, step=n_step)
            ])(),
            _compare(
                _fib_sum_truth(cid),
                lambda c, v, cid=cid: binsum.fib_weighted_closed(
                    cid, c["r"], c["n"], v),
                variants),
        ))

    corollaries = (
        ("cor7-1", "sum C(n,i) F_i = F_{2n}", (), 0, 1),
        ("cor7-2", "sum_{i<=n} C(n,i) F_i^2 = 5^{n/2-1} L_n for even n "
                   "(fails at n = 0: 0 vs 2/5)", ("n even", "n>=2"), 2, 2),
        ("cor7-3", "sum_{i<=n} C(n,i) F_i^2 = 5^{(n-1)/2} F_n for odd n",
         ("n odd",), 1, 2),
        ("cor7-4", "sum C(n,i) F_i^3 = (2^n F_{2n} + 3 F_n)/5", (), 0, 1),
        ("cor7-5", "sum C(n,i) F_i^4 = (3^n L_{2n} - 4(-1)^n L_n + 6*2^n)/25",
         (), 0, 1),
        ("cor10-1", "sum (-1)^i C(n,i) F_i = -F_n", (), 0, 1),
        ("cor10-2", "sum (-1)^i C(n,i) F_i^2 = ((-1)^n L_n - 2^{n+1})/5",
         (), 0, 1),
        ("cor10-3", "sum (-1)^i C(n,i) F_i^3 = ((-2)^n F_n - 3 F_{2n})/5",
         (), 0, 1),
        ("cor10-4", "sum (-1)^i C(n,i) F_i^4 for even n: printed "
                    "5^{n/2-2}(L_{2n} - L_n); the consistent coefficient is 4",
         ("n even", "n>=2"), 2, 2),
        ("cor10-5", "sum (-1)^i C(n,i) F_i^4 = -5^{(n+1)/2-2}(F_{2n} + 4 F_n) "
                    "for odd n", ("n odd",), 1, 2),
    )
    for cid, desc, hyp, lo, step in corollaries:
        variants = ("times-4",) if cid == "cor10-4" else ()
        claims.append(Claim(
            cid, desc, hyp,
            (lambda lo=lo, step=step: lambda max_n: [
                {"n": n} for n in _n_range(lo, 100, max_n, step=step)
            ])(),
            _compare(
                _fib_sum_truth(cid),
                lambda c, v, cid=cid: binsum.corollary_rhs(cid, c["n"], v),
                variants),
        ))

    congruences = (
        ("cor8-i", "2^n F_{2n} + 3 F_n == 0 mod 5", ()),
        ("cor8-ii", "3^n L_{2n} - 4(-1)^n L_n + 6*2^n == 0 mod 25", ()),
        ("cor8-v", "the L-power sum with its 2^n middle binomial is divisible "
                   "by 5^{2r}", ("r in 1..3",)),
        ("cor11-i", "(-1)^n L_n - 2^{n+1} == 0 mod 5", ()),
        ("cor11-ii", "(-2)^n F_n - 3 F_{2n} == 0 mod 5", ()),
    )
    for cid, desc, hyp in congruences:
        if cid == "cor8-v":
            grid = lambda max_n: [
                {"r": r, "n": n} for r in (1, 2, 3) for n in _n_range(0, 100, max_n)
            ]
        else:
            grid = lambda max_n: [{"n": n} for n in _n_range(0, 100, max_n)]
        claims.append(Claim(cid, desc, hyp, grid, _check_congruence(cid)))

    claims.append(Claim(
        "cor8-iii",
        "F-power sum divisibility for odd n <= 8r+3: printed exponent "
        "4r+2-(n-1)/2 vs the integrality-implied 2r+1-(n+1)/2",
        ("n odd", "n<=8r+3"),
        lambda max_n: [
            {"r": r, "n": n}
            for r in (0, 1, 2, 3)
            for n in _n_range(1, 8 * r + 3, max_n, step=2, hard=8 * r + 3)
        ],
        _check_congruence("cor8-iii"),
    ))
    claims.append(Claim(
        "cor8-iv",
        "L-power sum divisibility for even n <= 8r+2: printed exponent "
        "4r+2-n/2 vs the integrality-implied 2r+1-n/2",
        ("n even", "n>=2", "n<=8r+2"),
        lambda max_n: [
            {"r": r, "n": n}
            for r in (0, 1, 2, 3)
            for n in _n_range(2, 8 * r + 2, max_n, step=2, hard=8 * r + 2)
        ],
        _check_congruence("cor8-iv"),
    ))

    return {c.id: c for c in claims}


REGISTRY = _build_registry()


# --- runner and reports --------------------------------------------------------


def _cell_key(params: dict):
    return tuple(
        (k, (0, v) if isinstance(v, int) else (1, str(v)))
        for k, v in sorted(params.items())
    )


def run_audit(selection="all", max_n: int | None = None) -> list[AuditResult]:
    """Evaluate the selected claims cell by cell; deterministic ordering."""
    if isinstance(selection, str):
        selection = [selection]
    if list(selection) == ["all"]:
        ids = sorted(REGISTRY)
    else:
        ids = sorted(selection)
        for cid in ids:
            if cid not in REGISTRY:
                raise UnknownClaimError(f"unknown claim id {cid!r}")
    results = []
    for cid in ids:
        claim = REGISTRY[cid]
        for params in sorted(claim.grid(max_n), key=_cell_key):
            try:
                verdict, variant, witness = claim.check(params)
            except Exception as exc:
                raise AuditCellError(cid, params, exc) from exc
            results.append(AuditResult(cid, params, verdict, variant, witness))
    return results


def _params_json(params: dict) -> dict:
    out = {}
    for k, v in params.items():
        if isinstance(v, int):
            out[k] = v
        elif isinstance(v, tuple):
            out[k] = ",".join(str(x) for x in v)
        else:
            out[k] = str(v)
    return out


def structured_report(results: list[AuditResult], selection="all",
                      max_n: int | None = None) -> dict:
    """Stable report object: run metadata, claims, cells, totals.

    Exact integers and rationals are serialized as decimal strings inside
    params and witnesses, so no precision is lost in transport.
    """
    if isinstance(selection, str):
        selection = [selection]
    claims = []
    by_claim: dict[str, list[AuditResult]] = {}
    for r in results:
        by_claim.setdefault(r.claim_id, []).append(r)
    for cid in sorted(by_claim):
        cells = []
        totals = {"pass": 0, "variant_pass": 0, "fail": 0}
        for r in by_claim[cid]:
            totals[r.verdict.replace("-", "_")] += 1
            cell = {"params": _params_json(r.params), "verdict": r.verdict}
            if r.variant is not None:
                cell["variant"] = r.variant
            if r.witness is not None:
                cell["witness"] = r.witness
            cells.append(cell)
        entry = {"id": cid, "cells": cells, "totals": totals}
        if cid in REGISTRY:
            entry["description"] = REGISTRY[cid].description
            entry["hypotheses"] = list(REGISTRY[cid].hypotheses)
        claims.append(entry)
    return {
        "run": {
            "tool": "recsums",
            "schema_version": 1,
            "selection": sorted(selection),
            "max_n": max_n,
        },
        "claims": claims,
    }


def structured_report_text(results, selection="all", max_n=None) -> str:
    return json.dumps(
        structured_report(results, selection, max_n),
        sort_keys=True, indent=2,
    ) + "\n"


def text_report(results: list[AuditResult]) -> str:
    """One line per claim and one per cell that did not pass, rendered from
    the structured report's claims."""
    if not results:
        return "nothing run: no cells evaluated\n"
    claims = structured_report(results)["claims"]
    lines = []
    for claim in claims:
        counts = claim["totals"]
        lines.append(
            f"claim {claim['id']}: cells={len(claim['cells'])} "
            f"pass={counts['pass']} variant-pass={counts['variant_pass']} "
            f"fail={counts['fail']}"
        )
        for cell in claim["cells"]:
            if cell["verdict"] == "pass":
                continue
            params = " ".join(f"{k}={v}" for k, v in cell["params"].items())
            tag = (f"variant-pass via {cell['variant']}" if "variant" in cell
                   else "FAIL")
            detail = ""
            if cell.get("witness"):
                detail = "  " + " ".join(
                    f"{k}={v}" for k, v in cell["witness"].items())
            lines.append(f"  [{tag}] {params}{detail}")
    totals = {v: sum(c["totals"][v] for c in claims)
              for v in ("pass", "variant_pass", "fail")}
    lines.append(
        f"total: claims={len(claims)} cells={len(results)} "
        f"pass={totals['pass']} variant-pass={totals['variant_pass']} "
        f"fail={totals['fail']}"
    )
    return "\n".join(lines) + "\n"


def report(results: list[AuditResult], fmt: str = "text",
           selection="all", max_n=None) -> str:
    if fmt == "structured":
        return structured_report_text(results, selection, max_n)
    return text_report(results)


def has_unexplained_failure(results: list[AuditResult]) -> bool:
    return any(r.verdict == "fail" for r in results)
