"""Claim registry and grid runner with deterministic verdict reports.

Every closed-form identity served by this package is registered here as a
claim: an independent brute-force oracle, the printed form, and the ids of
its corrected variants, compared over a parameter grid (one check, built by
``_compare``).  Where a printed subscript, sign, or prefactor is known to
disagree with the oracle, the claim carries variant ids; they are tried in
order, and only for a cell whose printed form fails.  A cell whose printed
form fails but whose variant matches reports ``variant-pass`` with the
failing witness attached, so the corrected-identity table is itself a
deliverable.  ``lemma5`` (an identity in Q(sqrt(5))) and the 5-adic
congruences (valuations, not values) have checks of their own.

Every claim declares its grid as data: its axes, the params that fix a row,
each with its values, and, for a claim whose cells walk an index along each
row, that index's first and last value, stride and ceiling.  ``Claim.rows``
reads every grid off its declaration as rows of cells (one cell a row for a
claim without an index).  A check takes one row and yields its verdicts.  The
oracles of thm2, thm3, cor-sn1, thm4 and the Fibonacci sums at x = +/-1, and
thm4's closed form, evaluate a whole row at once; a pointwise side is wrapped
by ``_each``.  A row's values live only while its check runs.

Reports are fully deterministic: same selection and grid, byte-identical
structured output (no timestamps, sorted keys, stable cell ordering).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Iterator

from . import binsum, gfpow, partsum, seq
from .polyrat import RationalFunction, _text, rf_to_text
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
    """A printed identity and its grid.  ``axes`` pairs each param that fixes
    a row with its values, in cell-key order; ``index`` is the param walked
    along each row, as (name, first, last, stride, ceiling).  ``--max-n`` replaces
    ``last`` but never passes ``ceiling``; either may be a function of the
    row's axes.  ``check`` takes one row of cells and is a generator of one
    (verdict, variant, witness) per cell."""
    id: str
    description: str
    hypotheses: tuple[str, ...]
    axes: tuple[tuple[str, tuple], ...]
    index: tuple | None
    check: Callable[[list[dict]], Iterator[tuple[str, str | None, dict | None]]]

    def rows(self, max_n: int | None = None) -> list[list[dict]]:
        """Every row with a cell, as its cells: a point of the product of the
        axes, with each value of the index's range when the claim has one."""
        rows, names = [], [name for name, _ in self.axes]
        for point in product(*(values for _, values in self.axes)):
            row = dict(zip(names, point))
            if self.index is None:
                rows.append([row])
                continue
            name, first, last, stride, ceiling = self.index
            top = _at(last, row) if max_n is None else max_n
            if ceiling is not None:
                top = min(top, _at(ceiling, row))
            if top >= first:
                rows.append([{**row, name: n} for n in range(first, top + 1, stride)])
        return rows


def _at(bound, row: dict) -> int:
    """An index bound: a number, or a function of the row's axes."""
    return bound(**row) if callable(bound) else bound


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
    return _text(value)


# --- grids -------------------------------------------------------------------

GF_SPECS = tuple(RecurrenceSpec(a, b, u0, u1)
                 for a, b in ((1, 1), (2, 1), (1, 2), (3, -2), (1, -3))
                 for u0, u1 in ((0, 1), (2, 1)))
FIB = RecurrenceSpec(1, 1, 0, 1)
PELL = RecurrenceSpec(2, 1, 0, 1)
B1_SPECS = (FIB, PELL)
THM4_SPECS = (FIB, PELL, RecurrenceSpec(1, 2, 0, 1), RecurrenceSpec(3, -2, 2, 1))
HORADAM_PQ = ((1, 2), (1, 3), (2, 5))


# --- checkers ----------------------------------------------------------------


def _each(fn):
    """A pointwise side fn(cell, *args) as a row side, evaluated a cell at a
    time as the row's verdicts are drawn."""
    return lambda cells, *args: (fn(cell, *args) for cell in cells)


def _ns(cells) -> list[int]:
    return [cell["n"] for cell in cells]


def _compare(truth, form, variants=()):
    """Check that compares truth(cells) with form(cells, "printed") along a row.

    Where they differ at a cell, form([cell], vid) is built for each variant
    id in turn, and the first match gives ``variant-pass``; no variant is
    built for a cell whose printed form holds.
    """
    def check(cells):
        for cell, lhs, printed in zip(cells, truth(cells), form(cells, "printed")):
            if lhs == printed:
                yield "pass", None, None
                continue
            witness = {"lhs": _fmt(lhs), "rhs": _fmt(printed)}
            vid = next((vid for vid in variants if [*form([cell], vid)] == [lhs]), None)
            if vid is not None:
                witness["variant_rhs"] = witness["lhs"]   # the variant's value is lhs
            yield "fail" if vid is None else "variant-pass", vid, witness

    return check


# variant id -> gfpow.paired_form style
_THM1_STYLES = {"printed": "printed", "with-x": "b1", "general-b": "general"}


@_each
def _thm1_truth(cell):
    return gfpow.gf_power(cell["spec"], cell["r"])


@_each
def _thm1_form(cell, vid):
    return gfpow.paired_form(cell["spec"], cell["r"], _THM1_STYLES[vid])


def _partial_sum_truth(cells):
    # prefixes of one series of U_i^r; cor-sn1 cells carry no r: it sums U_i
    series = gfpow.gf_oracle(cells[0]["spec"], cells[0].get("r", 1), cells[-1]["n"] + 1)
    return [RationalFunction(series[:cell["n"] + 1], [1]) for cell in cells]


@_each
def _thm3_form(cell, vid):
    # "proof-derived" is the corrected form
    fn = partsum.partial_sum_printed if vid == "printed" else partsum.partial_sum_closed
    return fn(cell["spec"], cell["r"], cell["n"])


def _thm4_args(cells) -> tuple:
    """(spec, r, ns, x) of a thm4 row, as binsum's row functions take them."""
    return cells[0]["spec"], cells[0]["r"], _ns(cells), cells[0]["x"]


@_each
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
        witness = {"lhs": _text(lhs),
                   "valuation": "infinite" if val is None else _text(val)}
        for name, e in exps.items():
            witness[f"{name}_exponent"] = _text(e)
        # 5^e divides lhs: always for lhs = 0 (val None) and for e <= 0
        held = {name for name, e in exps.items() if val is None or val >= e}
        if "printed" in held:
            return "pass", None, witness if "implied" in exps else None
        if "implied" in held:
            return "variant-pass", "implied-exponent", witness
        return "fail", None, witness

    return _each(check)


# --- registry ----------------------------------------------------------------


def _build_registry() -> dict[str, Claim]:
    claims: list[Claim] = []

    claims.append(Claim(
        "thm1-odd",
        "odd-power generating function: paired terms with quadratic "
        "denominators; printed middle term lacks x and the x^2 coefficient "
        "is a bare -1 (exact pair product has (-b)^r x^2)",
        ("r odd",),
        (("spec", GF_SPECS), ("r", (1, 3, 5))), None,
        _compare(_thm1_truth, _thm1_form, ("with-x", "general-b")),
    ))
    claims.append(Claim(
        "thm1-even",
        "even-power generating function: paired terms plus the simple middle "
        "pole; printed x^2 coefficient +1 and middle pole 1/(1-(-1)^{r/2}x) "
        "(exact values are (-b)^r and (-b)^{r/2})",
        ("r even",),
        (("spec", GF_SPECS), ("r", (2, 4, 6))), None,
        _compare(_thm1_truth, _thm1_form, ("general-b",)),
    ))
    claims.append(Claim(
        "eq1",
        "first-power display A^2 U_1 x/(1 - V_1 x - x^2); the closed form's "
        "r = 1 prefactor is A^0 = 1, so the printed A^2 is spurious",
        ("b=1", "u0=0"),
        (("spec", B1_SPECS),), None,
        _compare(_each(lambda c: gfpow.gf_power(c["spec"], 1)),
                 _each(lambda c, v: gfpow.display_r1(c["spec"], v)), ("unit-prefactor",)),
    ))
    claims.append(Claim(
        "eq2",
        "square display -A^2(V_2+2) x (x-1) / ((x+1)(x^2 - V_2 x + 1))",
        ("b=1", "u0=0"),
        (("spec", B1_SPECS),), None,
        _compare(_each(lambda c: gfpow.gf_power(c["spec"], 2)),
                 _each(lambda c, _: gfpow.display_r2(c["spec"]))),
    ))
    claims.append(Claim(
        "eq3",
        "cube display A^4 U_1 x((a^2+2b) - 2a^2 b x - (a^2+2b) x^2) over "
        "(1 - V_3 x - x^2)(1 + b V_1 x - x^2); fails even at a = b = 1 "
        "(prefactor should be A^2 with the binomial weight 3 kept, giving "
        "U_1^3 x (1 - 2ab x - x^2) over the same denominator)",
        ("b=1", "u0=0"),
        (("spec", B1_SPECS),), None,
        _compare(_each(lambda c: gfpow.gf_power(c["spec"], 3)),
                 _each(lambda c, v: gfpow.display_r3(c["spec"], v)), ("proof-consistent",)),
    ))

    for name in partsum.HORADAM_VARIANTS:
        desc = f"generalized Pell partial sum {name} via the half-companion sequence"
        variants = ()
        if name == "S4n-1":
            desc += "; printed tail -q is off by q-p, the exact tail is -p"
            variants = ("minus-p",)
        claims.append(Claim(
            f"thm2-{name}", desc, ("n>=1",),
            (("pq", HORADAM_PQ),), ("n", 1, 25, 1, None),
            _compare(
                lambda cs, name=name: partsum.horadam_direct(
                    *cs[0]["pq"], [partsum.horadam_index(name, n) for n in _ns(cs)]),
                _each(lambda c, v, name=name: partsum.horadam_sums(
                    *c["pq"], name, c["n"], corrected=v == "minus-p")),
                variants),
        ))

    # the symbolic partial sums serve every n, but the thm3 and cor-sn1 rows
    # stop at n = 30 whatever --max-n is: this ceiling is grid data, kept so
    # that the --max-n reports do not change until the audit grid is priced
    claims.append(Claim(
        "thm3-odd",
        "odd-power partial sum: numerators U_{r-2k} x - (-1)^{kn} "
        "U_{(r-2k)(n+1)} x^{n+1} - (-1)^{k(n+1)} U_{(r-2k)n} x^{n+2}",
        ("b=1", "u0=0"),
        (("spec", B1_SPECS), ("r", (1, 3))), ("n", 0, 12, 1, 30),
        _compare(_partial_sum_truth, _thm3_form),
    ))
    claims.append(Claim(
        "thm3-even",
        "even-power partial sum: the printed numerator flips two signs, drops "
        "the constant 2(-1)^k, and omits (-1)^{r/2} on the middle term; the "
        "derivation-consistent form passes",
        ("b=1", "u0=0"),
        (("spec", B1_SPECS), ("r", (2, 4))), ("n", 0, 12, 1, 30),
        _compare(_partial_sum_truth, _thm3_form, ("proof-derived",)),
    ))
    claims.append(Claim(
        "cor-sn1",
        "first-power partial sum display x(U_1 - U_{n+1} x^n - U_n x^{n+2}) / "
        "(1 - V_1 x - x^2); the last inner exponent should be n+1",
        ("b=1", "u0=0"),
        (("spec", B1_SPECS),), ("n", 0, 20, 1, 30),
        _compare(_partial_sum_truth,
                 _each(lambda c, v: partsum.corollary_r1(c["spec"], c["n"], v)),
                 ("shifted-exponent",)),
    ))

    claims.append(Claim(
        "thm4",
        "binomial-weighted sum equals sum_k C(r,k) A^k (-B)^{r-k} "
        "(1 + alpha^k beta^{r-k} x)^n for every nondegenerate spec",
        (),
        (("spec", THM4_SPECS), ("r", (1, 2, 3, 4)),
         ("x", (Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2)))),
        ("n", 0, 10, 1, None),
        _compare(lambda cs: binsum.binom_row_direct(*_thm4_args(cs)),
                 lambda cs, _: binsum.binom_row_closed(*_thm4_args(cs))),
    ))
    claims.append(Claim(
        "lemma5",
        "golden-root power collapses alpha^{2s} -+ (-1)^s = sqrt(5) alpha^s F_s "
        "/ L_s alpha^s and the beta companions, exact in Q(sqrt(5))",
        (),
        (("sign", (1, -1)),), ("s", 0, 64, 1, None),
        _check_lemma5,
    ))

    # the sixteen Fibonacci sums at x = +/-1: binsum.FIB_SUMS states each one's
    # first n, parity and variants; a row in r stops at n = 20, a lone row at 100
    fib_sums = (
        ("thm6-4r",
         "sum C(n,i) F_i^{4r} = 5^{-2r}(sum_k (-1)^{k(n+1)} C(4r,k) L_{2r-k}^n "
         "L_{(2r-k)n} + C(4r,2r) 2^n)",
         ("r>=1", "n>=1"), (1, 2)),
        ("thm6-4r2-odd",
         "sum C(n,i) F_i^{4r+2} = 5^{(n+1)/2-(2r+1)} sum_k C(4r+2,k) "
         "F_{2r+1-k}^n F_{n(2r+1-k)} for odd n",
         ("n odd", "n>=1"), (0, 1, 2)),
        ("thm6-4r2-even",
         "sum C(n,i) F_i^{4r+2} = 5^{n/2-(2r+1)} sum_k (-1)^k C(4r+2,k) "
         "F_{2r+1-k}^n L_{n(2r+1-k)} for even n",
         ("n even", "n>=2"), (0, 1, 2)),
        ("thm9-4r-even",
         "alternating sum of F_i^{4r}: printed subscript L_{(4r-2k)n} doubles "
         "the derivation's (2r-k)n",
         ("n even", "n>=2", "r>=1"), (1, 2)),
        ("thm9-4r-odd",
         "alternating sum of F_i^{4r}: printed subscript F_{(4r-2k)n} doubles "
         "the derivation's (2r-k)n",
         ("n odd", "n>=1", "r>=1"), (1, 2)),
        ("thm9-4r2",
         "alternating sum of F_i^{4r+2} via L_{2r+1-k}^n L_{(2r+1-k)n} minus "
         "the 2^n middle binomial",
         ("n>=1",), (0, 1, 2)),
        ("cor7-1", "sum C(n,i) F_i = F_{2n}", (), ()),
        ("cor7-2", "sum_{i<=n} C(n,i) F_i^2 = 5^{n/2-1} L_n for even n "
                   "(fails at n = 0: 0 vs 2/5)", ("n even", "n>=2"), ()),
        ("cor7-3", "sum_{i<=n} C(n,i) F_i^2 = 5^{(n-1)/2} F_n for odd n",
         ("n odd",), ()),
        ("cor7-4", "sum C(n,i) F_i^3 = (2^n F_{2n} + 3 F_n)/5", (), ()),
        ("cor7-5", "sum C(n,i) F_i^4 = (3^n L_{2n} - 4(-1)^n L_n + 6*2^n)/25",
         (), ()),
        ("cor10-1", "sum (-1)^i C(n,i) F_i = -F_n", (), ()),
        ("cor10-2", "sum (-1)^i C(n,i) F_i^2 = ((-1)^n L_n - 2^{n+1})/5", (), ()),
        ("cor10-3", "sum (-1)^i C(n,i) F_i^3 = ((-2)^n F_n - 3 F_{2n})/5", (), ()),
        ("cor10-4", "sum (-1)^i C(n,i) F_i^4 for even n: printed "
                    "5^{n/2-2}(L_{2n} - L_n); the consistent coefficient is 4",
         ("n even", "n>=2"), ()),
        ("cor10-5", "sum (-1)^i C(n,i) F_i^4 = -5^{(n+1)/2-2}(F_{2n} + 4 F_n) "
                    "for odd n", ("n odd",), ()),
    )
    for cid, desc, hyp, rs in fib_sums:
        *_, parity, first, variants = binsum.FIB_SUMS[cid]
        claims.append(Claim(
            cid, desc, hyp, (("r", rs),) if rs else (),
            ("n", first, 20 if rs else 100, 1 if parity is None else 2, None),
            _compare(lambda cs, cid=cid: binsum.corollary_lhs(cid, _ns(cs), cs[0].get("r", 0)),
                     _each(lambda c, v, cid=cid: (
                         binsum.fib_weighted_closed(cid, c["r"], c["n"], v) if "r" in c
                         else binsum.corollary_rhs(cid, c["n"], v))), variants),
        ))

    to_100 = ("n", 0, 100, 1, None)
    odd_top, even_top = (lambda r: 8 * r + 3), (lambda r: 8 * r + 2)
    congruences = (
        ("cor8-i", "2^n F_{2n} + 3 F_n == 0 mod 5", (), (), to_100),
        ("cor8-ii", "3^n L_{2n} - 4(-1)^n L_n + 6*2^n == 0 mod 25", (), (), to_100),
        ("cor8-v", "the L-power sum with its 2^n middle binomial is divisible "
                   "by 5^{2r}", ("r in 1..3",), (("r", (1, 2, 3)),), to_100),
        ("cor11-i", "(-1)^n L_n - 2^{n+1} == 0 mod 5", (), (), to_100),
        ("cor11-ii", "(-2)^n F_n - 3 F_{2n} == 0 mod 5", (), (), to_100),
        ("cor8-iii",
         "F-power sum divisibility for odd n <= 8r+3: printed exponent "
         "4r+2-(n-1)/2 vs the integrality-implied 2r+1-(n+1)/2",
         ("n odd", "n<=8r+3"), (("r", (0, 1, 2, 3)),),
         ("n", 1, odd_top, 2, odd_top)),
        ("cor8-iv",
         "L-power sum divisibility for even n <= 8r+2: printed exponent "
         "4r+2-n/2 vs the integrality-implied 2r+1-n/2",
         ("n even", "n>=2", "n<=8r+2"), (("r", (0, 1, 2, 3)),),
         ("n", 2, even_top, 2, even_top)),
    )
    for cid, desc, hyp, axes, index in congruences:
        claims.append(Claim(cid, desc, hyp, axes, index, _check_congruence(cid)))

    return {c.id: c for c in claims}


REGISTRY = _build_registry()


# --- runner and reports --------------------------------------------------------


def _cell_key(params: dict):
    return tuple(
        (k, (0, v) if isinstance(v, int) else (1, str(v)))
        for k, v in sorted(params.items())
    )


def run_audit(selection="all", max_n: int | None = None,
              timings: dict | None = None) -> list[AuditResult]:
    """Evaluate the selected claims row by row; deterministic ordering.

    A ``timings`` dict gets each claim's id mapped to the seconds its cells
    took."""
    if isinstance(selection, str):
        selection = [selection]
    if list(selection) == ["all"]:
        ids = sorted(REGISTRY)
    else:
        ids = sorted(set(selection))
        for cid in ids:
            if cid not in REGISTRY:
                raise UnknownClaimError(f"unknown claim id {cid!r}")
    results = []
    for cid in ids:
        start = time.perf_counter()
        results += _run_claim(cid, REGISTRY[cid], max_n)
        if timings is not None:
            timings[cid] = time.perf_counter() - start
    return results


def _run_claim(cid: str, claim: Claim, max_n: int | None) -> list[AuditResult]:
    """One claim's cells, checked a row at a time, in sorted order.  A raise
    is reported against the cell whose verdict was due next."""
    results = []
    for row in claim.rows(max_n):
        verdicts = claim.check(row)
        for cell in row:
            try:
                verdict, variant, witness = next(verdicts)
            except Exception as exc:
                raise AuditCellError(cid, cell, exc) from exc
            results.append(AuditResult(cid, cell, verdict, variant, witness))
    return sorted(results, key=lambda result: _cell_key(result.params))


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
            "selection": sorted(set(selection)),
            "max_n": max_n,
        },
        "claims": claims,
    }


_JSON_LEAVES = {str: _quote, int: repr, type(None): lambda _: "null"}


def _json(value, pad: str = "\n") -> str:
    """json.dumps(value, sort_keys=True, indent=2) for dict, list, str, int and
    None only (CPython indents only in its pure-Python encoder)."""
    kind = type(value)
    if kind in _JSON_LEAVES:
        return _JSON_LEAVES[kind](value)
    if kind is list:
        inner = pad + "  "
        items = [inner + _json(v, inner) for v in value]
        return "[" + ",".join(items) + pad + "]" if items else "[]"
    if kind is dict:
        inner = pad + "  "
        items = [f"{inner}{_quote(k)}: {_json(v, inner)}"
                 for k, v in sorted(value.items())]
        return "{" + ",".join(items) + pad + "}" if items else "{}"
    raise TypeError(f"{kind.__name__} is not a report value")


def structured_report_text(results, selection="all", max_n=None) -> str:
    return _json(structured_report(results, selection, max_n)) + "\n"


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
