"""Command-line front end: exact terms, generating functions, sums, audits.

All user-facing numbers are exact (big-integer rationals rendered as ``p/q``
or plain integers); no floating point anywhere.  Structured output always uses
the audit report schema, with one-off computations wrapped as single-cell
claim runs.

Exit codes (stable contract):
  0  success
  1  audit run contained a cell that failed without a passing variant
  2  invalid spec / unknown claim id / usage error
  3  internal-consistency (oracle) mismatch
  4  evaluation hit a denominator zero
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import audit, binsum, gfpow, partsum, seq
from .polyrat import (EvalPoleError, Polynomial, RationalFunction,
                      poly_to_text, rf_to_latex, rf_to_text)
from .qfield import DegenerateSpecError, RecurrenceSpec

# Largest `gf --power` served.  At this power, on one Xeon core with
# CPython 3.11, a build takes 1-3 s and a `--check-terms 3r` pass up to 7 s
# more; both grow about as r^4.
GF_POWER_LIMIT = 128
# Largest `gf --check-terms` served: the 3r-term check at the largest power.
GF_CHECK_TERMS_LIMIT = 3 * GF_POWER_LIMIT
# Largest |n| served by the term-by-term `seq` walk, which takes about 4 s
# there; `seq --fast` serves any n >= 0 in log time.
SEQ_WALK_LIMIT = 10**5


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from exc


def _add_spec_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--a", type=int, default=None)
    parser.add_argument("--b", type=int, default=None)
    parser.add_argument("--u0", type=_fraction, default=None)
    parser.add_argument("--u1", type=_fraction, default=None)
    parser.add_argument(
        "--preset",
        help="fibonacci|lucas|pell|pell-q|gen-pell:p,q (overrides a,b,u0,u1)",
    )


def _spec_from_args(args) -> RecurrenceSpec:
    if args.preset:
        return seq.preset(args.preset).spec
    missing = [f for f in ("a", "b", "u0", "u1") if getattr(args, f) is None]
    if missing:
        raise DegenerateSpecError(
            f"missing spec flags: {', '.join('--' + f for f in missing)}"
        )
    return RecurrenceSpec(args.a, args.b, args.u0, args.u1)


def _read_config(path: str) -> dict:
    settings = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            settings[key] = value
    return settings


def _apply_config(args):
    if not getattr(args, "config", None):
        return
    settings = _read_config(args.config)
    if "max-n" in settings and getattr(args, "max_n", None) is None:
        args.max_n = int(settings["max-n"])
    if "format" in settings and getattr(args, "format", None) is None:
        args.format = settings["format"]


def _single_cell_report(claim_id: str, params: dict, verdict: str,
                        witness: dict) -> str:
    result = audit.AuditResult(claim_id, params, verdict, None, witness)
    return audit.structured_report_text([result], selection=[claim_id])


# --- rendering-grammar parser (round-trips the CLI's own output) -------------


def parse_polynomial(text: str) -> Polynomial:
    """Parse the CLI polynomial grammar: signed terms in ascending degree,
    integer or (p/q) coefficients, x^k powers (optional LaTeX braces)."""
    text = text.replace(" ", "")
    if not text:
        raise ValueError("empty polynomial text")
    term_re = re.compile(
        r"(?P<sign>[+-]?)"
        r"(?P<coef>\(\d+/\d+\)|\d+(?:/\d+)?)?"
        r"(?P<x>x(?:\^\{?(?P<exp>\d+)\}?)?)?"
    )
    coeffs: dict[int, Fraction] = {}
    pos = 0
    while pos < len(text):
        m = term_re.match(text, pos)
        if not m or m.end() == pos or (m.group("coef") is None and m.group("x") is None):
            raise ValueError(f"cannot parse polynomial at ...{text[pos:]!r}")
        sign = -1 if m.group("sign") == "-" else 1
        coef_text = m.group("coef")
        coef = Fraction(coef_text.strip("()")) if coef_text else Fraction(1)
        if m.group("x"):
            k = int(m.group("exp")) if m.group("exp") else 1
        else:
            k = 0
        coeffs[k] = coeffs.get(k, Fraction(0)) + sign * coef
        pos = m.end()
    out = [Fraction(0)] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return Polynomial(out)


def parse_rational_function(text: str) -> RationalFunction:
    """Parse text or LaTeX output of the gf renderer back to canonical form."""
    text = text.strip()
    if text.startswith("\\frac"):
        body = text[len("\\frac"):]
        parts = []
        depth = 0
        start = None
        for i, ch in enumerate(body):
            if ch == "{":
                if depth == 0:
                    start = i + 1
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    parts.append(body[start:i])
        if len(parts) != 2:
            raise ValueError("malformed \\frac expression")
        return RationalFunction(parse_polynomial(parts[0]),
                                parse_polynomial(parts[1]))
    if "/(" in text:
        num_text, den_text = text.split("/(", 1)
        if not den_text.endswith(")"):
            raise ValueError("malformed rational function text")
        num_text = num_text.strip()
        if num_text.startswith("(") and num_text.endswith(")"):
            num_text = num_text[1:-1]
        return RationalFunction(parse_polynomial(num_text),
                                parse_polynomial(den_text[:-1]))
    return RationalFunction(parse_polynomial(text), Polynomial([1]))


# --- subcommand handlers ------------------------------------------------------


def _cmd_seq(args) -> int:
    spec = _spec_from_args(args)
    handle = seq.SequenceHandle(spec)
    if args.fast:
        if args.n < 0:
            print("--fast requires a nonnegative index", file=sys.stderr)
            return 2
        value = seq.term_fast(handle, args.n)
    elif abs(args.n) > SEQ_WALK_LIMIT:
        print(f"|--n| {abs(args.n)} exceeds the walk limit of {SEQ_WALK_LIMIT}; "
              f"use --fast for n >= 0", file=sys.stderr)
        return 2
    else:
        value = seq.term(handle, args.n)
    print(value)
    return 0


def _cmd_gf(args) -> int:
    if args.power > GF_POWER_LIMIT:
        print(f"--power {args.power} exceeds the limit of {GF_POWER_LIMIT}",
              file=sys.stderr)
        return 2
    if args.check_terms > GF_CHECK_TERMS_LIMIT:
        print(f"--check-terms {args.check_terms} exceeds the limit of "
              f"{GF_CHECK_TERMS_LIMIT}", file=sys.stderr)
        return 2
    spec = _spec_from_args(args)
    f = gfpow.gf_power(spec, args.power)
    checked = None
    if args.check_terms:
        order = args.check_terms
        if f.expand(order) != gfpow.gf_oracle(spec, args.power, order):
            print(
                f"oracle mismatch over the first {order} coefficients",
                file=sys.stderr,
            )
            return 3
        checked = order
    fmt = args.format or "text"
    if fmt == "latex":
        print(rf_to_latex(f))
    elif fmt == "structured":
        witness = {"text": rf_to_text(f), "latex": rf_to_latex(f),
                   "num": poly_to_text(f.num), "den": poly_to_text(f.den)}
        if checked:
            witness["oracle_terms"] = str(checked)
        print(_single_cell_report(
            "gf", {"spec": str(spec), "r": args.power}, "pass", witness), end="")
    else:
        print(rf_to_text(f))
    return 0


def _sum_like(args, direct_fn, closed_fn, claim_id) -> int:
    mode = "both"
    if args.direct:
        mode = "direct"
    elif args.closed:
        mode = "closed"
    values = {}
    if mode in ("direct", "both"):
        values["direct"] = direct_fn()
    if mode in ("closed", "both"):
        values["closed"] = closed_fn()
    fmt = args.format or "text"
    if mode == "both":
        match = values["direct"] == values["closed"]
        if fmt == "structured":
            witness = {k: str(v) for k, v in values.items()}
            print(_single_cell_report(
                claim_id, _sum_params(args), "pass" if match else "fail",
                witness), end="")
        else:
            print(f"direct={values['direct']} closed={values['closed']} "
                  f"{'match' if match else 'MISMATCH'}")
        if not match:
            return 3
        return 0
    value = values[mode]
    if fmt == "structured":
        print(_single_cell_report(claim_id, _sum_params(args), "pass",
                                  {mode: str(value)}), end="")
    else:
        print(value)
    return 0


def _sum_params(args) -> dict:
    return {"spec": str(_spec_from_args(args)), "n": args.n,
            "r": args.power, "x": str(args.x)}


def _cmd_sum(args) -> int:
    spec = _spec_from_args(args)
    query = partsum.PartialSumQuery(spec, args.n, args.power, args.x)
    return _sum_like(
        args,
        lambda: partsum.partial_sum_direct(query),
        lambda: partsum.partial_sum_closed(query),
        "sum",
    )


def _cmd_binom_sum(args) -> int:
    spec = _spec_from_args(args)
    return _sum_like(
        args,
        lambda: binsum.binom_sum_direct(spec, args.power, args.n, args.x),
        lambda: binsum.binom_sum_closed(spec, args.power, args.n, args.x),
        "binom-sum",
    )


def _cmd_audit(args) -> int:
    selection = "all" if args.claims == "all" else [
        c.strip() for c in args.claims.split(",") if c.strip()
    ]
    results = audit.run_audit(selection, max_n=args.max_n)
    fmt = args.format or "text"
    text = audit.report(results, fmt, selection=selection, max_n=args.max_n)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if not results:
        return 0
    return 1 if audit.has_unexplained_failure(results) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recsums",
        description="Exact closed forms and identity audits for "
                    "second-order recurrence sequences.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value file (max-n, format)")
    common.add_argument("--format", choices=("text", "latex", "structured"),
                        default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p_seq = sub.add_parser("seq", parents=[common], help="evaluate one term")
    _add_spec_flags(p_seq)
    p_seq.add_argument("--n", type=int, required=True)
    p_seq.add_argument("--fast", action="store_true",
                       help="log-time doubling evaluation (n >= 0)")
    p_seq.set_defaults(func=_cmd_seq)

    p_gf = sub.add_parser("gf", parents=[common],
                          help="closed-form power generating function")
    _add_spec_flags(p_gf)
    p_gf.add_argument("--power", type=int, required=True)
    p_gf.add_argument("--check-terms", type=int, default=0,
                      help="verify this many coefficients against the "
                           "series oracle before printing")
    p_gf.set_defaults(func=_cmd_gf)

    for name, handler, help_text in (
        ("sum", _cmd_sum, "partial sum of r-th powers"),
        ("binom-sum", _cmd_binom_sum, "binomial-weighted sum of r-th powers"),
    ):
        p = sub.add_parser(name, parents=[common], help=help_text)
        _add_spec_flags(p)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--power", type=int, required=True)
        p.add_argument("--x", type=_fraction, required=True)
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--closed", action="store_true")
        mode.add_argument("--direct", action="store_true")
        mode.add_argument("--both", action="store_true")
        p.set_defaults(func=handler)

    p_audit = sub.add_parser("audit", parents=[common],
                             help="run registered identity claims")
    p_audit.add_argument("--claims", default="all",
                         help="comma-separated claim ids, or 'all'")
    p_audit.add_argument("--max-n", type=int, default=None, dest="max_n")
    p_audit.add_argument("--out", help="write the report to this path")
    p_audit.set_defaults(func=_cmd_audit)
    return parser


_RATIONAL_FLAGS = ("--x", "--u0", "--u1")


def _join_signed_rationals(argv):
    # argparse reads a bare "-1/3" as an option flag; fold it into "--x=-1/3"
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok in _RATIONAL_FLAGS and i + 1 < len(argv)
                and re.fullmatch(r"-\d+(/\d+)?", argv[i + 1])):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)   # exact output can run to 10^5+ digits
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_signed_rationals(list(argv)))
    try:
        _apply_config(args)
        return args.func(args)
    except DegenerateSpecError as exc:
        print(f"invalid spec: {exc}", file=sys.stderr)
        return 2
    except audit.UnknownClaimError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except audit.AuditCellError as exc:
        print(f"audit error: {exc}", file=sys.stderr)
        return 3
    except EvalPoleError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 4
    except gfpow.SelfCheckError as exc:
        print(f"internal-consistency error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
