"""Command-line front end: exact terms, generating functions, sums, audits.

All user-facing numbers are exact (big-integer rationals rendered as ``p/q``
or plain integers); no floating point anywhere.  Every exact value and gf
coefficient goes through polyrat's one renderer, ``_text``, in subquadratic
time in its digits, so a term or sum of 10^5 to 10^6 digits prints in under a
second.  Structured output always uses the audit report schema, with one-off
computations (``seq``, ``gf``, ``sum``, ``binom-sum``) wrapped as single-cell
claim runs.

Exit codes (stable contract):
  0  success
  1  audit run contained a cell that failed without a passing variant
  2  invalid spec / unknown claim id / usage error
  3  internal-consistency (oracle) mismatch
  4  evaluation hit a denominator zero (kept in the contract; no command
     currently reaches it, since every closed value is evaluated over Q from
     the Binet pairs, removable points included)
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from collections import Counter
from fractions import Fraction
from math import isqrt

from . import audit, binsum, gfpow, partsum, seq
from .polyrat import (EvalPoleError, Polynomial, RationalFunction, _text,
                      rf_renderings, rf_to_latex, rf_to_text)
from .qfield import DegenerateSpecError, RecurrenceSpec

# The `gf`, `seq` and sum budgets weigh their inputs by the spec's growth g
# (see `_growth`), about log2 of the square of its largest root modulus,
# since U_n has about n * g / 2 bits.  g is 1 for Fibonacci and any spec
# whose largest root modulus is at most sqrt(3), 2 for Pell and 19 for
# (a, b) = (1000, 1).
# Largest `gf --power` times g served.  The build and the `--check-terms`
# pass apply Theorem 1's pole factors to integer series whose terms run to
# about r * N * g / 2 bits; their time grows as r^4 to r^5.  On a 2-core
# Xeon host with CPython 3.11, one CLI process each, with --check-terms at
# its limit: the worst specs of growth 1 have complex roots and |b| = 3, so
# their factors carry 3^r; (1, -3, 2, 1) at --power 192 takes 2.6-3.6 s
# (3.7 s with --format structured), Fibonacci 0.8 s.  A 3r-term check of
# (1, -3, 2, 1) at 192 took 4.3-5.1 s, hence the 2r check limit.  Larger
# growths are served well inside that: (1, -7) (g = 2) at 96 takes 0.5 s
# and (1000, 1) (g = 19) at 10 0.17 s.  A refusal takes 0.15-0.18 s.
GF_POWER_LIMIT = 192
# Largest `gf --check-terms` times g served.
GF_CHECK_TERMS_LIMIT = 2 * GF_POWER_LIMIT
# Largest `gf` size r * t * (t * g + 2 H) served, with t = max(2r,
# --check-terms) the length of the longer series read and H the bit length
# of the spec's initial numerators.  Term t of a series, N_t^r, has about
# r * (t * g / 2 + H) bits, so the size is twice t times that; the printed
# numerator grows with it.  The limit is the largest size the two limits
# above allow with initial values of at most 8 bits, so those inputs are all
# still served.  On the same host the worst inputs it serves take 3-5 s.
GF_SIZE_LIMIT = GF_POWER_LIMIT * GF_CHECK_TERMS_LIMIT * (GF_CHECK_TERMS_LIMIT + 16)
# Largest |n| * g served by `seq`; for n < 0, g also counts the bits of the
# denominator b^|n|.  The doubling and the printing (`_text`) are both
# subquadratic in the digits of U_n; what grows fastest is reducing the
# Fraction over b^|n| at n < 0.  Worst inputs served, on a 2-core Xeon host
# with CPython 3.11, one CLI process each: (a, b) = (2, -3) at n = -10^6
# (g = 4) 3.5 s; (3, 3) at n = -571,428 3.0 s; (2, -3) at n = 4 * 10^6
# (g = 1, under log2 3) 2.0 s; Fibonacci at n = -4 * 10^6 1.8 s.
SEQ_LIMIT = 4 * 10**6
# `sum` and `binom-sum` are budgeted by their size
# n * (power * g + h) + power * (H - 1), about the bits of the last term,
# where h = bit_length(|p| q) - 1 counts the bits of x = p/q (h = 0 at x = 0
# and x = +-1), since every term carries a power of p and of q, and H is the
# bit length of the initial numerators (H - 1 = 0 for Fibonacci), whose power
# every term carries too.
# Largest size served by the direct side (`--direct`, and `--both`, the
# default), before the initial values' bits.  On one Xeon core with CPython
# 3.11, `binom_sum_direct` takes about 3 s at n = 20,000 with Fibonacci,
# power 1 and x = 1, the cost growing as n^2, at most 0.4 s at size 20,000
# with x != +-1, and 0.15 s at (10^6, 1), n = 512.  Its n + 1 terms may
# together hold no more than that boundary's, 20,001 terms of size 20,000:
# the initial values' bits ride in every term, so at n = 20,000 a 30,001-digit
# U_1 (25 s) is refused, while at n = 20 a 47,549-bit one is served.
SUM_SIZE_LIMIT = 20_000
# Largest size served by `--closed`.  At a non-integer x its cost is
# quadratic in n (the doubling kernel reduces a Fraction over q^n); there,
# on the same host, Fibonacci takes at most 0.8 s.
SUM_CLOSED_LIMIT = 300_000
# Largest `audit --max-n` served, from the flag or a --config file.  On a
# 2-core Xeon host with CPython 3.11, `audit --claims all` takes about 3 s at
# 60, 6 s at 120 and 11 s at 240, `thm4` growing fastest.
AUDIT_MAX_N_LIMIT = 120
FORMATS = ("text", "latex", "structured")
# The keys a --config file may set, each read like the flag of the same name.
CONFIG_KEYS = ("max-n", "format")


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
        return seq.preset(args.preset)
    missing = [f for f in ("a", "b", "u0", "u1") if getattr(args, f) is None]
    if missing:
        raise DegenerateSpecError(
            f"missing spec flags: {', '.join('--' + f for f in missing)}"
        )
    return RecurrenceSpec(args.a, args.b, args.u0, args.u1)


def _apply_config(args):
    """Fill the flags left unset from the --config file's key = value lines."""
    if not getattr(args, "config", None):
        return
    path, settings = args.config, {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = (part.strip() for part in line.partition("="))
            if not eq or key not in CONFIG_KEYS:
                raise ValueError(f"bad line {line!r} in {path}; accepted keys:"
                                 f" {', '.join(CONFIG_KEYS)}")
            settings[key] = value
    if "format" in settings and settings["format"] not in FORMATS:
        raise ValueError(f"format {settings['format']!r} in {path} is not one "
                         f"of {', '.join(FORMATS)}")
    for key, value in settings.items():
        dest = key.replace("-", "_")
        if getattr(args, dest, None) is None:
            setattr(args, dest, int(value) if dest == "max_n" else value)


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


def _growth(spec: RecurrenceSpec, n: int = 0) -> int:
    """g = max(1, bit_length(m) - 1), with m = ceil(rho^2), times b^2 for
    n < 0 (U_n is then up to rho^|n| over b^|n|); rho is the largest root
    modulus, rho^2 = |b| for complex roots, else ((|a| + sqrt D) / 2)^2 with
    sqrt D rounded up.  (|a|, |b| alone would weigh (3, -3) like (3, 3).)"""
    a, d = abs(spec.a), spec.discriminant
    if d < 0:
        rho2 = abs(spec.b)
    else:
        s = isqrt(d)
        s += s * s < d
        rho2 = -(-(a * a + d + 2 * a * s) // 4)
    if n < 0:
        rho2 *= spec.b * spec.b
    return max(1, rho2.bit_length() - 1)


def _init_bits(spec: RecurrenceSpec) -> int:
    """H, the bit length of the spec's larger initial numerator d U_0, d U_1."""
    return max(abs(n) for n in seq.store(spec).numerators(2)).bit_length()


def _cmd_seq(args) -> int:
    spec = _spec_from_args(args)
    g = _growth(spec, args.n)
    if abs(args.n) * g > SEQ_LIMIT:
        print(f"|--n| {abs(args.n)} times the spec's growth {g} exceeds the "
              f"seq limit of {SEQ_LIMIT}", file=sys.stderr)
        return 2
    term = seq.term_fast(spec, args.n)
    if args.format == "structured":
        print(_single_cell_report("seq", {"spec": str(spec), "n": args.n},
                                  "pass", {"value": _text(term)}), end="")
    else:
        print(_text(term))
    return 0


def _cmd_gf(args) -> int:
    for flag, value, low in (("--power", args.power, 1),
                             ("--check-terms", args.check_terms, 0)):
        if value < low:
            print(f"{flag} {value} is below {low}", file=sys.stderr)
            return 2
    spec = _spec_from_args(args)
    g = _growth(spec)
    for flag, value, limit in (("--power", args.power, GF_POWER_LIMIT),
                               ("--check-terms", args.check_terms,
                                GF_CHECK_TERMS_LIMIT)):
        if value * g > limit:
            print(f"{flag} {value} times the spec's growth {g} exceeds the gf "
                  f"limit of {limit}", file=sys.stderr)
            return 2
    h = _init_bits(spec)
    t = max(2 * args.power, args.check_terms)
    size = args.power * t * (t * g + 2 * h)
    if size > GF_SIZE_LIMIT:
        print(f"size {size} = --power {args.power} times {t} series terms times "
              f"({t} times the spec's growth {g}, plus twice the initial "
              f"values' {h} bits) exceeds the gf size limit of {GF_SIZE_LIMIT}",
              file=sys.stderr)
        return 2
    f = gfpow.gf_power(spec, args.power)
    order = args.check_terms
    if order and not gfpow.check_series(f, spec, args.power, order):
        print(f"oracle mismatch over the first {order} coefficients",
              file=sys.stderr)
        return 3
    fmt = args.format or "text"
    if fmt == "latex":
        print(rf_to_latex(f))
    elif fmt == "structured":
        witness = rf_renderings(f)
        if order:
            witness["oracle_terms"] = str(order)
        print(_single_cell_report(
            "gf", {"spec": str(spec), "r": args.power}, "pass", witness), end="")
    else:
        print(rf_to_text(f))
    return 0


def _sum_like(args, direct_fn, closed_fn) -> int:
    """Serve `sum` or `binom-sum` (the claim id is the command): each of
    direct_fn and closed_fn is called as fn(spec, power, n, x)."""
    for flag, value, low in (("--n", args.n, 0), ("--power", args.power, 1)):
        if value < low:
            print(f"{flag} {value} is below {low}", file=sys.stderr)
            return 2
    spec = _spec_from_args(args)
    mode = "direct" if args.direct else "closed" if args.closed else "both"
    g, h = _growth(spec), _init_bits(spec)
    size = _sum_size(args.n, args.power, args.x, g, h)
    why = (f"size {size} = --n {args.n} times (--power {args.power} times the "
           f"spec's growth {g}, plus the size of --x), plus --power times the "
           f"initial values' {h} bits less one")
    growth = size - args.power * (h - 1)
    if mode != "closed" and growth > SUM_SIZE_LIMIT:
        print(f"{why}: its first part, {growth}, exceeds the direct-sum limit "
              f"of {SUM_SIZE_LIMIT}; use --closed", file=sys.stderr)
        return 2
    terms, most = args.n + 1, SUM_SIZE_LIMIT + 1
    if mode != "closed" and terms * size > most * SUM_SIZE_LIMIT:
        print(f"{terms} terms of {why} exceed the direct-sum limit of {most} "
              f"terms of size {SUM_SIZE_LIMIT}; use --closed", file=sys.stderr)
        return 2
    if size > SUM_CLOSED_LIMIT:
        print(f"{why} exceeds the closed-form limit of {SUM_CLOSED_LIMIT}",
              file=sys.stderr)
        return 2
    values = {m: fn(spec, args.power, args.n, args.x)
              for m, fn in (("direct", direct_fn), ("closed", closed_fn))
              if mode in (m, "both")}
    fmt = args.format or "text"
    if mode == "both":
        match = values["direct"] == values["closed"]
        if fmt == "structured":
            witness = {k: _text(v) for k, v in values.items()}
            print(_single_cell_report(
                args.command, _sum_params(spec, args),
                "pass" if match else "fail", witness), end="")
        else:
            print(f"direct={_text(values['direct'])} "
                  f"closed={_text(values['closed'])} "
                  f"{'match' if match else 'MISMATCH'}")
        if not match:
            return 3
        return 0
    value = values[mode]
    if fmt == "structured":
        print(_single_cell_report(args.command, _sum_params(spec, args), "pass",
                                  {mode: _text(value)}), end="")
    else:
        print(_text(value))
    return 0


def _sum_size(n: int, power: int, x: Fraction, g: int, init_bits: int = 1) -> int:
    """n * (power * g + h) + power * (H - 1), with h = bit_length(|p| q) - 1
    for x = p/q != 0 and H = init_bits (``_init_bits``; 1 for initial values
    of at most 1 in magnitude, as Fibonacci's): about the bits of the last
    term, U_n^power x^n."""
    h = (abs(x.numerator) * x.denominator).bit_length() - 1 if x else 0
    return n * (power * g + h) + power * (init_bits - 1)


def _sum_params(spec: RecurrenceSpec, args) -> dict:
    return {"spec": str(spec), "n": args.n, "r": args.power, "x": str(args.x)}


def _cmd_sum(args) -> int:
    return _sum_like(args, partsum.partial_sum_direct, partsum.partial_sum_closed)


def _cmd_binom_sum(args) -> int:
    return _sum_like(args, binsum.binom_sum_direct, binsum.binom_sum_closed)


def _cmd_audit(args) -> int:
    if args.max_n is not None and not 0 <= args.max_n <= AUDIT_MAX_N_LIMIT:
        print(f"--max-n {args.max_n} is outside 0 to its limit of "
              f"{AUDIT_MAX_N_LIMIT}", file=sys.stderr)
        return 2
    selection = "all" if args.claims == "all" else [
        c.strip() for c in args.claims.split(",") if c.strip()
    ]
    if not selection:
        print(f"--claims {args.claims!r} names no claim id", file=sys.stderr)
        return 2
    if args.timings:
        timings = {}
        results = audit.run_audit(selection, max_n=args.max_n, timings=timings)
        _print_timings(timings, results)
    else:
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


def _print_timings(timings: dict, results) -> None:
    """Seconds, cells and cells/s of each claim run, and their total, to stderr."""
    cells = Counter(r.claim_id for r in results)
    rows = [*timings.items(), ("total", sum(timings.values()))]
    cells["total"] = len(results)
    for cid, secs in rows:
        rate = f"{cells[cid] / secs:.0f}" if secs else "-"
        print(f"timing {cid}: {secs:.3f} s, {cells[cid]} cells, {rate} cells/s",
              file=sys.stderr)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared."""
    parser = argparse.ArgumentParser(
        prog="recsums",
        description="Exact closed forms and identity audits for "
                    "second-order recurrence sequences.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config",
                        help=f"key=value file ({', '.join(CONFIG_KEYS)})")
    common.add_argument("--format", choices=FORMATS, default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p_seq = sub.add_parser("seq", parents=[common], help="evaluate one term")
    _add_spec_flags(p_seq)
    p_seq.add_argument("--n", type=int, required=True)
    p_seq.add_argument("--fast", action="store_true",
                       help="no effect: every index is served in log time")
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
    p_audit.add_argument("--timings", action="store_true",
                         help="print each claim's seconds, cells and cells/s "
                              "to stderr")
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
    if not hasattr(sys, "set_int_max_str_digits"):
        return _main(argv)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)   # exact output can run to 10^5+ digits
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(old)


def _main(argv) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_join_signed_rationals(list(argv)))
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
