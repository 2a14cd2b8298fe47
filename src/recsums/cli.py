"""Command-line front end: exact terms, generating functions, sums, audits.

All user-facing numbers are exact (big-integer rationals rendered as ``p/q``
or plain integers); no floating point anywhere.  Every exact value and gf
coefficient goes through polyrat's one renderer, ``_text``, in subquadratic
time in its digits, so a term or sum of 10^5 to 10^6 digits prints in under a
second; a large ``seq`` value is instead built and printed in exact Decimal
(``_cmd_seq`` says where).
Structured output always uses the audit report schema, with one-off
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
import re
import sys
from collections import Counter
from fractions import Fraction
from math import isqrt, lcm

from . import audit, binsum, gfpow, partsum, polyrat, seq
from .polyrat import (EvalPoleError, _text, rf_renderings, rf_to_latex,
                      rf_to_text)
from .qfield import DegenerateSpecError, RecurrenceSpec

# Every command but `audit` predicts its work from its input (`_predict`), in
# CPython 3.11's bit operations, and is refused with exit code 2 above
# WORK_LIMIT: the largest prediction among the inputs earlier limits served
# with initial numerators of at most 8 bits, (0, 2, 255, 255) at n =
# -1,333,333 (2.2 s), bar the Binet-pair table (see CHANGES.md).  On a 2-core
# Xeon host the worst inputs it serves take 2.6 to 4.7 s as one process.
WORK_LIMIT = 29 * 10**11
# Largest `audit --max-n` served, from the flag or a --config file.  On a
# 2-core Xeon host with CPython 3.11, `audit --claims all` takes about 0.45 s
# at 60 and 0.65 s at 120 as one process; with this limit lifted,
# `run_audit("all")` takes 1.1-1.2 s at 240 and 3.1-4.1 s at 480, `thm4`
# growing fastest.  The limit stays until the grid is priced.
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
            if key == "max-n" and not re.fullmatch(r"[+-]?\d+", value):
                raise ValueError(f"bad line {line!r} in {path}: max-n takes an "
                                 f"integer")
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
    """H, the bit length of the largest of the spec's initial numerators
    d U_0, d U_1 and their common denominator d."""
    d = lcm(spec.u0.denominator, spec.u1.denominator)
    return max(d, abs(int(d * spec.u0)), abs(int(d * spec.u1))).bit_length()


# CPython 3.11's ints have 30-bit digits; it multiplies by schoolbook below
# KARATSUBA_CUTOFF = 70 digits, else by Karatsuba.
_DIGIT, _KARATSUBA = 30, 70 * 30


def _mul(a: int, b: int) -> int:
    """Bit operations of an a-bit by b-bit product: a * b below the cutoff K,
    else b / a products of a = K 2^j bits, 3^j K^2 each (a^1.585)."""
    a, b = sorted((max(a, _DIGIT), max(b, _DIGIT)))
    if a <= _KARATSUBA:
        return a * b
    j = (a // _KARATSUBA).bit_length() - 1     # 3^j interpolated linearly
    return b // a * _KARATSUBA * 3**j * (2 * a - (_KARATSUBA << j)) >> j


def _predict(args, spec: RecurrenceSpec) -> tuple[int, list[tuple[int, str, str]]]:
    """(bits, terms): the bits of the command's largest operand, and its work
    as (bit operations, flag, phase) terms, from the input alone.

    A term grows by g / 2 to (g + 1) / 2 bits per index, counted as
    (2 g + 1) / 4 (g the spec's growth), and carries the initial values' H
    bits once per power; x = p/q adds hx bits per index.  A direct term
    U_i^r counts one squaring even at r = 1, which bounds the n + 1
    numerators the prefix store keeps; a closed sum prices every Binet pair
    at the dominant pair's size.  `gf` builds and checks its series in one
    pass, priced as one phase over max(2r + 2, N) terms for --check-terms N,
    set by --check-terms when N is the longer, else by --power.  A `seq`
    whose initial values have a denominator e > 1 also pays a reduction of
    U_n's numerator by e, in either ring.
    """
    gcd = lambda a, b: max(a, _DIGIT) * max(b, _DIGIT)   # Euclid: a Fraction's
    render = lambda k: 3 * _mul(k, k)   # `polyrat._text` joins halves in decimal
    g, h = _growth(spec, getattr(args, "n", 0)), _init_bits(spec)
    if args.command == "seq":
        # priced as the int ring plus `_text` at every n, and the kernel's
        # last step like its other doublings, though it takes two squarings;
        # above its cut `_cmd_seq` runs the cheaper Decimal ring.  So these
        # terms over-price the work, and are kept as they are on purpose
        n = abs(args.n)
        k = n * (2 * g + 1) // 4 + h                # U_n, numerator and denominator
        terms = [(2 * _mul(k, k), "--n", f"the doubling to index {n}"),
                 (render(k), "--n", f"rendering {k} bits")]
        if args.n < 0 and abs(spec.b) > 1:          # k / 2 bits over k / 2
            terms.append((gcd(k // 2, k - k // 2), "--n", f"the reduction over b^{n}"))
        e = lcm(spec.u0.denominator, spec.u1.denominator)
        if e > 1:
            # U_n = v / e, reduced by gcd(v, e) in ints, or in Decimal by
            # int(v mod e), about 4 m^2 for m = min(v, e) bits, and a gcd of
            # m by e bits; v carries the initial numerators' bits, not H's
            kv = k - h + max(abs(int(e * spec.u0)), abs(int(e * spec.u1))).bit_length()
            ke = e.bit_length()
            m = min(kv, ke)
            terms.append((gcd(kv, ke) + 4 * m * m, "--u0/--u1",
                          f"the reduction over the initial denominator of {ke} bits"))
        return k, terms
    r = args.power
    if args.command == "gf":
        # one pass builds and checks: two products per term N_i^r and pole
        # factor, half the last's size, over the longer of the two series
        t = max(2 * r + 2, args.check_terms)
        kt = r * (t * (2 * g + 1) // 4 + h)
        work = t * (_mul(kt, kt) // 2 + (r // 2 + 1) * _mul(r * (g + 1), kt))
        flag = "--check-terms" if t > 2 * r + 2 else "--power"
        kr = r * (r * (2 * g + 1) // 4 + h)         # a numerator coefficient
        return kt, [(work, flag, f"{r // 2 + 1} pole factors over {t} terms"),
                    ((r + 1) * render(kr), "--power", f"rendering {r + 1} coefficients")]
    n, x = args.n, args.x
    hx = (abs(x.numerator) * x.denominator).bit_length() - 1 if x else 0
    kt = r * (n * (2 * g + 1) // 4 + h)             # U_n^r's numerator
    kw = n if args.command == "binom-sum" else 0    # C(n, i)
    bits, terms = 0, []
    if not args.closed:
        # n + 1 products even for binom-sum's cheaper split, on purpose: this bounds
        # the n + 1 numerators a store keeps (19 MB for Fibonacci at n = 20,001)
        bits = kt + kw + n * hx
        each = _mul(kt // 2, kt // 2) + _mul(kw, kt) + _mul(kw + kt, n * hx)
        terms += [((n + 1) * each, "--n", f"the {n + 1} direct terms of {bits} bits"),
                  (gcd(bits, n * hx + r * h) + render(bits), "--n",
                   "the direct reduction and rendering")]
    if not args.direct:
        # one kernel call per pair: order (order + 1) / 2 products per
        # squaring, 3 for the pairs of binom-sum and 6 for sum's order-3 pair
        # partial sums, then one reduction of the same size at either order;
        # the kernel's last step takes `order` squarings instead, so this
        # over-prices it, on purpose: no served boundary moves
        pairs, order = r // 2 + 1, 3 if args.command == "sum" else 2
        kp = r * (g + 1 + 2 * h + hx)               # a Binet-pair table entry
        kn = n * r * (2 * g + 1) // 4 + 2 * n * hx + kw   # a pair's growth to n
        kd = 2 * n * (x.denominator - 1).bit_length()     # and its denominator's
        bits = max(bits, kn + kp)
        each = (order * (order + 1) // 2 * _mul(kn, kn)
                + 2 * gcd(kn + kp, kd) + gcd(kn + kp, kp))
        terms += [(pairs * 3 * (2 * _mul(kp, kp) + gcd(kp, kp)), "--power",
                   f"the Binet-pair table of {pairs} entries"),
                  (pairs * each + render(kn + kp), "--n",
                   f"{pairs} pair doublings of order {order} to index {n}, and rendering")]
    return bits, terms


def _budgeted_spec(args) -> tuple[RecurrenceSpec, int]:
    """The spec of args and the predicted bits of its largest operand; a
    ValueError (exit 2) names the largest term and its flag when the
    predicted work exceeds WORK_LIMIT."""
    spec = _spec_from_args(args)
    bits, terms = _predict(args, spec)
    total = sum(w for w, _, _ in terms)
    if total > WORK_LIMIT:
        work, flag, phase = max(terms)
        raise ValueError(
            f"predicted work {total} exceeds the work limit of {WORK_LIMIT}: its "
            f"largest term, {work}, is {phase}, set by {flag} (spec growth "
            f"{_growth(spec, getattr(args, 'n', 0))}, initial values of "
            f"{_init_bits(spec)} bits)")
    return spec, bits


def _cmd_seq(args) -> int:
    """Print U_n, built in the ring its predicted bits choose.  At n >= 0 and
    above ``polyrat._STR_BITS`` bits, where ``_text`` leaves str(), U_n is
    built in exact Decimal and printed as it is (``seq.term_text``); below
    that, and at every n < 0, whose reduction over b^|n| needs an int gcd, it
    is built in ints (``seq.term_fast``) and rendered by ``_text``.  The cut
    reuses ``_STR_BITS`` (n = 43,691 for Fibonacci) and the two rings break
    even a little above it, because the prediction (3n/4 bits for growth 1)
    runs ahead of the true 0.694n: on a 2-core Xeon host, against ints plus
    ``_text``, the Decimal ring is 1.1 times slower at F(43,691) and 1.4
    times faster from F(60,000) on."""
    spec, bits = _budgeted_spec(args)
    text = lambda: (seq.term_text(spec, args.n)
                    if args.n >= 0 and bits > polyrat._STR_BITS
                    else _text(seq.term_fast(spec, args.n)))
    if args.format == "structured":
        print(_single_cell_report("seq", {"spec": str(spec), "n": args.n},
                                  "pass", {"value": text()}), end="")
    else:
        print(text())
    return 0


def _cmd_gf(args) -> int:
    for flag, value, low in (("--power", args.power, 1),
                             ("--check-terms", args.check_terms, 0)):
        if value < low:
            raise ValueError(f"{flag} {value} is below {low}")
    spec, _ = _budgeted_spec(args)
    order = args.check_terms
    f = gfpow.gf_power(spec, args.power, order)
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
            raise ValueError(f"{flag} {value} is below {low}")
    spec, _ = _budgeted_spec(args)
    mode = "direct" if args.direct else "closed" if args.closed else "both"
    values = {m: fn(spec, args.power, args.n, args.x)
              for m, fn in (("direct", direct_fn), ("closed", closed_fn))
              if mode in (m, "both")}
    match = mode != "both" or values["direct"] == values["closed"]
    if (args.format or "text") == "structured":
        params = {"spec": str(spec), "n": args.n, "r": args.power, "x": str(args.x)}
        print(_single_cell_report(args.command, params, "pass" if match else "fail",
                                  {k: _text(v) for k, v in values.items()}), end="")
    elif mode == "both":
        print(f"direct={_text(values['direct'])} closed={_text(values['closed'])} "
              f"{'match' if match else 'MISMATCH'}")
    else:
        print(_text(values[mode]))
    return 0 if match else 3


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
    """Seconds, cells, rows (for a claim with an index) and cells/s of each
    claim run, and their total, to stderr."""
    cells = Counter(r.claim_id for r in results)
    rows: dict[str, set] = {}
    for r in results:
        claim = audit.REGISTRY[r.claim_id]
        if claim.index is not None:
            row = tuple(r.params[name] for name, _ in claim.axes)
            rows.setdefault(r.claim_id, set()).add(row)
    cells["total"] = len(results)
    for cid, secs in [*timings.items(), ("total", sum(timings.values()))]:
        rate = f"{cells[cid] / secs:.0f}" if secs else "-"
        walked = (f"{len(rows[cid])} row{'s' * (len(rows[cid]) != 1)}, "
                  if cid in rows else "")
        print(f"timing {cid}: {secs:.3f} s, {cells[cid]} cells, {walked}{rate} cells/s",
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
                      help="check this many coefficients of the series, "
                           "not just the 2r+2 the build reads, in the same "
                           "pass and before printing")
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
                         help="print each claim's seconds, cells, rows and "
                              "cells/s to stderr")
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
