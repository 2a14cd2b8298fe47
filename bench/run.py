"""recsums benchmark: end-to-end metrics per workload, or per-layer metrics from a traced pass.

    python3 bench/run.py --workload audit|gf-powers|evaluate|all --seed N \\
        --seconds S --trace 0|1

Run it from the root of a source checkout (it needs ``src/recsums``).  Every
pass of a workload runs in a fresh child interpreter (bench/worker.py), one
pass at a time, all of its operations in that one process.  With ``--trace 0``
passes repeat until the next one would end after ``--seconds``, and the run
reports, by name and unit, every time in seconds at the reference host speed
(each raw time divided by the slowness bench/hostspeed.py measured next to it):

  wall_s       mean over passes of the time of all operations of a pass,
               the host-speed probes excluded
  op_p50_ms    median latency of one operation; the latency of an operation
               is its mean over the passes, and the median a Harrell-Davis
               estimate over the operations
  op_tail_ms   the same at the highest of p99/p95/p90/p75 that leaves at least
               ten of the operations of a pass above it
  setup_s      median time of ``import recsums.cli`` in fresh interpreters
  peak_rss_mb  median over passes of the pass process's peak RSS (VmHWM)

and, on a line of its own, fail_ratio: operations that exited non-zero, raised
or printed a wrong value, over operations attempted.  It is 0 on a correct
program, so it is reported through ``failed``/``attempted`` in the result
object rather than as a metric.

With ``--trace 1`` the run makes one untraced and one traced pass, checks that
their outputs are identical, and reports the per-layer metrics of the traced
pass (see bench/spans.py) with ``trace.overhead_ratio``.

Every output is checked: audit against the committed report hashes and verdict
totals (bench/audit_reference.json), the CLI workloads against the exact
oracle in bench/oracle.py, which shares no code with recsums.  The oracle runs
in this process, outside every timed interval.  Inputs, results and spans of a
run are written under .bench_runs/ in the checkout; the last line of standard
output is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracle
import workloads
from spans import MODULES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
REFERENCE = json.loads((BENCH / "audit_reference.json").read_text(encoding="utf-8"))

SETUP_PROBES = 11         # import-only interpreters per run
RUN_BUDGET_S = 165        # a run, hung program included, ends well within 180 s
TAIL_PERCENTILES = (99, 95, 90, 75)
MIN_BEYOND_TAIL = 10

END_TO_END_UNITS = {"wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (span name, field), field one of calls / s / max_s
SPAN_METRICS = {
    "seq.term.calls": ("seq.term", "calls"),
    "seq.term.s": ("seq.term", "s"),
    "seq.term_fast.s": ("seq.term_fast", "s"),
    "polyrat.rf_new.count": ("polyrat.rf_new", "calls"),
    "polyrat.rf_new.s": ("polyrat.rf_new", "s"),
    "polyrat.poly_gcd.calls": ("polyrat.poly_gcd", "calls"),
    "polyrat.poly_gcd.s": ("polyrat.poly_gcd", "s"),
    "polyrat.expand.s": ("polyrat.expand", "s"),
    "gfpow.gf_power.s": ("gfpow.gf_power", "s"),
    "gfpow.paired_form.s": ("gfpow.paired_form", "s"),
    "gfpow.gf_oracle.s": ("gfpow.gf_oracle", "s"),
    "qfield.pow.s": ("qfield.pow", "s"),
    "binsum.binom_sum_closed.s": ("binsum.binom_sum_closed", "s"),
    "binsum.binom_sum_direct.calls": ("binsum.binom_sum_direct", "calls"),
    "binsum.binom_sum_direct.s": ("binsum.binom_sum_direct", "s"),
    "binsum.fib_weighted_closed.s": ("binsum.fib_weighted_closed", "s"),
    "binsum.congruence_lhs.s": ("binsum.congruence_lhs", "s"),
    "partsum.horadam_direct.s": ("partsum.horadam_direct", "s"),
    "partsum.horadam_sums.s": ("partsum.horadam_sums", "s"),
    "partsum.partial_sum_direct.s": ("partsum.partial_sum_direct", "s"),
    "partsum.partial_sum_closed.s": ("partsum.partial_sum_closed", "s"),
    "partsum.partial_sum_general_b.s": ("partsum.partial_sum_general_b", "s"),
    "audit.claim_max_s": ("audit.run_audit", "max_s"),
    "audit.report.s": ("audit.report", "s"),
    "cli.main.s": ("cli.main", "s"),
}
COUNT_METRICS = ("seq.term.steps", "seq.terms.items", "qfield.mul.count",
                 "qfield.invert.count", "audit.cells")
MAX_METRICS = {"polyrat.poly_gcd.max_in_bits": "bits", "gfpow.out_max_bits": "bits"}


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to an operation failing)."""


# --- child processes --------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"    # one dict/set layout for every pass
    return env


def _worker(run_dir: Path, tag: str, deadline: float, ops_file: Path | None = None,
            trace: bool = False) -> dict:
    out = run_dir / f"{tag}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--out", str(out)]
    if ops_file is not None:
        cmd += ["--ops", str(ops_file)]
    if trace:
        cmd += ["--trace", str(run_dir / f"{tag}.spans.jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{tag}: worker still running after the run's "
                         f"{RUN_BUDGET_S} s budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"{tag}: worker exited {proc.returncode}\n{proc.stderr[-3000:]}")
    return json.loads(out.read_text(encoding="utf-8"))


def _setup_samples(run_dir: Path, deadline: float) -> list[tuple[float, float]]:
    """(raw, normalised) import times of SETUP_PROBES fresh interpreters."""
    _worker(run_dir, "setup-warm", deadline)    # compiles bytecode once; not a sample
    samples = [_worker(run_dir, f"setup-{i}", deadline) for i in range(SETUP_PROBES)]
    return [(r["setup_s"], r["setup_s"] / r["setup_slowness"]) for r in samples]


# --- output checks ------------------------------------------------------------------


def _spec(values) -> tuple:
    a, b, u0, u1 = values
    return int(a), int(b), Fraction(u0), Fraction(u1)


class Checker:
    """Judges each operation's exit code and output; caches oracle values,
    which are computed once per run whatever the number of passes."""

    def __init__(self, ops: list[dict]):
        self.ops = ops
        self._expected: dict[int, Fraction] = {}
        self._gf_ok: dict[tuple, bool] = {}

    def _expect(self, i: int) -> Fraction:
        if i not in self._expected:
            c = self.ops[i]["check"]
            spec = _spec(c["spec"])
            if c["kind"] == "seq":
                self._expected[i] = oracle.term(spec, c["n"])
            else:
                fn = oracle.binom_sum if c["kind"] == "binom" else oracle.partial_sum
                self._expected[i] = fn(spec, c["r"], c["n"], Fraction(c["x"]))
        return self._expected[i]

    def op_ok(self, i: int, rc, out: str) -> bool:
        op = self.ops[i]
        if rc != 0:
            return False
        if "claim" in op:
            return True               # judged with the report, in _judge_report
        kind = op["check"]["kind"]
        if kind == "seq":
            return out.endswith("\n") and oracle.renders(self._expect(i), out[:-1])
        if kind in ("binom", "sum"):
            # the CLI prints "direct=<value> closed=<value> match"
            words = out.split(" ")
            return (len(words) == 3 and words[2] == "match\n"
                    and words[0].startswith("direct=") and words[1].startswith("closed=")
                    and oracle.renders(self._expect(i), words[0][len("direct="):])
                    and oracle.renders(self._expect(i), words[1][len("closed="):]))
        key = (i, out)
        if key not in self._gf_ok:
            c = op["check"]
            self._gf_ok[key] = (out.count("\n") == 1 and oracle.gf_mismatch(
                _spec(c["spec"]), c["r"], out) is None)
        return self._gf_ok[key]

    def judge(self, result: dict) -> tuple[list[bool], list[str]]:
        """Per-op verdicts of one pass, and the pass-level problems found."""
        ok = [self.op_ok(i, rc, out)
              for i, (rc, out) in enumerate(zip(result["rcs"], result["outputs"]))]
        problems = [f"op {i} {json.dumps(self.ops[i].get('argv', self.ops[i].get('claim')))}"
                    f" rc={result['rcs'][i]} {result['errors'][i][-300:]!r}"
                    for i, good in enumerate(ok) if not good]
        if any("claim" in op for op in self.ops):
            problems += self._judge_report(result["report"] or "", ok)
        return ok, problems

    def _judge_report(self, report: str, ok: list[bool]) -> list[str]:
        problems = []
        digest = hashlib.sha256(report.encode()).hexdigest()
        if digest != REFERENCE["report_sha256"]:
            problems.append(f"report sha256 {digest} != {REFERENCE['report_sha256']}")
        try:
            claims = {e["id"]: e for e in json.loads(report)["claims"]}
        except (ValueError, KeyError, TypeError):
            return problems + ["report is not the structured audit schema"]
        totals = {"pass": 0, "variant_pass": 0, "fail": 0}
        cells = 0
        for entry in claims.values():
            cells += len(entry["cells"])
            for k in totals:
                totals[k] += entry["totals"][k]
        if (len(claims), cells, totals) != (REFERENCE["claims"], REFERENCE["cells"],
                                            REFERENCE["totals"]):
            problems.append(f"verdicts: {len(claims)} claims, {cells} cells, {totals}")
        for i, op in enumerate(self.ops):
            entry = claims.get(op["claim"])
            digest = hashlib.sha256(json.dumps(entry, sort_keys=True).encode()).hexdigest()
            if digest != REFERENCE["claim_sha256"][op["claim"]]:
                ok[i] = False
                problems.append(f"claim {op['claim']}: cells differ from the reference")
        return problems


# --- metrics ----------------------------------------------------------------------------


def tail_percentile(ops_per_pass: int) -> int:
    for p in TAIL_PERCENTILES:
        if ops_per_pass * (100 - p) / 100 >= MIN_BEYOND_TAIL:
            return p
    return 50


def hd_quantile(values: list[float], p: float, steps: int = 16) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) mass over each
    [i/n, (i+1)/n].  It uses every value, not the one or two next to the
    quantile, so it moves less with the noise on single operations.  The
    weights come from Simpson's rule on the Beta density."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x: float) -> float:
        if not 0 < x < 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    h = 1 / (n * steps)
    weights = []
    for i in range(n):
        grid = [density(i / n + k * h) for k in range(steps + 1)]
        inner = sum((4 if k % 2 else 2) * y for k, y in enumerate(grid[1:-1], 1))
        weights.append((grid[0] + grid[-1] + inner) * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def normalised_latencies(result: dict) -> list[float]:
    return [t / s for t, s in zip(result["latencies"], result["slowness"])]


def pass_wall(result: dict, normalised: bool = True) -> float:
    """Time of all ops of a pass and of the audit report, probes excluded."""
    if not normalised:
        return sum(result["latencies"]) + result["report_s"]
    return sum(normalised_latencies(result)) + result["report_s"] / result["report_slowness"]


def end_to_end(passes: list[dict], setups: list[tuple[float, float]]) -> tuple[dict, int]:
    # Every time is normalised by the host speed measured next to it (see
    # bench/hostspeed.py).  What noise remains comes and goes within seconds;
    # over the few passes of a run the mean absorbs it at least as well as the
    # median does, so an op's latency is its mean over the passes, and the quantiles
    # over the ops are Harrell-Davis estimates, for the same reason.
    lat = [statistics.fmean(ts) for ts in zip(*map(normalised_latencies, passes))]
    tail = tail_percentile(len(lat))
    values = {
        "wall_s": statistics.fmean(map(pass_wall, passes)),
        "op_p50_ms": 1e3 * hd_quantile(lat, 0.5),
        "op_tail_ms": 1e3 * hd_quantile(lat, tail / 100),
        "setup_s": statistics.median(norm for _, norm in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
    }
    return values, tail


def per_layer(traced: dict, plain: dict) -> dict:
    """name -> (value, unit) from the traced pass; cache metrics are absent
    when the cache no longer exists.  Span seconds are divided by the pass's
    time-weighted slowness, so that they add up to its normalised wall time."""
    t = traced["trace"]
    spans, counts, maxima = t["spans"], t["counts"], t["maxima"]
    out = {f"{m}.self_s": (t["module_self_s"].get(m, 0.0), "s") for m in MODULES}
    for metric, (span, field) in SPAN_METRICS.items():
        out[metric] = (spans.get(span, {}).get(field, 0), "count" if field == "calls" else "s")
    for metric in COUNT_METRICS:
        out[metric] = (counts.get(metric, 0), "count")
    for metric, unit in MAX_METRICS.items():
        out[metric] = (maxima.get(metric, 0), unit)
    gcds = spans.get("polyrat.poly_gcd", {}).get("calls", 0)
    out["polyrat.poly_gcd.useful_ratio"] = (
        counts.get("polyrat.poly_gcd.useful", 0) / gcds if gcds else 0.0, "ratio")
    prefix = t["cache_info"].get("_term_prefix")
    if prefix is not None:
        lookups = prefix["hits"] + prefix["misses"]
        out["binsum.term_prefix.entries"] = (prefix["currsize"], "count")
        out["binsum.term_prefix.hit_ratio"] = (
            prefix["hits"] / lookups if lookups else 0.0, "ratio")
    out["cli.out_bytes"] = (sum(len(o.encode()) for o in traced["outputs"]), "bytes")
    out["trace.overhead_ratio"] = (pass_wall(traced) / pass_wall(plain), "ratio")
    slow = pass_wall(traced, normalised=False) / pass_wall(traced)
    return {name: (value / slow if unit == "s" else value, unit)
            for name, (value, unit) in out.items()}


# --- one workload -----------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.perf_counter() + RUN_BUDGET_S
    run_dir = RUNS / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ops = workloads.make_ops(workload, seed)
    ops_file = run_dir / "inputs.json"
    ops_file.write_text(json.dumps(ops, indent=1), encoding="utf-8")
    checker = Checker(ops)
    lines = [f"# {workload}: seed {seed}, {len(ops)} ops per pass, "
             f"inputs in {ops_file.relative_to(ROOT)}"]

    if trace:
        plain = _worker(run_dir, "pass-0", deadline, ops_file)
        traced = _worker(run_dir, "traced", deadline, ops_file, trace=True)
        passes = [plain, traced]
    else:
        setups = _setup_samples(run_dir, deadline)
        passes, started = [], time.perf_counter()
        while True:
            t = time.perf_counter()
            passes.append(_worker(run_dir, f"pass-{len(passes)}", deadline, ops_file))
            last = time.perf_counter() - t
            if time.perf_counter() - started + last > seconds:
                break

    failed, problems = 0, []
    for k, result in enumerate(passes):
        ok, found = checker.judge(result)
        failed += ok.count(False)
        problems += [f"pass {k}: {p}" for p in found]
    attempted = len(ops) * len(passes)
    if trace and (plain["rcs"], plain["outputs"], plain["report"]) != (
            traced["rcs"], traced["outputs"], traced["report"]):
        diff = [i for i in range(len(ops)) if (plain["rcs"][i], plain["outputs"][i])
                != (traced["rcs"][i], traced["outputs"][i])]
        failed += len(diff)
        problems.append(f"traced outputs differ from untraced ones at ops {diff[:10]}"
                        + (" and in the report" if plain["report"] != traced["report"] else ""))

    if trace:
        metrics = per_layer(traced, plain)
        for name, (value, unit) in metrics.items():
            lines.append(f"{workload:10} {name:34} {value:>14.6g} {unit}")
    else:
        values, tail = end_to_end(passes, setups)
        metrics = {name: (values[name], END_TO_END_UNITS[name]) for name in values}
        raw_wall = statistics.fmean(pass_wall(r, normalised=False) for r in passes)
        slow = statistics.median(s for r in passes for s in r["slowness"])
        notes = {"wall_s": f"mean of {len(passes)} passes; raw {raw_wall:.4g} s, "
                           f"median slowness {slow:.3f}",
                 "op_p50_ms": f"over {len(ops)} ops x {len(passes)} passes",
                 "op_tail_ms": f"p{tail}, {len(ops)} ops per pass",
                 "setup_s": f"median of {len(setups)} interpreters; raw "
                            f"{statistics.median(raw for raw, _ in setups):.4g} s",
                 "peak_rss_mb": f"median of {len(passes)} passes"}
        for name, (value, unit) in metrics.items():
            lines.append(f"{workload:10} {name:12} {value:>12.6g} {unit:3} ({notes[name]})")
    lines.append(f"{workload:10} fail_ratio   {failed / attempted:>12.6g} ratio "
                 f"({failed} of {attempted} ops)")
    lines += [f"FAILED {p}" for p in problems[:20]]
    result = {"correct": not problems and failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}
    (run_dir / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    print("\n".join(lines), flush=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "recsums" / "__init__.py").is_file():
        print(f"error: no recsums source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)      # failure messages may render huge values
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace))
                   for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
