"""One pass of a workload in a fresh interpreter; started by run.py.

    PYTHONPATH=src python3 bench/worker.py --ops OPS.json --out RESULT.json [--trace SPANS.jsonl]
    PYTHONPATH=src python3 bench/worker.py --out RESULT.json          # import time only

The first thing it does is time ``import recsums.cli`` (setup_s: the package,
its claim registry and the CLI module that two workloads enter through).  It
then runs the operations one after another in this process (a closed loop
with one client), timing each, and records every output for run.py to check.
Peak RSS is read before anything is written out, so the result file does not
inflate it.  The host-speed probe (hostspeed.py) runs after the import, before
the first operation and after every operation, outside every timed interval;
run.py divides each time by the slowness measured next to it.  Replaying a recorded run is the first command above with the run's
``inputs.json``.
"""

import sys
import time

_t0 = time.perf_counter()
import recsums.cli  # noqa: E402,F401  (timed: the set-up a user pays)
SETUP_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import hostspeed  # noqa: E402
from spans import Tracer  # noqa: E402


def _cli_op(argv: list[str]) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = recsums.cli.main(argv)
        except SystemExit as exc:      # argparse usage errors exit 2
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def run_pass(ops: list[dict], tracer: Tracer | None) -> dict:
    """Run every op; return latencies, the host slowness around each, exit
    codes and outputs."""
    sys.set_int_max_str_digits(0)      # outputs run to 10^5+ digits
    latencies, slowness, rcs, outputs, errors = [], [], [], [], []
    claim_results = []
    before = hostspeed.slowness()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t = time.perf_counter()
        try:
            if "claim" in op:
                claim_results.extend(recsums.audit.run_audit([op["claim"]]))
                rc, out, err = 0, "", ""
            else:
                rc, out, err = _cli_op(op["argv"])
        except Exception:              # one failed op must not end the pass
            rc, out, err = "exception", "", traceback.format_exc()
        latencies.append(time.perf_counter() - t)
        after = hostspeed.slowness()
        slowness.append((before + after) / 2)
        before = after
        rcs.append(rc)
        outputs.append(out)
        errors.append(err[-2000:])
    report, report_s, report_slowness = None, 0.0, 1.0
    if claim_results:
        if tracer is not None:
            tracer.op = len(ops)
        t = time.perf_counter()
        report = recsums.audit.report(claim_results, "structured")
        report_s = time.perf_counter() - t
        report_slowness = (before + hostspeed.slowness()) / 2
    return {"latencies": latencies, "slowness": slowness, "rcs": rcs,
            "outputs": outputs, "errors": errors, "report": report,
            "report_s": report_s, "report_slowness": report_slowness}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--ops")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", help="write spans here and trace the pass")
    args = parser.parse_args()
    result = {"setup_s": SETUP_S,
              "setup_slowness": sorted(hostspeed.slowness() for _ in range(3))[1]}
    if args.ops:
        with open(args.ops, encoding="utf-8") as fh:
            ops = json.load(fh)
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            result.update(run_pass(ops, tracer))
        finally:
            if tracer is not None:
                tracer.remove()
        result["peak_rss_mb"] = _peak_rss_mb()
        if tracer is not None:
            result["trace"] = {"counts": dict(tracer.counts),
                               "maxima": dict(tracer.maxima),
                               **tracer.totals(),
                               "cache_info": _cache_info()}
            with open(args.trace, "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _peak_rss_mb() -> float:
    """Peak RSS of this process.  Linux carries ru_maxrss over from the parent
    through fork and exec, so the parent's size would set a floor under it;
    VmHWM belongs to this process image alone."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _cache_info() -> dict:
    """lru_cache statistics of the private caches that still exist."""
    out = {}
    for name in ("_term_prefix", "_fib", "_luc"):
        fn = getattr(recsums.binsum, name, None)
        if fn is not None and hasattr(fn, "cache_info"):
            info = fn.cache_info()
            out[name] = {"hits": info.hits, "misses": info.misses,
                         "currsize": info.currsize}
    return out


if __name__ == "__main__":
    sys.exit(main())
