"""The benchmark's traced output keeps every per-layer metric BENCHMARK.json names.

A small ops file (one audit claim, one ``binom-sum --both``, one
``gf --check-terms``) runs through bench/worker.py once plain and once traced,
and both results go through bench/run.py's ``per_layer``, as in a traced
benchmark run.  A metric read from a package attribute that a refactor removed
(such as ``binsum._term_prefix.cache_info()``) drops out of that output
without any other error, so the names are compared with the full set here.
The names the tracer patches or reads are also resolved one by one against the
package, so a simplification that deletes one fails here naming it.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"

OPS = [
    {"claim": "cor7-1"},
    {"argv": ["binom-sum", "--preset", "fibonacci", "--n", "12", "--power", "2",
              "--x=1/2", "--both"]},
    {"argv": ["gf", "--preset", "fibonacci", "--power", "3", "--check-terms", "9"]},
]


@pytest.fixture
def bench_run(monkeypatch):
    """bench/run.py imported as a module; its sibling modules are dropped
    from sys.modules again afterwards."""
    monkeypatch.syspath_prepend(str(BENCH))
    before = set(sys.modules)
    import run
    yield run
    for name in set(sys.modules) - before:
        del sys.modules[name]


def _worker(tmp_path: Path, tag: str, trace: bool) -> dict:
    ops = tmp_path / "ops.json"
    ops.write_text(json.dumps(OPS), encoding="utf-8")
    out = tmp_path / f"{tag}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--ops", str(ops), "--out", str(out)]
    if trace:
        cmd += ["--trace", str(tmp_path / f"{tag}.spans.jsonl")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(out.read_text(encoding="utf-8"))


def test_traced_pass_reports_every_per_layer_metric(tmp_path, bench_run):
    plain = _worker(tmp_path, "plain", trace=False)
    traced = _worker(tmp_path, "traced", trace=True)
    assert plain["rcs"] == traced["rcs"] == [0, 0, 0]
    assert plain["outputs"] == traced["outputs"]
    assert plain["report"] == traced["report"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {m["name"] for m in declared["per_layer"]}
    assert set(bench_run.per_layer(traced, plain)) == expected


def test_every_name_the_bench_patches_or_reads_resolves(bench_run):
    import spans

    def function(name):
        mod, attr = name.split(".", 1)
        fn = getattr(importlib.import_module(f"recsums.{mod}"), attr, None)
        assert inspect.isfunction(fn), f"{name} is not a function of recsums.{mod}"
        assert name not in spans.UNWRAPPED, f"{name} is read but left unwrapped"

    methods = {**spans.SPAN_METHODS, **spans.COUNT_METHODS}
    for (mod, cls, meth), key in methods.items():
        owner = getattr(importlib.import_module(f"recsums.{mod}"), cls, None)
        assert owner is not None and meth in vars(owner), \
            f"{mod}.{cls}.{meth} ({key}) is gone"
    for span, _field in bench_run.SPAN_METRICS.values():
        if span not in spans.SPAN_METHODS.values():
            function(span)
    function("seq.terms")
    binsum = importlib.import_module("recsums.binsum")
    assert callable(getattr(getattr(binsum, "_term_prefix", None), "cache_info", None)), \
        "binsum._term_prefix.cache_info is gone"
