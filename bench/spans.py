"""Span and counter wrappers around the recsums layers, for one traced pass.

``Tracer.install`` replaces the public functions of each module, and a few
methods of its value types, by wrappers that record a span (name, start, end,
parent, operation) or bump a counter.  A function is replaced under every name
that refers to it in any recsums module, so ``from .qfield import roots`` in
another module is wrapped as well as ``qfield.roots`` itself.  Calls made
through module or class attributes (``seq.term(...)`` inside ``partsum``,
``poly_gcd`` inside ``RationalFunction.__init__``) therefore all pass through a
wrapper.  ``Tracer.remove`` puts every original back.

``QuadElem`` arithmetic is counted, not timed, and functions called once per
scalar step are left alone, so that the traced pass stays close to the
untraced one; the overhead is reported as ``trace.overhead_ratio``.  Work in
code no span covers (those functions, private helpers, ``Polynomial``
arithmetic) lands in the self time of the nearest enclosing span.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter

MODULES = ("qfield", "polyrat", "seq", "gfpow", "partsum", "binsum", "audit", "cli")

# Public functions called once per coefficient or scalar step: left unwrapped,
# so their time lands in the caller's span.
UNWRAPPED = frozenset({
    "qfield.is_perfect_square", "qfield.conjugate", "qfield.invert",
    "qfield.rationalize", "binsum.padic_valuation", "binsum.divisible_by_5_pow",
    "partsum.horadam_index",
})

# (module, class, method) -> span name
SPAN_METHODS = {
    ("polyrat", "RationalFunction", "__init__"): "polyrat.rf_new",
    ("polyrat", "RationalFunction", "expand"): "polyrat.expand",
    ("polyrat", "RationalFunction", "evaluate"): "polyrat.evaluate",
    ("qfield", "QuadElem", "__pow__"): "qfield.pow",
}

# (module, class, method) -> counter name; the hottest arithmetic is counted,
# not timed
COUNT_METHODS = {
    ("qfield", "QuadElem", "__mul__"): "qfield.mul.count",
    ("qfield", "QuadElem", "__rmul__"): "qfield.mul.count",
    ("qfield", "QuadElem", "invert"): "qfield.invert.count",
}

HOOK = "trace.hook"


def _bits(value) -> int:
    """Largest numerator/denominator bit length in a Fraction or QuadElem."""
    parts = (value.rat, value.coef) if hasattr(value, "rat") else (value,)
    return max(max(p.numerator.bit_length(), p.denominator.bit_length())
               for p in parts)


def _poly_bits(poly) -> int:
    return max((_bits(c) for c in poly.coeffs), default=0)


class Tracer:
    """Spans and counters of one traced pass, kept in memory until written."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent id or -1, op, name, start, end)
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.op = -1
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple] = []

    # --- recording ------------------------------------------------------------

    def _open(self, name: str) -> list:
        frame = [self._next_id, self._stack[-1][0] if self._stack else -1, name,
                 time.perf_counter()]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list):
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((frame[0], frame[1], self.op, frame[2], frame[3], end))

    def _span(self, name: str, fn, before=None, after=None):
        def wrapper(*args, **kwargs):
            if before is not None:
                hook = self._open(HOOK)
                before(args, kwargs)
                self._close(hook)
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if after is not None:
                hook = self._open(HOOK)
                after(args, kwargs, result)
                self._close(hook)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # --- per-function statistics -----------------------------------------------

    def _hooks(self, name: str):
        counts, maxima = self.counts, self.maxima

        def arg(args, kwargs, index, key):
            return args[index] if len(args) > index else kwargs[key]

        if name == "seq.term":
            return (lambda a, k: counts.update({"seq.term.steps": abs(arg(a, k, 1, "n"))}),
                    None)
        if name == "seq.terms":
            return (lambda a, k: counts.update({"seq.terms.items": arg(a, k, 1, "count")}),
                    None)
        if name == "polyrat.poly_gcd":
            def before(a, k):
                bits = max(_poly_bits(arg(a, k, 0, "p")), _poly_bits(arg(a, k, 1, "q")))
                maxima["polyrat.poly_gcd.max_in_bits"] = max(
                    maxima["polyrat.poly_gcd.max_in_bits"], bits)

            def after(a, k, result):
                if result.degree > 0:
                    counts["polyrat.poly_gcd.useful"] += 1
            return before, after
        if name == "gfpow.gf_power":
            def after(a, k, result):
                bits = max(_poly_bits(result.num), _poly_bits(result.den))
                maxima["gfpow.out_max_bits"] = max(maxima["gfpow.out_max_bits"], bits)
            return None, after
        if name == "audit.run_audit":
            return None, lambda a, k, result: counts.update({"audit.cells": len(result)})
        return None, None

    # --- installing and removing -------------------------------------------------

    def install(self):
        """Wrap every recsums layer; call ``remove`` to undo."""
        mods = {m: importlib.import_module(f"recsums.{m}") for m in MODULES}
        holders = [importlib.import_module("recsums"), *mods.values()]
        replace: dict[int, object] = {}
        for mname, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{mname}.{attr}"
                if name not in UNWRAPPED:
                    replace[id(obj)] = self._span(name, obj, *self._hooks(name))
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                if id(obj) in replace and inspect.isfunction(obj):
                    self._patch(holder, attr, replace[id(obj)])
        for (mname, cname, meth), name in SPAN_METHODS.items():
            cls = getattr(mods[mname], cname)
            self._patch(cls, meth, self._span(name, vars(cls)[meth], *self._hooks(name)))
        for (mname, cname, meth), key in COUNT_METHODS.items():
            cls = getattr(mods[mname], cname)
            self._patch(cls, meth, self._counted(key, vars(cls)[meth]))

    def _patch(self, holder, attr: str, wrapper):
        self._patched.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, wrapper)

    def remove(self):
        """Restore every attribute ``install`` replaced, newest first."""
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    # --- summaries ---------------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds of the outermost calls (a
        recursive call inside a span of the same name is not added twice) and
        the longest of them, and self seconds; per module: self seconds."""
        parent = {s[0]: s[1] for s in self.spans}
        name_of = {s[0]: s[3] for s in self.spans}
        child_time: Counter = Counter()
        for sid, pid, _op, _name, start, end in self.spans:
            if pid >= 0:
                child_time[pid] += end - start
        by_name: dict[str, dict] = {}
        modules: Counter = Counter()
        for sid, pid, _op, name, start, end in self.spans:
            row = by_name.setdefault(name, {"calls": 0, "s": 0.0, "max_s": 0.0,
                                            "self_s": 0.0})
            row["calls"] += 1
            own = end - start - child_time[sid]
            row["self_s"] += own
            modules[name.split(".", 1)[0]] += own
            anc = pid
            while anc >= 0 and name_of[anc] != name:
                anc = parent[anc]
            if anc < 0:
                row["s"] += end - start
                row["max_s"] = max(row["max_s"], end - start)
        return {"spans": by_name, "module_self_s": dict(modules)}
