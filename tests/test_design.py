"""Design guards.

Closed forms compute over Q; QuadElem stays where Q(sqrt(D)) is the subject.
QuadElem is the arithmetic of ``lemma5`` (``binsum.root_power_collapse``, a
statement about Q(sqrt(5))) and the tests' Binet reference.  Every closed form
reaches Q through ``seq.binet_pairs``, so polynomials and rational functions
hold Fractions only.

Every public function, class and method of src is used somewhere else in
src, bar three named for their users outside it.

Every audit claim that compares a value with a printed form is one
``audit._compare`` check, and a sequence is named by its ``RecurrenceSpec``.
Every sum of U_i^r x^i, weighted or not, takes ``(spec, r, n, ...)``.

The Fibonacci claims at x = +/-1 are named by their claim ids in binsum:
one direct-sum oracle serves all sixteen value claims, the thm6/thm9 families
share one bracket sum, and each congruence reads its identity's numerator.

One doubling kernel, ``seq.linear_term``, reads off a term of a rational
recurrence of any order: ``recsums seq`` at every index, each Binet pair at
order 2, and each pair's partial sum at order 3, one call per pair.  The walk
``seq.term`` is the tests' reference only.  Every command but ``audit`` is
budgeted by one predicted-work limit, ``cli.WORK_LIMIT``, priced from the
input alone, so a refusal costs no computation.  A prefix store
keeps one forward walk: a negative index is the forward walk of
``seq.reflected(spec)``, in ``term_fast`` and ``horadam_direct`` alike.

Every exact value is printed through one renderer, ``polyrat._text``, which
renders values above its crossover in subquadratic time: the CLI's values,
the coefficients of polyrat's printers and audit's witnesses.  The CLI
defines no renderer of its own.

``gf_power`` builds and checks in one pass, by applying Theorem 1's pole
factors to one integer series (``gf --check-terms`` only lengthens it): no
Polynomial product builds the denominator, and neither gfpow nor the CLI
expands a rational function.
"""

import ast
import inspect
import re
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from recsums import binsum, cli, gfpow, partsum, polyrat, seq
from recsums.audit import REGISTRY
from recsums.binsum import CONGRUENCE_CLAIMS
from recsums.polyrat import Polynomial
from recsums.qfield import QuadElem, RecurrenceSpec

SRC = Path(__file__).resolve().parent.parent / "src" / "recsums"


def _named(tree) -> Counter:
    """How often each name is read, as a bare name or an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_public_definition_is_named_elsewhere_in_src():
    # a re-export in __init__.py is no use, nor is a definition's own body;
    # the three names allowed are used by the README's library example
    # (gf_oracle, RationalFunction.expand) and bench/spans.py (all three)
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in SRC.glob("*.py") if p.name != "__init__.py"}
    named = sum(map(_named, trees.values()), Counter())
    unused = {f"{module}.{node.name}" for module, tree in trees.items()
              for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and named[node.name] == _named(node)[node.name]}
    assert unused == {"gfpow.gf_oracle", "polyrat.expand", "polyrat.evaluate"}


def test_quadelem_is_named_only_where_it_is_the_subject():
    naming = {p.name for p in SRC.glob("*.py")
              if "QuadElem" in p.read_text(encoding="utf-8")}
    assert naming <= {"qfield.py", "binsum.py", "__init__.py"}


@pytest.mark.parametrize("module", ("gfpow.py", "partsum.py"))
def test_closed_form_modules_take_only_the_spec_from_qfield(module):
    text = (SRC / module).read_text(encoding="utf-8")
    assert re.findall(r"from \.qfield import ([^\n]*)", text) == ["RecurrenceSpec"]


def test_polynomials_are_rational_only():
    assert "qfield" not in (SRC / "polyrat.py").read_text(encoding="utf-8")
    with pytest.raises(TypeError):
        Polynomial([QuadElem(1, 1, 5)])


def test_every_value_claim_is_one_comparison():
    own_checks = {"lemma5", *CONGRUENCE_CLAIMS}
    assert own_checks <= set(REGISTRY)
    for cid, claim in REGISTRY.items():
        compared = claim.check.__qualname__.startswith("_compare.")
        assert compared == (cid not in own_checks), cid


def test_a_sequence_is_named_by_its_spec():
    assert not hasattr(seq, "SequenceHandle")
    spec = seq.fibonacci()
    assert isinstance(spec, RecurrenceSpec)
    assert seq.store(spec) is seq.store(RecurrenceSpec(1, 1, 0, 1))


def test_every_sum_takes_spec_power_then_upper_index():
    assert not hasattr(partsum, "PartialSumQuery")
    sums = {f"{mod.__name__}.{name}": fn
            for mod in (partsum, binsum) for name, fn in vars(mod).items()
            if re.fullmatch(r"(partial|binom)_sum_\w+", name)}
    assert len(sums) == 6, sorted(sums)
    for name, fn in sums.items():
        assert list(inspect.signature(fn).parameters)[:3] == ["spec", "r", "n"], name


def test_the_cli_serves_seq_through_the_kernel_under_one_limit():
    calling = [p.name for p in SRC.glob("*.py")
               if "seq.term(" in p.read_text(encoding="utf-8")]
    assert calling == []
    assert sorted(name for name in vars(cli) if name.endswith("_LIMIT")) == [
        "AUDIT_MAX_N_LIMIT", "WORK_LIMIT"]


@pytest.mark.parametrize("argv", (
    ["gf", "--preset", "fibonacci", "--power", str(10**9)],
    ["binom-sum", "--preset", "fibonacci", "--n", "1", "--power", str(10**9),
     "--x", "1"],
), ids=("gf", "binom-sum"))
def test_a_huge_power_is_refused_without_computing(capsys, argv):
    cli.build_parser()
    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start
    assert code == 2 and "set by --power" in capsys.readouterr().err
    assert elapsed < 0.05, elapsed


def test_binsum_names_the_fibonacci_claims_by_claim_id():
    tables = {"families": binsum.WEIGHTED_FAMILIES, "oracle": binsum._FIB_SUMS,
              "numerators": binsum._NUMERATORS,
              "congruences": binsum.CONGRUENCE_CLAIMS}
    for name, table in tables.items():
        assert set(table) <= set(REGISTRY), name
    assert set(CONGRUENCE_CLAIMS.values()) <= set(binsum._NUMERATORS)
    value_claims = {cid for cid in REGISTRY
                    if cid.startswith(("thm6-", "thm9-", "cor7-", "cor10-"))}
    assert set(binsum._FIB_SUMS) == value_claims and len(value_claims) == 16
    assert [name for name in vars(binsum) if name.startswith("_t6_")] == []
    assert not hasattr(binsum, "weighted_family_lhs")


def _functions(module: str):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    return [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)]


def _str_calls(fn):
    return [ast.unparse(node.args[0]) for node in ast.walk(fn)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "str"]


def test_the_cli_prints_exact_values_only_through_text():
    calls_text = set()
    for fn in _functions("cli.py"):
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                name, args = node.func.id, node.args
                if name == "_text":
                    calls_text.add(fn.name)
                # print(value): a bare name printed as it is
                assert not (name == "print" and args
                            and isinstance(args[0], ast.Name)), ast.unparse(node)
                # str(v): only the spec, the inputs and errors are stringified
                if name == "str":
                    assert ast.unparse(args[0]) in {"spec", "order", "args.x",
                                                    "exc"}, ast.unparse(node)
            # f"{values['direct']}": an f-string reading a computed value
            if isinstance(node, ast.FormattedValue):
                shown = ast.unparse(node.value)
                assert shown != "term" and not shown.startswith("values"), shown
    assert {"_cmd_seq", "_sum_like"} <= calls_text


def test_gf_builds_and_checks_by_pole_factors():
    assert not hasattr(gfpow, "_theorem1_denominator")
    assert not hasattr(gfpow, "check_series")
    for module in (gfpow, cli):
        assert ".expand(" not in inspect.getsource(module), module.__name__


def test_the_cli_defines_no_renderer():
    text = (SRC / "cli.py").read_text(encoding="utf-8")
    assert not re.search(r"^(import|from) decimal", text, re.M)
    assert "_text" not in {fn.name for fn in _functions("cli.py")}
    assert [name for name in vars(cli) if name.endswith("_BITS")] == []
    assert cli._text is polyrat._text


def test_printers_and_witnesses_stringify_no_computed_value():
    # polyrat: only the renderer itself calls str(), and the printers format
    # nothing but rendered text and the degree k
    for fn in _functions("polyrat.py"):
        if fn.name not in ("_text", "two_to", "join"):
            assert _str_calls(fn) == [], fn.name
        if fn.name in ("_term_body", "_poly_terms", "poly_to_text", "rf_to_text",
                       "rf_to_latex"):
            for node in ast.walk(fn):
                if isinstance(node, ast.FormattedValue):
                    shown = ast.unparse(node.value)
                    assert shown in {"mag", "xpart", "k", "num"} or shown.startswith(
                        "poly_to_text("), (fn.name, shown)
    # audit: str() only on a cell's parameters and on lemma5's QuadElem,
    # which is not a rational; every other witness goes through _text
    calls = {(fn.name, arg) for fn in _functions("audit.py") for arg in _str_calls(fn)}
    assert calls <= {("_cell_key", "v"), ("_params_json", "v"), ("_params_json", "x"),
                     ("_check_lemma5", "value")}, calls
    for name in ("_fmt", "check"):
        assert any("_text(" in ast.unparse(fn) for fn in _functions("audit.py")
                   if fn.name == name), name


def test_a_negative_index_is_the_reflected_specs_forward_walk(monkeypatch):
    assert seq.PrefixStore.__slots__ == ("a", "b", "den", "_fwd")
    seen = []
    real = seq.reflected
    monkeypatch.setattr(seq, "reflected", lambda spec: seen.append(spec) or real(spec))
    spec = RecurrenceSpec(2, -3, Fraction(1, 3), 1)
    assert seq.term_fast(spec, -7) == seq.term(spec, -7)
    pell = seq.generalized_pell(2, 5)
    assert partsum.horadam_direct(2, 5, -6) == sum(seq.term(pell, -i) for i in range(1, 7))
    assert seen == [spec, pell]
    assert seq.term_fast(spec, 7) == seq.term(spec, 7)
    assert partsum.horadam_direct(2, 5, 6) == sum(seq.term(pell, i) for i in range(1, 7))
    assert seen == [spec, pell]
    # no second backward formula: the kernel runs on a spec's own (b, a)
    tree = ast.parse(inspect.getsource(seq.term_fast))
    calls = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Call)
             and ast.unparse(node.func) == "linear_term"]
    assert calls == ["linear_term((spec.b, spec.a), (spec.u0, spec.u1), n)"]


def test_one_kernel_serves_every_order():
    for module, names in ((seq, ("_fundamental_pair", "lucas_term")),
                          (partsum, ("_pair_terms", "_geometric_pair_sum"))):
        for name in names:
            assert not hasattr(module, name), name


@pytest.mark.parametrize("closed", (partsum.partial_sum_general_b,
                                    binsum.binom_sum_closed))
@pytest.mark.parametrize("spec, r, x", (
    (RecurrenceSpec(1, 1, 0, 1), 5, Fraction(1, 2)),
    (RecurrenceSpec(1, 2, 0, 1), 4, Fraction(1)),    # beta^4 x = 1: a root 1
))
def test_a_closed_sum_reads_each_binet_pair_with_one_kernel_call(
        monkeypatch, closed, spec, r, x):
    pairs = seq.binet_pairs(spec, r, x)      # built, and memoised, beforehand
    calls = []
    real = seq.linear_term

    def counted(coeffs, initial, n):
        calls.append(len(coeffs))
        return real(coeffs, initial, n)

    monkeypatch.setattr(seq, "linear_term", counted)
    for n in (0, 1, 9):
        calls.clear()
        closed(spec, r, n, x)
        order = 3 if closed is partsum.partial_sum_general_b else 2
        assert calls == [order] * len(pairs)


@pytest.mark.parametrize("build", (
    lambda: gfpow.paired_form(RecurrenceSpec(1, -3, 2, 1), 5, "general"),
    lambda: gfpow.paired_form(RecurrenceSpec(2, 1, 0, 1), 6, "printed"),
    lambda: partsum._symbolic_sum(RecurrenceSpec(1, 1, 0, 1), 3, 7),
    lambda: partsum._symbolic_sum(RecurrenceSpec(2, 1, 0, 1), 4, 7, printed=True),
))
def test_a_pair_sum_form_is_canonicalised_once(monkeypatch, build):
    made = []
    real = polyrat.RationalFunction.__init__

    def counted(self, num, den):
        made.append(1)
        real(self, num, den)

    monkeypatch.setattr(polyrat.RationalFunction, "__init__", counted)
    build()
    assert len(made) == 1
