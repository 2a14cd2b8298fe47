"""Design guards.

Closed forms compute over Q; QuadElem stays where Q(sqrt(D)) is the subject.
QuadElem is the arithmetic of ``lemma5`` (``binsum.root_power_collapse``, a
statement about Q(sqrt(5))) and the tests' Binet reference.  Every closed form
reaches Q through ``seq.binet_pairs``, so polynomials and rational functions
hold rationals only.

``Polynomial`` is a value, not an algebra: its only arithmetic is evaluation.
Every sum, product and gcd of polynomials runs on polyrat's integer lists, and
rational functions are added only by ``RationalFunction.sum``.

Every public function, class and method of src is used somewhere else in
src, bar two named for their users outside it.

Every audit claim that compares a value with a printed form is one
``audit._compare`` check, and a sequence is named by its ``RecurrenceSpec``.
Every sum of U_i^r x^i, weighted or not, takes ``(spec, r, n, ...)``.

The Fibonacci claims at x = +/-1 are named by their claim ids in binsum,
and each is stated once.  One table, ``binsum.FIB_SUMS``, gives each of the
sixteen value claims its sum, the n its printed form is stated for and its
variant ids; one guard serves a printed form on exactly those n, and the
audit's grid reads its first n, stride and variants from the same table.
One direct-sum oracle serves all sixteen, the thm6/thm9 families share one
bracket sum, and ``binsum.CONGRUENCE_CLAIMS`` gives each congruence the
identity whose numerator it reads and its exponents.

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

Every audit claim declares its grid as data, its axes and its index, and one
builder, ``Claim.rows``, reads every claim's cells and rows off that
declaration.

The closed partial sums serve every initial value at every n: partsum holds
no size cap and refuses only n < 0 and r < 1, and the CLI reads no initial
value to choose a sum mode.  Only the printed displays test b = 1 and
u0 = 0, the published claims' hypotheses, through one guard,
``seq.require_b1_u0``: ``partial_sum_printed``, ``partsum.corollary_r1`` and
``gfpow.display_r1/2/3``.
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
from recsums.audit import REGISTRY, Claim
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
    # the two names allowed are used by the README's library example
    # (RationalFunction.expand) and bench/spans.py (both)
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in SRC.glob("*.py") if p.name != "__init__.py"}
    named = sum(map(_named, trees.values()), Counter())
    unused = {f"{module}.{node.name}" for module, tree in trees.items()
              for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and named[node.name] == _named(node)[node.name]}
    assert unused == {"polyrat.expand", "polyrat.evaluate"}


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


def test_polynomial_is_a_value_and_polyrat_lists_are_the_arithmetic():
    dunders = {name for name, attr in vars(Polynomial).items()
               if name.startswith("__") and callable(attr)}
    assert dunders == {"__init__", "__repr__", "__bool__", "__call__", "__eq__", "__hash__"}
    assert not hasattr(polyrat.RationalFunction, "__add__")
    assert not hasattr(polyrat, "_IntPolynomial")
    tree = ast.parse((SRC / "gfpow.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "Polynomial" not in imported


def test_every_value_claim_is_one_comparison():
    own_checks = {"lemma5", *CONGRUENCE_CLAIMS}
    assert own_checks <= set(REGISTRY)
    for cid, claim in REGISTRY.items():
        compared = claim.check.__qualname__.startswith("_compare.")
        assert compared == (cid not in own_checks), cid


def test_every_claim_declares_its_grid_as_data():
    assert list(Claim._fields) == [
        "id", "description", "hypotheses", "axes", "index", "check"]
    for cid, claim in REGISTRY.items():
        # a declaration is a frozen value: hashable, like the parts it holds
        assert all(type(values) is tuple for _, values in claim.axes), cid
        assert claim.index is None or len(claim.index) == 5, cid
        hash(claim)
    assert "lambda max_n" not in (SRC / "audit.py").read_text(encoding="utf-8")


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


def test_the_closed_partial_sums_serve_every_initial_value_and_n():
    assert [name for name in vars(partsum) if name.endswith("_LIMIT")] == []
    assert list(inspect.signature(partsum._check).parameters) == ["r", "n"]
    (sum_like,) = [fn for fn in _functions("cli.py") if fn.name == "_sum_like"]
    assert "u0" not in _named(sum_like)


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
    tables = {"sums": binsum.FIB_SUMS, "numerators": binsum._NUMERATORS,
              "congruences": binsum.CONGRUENCE_CLAIMS}
    for name, table in tables.items():
        assert set(table) <= set(REGISTRY), name
    identities = {identity for identity, _ in CONGRUENCE_CLAIMS.values()}
    assert identities <= set(binsum._NUMERATORS)
    value_claims = {cid for cid in REGISTRY
                    if cid.startswith(("thm6-", "thm9-", "cor7-", "cor10-"))}
    assert set(binsum.FIB_SUMS) == value_claims and len(value_claims) == 16
    assert [name for name in vars(binsum) if name.startswith("_t6_")] == []
    assert not hasattr(binsum, "weighted_family_lhs")


def test_each_fibonacci_claim_states_its_n_once():
    # FIB_SUMS holds each sum's first n, parity and variants: no printed form
    # tests n itself, and the audit's grid keeps no first n or stride of its own
    for name in ("WEIGHTED_FAMILIES", "_FIB_SUMS"):
        assert not hasattr(binsum, name), name
    assert not re.search(r"\bn_(lo|step)\b", (SRC / "audit.py").read_text(encoding="utf-8"))
    bodies = {fn.name: ast.unparse(fn) for fn in _functions("binsum.py")}
    for name in ("fib_weighted_closed", "corollary_rhs"):
        assert "n % 2" not in bodies[name] and "n < " not in bodies[name], name
    assert " if " not in bodies["congruence_exponents"]


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
    assert partsum.horadam_direct(2, 5, [-6]) == [sum(seq.term(pell, -i) for i in range(1, 7))]
    assert seen == [spec, pell]
    assert seq.term_fast(spec, 7) == seq.term(spec, 7)
    assert partsum.horadam_direct(2, 5, [6]) == [sum(seq.term(pell, i) for i in range(1, 7))]
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
    real = seq._doubling

    def counted(coeffs, initial, n):
        calls.append(len(coeffs))
        return real(coeffs, initial, n)

    monkeypatch.setattr(seq, "_doubling", counted)
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
