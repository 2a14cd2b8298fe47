"""The README's examples run as written: the python block under "## Library
example" with its asserts, and each CLI line whose comment is a value."""

import re
import shlex
from pathlib import Path

from recsums import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")


def _block(title: str, lang: str) -> str:
    section = README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_the_library_example_runs_and_prints_its_comments(capsys):
    code = _block("Library example", "python")
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # a comment shows the printed value, after a note ("# no x: ...") if any
    shown = [line.split("# ", 1)[1].rsplit(": ", 1)[-1] for line in code.splitlines()
             if line.startswith("print(") and "# " in line]
    assert len(shown) == 2 and set(shown) <= set(printed), (shown, printed)


def test_the_cli_lines_print_their_value_comments(capsys):
    lines = [line.split("#", 1) for line in _block("CLI", "sh").splitlines()
             if "#" in line]
    # a value comment holds only digits, x, signs, powers and fractions
    valued = [(cmd, value.strip()) for cmd, value in lines
              if re.fullmatch(r"[-+ /^()x\d]+", value.strip())]
    assert [value for _, value in valued] == [
        "55", "35905/10460353203", "x/(1 - x - x^2)"]
    for cmd, value in valued:
        assert cli.main(shlex.split(cmd)[1:]) == 0, cmd
        assert capsys.readouterr().out == value + "\n", cmd
