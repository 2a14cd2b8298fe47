"""Cold start: every CLI command runs in a process of its own, so it first
pays ``import recsums.cli``.  That import, and a bare ``import recsums``, load
none of the stdlib modules recsums has no use for: ``dataclasses`` (and the
``inspect``, ``ast``, ``dis`` and ``tokenize`` it pulls in), ``json`` and
``typing``.

Each import runs in a fresh ``python -S`` interpreter with only src on the
path: pytest has already imported these modules in its own process, and
``site`` (with whatever its .pth files import) is not recsums' doing.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
UNUSED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "json", "typing")


@pytest.mark.parametrize("module", ("recsums", "recsums.cli"))
def test_import_loads_no_unused_stdlib_module(module):
    probe = (f"import sys, {module}\n"
             f"print(sorted(set({UNUSED!r}) & set(sys.modules)), {module!r} in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-W", "error", "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "[] True\n"
