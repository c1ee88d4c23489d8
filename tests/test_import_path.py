"""The package import stays cheap: every `syzcover verify` process pays for it.

`dataclasses` pulls in inspect, ast, dis and tokenize, and generates and
execs each decorated class's methods at import; `typing` is a large import
of its own.  The check runs `import syzcover.cli` in a fresh interpreter
without `site`, so nothing but the package itself loads modules.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")


def test_cli_import_loads_no_heavy_module():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (
        "import sys; import syzcover.cli; "
        f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))"
    )
    res = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == []


def test_cli_import_leaves_the_packed_rows_unloaded():
    """Only runs that reach a census (p <= 7 at the default cap) import syzcover.packed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (
        "import sys; import syzcover.cli; "
        "from syzcover.report import run_verification; "
        "run_verification(11, checks=('fiber',)); "
        "print('syzcover.packed' in sys.modules)"
    )
    res = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["False"]
