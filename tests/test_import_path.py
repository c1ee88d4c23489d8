"""The package import stays cheap: every `syzcover verify` process pays for it.

`dataclasses` pulls in inspect, ast, dis and tokenize, and generates and
execs each decorated class's methods at import; `typing` is a large import
of its own.  The check runs `import syzcover.cli` in a fresh interpreter
without `site`, so nothing but the package itself loads modules.  A fresh
interpreter also shows every field a run builds, in `gf._FIELDS`.
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


def test_verify_builds_no_field_above_degree_two():
    """A full `verify --prime 7` and a raised-cap census at p = 11 build only
    GF(p) and GF(p^2): the census field is held in its Kummer presentation."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (
        "import os, sys; from syzcover import cli, gf; "
        "from syzcover.report import run_verification; "
        "assert cli.main(['verify', '--prime', '7', '--output', os.devnull]) == 0; "
        "assert run_verification(11, ('fiber',), max_field_size=11**20).overall == 'pass'; "
        "print(' '.join(f'{p}^{m}' for p, m in sorted(gf._FIELDS)))"
    )
    res = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env
    )
    assert res.returncode == 0, res.stderr
    fields = res.stdout.split()
    assert {"7^2", "11^2"} <= set(fields)
    assert all(int(key.split("^")[1]) <= 2 for key in fields), fields
