"""The benchmark's traced mode binds syzcover functions by name.

bench/traced_op.py rebinds public names of several modules before it runs
an operation, so a renamed or deleted name breaks it.  These tests run it
as the benchmark does and check that it still finishes and records the
span that holds the operation's checks.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "operation,prime,span",
    [
        (("verify", "--prime", "3", "--checks", "lemmas,fiber"), 3, "report.run_verification"),
        (("symbolic", "101", "0"), 101, "symbolic.run"),
        # the oracle workload's operation: runs the traced PointOracle._values
        # and FormalPolynomial.evaluate wrappers
        (("verify", "--prime", "13", "--checks", "lemmas,cover"), 13, "oracle.eval"),
    ],
)
def test_traced_operation_runs(tmp_path, operation, prime, span):
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "traced_op.py"), str(trace), *operation],
        capture_output=True, text=True, cwd=ROOT, env=env,
    )
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["prime"] == prime
    spans = {name for name, _start, _end, _parent in json.loads(trace.read_text())["spans"]}
    assert span in spans
