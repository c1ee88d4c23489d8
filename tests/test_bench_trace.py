"""The benchmark's traced mode binds syzcover functions by name.

bench/traced_op.py rebinds public names of several modules before it runs
an operation, so a renamed or deleted name breaks it.  These tests run it
as the benchmark does and check that it still finishes and records the
span that holds the operation's checks.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _traced(tmp_path, operation):
    """Run bench/traced_op.py on operation; return its stdout document and
    the names of its spans, in the order they opened."""
    trace = tmp_path / "trace.json"
    res = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "traced_op.py"), str(trace), *operation],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert res.returncode == 0, res.stderr
    spans = json.loads(trace.read_text())["spans"]
    return json.loads(res.stdout), [name for name, _start, _end, _parent in spans]


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
    doc, spans = _traced(tmp_path, operation)
    assert doc["prime"] == prime
    assert span in spans


def test_traced_oracle_run_sets_up_one_oracle(tmp_path):
    """Every claim of `verify --checks lemmas,cover` lives on the degree-(p+1)
    curve: the run records one oracle setup and one sampler call."""
    _, spans = _traced(tmp_path, ("verify", "--prime", "13", "--checks", "lemmas,cover"))
    assert spans.count("oracle.setup") == 1
    assert spans.count("curve.sample") == 1
