"""Byte-for-byte report contract against committed golden reports.

Each pP_seedS.json file in tests/golden/ is the stdout of

    syzcover verify --prime P --seed S > tests/golden/pP_seedS.json

with all checks.  symbolic_p101_seed0.json is the stdout of

    PYTHONPATH=src python3 bench/symbolic_op.py 101 0

the lemma and cover checks at a prime the oracle never sees.  A change that
alters any of these bytes for a fixed (prime, seed, version) must fail
here; regenerate the files only when that change is intended.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from syzcover.report import render_json, run_verification

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


@pytest.mark.parametrize("seed", (0, 3))
@pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
def test_report_matches_golden(p, seed):
    expected = (GOLDEN / f"p{p}_seed{seed}.json").read_text(encoding="utf-8")
    assert render_json(run_verification(p, seed=seed)) == expected


def test_symbolic_checks_match_golden_at_p101():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    res = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "symbolic_op.py"), "101", "0"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert res.returncode == 0, res.stderr
    expected = (GOLDEN / "symbolic_p101_seed0.json").read_text(encoding="utf-8")
    assert res.stdout == expected
