"""Byte-for-byte report contract against committed golden reports.

Each pP_seedS.json file in tests/golden/ is the stdout of

    syzcover verify --prime P --seed S > tests/golden/pP_seedS.json

with all checks.  symbolic_pP_seed0.json, for P = 101 and 251, is the stdout of

    PYTHONPATH=src python3 bench/symbolic_op.py P 0

the lemma and cover checks at a prime the oracle never sees; at 251 the
F_p-constant products of check_det_periodicity do the most work.  A change that
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


@pytest.mark.parametrize("p", (101, 251))
def test_symbolic_checks_match_golden(p):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    res = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "symbolic_op.py"), str(p), "0"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert res.returncode == 0, res.stderr
    expected = (GOLDEN / f"symbolic_p{p}_seed0.json").read_text(encoding="utf-8")
    assert res.stdout == expected
