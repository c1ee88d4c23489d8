"""Byte-for-byte report contract against committed golden reports.

Each file in tests/golden/ is the stdout of

    syzcover verify --prime P --seed S > tests/golden/pP_seedS.json

with all checks.  A change that alters any report byte for a fixed
(prime, seed, version) must fail here; regenerate the files only when that
change is intended.
"""

from pathlib import Path

import pytest

from syzcover.report import render_json, run_verification

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("seed", (0, 3))
@pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
def test_report_matches_golden(p, seed):
    expected = (GOLDEN / f"p{p}_seed{seed}.json").read_text(encoding="utf-8")
    assert render_json(run_verification(p, seed=seed)) == expected
