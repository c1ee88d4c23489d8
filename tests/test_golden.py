"""Byte-for-byte report contract against committed golden reports.

Each pP_seedS.json file in tests/golden/ (P in 3, 5, 7, 11, 13 and S in 0-3)
is the stdout of

    syzcover verify --prime P --seed S > tests/golden/pP_seedS.json

with all checks.  p5_seed0.txt is the stdout of the same run for P = 5, S = 0
with --format text, p3-5_lemmas-cover_seed0.json the list payload of

    syzcover verify --primes 3,5 --checks lemmas,cover

and pP_lemmas-cover_seedS.json, for P = 101, 503 and 1009 and S in 0-3,
the stdout of

    syzcover verify --prime P --seed S --checks lemmas,cover

the goldens that run the oracle's point sampler and the w = 0 search above
p = 13 (over GF(P^2); 503 is 3 mod 4 and 1009 is 1 mod 4).
p2003_lemmas-cover_seed0.json, p10007_lemmas-cover_seed0.json and
p100003_lemmas-cover_seed0.json are the same run at seed 0.
p1000003_fiber_seed0.json and p1000003_seed0.json are the stdout of

    syzcover verify --prime 1000003 --checks fiber
    syzcover verify --prime 1000003

These three large-p runs take about 0.1 s each.

symbolic_pP_seed0.json, for P = 101, 151 and 251 (the symbolic bench primes)
and for P = 503 and 1009, is the stdout of

    PYTHONPATH=src python3 bench/symbolic_op.py P 0

the lemma and cover checks at a prime the oracle never sees; at 503 and
1009, (det A)^p is the largest power check_det_periodicity expands.  A
change that alters any of these bytes for a fixed (prime, seed, version)
must fail here; regenerate the files only when that change is intended,
and then bump the version, which every report names.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import syzcover
from syzcover.report import render_json, render_text, run_verification

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def _stdout(*args):
    res = subprocess.run([sys.executable, *args], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res.stdout


def _golden(name):
    return (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("seed", (0, 1, 2, 3))
@pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
def test_report_matches_golden(p, seed):
    assert render_json(run_verification(p, seed=seed)) == _golden(f"p{p}_seed{seed}.json")


def test_text_report_matches_golden():
    assert render_text(run_verification(5)) == _golden("p5_seed0.txt")


def test_multi_prime_cli_report_matches_golden():
    out = _stdout("-m", "syzcover", "verify", "--primes", "3,5", "--checks", "lemmas,cover")
    assert out == _golden("p3-5_lemmas-cover_seed0.json")


def test_p101_oracle_cli_report_matches_golden():
    out = _stdout("-m", "syzcover", "verify", "--prime", "101", "--checks", "lemmas,cover")
    assert out == _golden("p101_lemmas-cover_seed0.json")


@pytest.mark.parametrize("p", (503, 1009, 2003, 10007, 100003))
def test_large_prime_oracle_cli_report_matches_golden(p):
    out = _stdout("-m", "syzcover", "verify", "--prime", str(p), "--checks", "lemmas,cover")
    assert out == _golden(f"p{p}_lemmas-cover_seed0.json")


@pytest.mark.parametrize(
    "name, checks", (("p1000003_fiber", ("--checks", "fiber")), ("p1000003", ())), ids=("fiber", "all"))
def test_p1000003_cli_report_matches_golden(name, checks):
    out = _stdout("-m", "syzcover", "verify", "--prime", "1000003", *checks)
    assert out == _golden(f"{name}_seed0.json")


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("p", (101, 503, 1009))
def test_oracle_report_matches_golden_at_other_seeds(p, seed):
    report = run_verification(p, ("lemmas", "cover"), seed=seed)
    assert render_json(report) == _golden(f"p{p}_lemmas-cover_seed{seed}.json")


@pytest.mark.parametrize("p", (101, 151, 251, 503, 1009))
def test_symbolic_checks_match_golden(p):
    out = _stdout(str(ROOT / "bench" / "symbolic_op.py"), str(p), "0")
    assert out == _golden(f"symbolic_p{p}_seed0.json")


def _named_versions(path):
    """The engine versions a golden report or README names, in order."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        doc = json.loads(text)
        return [r["engine"]["version"] for r in (doc if isinstance(doc, list) else [doc]) if "engine" in r]
    pattern = r"\(engine ([^,]+), seed" if path.suffix == ".txt" else r'"engine": \{"version": "([^"]+)"'
    return re.findall(pattern, text)


def test_every_named_version_is_the_engine_version():
    """Every report golden and README's example report name __version__,
    so a version bump leaves none of them behind; only the symbolic files,
    which print no engine block, name none."""
    for path in [*sorted(GOLDEN.iterdir()), ROOT / "README.md"]:
        versions = _named_versions(path)
        if path.name.startswith("symbolic_"):
            assert versions == [], path.name
        else:
            assert versions and set(versions) == {syzcover.__version__}, (path.name, versions)
