"""Acceptance suite: one test per acceptance criterion.

Each test prints one PASS/FAIL line (run with -s to see them).  Every
expected value is either a frozen independently derived quantity (brute
force enumeration, Hurwitz bookkeeping, full-field scans) or a pinned
headline reference value.

Criterion 1 pins the p = 5 headline genus 1081, the arithmetic genus of
one determinant class, and derives it in the test itself: the degree 120 from the enumerated fiber (480 points in
4 determinant classes), the base genus 10 from the plane-curve formula
(d - 1)(d - 2)/2 with d = p + 1, and the genus from the etale Hurwitz
relation 2g - 2 = 120 * (2 * 10 - 2).
"""

import json
import random
import subprocess
import sys
import time

import pytest
from catalog_mutants import flip_sign
from report_reference import parse_json

import syzcover.cli as cli
from syzcover.census import (
    component_stats,
    determinant_classes,
    enumerate_fiber,
    hurwitz_consistent,
    verify_fiber_point,
)
from syzcover.cover import (
    build_cover_data,
    check_base_change,
    check_cocycle,
    check_det_periodicity,
    check_gluing,
    check_matrix_ideal_shift,
    check_relations,
    check_section_ring,
    check_transition,
    check_w0_specialization,
)
from syzcover.gf import make_extension_field
from syzcover.oracle import OracleSuite
from syzcover.report import (
    CheckRecord,
    CoverReport,
    EngineInfo,
    ReportStats,
    render_json,
    run_verification,
)
from syzcover.syz import (
    build_catalog,
    check_alpha,
    check_catalog,
    check_independence,
    check_kernel_relation,
)

PRIMES = (3, 5, 7, 11, 13)

SYMBOLIC_CHECKS = (
    check_catalog,
    check_kernel_relation,
    check_alpha,
    check_independence,
)
COVER_CHECKS = (
    check_transition,
    check_base_change,
    check_cocycle,
    check_relations,
    check_gluing,
    check_section_ring,
    check_det_periodicity,
    check_w0_specialization,
)


def _line(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_p5_headline():
    """p = 5 headline: 4 determinant classes, degree 120, < 30 s, and 1081,
    the arithmetic genus of one class (det A = δ) by the etale Hurwitz
    relation; no connected component has that genus, since a class is
    several curves over the algebraic closure (ROADMAP item 3)."""
    start = time.monotonic()
    report = run_verification(5)
    elapsed = time.monotonic() - start
    s = report.stats
    # Derived here, not read from component_stats: the degree from the
    # census, the base genus from the plane-curve formula, and the genus
    # from the etale Hurwitz relation 2g - 2 = degree * (2 * g_base - 2).
    p = 5
    census = enumerate_fiber(p)
    classes = determinant_classes(census)
    degree = census.total // len(classes)
    assert all(len(pts) == degree for pts in classes.values())
    d = p + 1
    genus_base = (d - 1) * (d - 2) // 2
    genus = (degree * (2 * genus_base - 2) + 2) // 2
    assert (degree, genus_base, genus) == (120, 10, 1081)
    ok = (
        s.components == 4
        and s.degree == 120
        and s.genus_component == 1081
        and elapsed < 30
    )
    _line(
        1,
        ok,
        f"components={s.components} degree={s.degree} "
        f"genus_component={s.genus_component} (pinned 1081) in {elapsed:.1f}s",
    )
    assert elapsed < 30
    assert s.components == 4
    assert s.degree == 120
    assert s.genus_component == 1081, (
        f"engine computes genus {s.genus_component}: the census gives "
        f"{census.total} fiber points in 4 determinant classes, so degree 120; "
        f"the base Fermat curve of degree 6 has genus 5*4/2 = 10; the etale "
        f"Hurwitz relation 2g-2 = 120*(2*10-2) forces g = 1081"
    )


def test_criterion_2_census_equals_formula():
    """Enumerated fiber totals match (p^2-1)p(p-1); every point re-verified."""
    frozen = {3: 48, 5: 480, 7: 2016}
    details = []
    for p, expected in frozen.items():
        census = enumerate_fiber(p)
        formula = (p * p - 1) * p * (p - 1)
        assert expected == formula
        assert census.total == formula, (p, census.total, formula)
        for row in census.points:
            assert verify_fiber_point(p, row)
        details.append(f"p={p}: {census.total}")
    _line(2, True, "; ".join(details) + "; all points re-verified")


@pytest.mark.parametrize("p", PRIMES)
def test_criterion_3_symbolic_suite(p):
    """All symbolic identity checks pass, under 10 s per prime."""
    start = time.monotonic()
    catalog = build_catalog(p)
    failures = [c.__name__ for c in SYMBOLIC_CHECKS if not c(catalog).ok]
    cd = build_cover_data(p, catalog)
    failures += [c.__name__ for c in COVER_CHECKS if not c(cd).ok]
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 10
    _line(3, ok, f"p={p}: {len(SYMBOLIC_CHECKS) + len(COVER_CHECKS)} checks in {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 10


@pytest.mark.parametrize("p", PRIMES)
def test_criterion_4_oracle_cross_check(p):
    """Every symbolic zero evaluates to zero at >= 20 curve points."""
    suite = OracleSuite(seed=0)
    catalog = build_catalog(p)
    cd = build_cover_data(p, catalog)
    total = 0
    for check in SYMBOLIC_CHECKS:
        out = check(catalog)
        ok, msg = suite.check_all(out.claims)
        assert ok, msg
        total += len(out.claims)
    for check in COVER_CHECKS:
        out = check(cd)
        ok, msg = suite.check_all(out.claims)
        assert ok, msg
        total += len(out.claims)
    _line(4, True, f"p={p}: {total} identities re-checked at 20 points")


@pytest.mark.parametrize("p", (3, 5))
def test_criterion_4_mutation_sensitivity(p):
    """Each single sign flip in the catalog breaks at least one check."""
    catalog = build_catalog(p)
    mutations = 0
    for label, triple in catalog.triples.items():
        for idx in range(3):
            if triple.components[idx].is_zero():
                continue
            mutated = flip_sign(catalog, label, idx)
            broke = any(not chk(mutated).ok for chk in SYMBOLIC_CHECKS)
            assert broke, f"sign flip survived: {label}[{idx}]"
            mutations += 1
    _line(4, True, f"p={p}: {mutations} sign-flip mutations all detected")


# At p = 3 flipping R2[1] leaves the syzygy claim y^3 (y^2 - x^2) on the conic
# x^2 + y^2 = z^2, which vanishes at every GF(9)-point with x, z != 0: the
# nonzero squares of GF(9) are the fourth roots of unity, and x^2 + y^2 is one
# of them only when y = 0 or y^2 = x^2.  No sample over GF(p^2) can see that
# flip; the symbolic check does.  s2' shares R2's middle component
# 2x^d + y^d, so its flip s2'[1] is blind in the lemma claims for the same
# reason; the cover claims see it (det H_U + 2 fails at the sampled points),
# which is why each mutant's oracle gets the claims of the whole
# lemmas,cover run.
ORACLE_BLIND_FLIPS = {3: {"R2[1]"}}


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
def test_criterion_4_oracle_mutation_sensitivity(p):
    """The oracle alone rejects the claims of each sign-flipped catalog,
    given the claims of the lemmas and cover checks as verify --checks
    lemmas,cover makes them."""
    catalog = build_catalog(p)
    missed = set()
    mutations = 0
    for label, triple in catalog.triples.items():
        for idx in range(3):
            if triple.components[idx].is_zero():
                continue
            mutated = flip_sign(catalog, label, idx)
            claims = [claim for chk in SYMBOLIC_CHECKS for claim in chk(mutated).claims]
            cd = build_cover_data(p, mutated)
            claims += [claim for chk in COVER_CHECKS for claim in chk(cd).claims]
            ok, _ = OracleSuite(seed=0).check_all(claims)
            if ok:
                missed.add(f"{label}[{idx}]")
            mutations += 1
    assert missed == ORACLE_BLIND_FLIPS.get(p, set())
    _line(4, True, f"p={p}: oracle rejects {mutations - len(missed)} of {mutations} flips")


def test_criterion_5_hurwitz():
    """2 g_X - 2 = deg * (2 g_Y - 2) exactly for p in 3..13."""
    for p in PRIMES:
        stats = component_stats(p)
        assert hurwitz_consistent(stats), p
        assert stats.genus_base == p * (p - 1) // 2
        assert 2 * stats.genus_component - 2 == stats.degree * (
            2 * stats.genus_base - 2
        )
    _line(5, True, f"exact for p in {PRIMES}")


def test_criterion_6_matrix_ideal_shift():
    """Constructive ideal-shift identities on 100 samples over GF(7), n in {2, 3}."""
    field = make_extension_field(7)
    out = check_matrix_ideal_shift(field, random.Random(0), samples=100)
    assert out.ok, out.detail
    _line(6, True, out.detail)


def test_criterion_7_cli_contract(tmp_path, monkeypatch):
    """JSON round-trips, exit codes 0/1/2, byte-identical repeated runs."""
    # round trip
    report = run_verification(3, seed=4)
    assert parse_json(render_json(report)) == report

    # byte-identical across runs with a fixed seed
    cmd = [sys.executable, "-m", "syzcover", "verify", "--prime", "3", "--seed", "4"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["overall"] == "pass"

    # exit code 2 on invalid input
    bad = subprocess.run(
        [sys.executable, "-m", "syzcover", "verify", "--prime", "15"],
        capture_output=True,
        text=True,
    )
    assert bad.returncode == 2

    # exit code 1 when a check fails
    failed = CoverReport(
        prime=3,
        overall="fail",
        checks=(CheckRecord("catalog_syzygies", "fail", "forced"),),
        stats=ReportStats(2, 48, 24, 3, 49, 1, 4),
        engine=EngineInfo("0.0.0", 0),
    )
    monkeypatch.setattr(cli, "run_verification", lambda *a, **k: failed)
    assert cli.main(["verify", "--prime", "3", "--output", str(tmp_path / "x.json")]) == 1
    _line(7, True, "round-trip, byte-identical output, exit codes 0/1/2")
