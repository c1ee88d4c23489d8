import json
import subprocess
import sys

import pytest
from catalog_mutants import flip_sign

import syzcover.cli as cli
from syzcover import curve, oracle, report
from syzcover.gf import make_extension_field
from syzcover.oracle import OracleSuite, PointOracle
from syzcover.report import (
    CheckRecord,
    CoverReport,
    EngineInfo,
    ReportStats,
    emit_report,
    parse_json,
    parse_selection,
    render_json,
    render_text,
    run_verification,
)


@pytest.fixture(scope="module")
def report_p3():
    return run_verification(3)


def test_rejects_invalid_primes():
    for bad in (2, 4, 9, 1, -5):
        with pytest.raises(ValueError):
            run_verification(bad)


def test_selection_parsing():
    assert parse_selection("all") == ("lemmas", "cover", "fiber")
    assert parse_selection("fiber,lemmas") == ("lemmas", "fiber")
    with pytest.raises(ValueError):
        parse_selection("lemmas,bogus")
    with pytest.raises(ValueError):
        parse_selection("all,bogus")


def test_overall_pass_and_check_order(report_p3):
    assert report_p3.overall == "pass"
    names = [c.name for c in report_p3.checks]
    assert names == [
        "catalog_syzygies",
        "kernel_relation",
        "alpha_isomorphism",
        "generator_independence",
        "transition_matrix",
        "base_change_matrices",
        "cocycle_compatibility",
        "chart_relations",
        "gluing_substitution",
        "section_ring_membership",
        "determinant_periodicity",
        "w0_specialization",
        "matrix_ideal_shift",
        "fiber_census",
        "component_structure",
        "genus_hurwitz",
    ]
    assert len(names) == len(set(names))


def test_empty_selection_reports_stats_only():
    report = run_verification(5, checks=())
    assert report.checks == ()
    assert report.overall == "pass"
    assert report.stats.genus_component == 1081


def test_census_skip_is_not_failure():
    report = run_verification(11, checks="fiber")
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["fiber_census"] == "skipped"
    assert statuses["genus_hurwitz"] == "pass"
    assert report.overall == "pass"
    assert report.stats.total_fiber == 13200  # formula value still reported


def test_fiber_and_stats_only_runs_build_no_catalog(monkeypatch):
    def refuse(p):
        raise AssertionError("generator catalog built for a run that never reads it")

    monkeypatch.setattr(report, "build_catalog", refuse)
    assert run_verification(5, checks=("fiber",)).overall == "pass"
    assert run_verification(5, checks=()).overall == "pass"
    with pytest.raises(AssertionError, match="generator catalog"):
        run_verification(5, checks=("cover",))


def test_json_round_trip(report_p3):
    text = render_json(report_p3)
    parsed = parse_json(text)
    assert parsed == report_p3


def test_json_schema_keys(report_p3):
    data = json.loads(render_json(report_p3))
    assert set(data) == {"prime", "overall", "checks", "stats", "engine"}
    assert set(data["stats"]) == {
        "components",
        "total_fiber",
        "degree",
        "genus_base",
        "genus_component",
        "eta_field_degree",
        "fiber_field_degree",
    }
    assert set(data["engine"]) == {"version", "seed"}
    for check in data["checks"]:
        assert set(check) == {"name", "status", "detail"}
        assert check["status"] in ("pass", "fail", "skipped")


def test_reports_deterministic_for_fixed_seed():
    a = run_verification(3, seed=5)
    b = run_verification(3, seed=5)
    assert render_json(a) == render_json(b)


def test_emit_to_file(tmp_path, report_p3):
    dest = tmp_path / "report.json"
    text = emit_report(report_p3, "json", dest)
    assert dest.read_text(encoding="utf-8") == text
    with pytest.raises(ValueError):
        emit_report(report_p3, "yaml")


def test_text_format_mentions_every_check(report_p3):
    text = render_text(report_p3)
    for c in report_p3.checks:
        assert c.name in text
    assert "genus_component=49" in text


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "syzcover", *args],
        capture_output=True,
        text=True,
    )


def test_cli_pass_exit_zero_and_byte_identical():
    first = _run_cli("verify", "--prime", "3", "--seed", "1")
    second = _run_cli("verify", "--prime", "3", "--seed", "1")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    data = json.loads(first.stdout)
    assert data["overall"] == "pass"
    assert data["engine"]["seed"] == 1


def test_cli_invalid_prime_exit_two():
    res = _run_cli("verify", "--prime", "9")
    assert res.returncode == 2
    assert "error" in res.stderr


def test_cli_bad_flag_exit_two():
    res = _run_cli("verify", "--prime", "3", "--format", "xml")
    assert res.returncode == 2


def test_cli_output_file(tmp_path):
    dest = tmp_path / "out.json"
    res = _run_cli("verify", "--prime", "3", "--checks", "lemmas", "--output", str(dest))
    assert res.returncode == 0
    assert res.stdout == ""
    data = json.loads(dest.read_text(encoding="utf-8"))
    assert [c["name"] for c in data["checks"]] == [
        "catalog_syzygies",
        "kernel_relation",
        "alpha_isomorphism",
        "generator_independence",
    ]


def test_cli_batch_mode():
    res = _run_cli("verify", "--primes", "3,5", "--checks", "lemmas", "--format", "json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert [d["prime"] for d in data] == [3, 5]


def test_cli_exit_one_on_failed_check(monkeypatch):
    failed = CoverReport(
        prime=3,
        overall="fail",
        checks=(CheckRecord("catalog_syzygies", "fail", "forced failure"),),
        stats=ReportStats(2, 48, 24, 3, 49, 1, 4),
        engine=EngineInfo("0.0.0", 0),
    )
    monkeypatch.setattr(cli, "run_verification", lambda *a, **k: failed)
    assert cli.main(["verify", "--prime", "3", "--output", "/dev/null"]) == 1


def test_cli_max_field_size_forces_skip():
    res = _run_cli(
        "verify", "--prime", "5", "--checks", "fiber", "--max-field-size", "1000"
    )
    assert res.returncode == 0
    data = json.loads(res.stdout)
    statuses = {c["name"]: c["status"] for c in data["checks"]}
    assert statuses["fiber_census"] == "skipped"


@pytest.mark.parametrize("size", (0, -5))
def test_nonpositive_max_field_size_is_an_input_error(size):
    with pytest.raises(ValueError, match="max field size"):
        run_verification(3, checks=("fiber",), max_field_size=size)
    res = _run_cli(
        "verify", "--prime", "3", "--checks", "fiber", "--max-field-size", str(size)
    )
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: ")


def test_tuple_selection_rejects_unknown_group():
    with pytest.raises(ValueError):
        run_verification(3, checks=("lemma",))
    with pytest.raises(ValueError):
        run_verification(3, checks=("all", "nope"))
    assert [c.name for c in run_verification(3, checks=("lemmas",)).checks] == [
        "catalog_syzygies",
        "kernel_relation",
        "alpha_isomorphism",
        "generator_independence",
    ]


def test_cli_all_with_unknown_group_exit_two():
    res = _run_cli("verify", "--prime", "3", "--checks", "all,bogus")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "unknown check group 'bogus'" in res.stderr


def test_oracle_mismatch_fails_a_symbolically_passing_check(monkeypatch):
    check = PointOracle.check
    monkeypatch.setattr(
        PointOracle, "check", lambda self, claim: claim.name != "det T - 1" and check(self, claim)
    )
    result = run_verification(3, checks=("cover",))
    statuses = {c.name: c.status for c in result.checks}
    transition = result.checks[0]
    assert transition.name == "transition_matrix"
    assert transition.status == "fail"
    assert transition.detail == (
        "transition matrix certified against the frames; oracle mismatch on det T - 1"
    )
    assert all(status == "pass" for name, status in statuses.items() if name != transition.name)
    assert result.overall == "fail"


def test_symbolic_failure_is_not_sent_to_the_oracle(monkeypatch):
    catalog = report.build_catalog(3)
    flipped = flip_sign(catalog, "R1", 0)
    monkeypatch.setattr(report, "build_catalog", lambda p: flipped)
    consulted = []
    check_all = OracleSuite.check_all

    def recording_check_all(self, claims):
        consulted.extend(claim.name for claim in claims)
        return check_all(self, claims)

    monkeypatch.setattr(OracleSuite, "check_all", recording_check_all)
    result = run_verification(3, checks=("lemmas",))
    assert [(c.name, c.status) for c in result.checks] == [
        ("catalog_syzygies", "fail"),
        ("kernel_relation", "pass"),
        ("alpha_isomorphism", "pass"),
        ("generator_independence", "pass"),
    ]
    assert result.checks[0].detail == "failed: syzygy R1"
    assert result.overall == "fail"
    assert consulted
    assert not [name for name in consulted if name.startswith("syzygy ")]


def test_cli_empty_primes_exit_two():
    res = _run_cli("verify", "--primes", ",")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "error" in res.stderr


def test_cli_non_integer_prime_names_flag_and_token():
    res = _run_cli("verify", "--primes", "3,x")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == "error: --primes: 'x' is not an integer\n"


def test_cli_empty_checks_exit_two():
    res = _run_cli("verify", "--prime", "3", "--checks", ",")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "error: --checks selects no check group" in res.stderr


def test_cli_output_into_missing_directory_exit_two(tmp_path):
    dest = tmp_path / "missing" / "out.json"
    res = _run_cli("verify", "--prime", "3", "--checks", "lemmas", "--output", str(dest))
    assert res.returncode == 2
    assert "error" in res.stderr
    assert "Traceback" not in res.stderr


def test_cli_prime_47_passes():
    # smallest prime whose GF(p^2) cone, |F|^2 pairs, exceeds the default scan cap
    res = _run_cli("verify", "--prime", "47", "--checks", "lemmas,cover")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["overall"] == "pass"


def test_corrupted_frobenius_matrix_fails_oracle_run():
    """Each single-entry corruption of the GF(13^2) Frobenius matrix leaves
    the sampler's norm with fewer than p + 1 roots of some s: the oracle
    setup, and so the run, fails instead of raising."""
    field = make_extension_field(13, 2)
    columns = field.frobenius_columns()
    short_s = {(0, 0): 8, (0, 1): 10, (1, 0): 3, (1, 1): 7}
    try:
        for i in range(2):
            for j in range(2):
                bad = [list(col) for col in columns]
                bad[i][j] = (bad[i][j] + 1) % 13
                field._frobenius = tuple(tuple(col) for col in bad)
                result = run_verification(13, checks=("cover",))
                assert result.overall == "fail", (i, j)
                transition = result.checks[0]
                assert transition.status == "fail", (i, j)
                assert transition.detail == (
                    "transition matrix certified against the frames; oracle setup failed: "
                    f"x^(p+1) = {short_s[i, j]} has fewer than 14 roots left in GF(13^2)"
                ), (i, j)
    finally:
        field._frobenius = columns
    assert run_verification(13, checks=("cover",)).overall == "pass"


def test_too_few_oracle_points_fail_instead_of_raising(monkeypatch):
    monkeypatch.setattr(oracle, "ORACLE_POINTS", 10_000)
    result = run_verification(3, checks=("lemmas",))
    assert result.overall == "fail"
    assert all(c.status == "fail" for c in result.checks)
    assert "oracle setup failed: only " in result.checks[0].detail


def test_oracle_points_are_checked_once(monkeypatch):
    calls = []
    on_curve = curve.on_curve

    def counted(ctx, point):
        calls.append(ctx)
        return on_curve(ctx, point)

    monkeypatch.setattr(curve, "on_curve", counted)
    assert run_verification(13, checks=("lemmas", "cover")).overall == "pass"
    # 20 oracle points on each of the two curves and 20 w = 0 points
    assert len(calls) <= 60
