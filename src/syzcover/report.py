"""Verification pipeline and machine-readable reports.

run_verification executes the symbolic identity checks, the numeric
oracle cross-checks and the fiber checks of census.fiber_checks for one
prime, and collects everything into a report that serializes
byte-identically for a fixed (prime, seed, version).  Every check reaches
its record through one path, run: a skip reason gives "skipped", else the
symbolic verdict, then the oracle on the claims of a check that holds,
gives "pass" or "fail".  The report's stats are the closed-form values of
census.component_stats.  The fiber checks read H_U at (1 : 0 : 1) from the
run's cover data, built once for the cover and fiber groups.

render_json writes the report with its own small writer, whose output is
json.dumps(payload, indent=2) byte for byte: importing json compiles its
scanner's regular expressions, about 2 ms of a cold `verify` that only
prints a few kilobytes of str, int, list and dict.  Only a string that is
not printable ASCII, which no report holds, imports json to escape it.
"""

from __future__ import annotations

import random
from collections import namedtuple

from . import __version__
from .census import ReportStats, component_stats, fiber_checks
from .cover import (
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
from .curve import CurvePoint
from .gf import is_prime, make_extension_field
from .oracle import CheckOutcome, OracleSuite
from .syz import (
    build_catalog,
    check_alpha,
    check_catalog,
    check_independence,
    check_kernel_relation,
)

SELECTIONS = ("lemmas", "cover", "fiber")


CheckRecord = namedtuple("CheckRecord", "name status detail")  # status: pass, fail or skipped
EngineInfo = namedtuple("EngineInfo", "version seed")


class CoverReport(namedtuple("CoverReport", "prime overall checks stats engine")):
    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "prime": self.prime,
            "overall": self.overall,
            "checks": [c._asdict() for c in self.checks],
            "stats": self.stats._asdict(),
            "engine": self.engine._asdict(),
        }


def parse_selection(text: str) -> tuple[str, ...]:
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    for t in tokens:
        if t != "all" and t not in SELECTIONS:
            raise ValueError(f"unknown check group {t!r}; expected lemmas, cover, fiber or all")
    if "all" in tokens:
        return SELECTIONS
    return tuple(t for t in SELECTIONS if t in tokens)


def run_verification(p: int, checks: str | tuple = "all", seed: int = 0) -> CoverReport:
    """Execute the selected check groups for one prime."""
    if not isinstance(p, int) or not is_prime(p) or p < 3:
        raise ValueError(f"prime must be an odd prime >= 3, got {p}")
    selection = parse_selection(checks if isinstance(checks, str) else ",".join(checks))

    stats = component_stats(p)
    records: list[CheckRecord] = []
    oracles = OracleSuite(seed=seed)

    def run(name: str, outcome: CheckOutcome):
        """The skip reason, or the symbolic verdict and then the oracle on
        the claims of a check that holds."""
        if outcome.skipped:
            records.append(CheckRecord(name, "skipped", outcome.skipped))
            return
        ok, detail = outcome.ok, outcome.detail
        if ok and outcome.claims:
            ok, oracle_msg = oracles.check_all(outcome.claims)
            detail = f"{detail}; {oracle_msg}"
        records.append(CheckRecord(name, "pass" if ok else "fail", detail))

    if selection:
        catalog = build_catalog(p)
    if "lemmas" in selection:
        run("catalog_syzygies", check_catalog(catalog))
        run("kernel_relation", check_kernel_relation(catalog))
        run("alpha_isomorphism", check_alpha(catalog))
        run("generator_independence", check_independence(catalog))

    if "cover" in selection or "fiber" in selection:
        cd = build_cover_data(p, catalog)
    if "cover" in selection:
        run("transition_matrix", check_transition(cd))
        run("base_change_matrices", check_base_change(cd))
        run("cocycle_compatibility", check_cocycle(cd))
        run("chart_relations", check_relations(cd))
        run("gluing_substitution", check_gluing(cd))
        run("section_ring_membership", check_section_ring(cd))
        run("determinant_periodicity", check_det_periodicity(cd))
        run("w0_specialization", check_w0_specialization(cd))
        shift_field = make_extension_field(7)
        run(
            "matrix_ideal_shift",
            check_matrix_ideal_shift(shift_field, random.Random(seed), samples=100),
        )

    if "fiber" in selection:
        prime_field = make_extension_field(p)
        base = CurvePoint(cd.ctx, (prime_field.one, prime_field.zero, prime_field.one))
        h_point = [[h.evaluate(base) for h in row] for row in cd.H_U]
        for name, outcome in fiber_checks(p, stats, h_point):
            run(name, outcome)

    overall = "pass" if all(r.status != "fail" for r in records) else "fail"
    return CoverReport(
        prime=p,
        overall=overall,
        checks=tuple(records),
        stats=stats,
        engine=EngineInfo(version=__version__, seed=seed),
    )


def _string(s: str) -> str:
    """s as a JSON string: printable ASCII without quote or backslash, every
    string a report holds today, as it is, and any other string by json."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    import json

    return json.dumps(s)


def to_json(value, indent: str = "") -> str:
    """json.dumps(value, indent=2) for nested str, int, list and dict with
    str keys; anything else raises TypeError."""
    if isinstance(value, str):
        return _string(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    if isinstance(value, list):
        opening, closing = "[", "]"
        items = [to_json(v, indent + "  ") for v in value]
    elif isinstance(value, dict) and all(isinstance(k, str) for k in value):
        opening, closing = "{", "}"
        items = [f"{_string(k)}: {to_json(v, indent + '  ')}" for k, v in value.items()]
    else:
        raise TypeError(f"not a str, int, list or dict with str keys: {type(value).__name__}")
    if not items:
        return opening + closing
    inner = "\n" + indent + "  "
    return opening + inner + ("," + inner).join(items) + "\n" + indent + closing


def render_json(report: CoverReport | list) -> str:
    if isinstance(report, list):
        payload = [r.to_dict() for r in report]
    else:
        payload = report.to_dict()
    return to_json(payload) + "\n"


def render_text(report: CoverReport | list) -> str:
    if isinstance(report, list):
        return "\n".join(render_text(r) for r in report)
    lines = [
        f"prime {report.prime}  overall {report.overall}  "
        f"(engine {report.engine.version}, seed {report.engine.seed})",
        f"{'check':<28} {'status':<8} detail",
    ]
    for c in report.checks:
        lines.append(f"{c.name:<28} {c.status:<8} {c.detail}")
    lines.append("stats: " + " ".join(f"{k}={v}" for k, v in report.stats._asdict().items()))
    return "\n".join(lines) + "\n"


def emit_report(report, fmt: str = "json", destination=None) -> str:
    """Render and optionally write the report; returns the rendered text."""
    if fmt == "json":
        text = render_json(report)
    elif fmt == "text":
        text = render_text(report)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if destination is not None:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text
