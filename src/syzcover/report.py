"""Verification pipeline and machine-readable reports.

run_verification executes the symbolic identity checks, the numeric
oracle cross-checks and (when the census field fits under the cap) the
fiber enumeration for one prime, and collects everything into a report
that serializes byte-identically for a fixed (prime, seed, version).
The report's stats are the closed-form values of census.component_stats;
the fiber checks compare the census against the same formulas.  The
census is held in the Kummer presentation of its field, which the
fiber_census check certifies (gamma's power, eta, and the Frobenius matrix
of GF(p^2)), so no run builds a field of degree above 2 for it.
"""

from __future__ import annotations

import json
import random
from collections import namedtuple

from . import __version__
from .census import (
    CENSUS_CAP,
    ReportStats,
    component_stats,
    enumerate_fiber,
    hurwitz_consistent,
    kummer_presentation,
    reverify_census,
)
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

    @classmethod
    def from_dict(cls, data: dict) -> CoverReport:
        return cls(
            prime=data["prime"],
            overall=data["overall"],
            checks=tuple(CheckRecord(**c) for c in data["checks"]),
            stats=ReportStats(**data["stats"]),
            engine=EngineInfo(**data["engine"]),
        )


def parse_selection(text: str) -> tuple[str, ...]:
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    for t in tokens:
        if t != "all" and t not in SELECTIONS:
            raise ValueError(f"unknown check group {t!r}; expected lemmas, cover, fiber or all")
    if "all" in tokens:
        return SELECTIONS
    return tuple(t for t in SELECTIONS if t in tokens)


def _unmet(*conditions) -> list:
    """The notes of the (note, holds) pairs whose condition does not hold."""
    return [note for note, holds in conditions if not holds]


def _fiber_checks(p: int, cap: int, stats: ReportStats):
    """Skipped records, then (name, outcome) pairs; the census is held to stats."""
    census = enumerate_fiber(p, cap)
    skipped, outcomes = [], []
    if census.skipped:
        skipped.append(CheckRecord("fiber_census", "skipped", census.reason))
        skipped.append(CheckRecord("component_structure", "skipped", "no census to tabulate"))
    else:
        field = make_extension_field(p, 2)
        o, gamma, eta = kummer_presentation(p)
        verified, classes = reverify_census(census)
        outcomes.append(("fiber_census", CheckOutcome(
            f"{census.total} fiber points enumerated in GF({p}^{census.field_degree}), "
            f"equal to (p^2-1)p(p-1), every point re-verified",
            problems=_unmet(
                ("Frobenius matrix not certified", not field.frobenius_mismatches()),
                ("Kummer presentation not certified",
                 gamma ** ((p * p - 1) // o) == 2 and eta == gamma ** ((p - 1) // o)),
                ("census total off the formula", census.total == stats.total_fiber),
                ("a fiber point is listed twice",
                 len(set(census.points)) == len(census.points)),
                ("point re-verification failed", verified),
            ),
        )))
        theta2 = gamma ** (2 * (p - 1) // o)  # a key k stands for k theta^2; (theta^2)^(p-1)
        outcomes.append(("component_structure", CheckOutcome(
            f"ad-bc takes exactly {stats.components} values, each with (p-1)-th power -2, "
            f"each on {stats.degree} points",
            problems=_unmet(
                ("wrong number of determinant values", len(classes) == stats.components),
                ("a class size differs from the degree",
                 all(len(v) == stats.degree for v in classes.values())),
                ("a determinant value's (p-1)-th power is not -2",
                 all(field.element(k) ** (p - 1) * theta2 == -2 for k in classes)),
            ),
        )))

    outcomes.append(("genus_hurwitz", CheckOutcome(
        f"2g-2 = {stats.degree}*(2*{stats.genus_base}-2) gives genus "
        f"{stats.genus_component}",
        "Hurwitz bookkeeping failed",
        problems=_unmet(
            ("unramified Hurwitz formula fails", hurwitz_consistent(stats)),
            ("fiber does not split into equal components",
             stats.total_fiber == stats.components * stats.degree),
        ),
    )))
    return skipped, outcomes


def run_verification(
    p: int,
    checks: str | tuple = "all",
    seed: int = 0,
    max_field_size: int = CENSUS_CAP,
) -> CoverReport:
    """Execute the selected check groups for one prime."""
    if not isinstance(p, int) or not is_prime(p) or p < 3:
        raise ValueError(f"prime must be an odd prime >= 3, got {p}")
    if max_field_size < 1:
        raise ValueError(f"max field size must be >= 1, got {max_field_size}")
    selection = parse_selection(checks if isinstance(checks, str) else ",".join(checks))

    stats = component_stats(p)
    records: list[CheckRecord] = []
    oracles = OracleSuite(seed=seed)

    def run(name: str, outcome: CheckOutcome):
        """The symbolic verdict, then the oracle on the claims of a check that holds."""
        ok, detail = outcome.ok, outcome.detail
        if ok and outcome.claims:
            ok, oracle_msg = oracles.check_all(outcome.claims)
            detail = f"{detail}; {oracle_msg}"
        records.append(CheckRecord(name, "pass" if ok else "fail", detail))

    if "lemmas" in selection or "cover" in selection:
        catalog = build_catalog(p)
    if "lemmas" in selection:
        run("catalog_syzygies", check_catalog(catalog))
        run("kernel_relation", check_kernel_relation(catalog))
        run("alpha_isomorphism", check_alpha(catalog))
        run("generator_independence", check_independence(catalog))

    if "cover" in selection:
        cd = build_cover_data(p, catalog)
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
        skipped, outcomes = _fiber_checks(p, max_field_size, stats)
        records.extend(skipped)
        for name, outcome in outcomes:
            run(name, outcome)

    overall = "pass" if all(r.status != "fail" for r in records) else "fail"
    return CoverReport(
        prime=p,
        overall=overall,
        checks=tuple(records),
        stats=stats,
        engine=EngineInfo(version=__version__, seed=seed),
    )


def render_json(report: CoverReport | list) -> str:
    if isinstance(report, list):
        payload = [r.to_dict() for r in report]
    else:
        payload = report.to_dict()
    return json.dumps(payload, indent=2) + "\n"


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


def parse_json(text: str):
    data = json.loads(text)
    if isinstance(data, list):
        return [CoverReport.from_dict(d) for d in data]
    return CoverReport.from_dict(data)


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
