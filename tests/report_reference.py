"""Reading a JSON report back into a CoverReport, the reverse of
syzcover.report.render_json; the round-trip tests use it, the pipeline
only writes reports."""

import json

from syzcover.report import CheckRecord, CoverReport, EngineInfo, ReportStats


def report_from_dict(data: dict) -> CoverReport:
    return CoverReport(
        prime=data["prime"],
        overall=data["overall"],
        checks=tuple(CheckRecord(**c) for c in data["checks"]),
        stats=ReportStats(**data["stats"]),
        engine=EngineInfo(**data["engine"]),
    )


def parse_json(text: str):
    data = json.loads(text)
    if isinstance(data, list):
        return [report_from_dict(d) for d in data]
    return report_from_dict(data)
