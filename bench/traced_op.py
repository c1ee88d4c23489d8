"""One benchmark operation run under a tracer, for the per-layer metrics.

    PYTHONPATH=src python3 bench/traced_op.py TRACE.json verify --prime 5 --seed 0
    PYTHONPATH=src python3 bench/traced_op.py TRACE.json symbolic 101 0

Before the operation runs, the public names of each layer are rebound, in
every `syzcover` module that holds them, to wrappers that record a span
(name, start, end, parent) or bump a counter.  Rebinding every holder
matters: `report` and `cli` import `enumerate_fiber`, `run_verification`
and friends by name, so patching only the defining module would miss the
calls the pipeline makes.  Each check's verdict is recorded as an event
when its `CheckRecord` is built (or, for `symbolic`, when the check
returns).  The operation's stdout is left as the program writes it; spans,
counters and events stay in memory and go to TRACE.json at exit.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from functools import partial


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.events = []  # [check name, time its verdict was recorded]

    def span(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def verdict(self, name):
        self.events.append([name, time.perf_counter()])

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"spans": self.spans, "counts": dict(self.counts), "events": self.events},
                handle,
            )


def rebind_function(fn, wrapper):
    """Replace fn by wrapper in every loaded syzcover module that holds it."""
    for name, module in list(sys.modules.items()):
        if name == "syzcover" or name.startswith("syzcover."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)


def rebind_method(cls, name, make_wrapper):
    """Replace cls.name, and every alias of it on cls (such as __rmul__)."""
    original = cls.__dict__[name]
    wrapper = make_wrapper(original)
    for attr, value in list(vars(cls).items()):
        if value is original:
            setattr(cls, attr, wrapper)


def instrument(tracer: Tracer):
    import syzcover.cli  # noqa: F401  (loads every module the pipeline uses)
    from syzcover import census, cover, curve, formal, gf, matrices, oracle, report, syz

    counts = tracer.counts

    def add(key, amount):
        counts[key] += amount

    for span_name, fn, on_result in (
        ("report.run_verification", report.run_verification, None),
        ("report.render", report.emit_report, None),
        ("syz.build_catalog", syz.build_catalog, None),
        ("cover.build_cover_data", cover.build_cover_data, None),
        ("census.classes", census.determinant_classes, None),
        ("gf.find_generator", gf.find_generator, None),
        ("gf.solve_power_equation", gf.solve_power_equation, None),
        ("census.enumerate", census.enumerate_fiber,
         lambda result: add("census.points", result.total)),
        ("census.reverify", census.verify_fiber_point,
         lambda ok: add("census.reverify_ok", int(bool(ok)))),
        ("curve.cone_points", curve.curve_cone_points,
         lambda points: add("curve.cone_points", len(points))),
        ("curve.sample", curve.random_curve_points,
         lambda points: add("curve.sampled", len(points))),
    ):
        rebind_function(fn, tracer.span(span_name, fn, on_result))
    for counter, fn in (
        ("gf.irreducible_tests", gf._is_irreducible),
        ("matrices.mat_mul_calls", matrices.mat_mul),
    ):
        rebind_function(fn, tracer.counted(counter, fn))

    def values_counted(values):
        def wrapper(self, obj):
            for value in values(self, obj):
                counts["oracle.evaluations"] += 1
                yield value

        return wrapper

    span, counted = tracer.span, tracer.counted
    for cls, method, make_wrapper in (
        (oracle.PointOracle, "__init__", partial(span, "oracle.setup")),
        (oracle.PointOracle, "check", partial(span, "oracle.eval")),
        (oracle.PointOracle, "_values", values_counted),
        (gf.GF, "__init__", partial(span, "gf.field_build")),
        (gf.FieldElement, "__mul__", partial(counted, "gf.mul_calls")),
        (gf.FieldElement, "__pow__", partial(counted, "gf.pow_calls")),
        (formal.FormalPolynomial, "__mul__", partial(span, "formal.mul")),
        (formal.FormalPolynomial, "__pow__", partial(span, "formal.pow")),
        (formal.FormalPolynomial, "evaluate", partial(counted, "formal.evaluate_calls")),
        (curve.CurvePolynomial, "__mul__", partial(counted, "curve.mul_calls")),
        (curve.CurvePolynomial, "evaluate", partial(counted, "curve.evaluate_calls")),
    ):
        rebind_method(cls, method, make_wrapper)

    check_record = report.CheckRecord

    def record(*args, **kwargs):
        result = check_record(*args, **kwargs)
        tracer.verdict(result.name)
        return result

    report.CheckRecord = record


def main(argv) -> int:
    trace_path, kind, args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    instrument(tracer)
    try:
        if kind == "verify":
            from syzcover import cli

            code = cli.main(["verify", *args])
        elif kind == "symbolic":
            import symbolic_op

            run = tracer.span("symbolic.run", symbolic_op.run)
            doc = run(int(args[0]), int(args[1]), on_verdict=tracer.verdict)
            sys.stdout.write(json.dumps(doc, indent=2) + "\n")
            code = 0
        else:
            raise SystemExit(f"unknown operation kind {kind!r}")
        sys.stdout.flush()
    finally:
        tracer.dump(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
