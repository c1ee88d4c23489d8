"""Benchmark for `syzcover verify`: cold time to verdict, memory and failures.

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

What a user of syzcover waits for is one `syzcover verify` process, from
start to verdict.  So every operation is a fresh child process, run one at
a time in a closed loop with a single client.  A fresh process matters:
`census.enumerate_fiber` is lru-cached and `gf.make_extension_field`
memoizes fields and moduli, so a second in-process run would skip the
census and the modulus search that every real call pays for.

Workloads (operations are drawn in rounds that run each prime once, in an
order and with `--seed` values taken from the workload seed):

* census:   `syzcover verify --prime P` with every check group, P in {5, 7},
            the only primes whose census fits under the default field cap.
            Census, re-verification and GF(p^m) pow dominate.
* oracle:   `syzcover verify --prime P --checks lemmas,cover`, P in {11, 13}.
            The census is bypassed; the oracle's cone scan over GF(p^2)
            dominates time and peak memory.
* symbolic: `bench/symbolic_op.py P SEED`, P in {101, 151, 251}: the lemmas
            and cover checks called directly, without the oracle, because
            `verify` cannot run at these primes yet.  The normal-form engine
            (curve, formal, matrices) does nearly all the work.

With `--trace 0` the run prints the end-to-end metrics:

* verify_s     mean over the workload's primes of the median time per
               operation, from spawning the child to its exit;
* peak_rss_mb  the same statistic for the child's peak RSS (from wait4);
* setup_s      median time of a cold child that only imports syzcover,
               run five times before the loop and after every operation;
* pass_frac    operations that exited 0 and passed the output check, over
               operations attempted (so fail_frac = 1 - pass_frac).

The speed of a core on a shared host drifts by tens of percent within
seconds to minutes, so raw wall times of one run differ from the next by
more than any bound worth setting.  Each operation is therefore followed by
a set-up child and by bench/calibrate.py, a fixed pure-Python child that
imports nothing from the repository, and the two reported times are in
reference seconds: a child's wall seconds times CALIBRATION_REF_S over the
mean wall time of the calibration children just before and just after it
(more of them after a long operation: see CALIBRATION_SHARE).
Over ten 30-second runs per workload on a shared 2-vCPU host, that cut
the spread of verify_s between runs (interquartile range over median) from
0.15 to 0.044 on `census`, 0.18 to 0.042 on `oracle` and 0.30 to 0.030 on
`symbolic`.
Raw wall times stay in the result file (per_prime.wall_s, verify_wall_s,
setup_wall_s, calibration_wall_s) and are printed beside the scaled ones.

With `--trace 1` each operation runs twice, untraced and then under
bench/traced_op.py, and the run prints the per-layer metrics, each a mean
per traced operation: inclusive span times (`<module>.<name>_s`), counters,
`check.<name>_s` (time from the previous verdict to this one, its oracle
re-check included, catalog and cover-data builds excluded), `cli.cpu_s`
(the child's CPU time), `cli.overhead_s` (child wall time outside
run_verification, or outside the symbolic run) and `trace.overhead_frac`
(traced over untraced wall time, minus 1).  Times here are raw wall
seconds.  A layer that does not run on a workload reads 0, as does a ratio
whose base is 0.  Self times per span are in the result file.

Every operation's output is checked against hand-written expectations; a
negative self-test feeds the check tampered reports, and a determinism probe
re-runs the first operation and compares stdout bytes.  A result file with
provenance (source digest, git sha when known, Python, CPU, load average)
goes to bench/out/.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

LEMMA_CHECKS = (
    "catalog_syzygies",
    "kernel_relation",
    "alpha_isomorphism",
    "generator_independence",
)
COVER_CHECKS = (
    "transition_matrix",
    "base_change_matrices",
    "cocycle_compatibility",
    "chart_relations",
    "gluing_substitution",
    "section_ring_membership",
    "determinant_periodicity",
    "w0_specialization",
    "matrix_ideal_shift",
)
FIBER_CHECKS = ("fiber_census", "component_structure", "genus_hurwitz")
ALL_CHECKS = LEMMA_CHECKS + COVER_CHECKS + FIBER_CHECKS

# From the README section "What the numbers are", written out by hand so the
# check does not trust the formulas it is checking.
EXPECTED_STATS = {
    5: dict(components=4, total_fiber=480, degree=120, genus_base=10,
            genus_component=1081, eta_field_degree=4, fiber_field_degree=8),
    7: dict(components=6, total_fiber=2016, degree=336, genus_base=21,
            genus_component=6721, eta_field_degree=6, fiber_field_degree=6),
    11: dict(components=10, total_fiber=13200, degree=1320, genus_base=55,
             genus_component=71281, eta_field_degree=5, fiber_field_degree=20),
    13: dict(components=12, total_fiber=26208, degree=2184, genus_base=78,
             genus_component=168169, eta_field_degree=12, fiber_field_degree=24),
}


@dataclass(frozen=True)
class Workload:
    primes: tuple
    checks: str | None  # --checks for `syzcover verify`; None runs symbolic_op
    expected: tuple     # check names, in report order


WORKLOADS = {
    "census": Workload((5, 7), "all", ALL_CHECKS),
    "oracle": Workload((11, 13), "lemmas,cover", LEMMA_CHECKS + COVER_CHECKS),
    "symbolic": Workload((101, 151, 251), None, LEMMA_CHECKS + COVER_CHECKS),
}

# Inclusive span time per traced operation: metric name -> span name.
SPAN_METRICS = {
    "oracle.setup_s": "oracle.setup",
    "oracle.eval_s": "oracle.eval",
    "curve.cone_points_s": "curve.cone_points",
    "census.enumerate_s": "census.enumerate",
    "census.reverify_s": "census.reverify",
    "census.classes_s": "census.classes",
    "gf.find_generator_s": "gf.find_generator",
    "gf.solve_power_equation_s": "gf.solve_power_equation",
    "gf.field_build_s": "gf.field_build",
    "formal.pow_s": "formal.pow",
    "formal.mul_s": "formal.mul",
    "cover.build_cover_data_s": "cover.build_cover_data",
    "syz.build_catalog_s": "syz.build_catalog",
    "report.run_verification_s": "report.run_verification",
    "report.render_s": "report.render",
}
# Counter per traced operation, as recorded by traced_op.py.
COUNT_METRICS = (
    "curve.cone_points",
    "census.points",
    "gf.mul_calls",
    "gf.pow_calls",
    "gf.irreducible_tests",
    "curve.mul_calls",
    "curve.evaluate_calls",
    "formal.evaluate_calls",
    "matrices.mat_mul_calls",
    "oracle.evaluations",
)
# Span counts per traced operation: metric name -> span name.
CALL_METRICS = {"formal.mul_calls": "formal.mul", "oracle.claims": "oracle.eval"}
# Spans that build shared data between verdicts; not charged to a check.
BUILD_SPANS = ("syz.build_catalog", "cover.build_cover_data")
# The span that holds all of an operation's checks.
WORK_SPANS = ("report.run_verification", "symbolic.run")
# Reported times are scaled to a host on which bench/calibrate.py takes this
# long, from spawn to exit.
CALIBRATION_REF_S = 0.1
# One calibration child is a noisy sample of the host's speed (about 20%
# between neighbours), so after a long operation more are run, for at least
# this share of its wall time.
CALIBRATION_SHARE = 0.1


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    cpu_s: float
    code: int
    stdout: bytes
    stderr: str


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Fixed string hashing makes set and dict layouts, and so the work done,
    # repeat from run to run; reports do not depend on it.
    env["PYTHONHASHSEED"] = "0"
    return env


class Launcher:
    """Runs children one at a time through bench/launcher.py."""

    def __init__(self):
        self.out = OUT / "child_stdout.txt"
        self.err = OUT / "child_stderr.txt"
        self.proc = subprocess.Popen(
            [sys.executable, BENCH / "launcher.py"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()
        self.out.unlink(missing_ok=True)
        self.err.unlink(missing_ok=True)

    def run(self, args) -> Child:
        """Run one child to completion; it is timed from spawn to exit."""
        self.proc.stdin.write("\0".join(map(str, [self.out, self.err, *args])) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        wall, rss_kib, cpu, code = line.split()
        return Child(
            float(wall),
            int(rss_kib) / 1024,
            float(cpu),
            int(code),
            self.out.read_bytes(),
            self.err.read_text(errors="replace")[-2000:],
        )


def op_args(workload: Workload, prime: int, seed: int, trace_path=None):
    if workload.checks is None:
        args = [BENCH / "symbolic_op.py", prime, seed]
        traced = ["symbolic", prime, seed]
    else:
        traced = ["verify", "--prime", prime, "--checks", workload.checks, "--seed", seed]
        args = ["-m", "syzcover", *traced]
    if trace_path is None:
        return args
    return [BENCH / "traced_op.py", trace_path, *traced]


def problem(workload: Workload, prime: int, seed: int, doc) -> str:
    """Why a parsed operation output is wrong, or '' when it is right."""
    if not isinstance(doc, dict) or doc.get("prime") != prime:
        return "output is not a report for this prime"
    if workload.checks is None:
        outcomes = doc.get("outcomes", [])
        if doc.get("seed") != seed:
            return "wrong seed"
        names = tuple(o.get("name") for o in outcomes)
        failed = [o.get("name") for o in outcomes if o.get("ok") is not True]
    else:
        checks = doc.get("checks", [])
        if doc.get("engine", {}).get("seed") != seed:
            return "wrong seed"
        if doc.get("overall") != "pass":
            return f"overall {doc.get('overall')!r}"
        if doc.get("stats") != EXPECTED_STATS[prime]:
            return f"stats {doc.get('stats')} differ from {EXPECTED_STATS[prime]}"
        names = tuple(c.get("name") for c in checks)
        failed = [c.get("name") for c in checks if c.get("status") != "pass"]
    if names != workload.expected:
        return f"checks {names} differ from {workload.expected}"
    if failed:
        return "not passed: " + ",".join(map(str, failed))
    return ""


def verdict(workload: Workload, prime: int, seed: int, child: Child):
    """(parsed output or None, failure reason or '')."""
    if child.code != 0:
        return None, f"exit code {child.code}: {child.stderr.strip()[-300:]}"
    try:
        doc = json.loads(child.stdout)
    except ValueError:
        return None, "stdout is not JSON"
    return doc, problem(workload, prime, seed, doc)


def self_test(workload: Workload, prime: int, seed: int, doc, rng) -> dict:
    """Plant one error in copies of a correct output; per kind of error,
    whether the output check rejected the copy."""
    flipped = copy.deepcopy(doc)
    planted = {"flipped_status": flipped}
    if workload.checks is None:
        rng.choice(flipped["outcomes"])["ok"] = False
    else:
        rng.choice(flipped["checks"])["status"] = "fail"
        wrong = planted["wrong_stat"] = copy.deepcopy(doc)
        wrong["stats"][rng.choice(sorted(wrong["stats"]))] += 1
    return {kind: bool(problem(workload, prime, seed, bad)) for kind, bad in planted.items()}


def layer_totals(trace: dict) -> dict:
    """Inclusive and self seconds per span name, plus span counts."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    inclusive, self_s, calls = {}, {}, {}
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
        outer = parent
        while outer >= 0 and spans[outer][0] != name:
            outer = spans[outer][3]
        if outer < 0:  # time of a span nested in one of its own name counts once
            inclusive[name] = inclusive.get(name, 0.0) + end - start
    return {"inclusive": inclusive, "self": self_s, "calls": calls}


def check_times(trace: dict) -> dict:
    """Seconds from the previous verdict (or the work span's start) to each
    verdict, less the catalog and cover-data builds in that interval."""
    spans, events = trace["spans"], sorted(trace["events"], key=lambda e: e[1])
    work = [s for s in spans if s[0] in WORK_SPANS]
    builds = [s for s in spans if s[0] in BUILD_SPANS]
    times = {}
    for _, start, end, _ in work:
        prev = start
        for name, t in events:
            if not start <= t <= end:
                continue
            built = sum(b[2] - b[1] for b in builds if prev <= b[1] and b[2] <= t)
            times[name] = times.get(name, 0.0) + (t - prev) - built
            prev = t
    return times


def layer_metrics(traced: list, untraced_wall: float) -> tuple[dict, dict]:
    """Per-layer metrics, as means per traced operation, and the span table."""
    n = len(traced)
    inclusive, self_s, calls, counts, checks = {}, {}, {}, {}, {}
    wall = cpu = work = 0.0
    for child, trace in traced:
        totals = layer_totals(trace)
        for key, acc in (("inclusive", inclusive), ("self", self_s), ("calls", calls)):
            for name, value in totals[key].items():
                acc[name] = acc.get(name, 0) + value
        for name, value in trace["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, value in check_times(trace).items():
            checks[name] = checks.get(name, 0.0) + value
        wall += child.wall_s
        cpu += child.cpu_s
        work += sum(totals["inclusive"].get(s, 0.0) for s in WORK_SPANS)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for metric, span in SPAN_METRICS.items():
        metrics[metric] = (inclusive.get(span, 0.0) / n, "s")
    for metric in COUNT_METRICS:
        metrics[metric] = (counts.get(metric, 0) / n, "count")
    for metric, span in CALL_METRICS.items():
        metrics[metric] = (calls.get(span, 0) / n, "count")
    metrics["curve.sample_yield"] = (
        ratio(counts.get("curve.sampled", 0), counts.get("curve.cone_points", 0)), "ratio")
    metrics["census.reverify_ok_ratio"] = (
        ratio(counts.get("census.reverify_ok", 0), calls.get("census.reverify", 0)), "ratio")
    for name in ALL_CHECKS:
        metrics[f"check.{name}_s"] = (checks.get(name, 0.0) / n, "s")
    metrics["cli.cpu_s"] = (cpu / n, "s")
    metrics["cli.overhead_s"] = ((wall - work) / n, "s")
    metrics["trace.overhead_frac"] = (ratio(wall / n, untraced_wall) - 1.0, "ratio")
    table = {
        name: {
            "inclusive_s": inclusive[name] / n,
            "self_s": self_s[name] / n,
            "calls": calls[name] / n,
            "share_of_work": ratio(inclusive[name], work),
        }
        for name in sorted(inclusive)
    }
    return metrics, table


def read_first_line(path: Path, prefix: str = "") -> str | None:
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if line.startswith(prefix):
                    return line.strip()
    except OSError:
        pass
    return None


def git_sha() -> str | None:
    """The checked-out commit, or None outside a git work tree."""
    git = ROOT / ".git"
    head = read_first_line(git / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = read_first_line(git / ref)
    if sha is None and (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                sha = line.split()[0]
    return sha


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "syzcover").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def load_average() -> list | None:
    line = read_first_line(Path("/proc/loadavg"))
    return [float(x) for x in line.split()[:3]] if line else None


def provenance() -> dict:
    cpu = read_first_line(Path("/proc/cpuinfo"), "model name")
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "cpu_model": cpu.split(":", 1)[1].strip() if cpu else platform.processor(),
        "platform": platform.platform(),
    }


def quartiles(values) -> dict:
    values = sorted(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "median": statistics.median(values),
            "q1": q[0], "q3": q[2], "min": values[0], "max": values[-1]}


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    rng = random.Random(seed)
    load_start = load_average()
    trace_path = OUT / "trace.json"

    import_only = ["-c", "import syzcover"]
    calibrate = [BENCH / "calibrate.py"]
    ops, failures, traced, setups, calibrations = [], [], [], [], []
    attempted = 0
    with Launcher() as launcher:

        def host_probe(busy_s=0.0):
            """Time one set-up child, then calibration children for at least
            CALIBRATION_SHARE of busy_s (and at least one); their mean wall
            time is this probe's calibration."""
            setups.append(launcher.run(import_only).wall_s)
            walls = []
            while not walls or sum(walls) < CALIBRATION_SHARE * busy_s:
                walls.append(launcher.run(calibrate).wall_s)
            calibrations.append(statistics.fmean(walls))
            return len(calibrations) - 1

        warm = launcher.run(import_only)  # also fills the bytecode cache
        if warm.code != 0:
            raise SystemExit(f"cannot import syzcover: {warm.stderr.strip()}")
        if not trace:
            for _ in range(5):
                host_probe()
        start = time.perf_counter()
        while not ops or time.perf_counter() - start < seconds:
            order = list(workload.primes)
            rng.shuffle(order)
            for prime in order:
                seed_p = rng.randrange(1 << 16)
                child = launcher.run(op_args(workload, prime, seed_p))
                attempted += 1
                doc, why = verdict(workload, prime, seed_p, child)
                if why:
                    failures.append(f"p={prime} seed={seed_p}: {why}")
                if trace:
                    ops.append((prime, seed_p, child, doc, None))
                    tchild = launcher.run(op_args(workload, prime, seed_p, trace_path))
                    attempted += 1
                    _, why = verdict(workload, prime, seed_p, tchild)
                    if why:
                        failures.append(f"traced p={prime} seed={seed_p}: {why}")
                    else:
                        traced.append((tchild, json.loads(trace_path.read_text())))
                else:
                    ops.append((prime, seed_p, child, doc, host_probe(child.wall_s)))
        elapsed = time.perf_counter() - start

        # Determinism probe: the first operation again, byte for byte.
        prime, seed_p, first, doc, _ = ops[0]
        again = launcher.run(op_args(workload, prime, seed_p))
        attempted += 1
        if again.stdout != first.stdout:
            failures.append(f"p={prime} seed={seed_p}: stdout differs on a second run")

    tests = self_test(workload, prime, seed_p, doc, rng) if doc else {}
    correct = not failures and bool(tests) and all(tests.values())

    def scale(i):
        """Reference over host speed for a child run just before probe i: the
        mean of the calibration children on either side of it."""
        return CALIBRATION_REF_S / statistics.fmean(calibrations[max(i - 1, 0):i + 1])

    per_prime = {}
    for p in workload.primes:
        mine = [(c, i) for q, _, c, _, i in ops if q == p]
        per_prime[p] = {
            "wall_s": quartiles([c.wall_s for c, _ in mine]),
            "peak_rss_mb": quartiles([c.rss_mb for c, _ in mine]),
            "cpu_s": quartiles([c.cpu_s for c, _ in mine]),
        }
        if not trace:
            per_prime[p]["scaled_s"] = quartiles([c.wall_s * scale(i) for c, i in mine])

    def mean_of_medians(field):
        return statistics.fmean(v[field]["median"] for v in per_prime.values())

    if trace:
        untraced = statistics.fmean(c.wall_s for _, _, c, _, _ in ops)
        metrics, spans = layer_metrics(traced, untraced) if traced else ({}, {})
    else:
        spans = {}
        metrics = {
            "verify_s": (mean_of_medians("scaled_s"), "s"),
            "peak_rss_mb": (mean_of_medians("peak_rss_mb"), "MB"),
            "setup_s": (
                statistics.median(w * scale(i) for i, w in enumerate(setups)), "s"),
            "pass_frac": (1.0 - len(failures) / attempted, "ratio"),
        }
    trace_path.unlink(missing_ok=True)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "elapsed_s": elapsed,
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "fail_frac": len(failures) / attempted,
        "failures": failures,
        "self_test_rejected": tests,
        "determinism_probe": {"prime": prime, "seed": seed_p,
                              "same_bytes": again.stdout == first.stdout},
        "operations": [{"prime": p, "seed": s, "wall_s": c.wall_s,
                        "peak_rss_mb": c.rss_mb, "cpu_s": c.cpu_s, "exit": c.code,
                        "probe": i}
                       for p, s, c, _, i in ops],
        "setup_wall_s": setups,
        "calibration_wall_s": calibrations,
        "per_prime": per_prime,
        "verify_wall_s": mean_of_medians("wall_s"),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "spans": spans,
        "provenance": provenance(),
        "load_average": {"start": load_start, "end": load_average()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "syzcover" / "__init__.py").is_file():
        print(f"error: no syzcover sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    path = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")

    n = len(result["operations"])
    print(f"workload {args.workload} seed {args.seed}: {n} operations "
          f"in {result['elapsed_s']:.1f} s, result file {path.relative_to(ROOT)}")
    for p, stats in result["per_prime"].items():
        w = stats["wall_s"]
        line = (f"  p={p}: n={w['n']}, median wall {w['median']:.4f} s "
                f"(q1 {w['q1']:.4f}, q3 {w['q3']:.4f}), ")
        if "scaled_s" in stats:
            line += f"median reference {stats['scaled_s']['median']:.4f} s, "
        print(line + f"peak rss {stats['peak_rss_mb']['median']:.1f} MB")
    print(f"fail_frac {result['fail_frac']:.4f} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    for failure in result["failures"]:
        print(f"  failed: {failure}")
    print(f"self-test rejected tampered reports: {result['self_test_rejected']}")
    for key, metric in result["metrics"].items():
        print(f"{key} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
