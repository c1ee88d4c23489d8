"""Summarize benchmark result files: median, quartiles and spread per metric.

    python3 bench/summarize.py                       # every bench/out/BENCH_*.json
    python3 bench/summarize.py FILE... --json OUT    # chosen files, also as JSON

Runs are grouped by workload and by traced or untraced.  For each metric the
summary gives the median over runs, the first and third quartile (as
`statistics.quantiles(values, n=4)` computes them) and the spread, which is
(q3 - q1) / median.  Per prime it gives the median of the runs' per-prime
median wall times and peak RSS.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def spread_of(values) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def summarize(results) -> dict:
    groups = {}
    for result in results:
        key = f"{result['workload']}{'_traced' if result['trace'] else ''}"
        groups.setdefault(key, []).append(result)
    summary = {}
    for key, runs in sorted(groups.items()):
        metrics = {}
        for name, metric in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"unit": metric["unit"], **spread_of(values)}
        primes = {
            prime: {
                field: statistics.median(r["per_prime"][prime][field]["median"] for r in runs)
                for field in fields
            }
            for prime, fields in runs[0]["per_prime"].items()
        }
        summary[key] = {
            "runs": len(runs),
            "seeds": [r["seed"] for r in runs],
            "seconds": runs[0]["seconds"],
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
            "verify_wall_s": spread_of([r["verify_wall_s"] for r in runs]),
            "per_prime": primes,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", type=Path)
    parser.add_argument("--json", type=Path, help="also write the summary here")
    args = parser.parse_args(argv)
    files = args.files or sorted(OUT.glob("BENCH_*.json"))
    if not files:
        print("no result files", file=sys.stderr)
        return 1
    summary = summarize([json.loads(f.read_text()) for f in files])
    for key, group in summary.items():
        print(f"{key}: {group['runs']} runs, {group['failed']} of "
              f"{group['attempted']} operations failed, correct={group['correct']}")
        for name, m in group["metrics"].items():
            print(f"  {name:34} {m['median']:12.6g} {m['unit']:6} "
                  f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  spread {m['spread']:.4f}")
        wall = group["verify_wall_s"]
        print(f"  {'(verify_wall_s, unscaled)':34} {wall['median']:12.6g} s      "
              f"q1 {wall['q1']:.6g}  q3 {wall['q3']:.6g}  spread {wall['spread']:.4f}")
        for prime, m in group["per_prime"].items():
            print(f"  p={prime}: " + ", ".join(f"{k} {v:.4f}" for k, v in m.items()))
    if args.json:
        args.json.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
