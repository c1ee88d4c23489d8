"""Command-line interface.

    syzcover verify --prime 5 [--checks lemmas,cover,fiber|all]
                    [--max-field-size N] [--seed S]
                    [--format json|text] [--output PATH]

Exit codes: 0 when every executed check passes (skipped census is not a
failure), 1 when any check fails, 2 on invalid input.
"""

from __future__ import annotations

import sys

from .census import CENSUS_CAP
from .report import emit_report, parse_selection, run_verification


def build_parser() -> argparse.ArgumentParser:
    # Imported here, after the pipeline modules: a cold `verify` then compiles
    # them before argparse's objects sit on the heap, one step lower in peak RSS.
    import argparse

    parser = argparse.ArgumentParser(prog="syzcover")
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser(
        "verify", help="run the verification pipeline for one or more primes"
    )
    group = verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--prime", "-p", type=int, help="odd prime to verify")
    group.add_argument(
        "--primes", type=str, help="comma-separated list of odd primes"
    )
    verify.add_argument(
        "--checks",
        default="all",
        help="comma-separated groups: lemmas, cover, fiber, or all (default)",
    )
    verify.add_argument(
        "--max-field-size",
        type=int,
        default=CENSUS_CAP,
        help="the fiber census is skipped when its field has more elements than this "
        f"(at least 1; default {CENSUS_CAP}, which enumerates p <= 7)",
    )
    verify.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    verify.add_argument(
        "--format", choices=("json", "text"), default="json", help="output format"
    )
    verify.add_argument(
        "--output", default=None, help="write the report here instead of stdout"
    )
    return parser


def _parse_primes(text: str) -> list[int]:
    primes = []
    for tok in filter(None, map(str.strip, text.split(","))):
        try:
            primes.append(int(tok))
        except ValueError:
            raise ValueError(f"--primes: {tok!r} is not an integer") from None
    return primes


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "verify":
        try:
            primes = [args.prime] if args.prime is not None else _parse_primes(args.primes)
            if not primes:
                raise ValueError("--primes lists no prime")
            selection = parse_selection(args.checks)
            if not selection:
                raise ValueError("--checks selects no check group")
            reports = [
                run_verification(
                    p,
                    checks=selection,
                    seed=args.seed,
                    max_field_size=args.max_field_size,
                )
                for p in primes
            ]
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        payload = reports[0] if len(reports) == 1 else reports
        try:
            text = emit_report(payload, args.format, args.output)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
        if args.output is None:
            sys.stdout.write(text)
        return 0 if all(r.overall == "pass" for r in reports) else 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
