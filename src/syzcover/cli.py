"""Command-line interface: `syzcover verify`, with the options and exit
codes that HELP lists.

`_parse_args` reads the options, not argparse: argparse, with the gettext
and locale modules it imports, cost every cold `verify` about 6 ms.
"""

from __future__ import annotations

import sys

from .report import emit_report, parse_selection, run_verification

# verify's options and their defaults; `-p` is `--prime`.
OPTIONS = {"prime": None, "primes": None, "checks": "all", "seed": 0, "format": "json",
           "output": None}
INTEGER_OPTIONS = ("prime", "seed")

HELP = """\
usage: syzcover verify (--prime P | --primes P,Q,...) [--checks GROUPS]
         [--seed S] [--format json|text] [--output PATH]

  -p, --prime P        odd prime to verify
  --primes P,Q,...     comma-separated list of odd primes
  --checks GROUPS      comma-separated groups: lemmas, cover, fiber, or all (default)
  --seed S             sampling seed (default 0)
  --format json|text   output format (default json)
  --output PATH        write the report here instead of stdout
  -h, --help           print this help and exit

Exit codes: 0 when every executed check passes, 1 when any check fails,
2 on invalid input.
"""


def _integer(flag: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{flag}: {text!r} is not an integer") from None


def _parse_args(argv) -> dict | None:
    """verify's options read from argv, defaults filled in, or None when argv
    asks for help.  A usage error raises ValueError naming the flag or token.
    A value is the next token or follows `=` (or `-p`); a long name may be cut
    to a unique prefix, and the last of a repeated option wins."""
    given, command = {}, []
    tokens = iter(argv)
    for tok in tokens:
        if tok.startswith("--"):
            name, inline, value = tok[2:].partition("=")
            found = [n for n in (*OPTIONS, "help") if n.startswith(name)]
            if name not in found and len(found) != 1:
                raise ValueError(f"{'ambiguous' if found else 'unknown'} option {tok!r}")
            name = name if name in found else found[0]
        elif tok.startswith("-p"):
            name, inline, value = "prime", tok[2:], tok[2:].removeprefix("=")
        elif tok == "-h":
            name = "help"
        elif tok.startswith("-"):
            raise ValueError(f"unknown option {tok!r}")
        else:
            command.append(tok)
            continue
        if name == "help":
            return None
        if not inline:
            value = next(tokens, None)
            if value is None:
                raise ValueError(f"--{name} expects a value")
        given[name] = _integer(f"--{name}", value) if name in INTEGER_OPTIONS else value
    if command != ["verify"]:
        stray = command[command[:1] == ["verify"] :]
        raise ValueError(f"unexpected argument {stray[0]!r}" if stray else "expected the command verify")
    if ("prime" in given) == ("primes" in given):
        raise ValueError("give exactly one of --prime and --primes")
    if given.get("format", "json") not in ("json", "text"):
        raise ValueError(f"--format: {given['format']!r} is not json or text")
    return {**OPTIONS, **given}


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            sys.stdout.write(HELP)
            return 0
        primes = [args["prime"]]
        if args["primes"] is not None:
            primes = [_integer("--primes", t) for t in map(str.strip, args["primes"].split(",")) if t]
        if not primes:
            raise ValueError("--primes lists no prime")
        selection = parse_selection(args["checks"])
        if not selection:
            raise ValueError("--checks selects no check group")
        reports = [run_verification(p, checks=selection, seed=args["seed"]) for p in primes]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = reports[0] if len(reports) == 1 else reports
    try:
        text = emit_report(payload, args["format"], args["output"])
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2
    if args["output"] is None:
        sys.stdout.write(text)
    return 0 if all(r.overall == "pass" for r in reports) else 1


def entry() -> int:
    """The process entry of `python -m syzcover`, `python -m syzcover.cli` and
    the `syzcover` script: `main()`, then `gc.freeze()` on the way out.

    The freeze moves every live object to the collector's permanent
    generation, so the cyclic collection at interpreter exit skips the
    modules' functions, classes and dicts (about 3.5 ms of a cold `verify`)
    and the OS reclaims them.  syzcover has no finalizer to miss, and
    stdout and stderr are still flushed.  `main()` never freezes: tests and
    the bench tracer call it in-process."""
    import gc

    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
