"""Spawns the benchmark's child processes and reports each one's cost.

    python3 bench/launcher.py      (driven by bench/run.py over stdin/stdout)

Linux charges the resident size of the spawning process to a child's peak
RSS (ru_maxrss), because the child starts in, or as a copy of, its parent's
memory until it execs.  Children spawned straight from run.py would all
report at least run.py's size.  This process imports nothing beyond os, sys
and time, so it stays smaller than any child it measures.

Protocol: one line per child on stdin, fields separated by NUL: the path for
the child's stdout, the path for its stderr, then the interpreter arguments.
One line back per child: wall seconds from spawn to exit, peak RSS in KiB,
CPU seconds (user + system), and the exit code.
"""

import os
import sys
import time

WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def main() -> int:
    for line in sys.stdin:
        out_path, err_path, *args = line.rstrip("\n").split("\0")
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, out_path, WRITE, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err_path, WRITE, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(
            sys.executable, [sys.executable, *args], os.environ, file_actions=actions
        )
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        cpu = usage.ru_utime + usage.ru_stime
        code = os.waitstatus_to_exitcode(status)
        sys.stdout.write(f"{wall!r} {usage.ru_maxrss} {cpu!r} {code}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
