"""Child CPU time of ``dofsim`` commands, each run in a fresh interpreter.

Usage::

    python tools/cold_cli.py <repo> [--runs N] [--command NAME ...]

runs each command in ``COMMANDS`` (or those named by ``--command``) N
times as ``sys.executable -c "from dofsim.cli import main; ..."`` with
``<repo>/src`` on ``PYTHONPATH``, and interleaves a bare interpreter
(``-c pass``) before every command run, so load on the machine reaches
both alike.  A child's CPU is the user + system time it adds to
``RUSAGE_CHILDREN``.  It prints JSON: per command its argv, every run's
CPU seconds and their median.

The children run with ``PYTHONDONTWRITEBYTECODE=1``, so no run writes
bytecode that a later one reads: a tree with no ``__pycache__`` is timed
compiling from source on every run, one with a cache loading it every
time.  Delete ``src/**/__pycache__`` in both trees before comparing them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

#: Name -> argv after ``dofsim``; ``bare`` runs no command at all.
COMMANDS = {
    "regions": ["regions"],
    "sweep": ["sweep", "--format", "json"],
    "simulate": ["simulate", "--scheme", "zfbf", "--trials", "100"],
    "verify": ["verify"],
}


def child_cpu(code: str, env: dict) -> float:
    """CPU seconds of ``python -c code`` in a fresh interpreter; a failed run raises."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def measure(repo: Path, names, runs: int) -> dict:
    src = str((repo / "src").resolve())
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    argvs = {"bare": None, **{name: COMMANDS[name] for name in names}}
    cpu = {name: [] for name in argvs}
    for _ in range(runs):
        for name in names:
            cpu["bare"].append(child_cpu("pass", env))
            code = f"from dofsim.cli import main; raise SystemExit(main({COMMANDS[name]!r}))"
            cpu[name].append(child_cpu(code, env))
    return {"runs": runs, "commands": {
        name: {"argv": argvs[name], "cpu_s": cpu[name], "median_cpu_s": statistics.median(cpu[name])}
        for name in argvs}}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("repo", type=Path)
    parser.add_argument("--runs", type=int, default=11, help="runs of each command")
    parser.add_argument("--command", action="append", choices=list(COMMANDS),
                        help="a command to time (repeatable; default: all)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    names = list(dict.fromkeys(args.command or COMMANDS))  # each command once, in order
    print(json.dumps(measure(args.repo, names, args.runs), indent=2))


if __name__ == "__main__":
    main()
