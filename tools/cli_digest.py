"""One sha256 over a fixed battery of ``dofsim`` command-line calls.

Usage::

    python tools/cli_digest.py <repo>

imports ``dofsim`` from ``<repo>/src``, runs every call below in process
through ``dofsim.cli.main`` with ``COLUMNS=80`` and prints the sha256 of
each call's argv, exit code, stdout and stderr, and of the file it writes
through ``--out`` (into a temporary directory), in order.  Two trees give
the same digest exactly when the battery's bytes agree, so a refactor that
claims unchanged command-line behaviour shows it by running this on both
trees under the same interpreter (argparse's help layout varies across
Python versions).

On stderr it also prints one line per call: a short sha256 of that call's
parts and its argv.  Diffing the stderr of two trees names the calls whose
bytes moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

# Spelled out rather than read from dofsim, so every tree runs the same calls.
SCHEMES = ("fdma", "matched-optimal", "optimal-unmatched", "s3", "zfbf")
SCENARIOS = ("unmatched", "matched")
COMMANDS = ("regions", "simulate", "sweep", "verify")
#: Stands for the temporary directory in an ``--out`` path, so the argv that
#: is hashed does not depend on where the directory is.
OUT_DIR = "<out>"


def battery():
    """The argv lists, in order."""
    yield ["--help"]
    for command in COMMANDS:
        yield [command, "--help"]
        needs_scheme = ["--scheme", "fdma"] if command == "simulate" else []
        yield [command, *needs_scheme, "--scenario", "duplex"]
    yield ["simulate", "--scheme", "dpc"]
    mc = ["--snr", "40,50,60", "--trials", "50"]
    for scheme in SCHEMES:
        for scenario in (None, *SCENARIOS):
            chosen = [] if scenario is None else ["--scenario", scenario]
            yield ["simulate", "--scheme", scheme, *chosen, *mc]
        # The vertices (0, 0), (1, 0) and (1, 1) and a point on each edge:
        # the builders branch on beta < 1, beta > alpha and a matched
        # subband's quality at 0 or 1.
        for beta, alpha in (("0", "0"), ("1", "0"), ("0.5", "0"), ("1", "0.5"), ("0.6", "0.6"),
                            ("1", "1")):
            yield ["simulate", "--scheme", scheme, "--beta", beta, "--alpha", alpha, *mc]
    # With alpha = 3e-18 the alpha cells' estimate variance 1 - P**-alpha
    # rounds to 0 at 40 dB but not at 200 or 400 dB, so those estimates are
    # zero at one ladder point only: fdma runs, and the schemes that steer
    # on an estimate refuse to zero-force on or normalise a zero one.
    for scheme in ("fdma", "zfbf", "s3", "optimal-unmatched", "matched-optimal"):
        yield ["simulate", "--scheme", scheme, "--beta", "0.5", "--alpha", "3e-18",
               "--snr", "40,200,400", "--trials", "50"]
    # Matched zfbf at alpha = 0 zero-forces on subband B's zero estimates.
    for beta in ("1", "0"):
        yield ["simulate", "--scheme", "zfbf", "--scenario", "matched", "--beta", beta,
               "--alpha", "0", *mc]
    # 4100 trials: a full block of TRIAL_BLOCK = 4096 trials and a partial second.
    yield ["simulate", "--scheme", "optimal-unmatched", "--trials", "4100"]
    # On 380/400/420 dB a quality-1 error lies below half an ulp of its
    # estimate, so a zero-forced link's leakage is the error's alone.
    for scheme, beta, alpha in (("zfbf", "1", "1"), ("zfbf", "0.8", "0.5"),
                                ("optimal-unmatched", "0.95", "0.5")):
        yield ["simulate", "--scheme", scheme, "--beta", beta, "--alpha", alpha,
               "--snr", "380,400,420", "--trials", "200"]
    # 40 and 40.0000001 share the report key "40"; the ladder is rejected.
    yield ["simulate", "--scheme", "fdma", "--snr", "40,40.0000001,50", "--trials", "20"]
    yield ["verify"]
    yield ["verify", "--scenario", "matched"]
    # Another seed draws other spot-check pairs.
    yield ["verify", "--seed", "1"]
    for scenario in SCENARIOS:
        yield ["sweep", "--scenario", scenario, "--step", "0.05"]
        yield ["sweep", "--scenario", scenario, "--step", "0.1", "--format", "json"]
        # 40 401 cells: nine full CSV blocks of 4096 rows and a partial tenth.
        yield ["sweep", "--scenario", scenario, "--step", "0.005", "--format", "csv"]
        # The largest grid, 1001**2 cells.
        yield ["sweep", "--scenario", scenario, "--step", "0.001", "--format", "json"]
        for beta, alpha in (("0.8", "0.5"), ("1", "0"), ("0.3", "0.3"), ("1", "1")):
            for fmt in ("json", "gnuplot"):
                yield ["regions", "--scenario", scenario, "--beta", beta, "--alpha", alpha,
                       "--format", fmt]
    # One artifact of each kind written to a file rather than to stdout.
    yield ["regions", "--format", "json", "--out", f"{OUT_DIR}/regions.json"]
    yield ["regions", "--scenario", "matched", "--format", "gnuplot",
           "--out", f"{OUT_DIR}/regions.gp"]
    yield ["simulate", "--scheme", "optimal-unmatched", *mc, "--out", f"{OUT_DIR}/report.json"]
    yield ["sweep", "--step", "0.05", "--out", f"{OUT_DIR}/sweep.csv"]
    yield ["sweep", "--scenario", "matched", "--step", "0.1", "--format", "json",
           "--out", f"{OUT_DIR}/summary.json"]
    # Three components (the matched gnuplot call above has two).
    yield ["regions", "--format", "gnuplot", "--out", f"{OUT_DIR}/regions-unmatched.gp"]
    # Artifacts written over earlier ones at the same path: a shorter one
    # over a longer one, and a longer one back over a shorter one.
    yield ["regions", "--format", "gnuplot", "--out", f"{OUT_DIR}/rewrite.gp"]
    yield ["regions", "--scenario", "matched", "--format", "gnuplot",
           "--out", f"{OUT_DIR}/rewrite.gp"]
    for step in ("0.05", "0.1", "0.05"):
        yield ["sweep", "--step", step, "--out", f"{OUT_DIR}/rewrite.csv"]
    # How argv reaches a command's parser: words it does not know, an
    # abbreviated option, a negative value, the --opt=value form, -h after
    # other arguments, and words that are not a command.
    yield ["regions", "stray"]
    yield ["regions", "--nope", "1"]
    yield ["regions", "--", "x"]
    yield ["regions", "--bet", "0.5"]
    yield ["regions", "--beta", "-0.5"]
    yield ["simulate", "--scheme", "fdma", "--snr=-5,10,20", "--trials=20"]
    yield ["regions", "--beta", "0.5", "-h"]
    yield ["bogus"]
    yield ["reg"]
    yield []


def run(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's --help and usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _parts(argv, code, out, err, *files: bytes) -> bytes:
    """argv, exit code, stdout, stderr and the bytes of each file written,
    each prefixed with its length."""
    blobs = [part.encode() for part in (json.dumps(argv), str(code), out, err)] + list(files)
    return b"".join(len(data).to_bytes(8, "little") + data for data in blobs)


def digest(repo: Path) -> str:
    os.environ["COLUMNS"] = "80"
    sys.path.insert(0, str(repo / "src"))
    from dofsim import cli

    if not Path(cli.__file__).resolve().is_relative_to(repo.resolve()):
        raise SystemExit(f"imported dofsim from {cli.__file__}, not from {repo}")
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for argv in battery():
            paths = [arg.replace(OUT_DIR, tmp) for arg in argv]
            code, out, err = run(cli.main, paths)
            files = [Path(path).read_bytes() for path, arg in zip(paths, argv) if path != arg]
            data = _parts(argv, code, out, err, *files)
            h.update(data)
            print(hashlib.sha256(data).hexdigest()[:12], json.dumps(argv), file=sys.stderr)
    return h.hexdigest()


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: python tools/cli_digest.py <repo>")
    print(digest(Path(sys.argv[1])))
