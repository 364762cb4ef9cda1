"""Command-line front end.

Subcommands:

* ``regions``  -- compose a DoF region, compare against the converse
                  bound, emit JSON or gnuplot-ready vertices.
* ``simulate`` -- Monte Carlo DoF slope estimate for one scheme.
* ``sweep``    -- strategy-switching map over the quality grid.
* ``verify``   -- prove the power identities, the achievability of every
                  decode step and the region identity on each face of the
                  quality triangle, spot-check them at random exact pairs,
                  and check the worst-case switching ratios.

``main`` parses a command's words with that command's parser alone; a
usage error goes through the full parser.  An ``--out`` file is overwritten
in place from offset 0, one write per artifact (or 4096-row CSV block), and
a longer old file is then trimmed to the artifact's length.  Nothing is
fsynced, so a killed run or a machine crash can leave old, new or mixed
bytes at the old or the new length (see ``_FileOut``).

Exit codes: 0 success / verified, 1 a verification failed, 2 bad
arguments, 3 I/O failure.  Runs with the same arguments and seed are
byte-reproducible.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import random
import stat
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

from . import jsontext, regions, schemes
from .model import SCENARIO_KINDS, QualityPair, Scenario, check_seed


class _FileOut(contextlib.AbstractContextManager):
    """A file rewritten in place on a raw descriptor: each ``write`` encodes
    its text as UTF-8 and makes one ``write(2)``, retried until every byte is
    out, from offset 0 on; on exit a regular file longer than the bytes
    written is trimmed to them.

    Without ``O_TRUNC`` a rewrite neither frees the file's blocks on open nor,
    on ext4 (``auto_da_alloc``), starts their writeback on close: that is most
    of the time a rewrite saves, and the dirty pages wait for periodic writeback.
    Nothing is fsynced.  A run killed before the trim leaves the new bytes
    followed by the old file's tail; after a machine crash the file can hold
    old, new or page-by-page mixed bytes, at the old or the new length."""

    def __init__(self, path: str):
        self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        self._length = 0

    def write(self, text: str) -> None:
        data = memoryview(text.encode())
        while data:
            sent = os.write(self._fd, data)
            self._length += sent
            data = data[sent:]

    def __exit__(self, *exc) -> None:
        try:
            st = os.fstat(self._fd)
            if stat.S_ISREG(st.st_mode) and st.st_size > self._length:
                os.ftruncate(self._fd, self._length)
        finally:
            os.close(self._fd)


def _open_out(path: Optional[str]):
    if path in (None, "-"):
        return contextlib.nullcontext(sys.stdout)
    return _FileOut(path)


def _parse_snr_list(text: str) -> List[float]:
    tokens = text.split(",")
    if any(tok.strip() == "" for tok in tokens):
        raise ValueError(f"--snr has an empty entry in {text!r}")
    try:
        return [float(tok) for tok in tokens]
    except ValueError:
        raise ValueError(f"--snr expects comma-separated dB values, got {text!r}") from None


def _seed(text: str) -> int:
    """argparse type of --seed: a non-negative integer."""
    try:
        return check_seed(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}") from None


def _quality(args) -> QualityPair:
    """The (--beta, --alpha) pair; adding 0.0 reads -0.0 as 0.0, so both give the same bytes."""
    return QualityPair(args.beta + 0.0, args.alpha + 0.0)


def _gnuplot_block(name: str, vertices) -> str:
    # Two blank lines end a gnuplot dataset, so `plot ... index N` picks
    # out one polygon; the first vertex is repeated to close the outline.
    ring = vertices + vertices[:1] if len(vertices) > 2 else vertices
    return f"# {name}\n" + "".join(f"{x!r} {y!r}\n" for x, y in ring) + "\n\n"


def cmd_regions(args) -> int:
    q = _quality(args)
    scenario = Scenario(args.scenario)
    components = (regions.components_unmatched if scenario.kind == "unmatched"
                  else regions.components_matched)
    parts = components(q)
    composed = regions.compose(parts)
    outer = regions.outer_bound(q)
    equal = regions.region_equal(composed, outer)

    if args.format == "json":
        doc = {
            "beta": float(q.beta),
            "alpha": float(q.alpha),
            "scenario": scenario.kind,
            "components": [
                {"name": name, "weight": weight, "vertices": region.vertex_list()}
                for name, weight, region in parts
            ],
            "composed": {"vertices": composed.vertex_list()},
            "outer_bound": {"vertices": outer.vertex_list()},
            "equal": equal,
        }
        text = jsontext.dumps(doc)
    else:
        text = _gnuplot_block("composed", composed.vertices) \
            + _gnuplot_block("outer_bound", outer.vertices) \
            + "".join(_gnuplot_block(f"component {name} weight={weight!r}", region.vertices)
                      for name, weight, region in parts)
    with _open_out(args.out) as stream:
        stream.write(text)
    if not equal:
        print("composed region does not match the converse bound", file=sys.stderr)
        return 1
    return 0


def cmd_simulate(args) -> int:
    from . import linkmc
    q = _quality(args)
    kind = args.scenario or schemes.SCHEMES[args.scheme].scenarios[0]
    scenario = Scenario(kind)
    descriptor = schemes.build_descriptor(args.scheme, q, scenario)
    ladder = _parse_snr_list(args.snr)
    if args.trials < 1:
        raise ValueError(f"--trials must be positive, got {args.trials}")
    report = linkmc.estimate_dof(descriptor, q, scenario, ladder, args.trials, args.seed)
    with _open_out(args.out) as stream:
        stream.write(report.to_json())
    target = float(schemes.analytic_sum_dof(args.scheme, q, scenario))
    print(
        f"{args.scheme}: measured sum DoF {report.dof['sum']:.4f} "
        f"(analytic {target:.4f}, fit residual {report.dof['residual']:.4f})",
        file=sys.stderr,
    )
    return 0


def cmd_sweep(args) -> int:
    from . import switcher
    scenario = Scenario(args.scenario)
    m = switcher.sweep(scenario, step=args.step, rho=args.rho)
    if args.format == "csv":
        with _open_out(args.out) as stream:
            switcher.write_sweep_csv(m, stream)
    else:
        with _open_out(args.out) as stream:
            switcher.write_summary_json(m, stream)
    counts = ", ".join(f"{k}={v}" for k, v in sorted(m.counts_by_strategy().items()))
    print(f"min ratio {m.min_ratio():.4f}; {counts}", file=sys.stderr)
    return 0


#: How many random exact pairs ``verify`` spot-checks.
_SPOT_PAIRS = 4


def _outcome(name: str, failures: List[str], detail: str):
    """A check's (name, passed, detail); a failed one's detail is its first failure."""
    more = f" ({len(failures) - 1} more)" if len(failures) > 1 else ""
    return (name, False, failures[0] + more) if failures else (name, True, detail)


def _composition_failures(kind: str, q: QualityPair, where: str) -> List[str]:
    """The composed region's mismatch with the outer bound at q, if any."""
    composed = (regions.compose_unmatched if kind == "unmatched" else regions.compose_matched)(q)
    outer = regions.outer_bound(q)
    if regions.region_equal(composed, outer, tol=0):
        return []
    ranks = [", ".join(map(str, region.ranks)) for region in (composed, outer)]
    return [f"{kind} at {where}: ranks ({ranks[0]}) against the outer bound's ({ranks[1]})"]


def _verify_checks(scenarios: Sequence[Scenario], seed: int):
    """Yield (name, passed, detail) for the invariant battery.

    Every exponent of a face template is affine on its face of the quality
    triangle, so its power ledger telescopes on the whole face, and a step
    margin, signal - max(interference, 0) - rate, is concave there: >= 0 on
    the face once it is at the corners of the face's closure.  The ranks of
    the composed regions and of the outer bound are affine on the triangle,
    so they agree on it once they agree at its corners.  Random exact pairs
    drawn from ``seed`` spot-check builds, audits and compositions."""
    templates = [(f"{scheme} ({kind}) on {name}", row.build, kind, face)
                 for scheme, row in schemes.SCHEMES.items() for kind in row.scenarios
                 for name, face in schemes.FACES.items()]
    ledgers, audits, margins = [], [], []
    for where, build, kind, face in templates:
        try:
            t = schemes._template(build, kind, face)
            schemes.check_power_identity(t)  # again, as the template may be cached
        except ValueError as exc:
            ledgers.append(f"{where}: {exc}")
            continue
        for b, a in face:
            try:
                audit = schemes.static_achievability_check(schemes._at(t, QualityPair(b, a)))
                margins.append(min(step.margin for step in audit))
            except schemes.AchievabilityError as exc:
                audits.append(f"{where} at vertex ({b}, {a}): {exc}")
    yield _outcome("power-identity-proof", ledgers,
                   f"{len(templates)} face templates telescope to P in both subbands")
    yield _outcome("achievability-proof", audits, f"{len(margins)} face-vertex audits, "
                   f"worst step margin {min(margins, default=0)}")

    corners = [QualityPair(Fraction(b), Fraction(a)) for b, a in schemes._CORNERS]
    failures = [f for scenario in scenarios for q in corners for f in _composition_failures(
        scenario.kind, q, f"corner ({q.beta}, {q.alpha})")]
    yield _outcome("composition-proof", failures, f"{len(scenarios) * len(corners)} exact "
                   "compositions equal the outer bound at the corners")

    rng, failures = random.Random(seed), []
    for _ in range(_SPOT_PAIRS):
        q = QualityPair(*sorted((Fraction(rng.random()) for _ in range(2)), reverse=True))
        where = f"({float(q.beta)!r}, {float(q.alpha)!r})"
        for scheme, row in schemes.SCHEMES.items():
            for kind in row.scenarios:
                try:
                    d = schemes.build_descriptor(scheme, q, Scenario(kind))
                    if d != row.build(q, Scenario(kind)):
                        raise ValueError("the evaluated face template differs from the build")
                    schemes.static_achievability_check(d)
                except (ValueError, schemes.AchievabilityError) as exc:
                    failures.append(f"{scheme} ({kind}) at {where}: {exc}")
        failures += [f for scenario in scenarios
                     for f in _composition_failures(scenario.kind, q, where)]
    yield _outcome("spot-checks", failures,
                   f"{_SPOT_PAIRS} random exact pairs: builds, audits and compositions pass")

    from . import switcher
    for scenario in scenarios:
        m = switcher.sweep(scenario, step=0.005, rho=1.0)
        value, argmin = m.min_ratio(), m.argmin()
        if scenario.kind == "unmatched":
            ok = abs(value - 0.8) <= 1e-3 and value >= 0.8 - 1e-9
            ok = ok and all(abs(b - 2 / 3) <= 0.005 and abs(a - 2 / 3) <= 0.005
                            for b, a in argmin)
            detail = f"min ratio {value:.4f} at {argmin}"
        else:
            ok = abs(value - 2 / 3) <= 1e-3
            ok = ok and all(abs(b + a - 1.0) <= 1e-9 for b, a in argmin)
            detail = f"min ratio {value:.4f} on beta + alpha = 1 ({len(argmin)} cells)"
        yield f"min-ratio-{scenario.kind}", ok, detail


def cmd_verify(args) -> int:
    kinds = [args.scenario] if args.scenario else SCENARIO_KINDS
    scenarios = [Scenario(kind) for kind in kinds]
    failures = 0
    for name, passed, detail in _verify_checks(scenarios, args.seed):
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
        failures += 0 if passed else 1
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dofsim",
        description="DoF toolkit for the two-user, two-subband MISO downlink "
                    "with imperfect transmitter CSI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_regions = sub.add_parser("regions", help="compose a DoF region and check it "
                                               "against the converse bound")
    p_regions.add_argument("--scenario", choices=SCENARIO_KINDS, default="unmatched")
    p_regions.add_argument("--beta", type=float, default=0.8)
    p_regions.add_argument("--alpha", type=float, default=0.5)
    p_regions.add_argument("--format", choices=["json", "gnuplot"], default="json")
    p_regions.add_argument("--out", default="-", help="output path, - for stdout")

    p_sim = sub.add_parser("simulate", help="Monte Carlo DoF slope estimate for one scheme")
    p_sim.add_argument("--scheme", required=True, choices=schemes.SCHEME_NAMES)
    p_sim.add_argument("--scenario", choices=SCENARIO_KINDS, default=None,
                       help="defaults to the scheme's natural scenario")
    p_sim.add_argument("--beta", type=float, default=0.8)
    p_sim.add_argument("--alpha", type=float, default=0.5)
    p_sim.add_argument("--snr", default="40,50,60",
                       help="comma-separated SNR ladder in dB")
    p_sim.add_argument("--trials", type=int, default=20000)
    p_sim.add_argument("--seed", type=_seed, default=0)
    p_sim.add_argument("--out", default="-", help="report path, - for stdout")

    p_sweep = sub.add_parser("sweep", help="strategy-switching map over the quality grid")
    p_sweep.add_argument("--scenario", choices=SCENARIO_KINDS, default="unmatched")
    p_sweep.add_argument("--step", type=float, default=0.01)
    p_sweep.add_argument("--rho", type=float, default=0.9,
                         help="ratio threshold below which a cell needs the optimal scheme")
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sweep.add_argument("--out", default="-", help="output path, - for stdout")

    p_verify = sub.add_parser(
        "verify", help="run the built-in invariant battery",
        description="Prove the power identities, step achievability and the region identity "
                    "once per face of the quality triangle, spot-check them at random exact "
                    "(beta, alpha) pairs, and check the worst-case switching ratios on a "
                    "0.005 grid.")
    p_verify.add_argument("--scenario", choices=SCENARIO_KINDS, default=None,
                          help="restrict scenario-specific checks")
    p_verify.add_argument("--seed", type=_seed, default=0,
                          help="seed of the random exact pairs the spot checks draw")
    #: Command name -> that command's parser.
    parser.commands = sub.choices
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on the first call."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    own = parser.commands.get(argv[0]) if argv else None
    args, unknown = own.parse_known_args(argv[1:]) if own else (None, True)
    if unknown:
        # No command, or words the command's parser does not know: the full
        # parser gives the usage message and the exit code.
        args = parser.parse_args(argv)
    else:
        args.command = argv[0]
    # Looked up per call rather than bound into the reused parser, so a
    # command replaced on this module (a test double, a tracer) is the one
    # that runs.
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
