"""Command-line front end.

Subcommands:

* ``regions``  -- compose a DoF region, compare against the converse
                  bound, emit JSON or gnuplot-ready vertices.
* ``simulate`` -- Monte Carlo DoF slope estimate for one scheme.
* ``sweep``    -- strategy-switching map over the quality grid.
* ``verify``   -- run the built-in invariant battery.

Exit codes: 0 success / verified, 1 a verification failed, 2 bad
arguments, 3 I/O failure.  Runs with the same arguments and seed are
byte-reproducible.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

import numpy as np

from . import linkmc, regions, schemes, switcher
from .channel import MATCHED, UNMATCHED, QualityPair, Scenario, check_seed

_SCHEME_SCENARIO = {
    "optimal-unmatched": "unmatched",
    "matched-optimal": "matched",
    "s3": "unmatched",
}


def _open_out(path: Optional[str]):
    if path in (None, "-"):
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _parse_snr_list(text: str) -> List[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"--snr expects comma-separated dB values, got {text!r}") from None
    if not values:
        raise ValueError("--snr expects at least one dB value")
    return values


def _seed(text: str) -> int:
    """argparse type of --seed: a non-negative integer."""
    try:
        return check_seed(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}") from None


def _gnuplot_block(stream, name: str, vertices) -> None:
    # Two blank lines end a gnuplot dataset, so `plot ... index N` picks
    # out one polygon; the first vertex is repeated to close the outline.
    stream.write(f"# {name}\n")
    for x, y in vertices:
        stream.write(f"{x!r} {y!r}\n")
    if len(vertices) > 2:
        stream.write(f"{vertices[0][0]!r} {vertices[0][1]!r}\n")
    stream.write("\n\n")


def cmd_regions(args) -> int:
    q = QualityPair(args.beta, args.alpha)
    scenario = Scenario(args.scenario)
    if scenario.kind == "unmatched":
        parts = regions.components_unmatched(q)
        composed = regions.compose_unmatched(q)
    else:
        parts = regions.components_matched(q)
        composed = regions.compose_matched(q)
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
        with _open_out(args.out) as stream:
            json.dump(doc, stream, indent=2, sort_keys=True)
            stream.write("\n")
    elif args.format == "gnuplot":
        with _open_out(args.out) as stream:
            _gnuplot_block(stream, "composed", composed.vertices)
            _gnuplot_block(stream, "outer_bound", outer.vertices)
            for name, weight, region in parts:
                _gnuplot_block(stream, f"component {name} weight={weight!r}", region.vertices)
    else:
        raise ValueError(f"regions supports json or gnuplot output, not {args.format!r}")
    if not equal:
        print("composed region does not match the converse bound", file=sys.stderr)
        return 1
    return 0


def cmd_simulate(args) -> int:
    q = QualityPair(args.beta, args.alpha)
    implied = _SCHEME_SCENARIO.get(args.scheme)
    kind = args.scenario if args.scenario is not None else (implied or "unmatched")
    if implied is not None and kind != implied:
        raise ValueError(f"scheme {args.scheme!r} requires the {implied} scenario, got {kind!r}")
    scenario = Scenario(kind)
    ladder = _parse_snr_list(args.snr)
    if args.trials < 1:
        raise ValueError(f"--trials must be positive, got {args.trials}")
    descriptor = schemes.build_descriptor(args.scheme, q, scenario)
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
    scenario = Scenario(args.scenario)
    m = switcher.sweep(scenario, step=args.step, rho=args.rho)
    if args.format == "csv":
        with _open_out(args.out) as stream:
            switcher.write_sweep_csv(m, stream)
    elif args.format == "json":
        with _open_out(args.out) as stream:
            switcher.write_summary_json(m, stream)
    else:
        raise ValueError(f"sweep supports csv or json output, not {args.format!r}")
    counts = ", ".join(f"{k}={v}" for k, v in sorted(m.counts_by_strategy().items()))
    print(f"min ratio {m.min_ratio():.4f}; {counts}", file=sys.stderr)
    return 0


def _verify_checks(scenarios: Sequence[Scenario], seed: int):
    """Yield (name, passed, detail) for the invariant battery."""
    grid = [i / 20 for i in range(21)]

    def descriptors_at(q: QualityPair):
        ds = [schemes.fdma_descriptor(),
              schemes.zfbf_descriptor(q, UNMATCHED),
              schemes.zfbf_descriptor(q, MATCHED),
              schemes.matched_descriptor(q)]
        ds.append(schemes.optimal_unmatched_descriptor(q))
        ds.append(schemes.s3_descriptor(q))
        return ds

    try:
        count = 0
        for b in grid:
            for a in grid:
                if a > b:
                    continue
                for d in descriptors_at(QualityPair(b, a)):
                    for slot, _ in d.slots:
                        assert schemes.power_ledger(d, slot) == {1.0: Fraction(1)}
                        count += 1
        yield "power-identity", True, f"{count} slot ledgers telescope to P"
    except (AssertionError, ValueError) as exc:
        yield "power-identity", False, str(exc)

    try:
        worst = float("inf")
        for b in grid:
            for a in grid:
                if a > b:
                    continue
                for d in descriptors_at(QualityPair(b, a)):
                    report = schemes.static_achievability_check(d)
                    worst = min(worst, min(s.margin for s in report))
        passed = worst >= -1e-12
        yield "achievability-margins", passed, f"worst step margin {worst:.3g}"
    except schemes.AchievabilityError as exc:
        yield "achievability-margins", False, str(exc)

    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(200):
        lo, hi = np.sort(rng.uniform(0.0, 1.0, size=2))
        q = QualityPair(float(hi), float(lo))
        for scenario in scenarios:
            compose = (regions.compose_unmatched if scenario.kind == "unmatched"
                       else regions.compose_matched)
            if not regions.region_equal(compose(q), regions.outer_bound(q)):
                bad += 1
    yield "composition-identity", bad == 0, f"{bad} mismatches in 200 random pairs"

    for scenario in scenarios:
        value, argmin = switcher.min_ratio(scenario, step=0.005)
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
    scenarios = [Scenario(args.scenario)] if args.scenario else [UNMATCHED, MATCHED]
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
    p_regions.add_argument("--scenario", choices=["unmatched", "matched"],
                           default="unmatched")
    p_regions.add_argument("--beta", type=float, default=0.8)
    p_regions.add_argument("--alpha", type=float, default=0.5)
    p_regions.add_argument("--format", choices=["json", "gnuplot"], default="json")
    p_regions.add_argument("--out", default="-", help="output path, - for stdout")
    p_regions.set_defaults(func=cmd_regions)

    p_sim = sub.add_parser("simulate", help="Monte Carlo DoF slope estimate for one scheme")
    p_sim.add_argument("--scheme", required=True,
                       choices=sorted(schemes.SCHEME_NAMES))
    p_sim.add_argument("--scenario", choices=["unmatched", "matched"], default=None,
                       help="defaults to the scheme's natural scenario")
    p_sim.add_argument("--beta", type=float, default=0.8)
    p_sim.add_argument("--alpha", type=float, default=0.5)
    p_sim.add_argument("--snr", default="40,50,60",
                       help="comma-separated SNR ladder in dB")
    p_sim.add_argument("--trials", type=int, default=20000)
    p_sim.add_argument("--seed", type=_seed, default=0)
    p_sim.add_argument("--out", default="-", help="report path, - for stdout")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="strategy-switching map over the quality grid")
    p_sweep.add_argument("--scenario", choices=["unmatched", "matched"],
                         default="unmatched")
    p_sweep.add_argument("--step", type=float, default=0.01)
    p_sweep.add_argument("--rho", type=float, default=0.9,
                         help="ratio threshold below which a cell needs the optimal scheme")
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sweep.add_argument("--out", default="-", help="output path, - for stdout")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the built-in invariant battery")
    p_verify.add_argument("--scenario", choices=["unmatched", "matched"], default=None,
                          help="restrict scenario-specific checks")
    p_verify.add_argument("--seed", type=_seed, default=0)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
