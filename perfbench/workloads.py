"""Workload inputs, the program calls they make and the checks on their outputs.

Each workload is an endless series of rounds; round ``r`` is a pure
function of ``(seed, r)``.  An ``Op`` is one closed-loop operation: one
library or ``cli.main`` call, timed on its own, followed by an untimed
check of its output.  Expected values are computed here, when the inputs
are made, so the checks call nothing that a traced run records.

What the end-to-end metrics mean on each workload:

* ``mc_gate``: a call is any ``estimate_dof`` or ``measure_error_exponent``
  call; work is one trial or draw at one ladder point.
* ``mc_scan``: a call is one successful ``simulate`` command; work is one
  trial at one ladder point.  The corner configs that exit 2 today are
  not in the timed loop; ``corner_probes`` runs them once per run.
* ``cli_mix``: a call is one ``regions`` command; work is one sweep cell.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Tuple

import numpy as np

from dofsim import channel, cli, linkmc, schemes
from dofsim.channel import MATCHED, UNMATCHED, QualityPair, Scenario

# The MC half of the acceptance battery (tests/test_acceptance.py): label,
# scheme, quality pair, scenario, tolerance on the sum DoF.
MC_CONFIGS = (
    ("fdma(0.8,0.5)", "fdma", QualityPair(0.8, 0.5), UNMATCHED, 0.05),
    ("zfbf(1,1)", "zfbf", QualityPair(1.0, 1.0), UNMATCHED, 0.05),
    ("zfbf(0.8,0.5)", "zfbf", QualityPair(0.8, 0.5), UNMATCHED, 0.10),
    ("s3(1,0.5)", "s3", QualityPair(1.0, 0.5), UNMATCHED, 0.10),
    ("optimal-unmatched(0.8,0.5)", "optimal-unmatched", QualityPair(0.8, 0.5), UNMATCHED, 0.10),
    ("matched-optimal(0.8,0.5)", "matched-optimal", QualityPair(0.8, 0.5), MATCHED, 0.10),
)
GATE_LADDER_DB = (40.0, 50.0, 60.0)
EXPONENT_LADDER_DB = (30.0, 40.0, 50.0)
EXPONENTS = (0.0, 0.5, 1.0)
EXPONENT_TOL = 0.02

SCAN_LADDER = "140,160,180"
SCAN_RANDOM_PAIRS = 4
CORNERS = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0))
# Widest acceptance band for a sum DoF; the 140-180 dB ladder leaves
# almost no finite-SNR bias.
SCAN_TOL = 0.05
NATURAL_SCENARIO = {"s3": "unmatched", "optimal-unmatched": "unmatched",
                    "matched-optimal": "matched"}
#: Schemes whose ``simulate`` exits 2 at alpha = 0 today: zero-forcing and
#: normalisation have no direction on a zero estimate (ROADMAP item 4).
#: Their alpha = 0 corners would make the failure count of a timed run
#: depend on where its deadline fell, so they are kept out of the timed
#: loop and run once per run by ``corner_probes`` instead.
ALPHA0_REFUSED = ("optimal-unmatched", "s3", "zfbf")

REGIONS_BLOCK = 50
SWEEP_STEP = 0.005
SWEEP_CELLS = (round(1 / SWEEP_STEP) + 1) ** 2
SWEEPS = (("unmatched", "csv"), ("matched", "csv"), ("unmatched", "json"), ("matched", "json"))
THIRD = 2.0 / 3.0

#: Sizes per round, recorded with every result.  The acceptance battery
#: runs 20000 trials per config and 100000 draws per exponent; these are
#: scaled down so a run holds several hundred calls.  cli_mix keeps its
#: regions blocks short so that a run holds several sweeps of each kind.
SIZES = {
    "mc_gate": {"trials": 100, "draws": 500, "configs": len(MC_CONFIGS),
                "exponents": len(EXPONENTS)},
    "mc_scan": {"trials": 100, "ladder_db": SCAN_LADDER, "schemes": len(schemes.SCHEME_NAMES),
                "random_pairs_per_scheme": SCAN_RANDOM_PAIRS, "corners": len(CORNERS),
                "corner_probes": len(ALPHA0_REFUSED) * sum(a == 0.0 for _, a in CORNERS)},
    "cli_mix": {"regions_calls": REGIONS_BLOCK * len(SWEEPS), "sweep_step": SWEEP_STEP,
                "sweeps": len(SWEEPS), "verify_calls": 1},
}


@dataclass
class Op:
    """One operation.

    ``kind`` names the computation; ops of one kind differ only in their
    inputs, so their timings are pooled.  ``family`` groups kinds for the
    repeat check and the per-family counts.
    """

    kind: str
    family: str
    args: dict
    run: Callable[[], object]
    check: Callable[[object], Tuple[bool, bytes, str]]
    work: int = 0
    latency: bool = False


def _rng(seed: int, round_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, round_index])


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def _random_pair(rng: np.random.Generator) -> Tuple[float, float]:
    lo, hi = np.sort(rng.uniform(0.0, 1.0, size=2))
    return float(hi), float(lo)


def _cli_op(kind: str, family: str, argv: List[str], out: Path,
            check_output: Callable[[bytes], Tuple[bool, str]], **extra) -> Op:
    """Op for ``cli.main(argv)``; its primary artifact is the file ``out``.

    When ``--out`` is not in ``argv`` the command's stdout goes to ``out``.
    """
    stderr = io.StringIO()

    def run():
        stderr.seek(0)
        stderr.truncate()
        with contextlib.redirect_stderr(stderr):
            if "--out" in argv:
                return cli.main(argv)
            with open(out, "w", encoding="utf-8") as stream, \
                    contextlib.redirect_stdout(stream):
                return cli.main(argv)

    def check(code):
        if code != 0:
            return False, b"", f"exit {code}: {stderr.getvalue().strip()[-300:]}"
        data = out.read_bytes()
        ok, detail = check_output(data)
        return ok, data, detail

    return Op(kind, family, {"argv": argv}, run, check, **extra)


# -- mc_gate ---------------------------------------------------------------


def _dof_op(label, scheme, q, scenario, tol, trials, seed) -> Op:
    expected = float(schemes.analytic_sum_dof(scheme, q, scenario))

    def run():
        d = schemes.build_descriptor(scheme, q, scenario)
        return linkmc.estimate_dof(d, q, scenario, GATE_LADDER_DB, trials, seed)

    def check(report):
        measured = report.dof["sum"]
        data = json.dumps(report.to_dict(), indent=2, sort_keys=True).encode()
        ok = abs(measured - expected) <= tol
        return ok, data, f"sum DoF {measured:.4f}, want {expected:.4f}+-{tol}"

    return Op(f"dof:{label}", "dof", {"config": label, "trials": trials, "seed": seed},
              run, check, work=trials * len(GATE_LADDER_DB), latency=True)


def _exponent_op(a, draws, seed) -> Op:
    ladder = tuple(channel.db_to_linear(v) for v in EXPONENT_LADDER_DB)

    def run():
        return channel.measure_error_exponent(a, ladder, trials=draws, seed=seed)

    def check(measured):
        ok = abs(measured - a) <= EXPONENT_TOL
        return ok, repr(measured).encode(), f"exponent {measured:.5f}, want {a}+-{EXPONENT_TOL}"

    return Op(f"exponent:{a}", "exponent", {"a": a, "draws": draws, "seed": seed},
              run, check, work=draws * len(ladder), latency=True)


def _mc_gate_round(rng, tmp: Path) -> List[Op]:
    size = SIZES["mc_gate"]
    seed = _seed(rng)
    ops = [_dof_op(label, scheme, q, scenario, tol, size["trials"], seed)
           for label, scheme, q, scenario, tol in MC_CONFIGS]
    ops += [_exponent_op(a, size["draws"], _seed(rng)) for a in EXPONENTS]
    return ops


# -- mc_scan ---------------------------------------------------------------


def _check_simulate(expected: float):
    def check(data: bytes):
        report = linkmc.SimReport.from_json(data.decode())
        measured = report.dof["sum"]
        ok = abs(measured - expected) <= SCAN_TOL
        return ok, f"sum DoF {measured:.4f}, want {expected:.4f}+-{SCAN_TOL}"
    return check


def known_refused(scheme: str, alpha: float) -> bool:
    return alpha == 0.0 and scheme in ALPHA0_REFUSED


def _simulate_op(kind: str, family: str, scheme: str, beta: float, alpha: float, rng,
                 out: Path) -> Op:
    trials = SIZES["mc_scan"]["trials"]
    argv = ["simulate", "--scheme", scheme, "--beta", repr(beta), "--alpha", repr(alpha),
            "--snr", SCAN_LADDER, "--trials", str(trials), "--seed", str(_seed(rng)),
            "--out", str(out)]
    scenario = NATURAL_SCENARIO.get(scheme)
    if scenario is None:
        scenario = ("unmatched", "matched")[int(rng.integers(2))]
        argv += ["--scenario", scenario]
    expected = float(schemes.analytic_sum_dof(scheme, QualityPair(beta, alpha),
                                              Scenario(scenario)))
    return _cli_op(kind, family, argv, out, _check_simulate(expected),
                   work=trials * len(SCAN_LADDER.split(",")), latency=True)


def _mc_scan_round(rng, tmp: Path) -> List[Op]:
    """Every scheme on random pairs, then on the corners, schemes interleaved.

    Interleaving keeps the scheme mix of a cut-off round close to that of a
    whole one.  Corners that ``known_refused`` names are left to
    ``corner_probes``.
    """
    out = tmp / "simulate.json"
    pairs = [_random_pair(rng) for _ in range(SCAN_RANDOM_PAIRS * len(schemes.SCHEME_NAMES))]
    ops = []
    for k in range(SCAN_RANDOM_PAIRS + len(CORNERS)):
        for i, scheme in enumerate(schemes.SCHEME_NAMES):
            if k < SCAN_RANDOM_PAIRS:
                beta, alpha = pairs[k * len(schemes.SCHEME_NAMES) + i]
            else:
                beta, alpha = CORNERS[k - SCAN_RANDOM_PAIRS]
                if known_refused(scheme, alpha):
                    continue
            ops.append(_simulate_op(f"simulate:{scheme}", "simulate", scheme, beta, alpha,
                                    rng, out))
    return ops


def corner_probes(workload: str, seed: int, tmp: Path) -> List[Op]:
    """The corner configs that ``known_refused`` names, once each.

    They are run outside the timed loop and its failure count, and their
    outcome is reported with the run, so the day they start to work shows.
    """
    if workload != "mc_scan":
        return []
    rng = _rng(seed, 2**32)  # a round index that no run reaches
    return [_simulate_op(f"probe:simulate:{scheme}", "corner_probe", scheme, beta, alpha, rng,
                         Path(tmp) / "probe.json")
            for beta, alpha in CORNERS for scheme in schemes.SCHEME_NAMES
            if known_refused(scheme, alpha)]


# -- cli_mix ---------------------------------------------------------------


def _check_regions(fmt: str):
    def check(data: bytes):
        if fmt == "json":
            equal = json.loads(data)["equal"]
            return equal is True, f"equal={equal}"
        return data.startswith(b"# composed\n"), "gnuplot blocks"
    return check


def _check_min_ratio(scenario: str, value: float, argmin) -> Tuple[bool, str]:
    if scenario == "unmatched":
        ok = abs(value - 0.8) <= 1e-3 and all(
            abs(b - THIRD) <= SWEEP_STEP / 2 and abs(a - THIRD) <= SWEEP_STEP / 2
            for b, a in argmin)
    else:
        ok = abs(value - THIRD) <= 1e-3 and all(abs(b + a - 1.0) <= 1e-9 for b, a in argmin)
    return ok and len(argmin) > 0, f"min ratio {value:.6f}, {len(argmin)} argmin cells"


def _check_sweep(scenario: str, fmt: str):
    def check(data: bytes):
        if fmt == "json":
            doc = json.loads(data)
            return _check_min_ratio(scenario, doc["min_ratio"], doc["argmin"])
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        if len(rows) != SWEEP_CELLS:
            return False, f"{len(rows)} rows, want {SWEEP_CELLS}"
        value = min(float(r["ratio"]) for r in rows)
        argmin = [(float(r["beta"]), float(r["alpha"])) for r in rows
                  if float(r["ratio"]) <= value + 1e-9]
        return _check_min_ratio(scenario, value, argmin)
    return check


def _check_verify(data: bytes):
    lines = data.decode().splitlines()
    bad = [line for line in lines if not line.startswith("[PASS]")]
    return bool(lines) and not bad, f"{len(lines)} lines, {len(bad)} not [PASS]"


def _cli_mix_round(rng, tmp: Path) -> List[Op]:
    """Blocks of regions calls, each followed by one sweep, then verify."""
    ops = []
    for scenario, fmt in SWEEPS:
        for _ in range(REGIONS_BLOCK):
            beta, alpha = _random_pair(rng)
            kind = ("unmatched", "matched")[int(rng.integers(2))]
            rfmt = ("json", "gnuplot")[int(rng.integers(2))]
            out = tmp / f"regions.{rfmt}"
            argv = ["regions", "--scenario", kind, "--beta", repr(beta), "--alpha", repr(alpha),
                    "--format", rfmt, "--out", str(out)]
            ops.append(_cli_op("regions", "regions", argv, out, _check_regions(rfmt),
                               latency=True))
        out = tmp / f"sweep-{scenario}.{fmt}"
        argv = ["sweep", "--scenario", scenario, "--step", repr(SWEEP_STEP), "--format", fmt,
                "--out", str(out)]
        ops.append(_cli_op(f"sweep:{scenario}:{fmt}", "sweep", argv, out,
                           _check_sweep(scenario, fmt), work=SWEEP_CELLS))
    ops.append(_cli_op("verify", "verify", ["verify", "--seed", str(_seed(rng))],
                       tmp / "verify.txt", _check_verify))
    return ops


_ROUNDS = {"mc_gate": _mc_gate_round, "mc_scan": _mc_scan_round, "cli_mix": _cli_mix_round}


def make_round(workload: str, seed: int, round_index: int, tmp: Path) -> List[Op]:
    """The ops of one round; outputs go to files under ``tmp``."""
    return _ROUNDS[workload](_rng(seed, round_index), Path(tmp))
