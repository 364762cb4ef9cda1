"""What the benchmark measures: its workloads and its metrics.

``BENCHMARK.json`` at the repository root is generated from this module::

    python3 perfbench/spec.py > BENCHMARK.json

and ``perfbench/test_perfbench.py`` checks that the committed file still
matches.  The traced-function table also records, for every per-layer
metric, the end-to-end metric it is expected to move and on which
workload; that mapping does not fit BENCHMARK.json's fixed keys, so it
lives here and in ``perfbench/README.md``.
"""

from __future__ import annotations

import json
import re

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

#: Set to 1 before numpy loads, so BLAS runs on the benchmark's one thread.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

WORKLOADS = {
    "mc_gate": "Acceptance MC battery (6 estimate_dof configs at 40/50/60 dB, 3 error-exponent "
               "runs), scaled down: time goes to channel sampling and the SIC walk; regions "
               "and switcher bypassed",
    "mc_scan": "Many small simulate CLI calls (100 trials, 140/160/180 dB), every scheme on "
               "random pairs and the quality corners it runs today: per-call overheads "
               "dominate",
    "cli_mix": "regions, sweep (step 0.005) and verify CLI calls writing files: all region, "
               "switcher and static-audit work and no MC, so an MC-kernel change should leave "
               "it unchanged",
}

#: Reported on every workload by an untraced run.  What a "call" and a unit
#: of "work" are on each workload is set in workloads.py and README.md.
#: Each bound is at least three times the spread (interquartile range over
#: median) seen across seeds on a 2-core shared machine.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "call_ms_p50", "unit": "ms", "better": "lower", "bound": 0.15},
    {"name": "call_ms_p90", "unit": "ms", "better": "lower", "bound": 0.2},
    {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
]

_MC = "mc_trials_per_s (mc_gate work_per_s); call_ms_p50 on mc_scan"
_EXP = "exponent_draws_per_s (mc_gate work_per_s)"
_SIM = "call_ms_p50/p90 on mc_scan"
_REG = "call_ms_p50/p90 on cli_mix; verify_s"
_SWEEP = "work_per_s on cli_mix (sweep cells/s); verify_s"
_VERIFY = "verify_s on cli_mix"

#: (metric prefix, namespaces patched as "<module>.<attribute path>", moves).
#: A function is wrapped in every namespace its callers look it up in, so
#: ``linkmc.zf_direction`` rather than ``channel.zf_direction``.
TRACED = [
    ("channel.trial_rng", ("linkmc.trial_rng", "channel.trial_rng"), _MC),
    ("channel.sample_realization", ("linkmc.sample_realization",), _MC),
    ("linkmc.sic_rates", ("linkmc.sic_rates",), _MC),
    ("linkmc.received_power", ("linkmc.received_power",), _MC),
    ("linkmc.trial_rates", ("linkmc.trial_rates",), _MC),
    ("channel.sample_pair", ("channel.sample_pair",), _EXP),
    ("channel.measure_error_exponent", ("channel.measure_error_exponent",), _EXP),
    ("channel.zf_direction", ("linkmc.zf_direction",), _SIM),
    ("channel.unit", ("linkmc.unit",), _SIM),
    ("linkmc.estimate_dof", ("linkmc.estimate_dof",), _SIM),
    ("linkmc.SimReport.to_json", ("linkmc.SimReport.to_json",), _SIM),
    ("schemes.build_descriptor", ("schemes.build_descriptor",), _SIM),
    ("cli.build_parser", ("cli.build_parser",), _SIM),
    ("cli.cmd_simulate", ("cli.cmd_simulate",), _SIM),
    ("regions.compose_unmatched", ("regions.compose_unmatched",), _REG),
    ("regions.compose_matched", ("regions.compose_matched",), _REG),
    ("regions.minkowski_sum", ("regions.minkowski_sum",), _REG),
    ("regions.outer_bound", ("regions.outer_bound",), _REG),
    ("regions.region_equal", ("regions.region_equal",), _REG),
    ("cli.cmd_regions", ("cli.cmd_regions",), _REG),
    ("switcher.sweep", ("switcher.sweep",), _SWEEP),
    ("switcher.best_strategy", ("switcher.best_strategy",), _SWEEP),
    ("schemes.analytic_sum_dof",
     ("switcher.analytic_sum_dof", "schemes.analytic_sum_dof"), _SWEEP),
    ("switcher.write_sweep_csv", ("switcher.write_sweep_csv",), _SWEEP),
    ("switcher.write_summary_json", ("switcher.write_summary_json",), _SWEEP),
    ("cli.cmd_sweep", ("cli.cmd_sweep",), _SWEEP),
    ("schemes.static_achievability_check", ("schemes.static_achievability_check",), _VERIFY),
    ("schemes.power_ledger", ("schemes.power_ledger",), _VERIFY),
    ("cli.cmd_verify", ("cli.cmd_verify",), _VERIFY),
]

#: Per-function metrics: suffix -> (unit, better).
PER_FUNCTION = {
    "calls": ("count", "lower"),
    "us_per_call": ("us", "lower"),
    "self_s": ("s", "lower"),
}

#: Ratios derived from the traced run: name -> (unit, better, moves).
DERIVED = {
    "linkmc.received_power.per_sic_rates": ("ratio", "lower", _MC),
    "linkmc.trial_rates.overhead_frac": ("ratio", "lower", _MC),
    "switcher.best_strategy.per_cell": ("ratio", "lower", _SWEEP),
    "trace_overhead_frac": ("ratio", "lower", "none: traced over untraced call time, minus 1"),
}


def per_layer() -> list:
    out = [
        {"name": f"{prefix}.{suffix}", "unit": unit, "better": better}
        for prefix, _, _ in TRACED
        for suffix, (unit, better) in PER_FUNCTION.items()
    ]
    out += [{"name": name, "unit": unit, "better": better}
            for name, (unit, better, _) in DERIVED.items()]
    return out


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": per_layer(),
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
