"""Runs one workload in a closed loop and reports its metrics.

``run.py`` is the command line; this module holds the loop, the metrics
and the result files, so the tests can drive it in-process.

Times are reported as CPU time at reference speed.  The benchmark runs
on machines shared with other jobs.  There a call's wall time can jump
fivefold while the process waits for a CPU, and the same call can take
1.7 times as long for tens of seconds at a stretch while it shares a
core; no statistic within one run filters either out.  So each call is
timed in CPU time of the process and its reaped children, which leaves
out the waiting, and a fixed calibration sample, which calls nothing in
dofsim, runs before every operation and around every set-up.  Each CPU
time is scaled by ``CAL_REF_NS`` over the calibration time measured
around it.  Wall-clock times are kept next to them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns, process_time_ns
from typing import Dict, List, Optional

import numpy as np

import spec
import workloads
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"

#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_REPEATS = 7
#: CPU time of one calibration sample on an unloaded core of the 2-core
#: shared machine where the bounds were set.
CAL_REF_NS = 1_100_000
#: CPU seconds of a fresh interpreter that only imports numpy, on an
#: unloaded core of the same machine.
SETUP_REF_S = 0.11
#: Fewest operations on each side whose calibration times give an
#: operation's local speed.
CAL_WINDOW = 5
#: A traced run covers a fixed number of rounds, so its call counts repeat
#: exactly across runs and commits.
TRACE_ROUNDS = {"mc_gate": 3, "mc_scan": 1, "cli_mix": 1}


@dataclass
class Record:
    """Outcome of one operation.

    ``wrong`` marks an output that was produced but failed its check; an
    operation that raised or exited non-zero is failed but not wrong.
    """

    id: int
    kind: str
    family: str
    work: int
    latency: bool
    start_ns: int
    ns: Optional[int]
    cpu_ns: Optional[int]
    cal_ns: int
    ok: bool
    wrong: bool
    detail: str
    sha256: str
    args: dict
    norm_ns: Optional[float] = None


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a, self.b = a, b


def cpu_ns() -> int:
    """CPU time of this process and of its reaped children, in nanoseconds."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time_ns() + round((kids.ru_utime + kids.ru_stime) * 1e9)


def calibrate() -> int:
    """CPU nanoseconds for a fixed sample of the kinds of work dofsim does.

    Per-trial generators and two-element complex algebra in numpy, like
    the MC path; small objects, dicts, JSON and sorting; building and
    using an argparse parser, like the command line.  Under load its
    slowdown tracks that of both the MC calls and the region commands to
    within a few percent, where a plain interpreter loop's overshoots.
    """
    t0 = cpu_ns()
    for t in range(6):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=11, spawn_key=(t,)))
        acc = 0.0
        for _ in range(4):
            e = np.sqrt(0.25) * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            h = np.sqrt(0.75) * (rng.standard_normal(2) + 1j * rng.standard_normal(2)) + e
            w = np.array([-np.conj(h[1]), np.conj(h[0])]) / np.linalg.norm(h)
            acc += float(np.log2(1.0 + float(np.abs(np.vdot(h, w)) ** 2) * 10.0))
    rows = []
    for i in range(60):
        p = _Point(i * 0.5, 1.0 / (i + 1))
        x, y = p.a * 3 + p.b, p.b - 3
        rows.append({"i": i, "x": x, "y": y, "s": f"{x:.6g}"})
    json.dumps(rows, sort_keys=True)
    sorted(rows, key=lambda r: -r["x"])
    parser = argparse.ArgumentParser(prog="calibrate")
    sub = parser.add_subparsers(dest="command", required=True)
    first = sub.add_parser("first", help="first command")
    first.add_argument("--x", type=float, default=0.5)
    first.add_argument("--mode", choices=["p", "q"], default="p")
    sub.add_parser("second", help="second command").add_argument("--n", type=int, default=3)
    parser.parse_args(["first", "--x", "0.25", "--mode", "q"])
    return cpu_ns() - t0


def normalise(records: List["Record"]) -> None:
    """Set ``norm_ns``: the CPU time scaled to the reference speed.

    The local calibration time is the median over the operations that
    start from a quarter of this operation's length before it to a
    quarter of its length after its end, and over at least ``CAL_WINDOW``
    operations on each side, so that a long call is judged by the load
    around its whole length.
    """
    cal = np.array([r.cal_ns for r in records], dtype=float)
    start = np.array([r.start_ns for r in records])
    for i, r in enumerate(records):
        if r.ns is None:
            continue
        reach = r.ns / 4
        lo = min(i - CAL_WINDOW, int(np.searchsorted(start, r.start_ns - reach)))
        hi = max(i + CAL_WINDOW,
                 int(np.searchsorted(start, r.start_ns + r.ns + reach, side="right")) - 1)
        r.norm_ns = r.cpu_ns * CAL_REF_NS / float(np.median(cal[max(lo, 0):hi + 1]))


def execute(op: workloads.Op, op_id: int, tracer: Optional[Tracer] = None) -> Record:
    """Time one program call, then check its output outside the timing."""
    cal_ns = calibrate()
    span = tracer.operation(op_id, f"op.{op.family}") if tracer else nullcontext()
    ns = cpu = None
    try:
        with span:
            t0, c0 = perf_counter_ns(), cpu_ns()
            result = op.run()
            ns, cpu = perf_counter_ns() - t0, cpu_ns() - c0
        ok, data, detail = op.check(result)
        wrong = bool(data) and not ok
    except Exception as exc:  # the operation failed; count it and go on
        ok, data, wrong = False, b"", ns is not None
        detail = f"{type(exc).__name__}: {exc}"
    digest = hashlib.sha256(data).hexdigest() if data else ""
    return Record(op_id, op.kind, op.family, op.work, op.latency, t0, ns, cpu, cal_ns, ok,
                  wrong, detail, digest, op.args)


def run_timed(workload: str, seed: int, seconds: float, tmp: Path):
    """Closed loop, one client: ops until ``seconds`` pass, at least one round.

    Returns the records and, per family, the first successful op with its
    record, for the repeat check.
    """
    workloads.make_round(workload, seed, 0, tmp)[0].run()  # warm-up, discarded
    records: List[Record] = []
    firsts: Dict[str, tuple] = {}
    deadline = perf_counter() + seconds
    round_index = 0
    while round_index == 0 or perf_counter() < deadline:
        for op in workloads.make_round(workload, seed, round_index, tmp):
            if round_index > 0 and perf_counter() >= deadline:
                break
            rec = execute(op, len(records))
            records.append(rec)
            if rec.ok and op.family not in firsts:
                firsts[op.family] = (op, rec)
        round_index += 1
    normalise(records)
    return records, firsts


def repeat_check(firsts: Dict[str, tuple]) -> List[dict]:
    """Run each family's first successful op again; its bytes must not change."""
    out = []
    for family, (op, first) in firsts.items():
        again = execute(op, first.id)
        out.append({"family": family, "op": first.id, "sha256": first.sha256,
                    "repeat_sha256": again.sha256, "identical": again.sha256 == first.sha256})
    return out


def _percentiles_ms(records: List[Record], field: str) -> List[float]:
    ns = [getattr(r, field) for r in records if r.ok and r.latency]
    return [float(v) / 1e6 for v in np.percentile(ns, [50, 90])]


def work_rate(records: List[Record], field: str, family: Optional[str] = None) -> float:
    """Work per second of one pass over the kinds, each at its median time.

    Pooling per kind keeps the rate independent of where the deadline cut
    the last round.
    """
    by_kind: Dict[str, List[Record]] = {}
    for r in records:
        if r.ok and r.work and family in (None, r.family):
            by_kind.setdefault(r.kind, []).append(r)
    work = sum(statistics.median(r.work for r in rs) for rs in by_kind.values())
    ns = sum(statistics.median(getattr(r, field) for r in rs) for rs in by_kind.values())
    return work / (ns / 1e9)


def _limit_cpu() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (60, 60))


def _child(code: str) -> List[float]:
    """Wall-clock and CPU seconds of a fresh interpreter running ``code``.

    The child is reaped by a blocking wait, which unlike a wait with a
    timeout does not poll in 50 ms steps; a CPU-time limit stops a child
    that hangs.
    """
    t0, c0 = perf_counter_ns(), cpu_ns()
    proc = subprocess.Popen([sys.executable, "-c", code], preexec_fn=_limit_cpu)
    if proc.wait() != 0:
        raise RuntimeError(f"set-up exited {proc.returncode}")
    return [(perf_counter_ns() - t0) / 1e9, (cpu_ns() - c0) / 1e9]


def measure_setup(workload: str, seed: int, tmp: Path) -> Dict[str, List[float]]:
    """Seconds to import dofsim in a fresh interpreter and make round 0.

    Returns the raw wall-clock samples and the CPU-time samples at
    reference speed.  Each set-up is paired with a fresh interpreter that
    only imports numpy, most of the set-up's own work and none of
    dofsim's, and its CPU time is scaled by ``SETUP_REF_S`` over that one's.
    """
    code = (f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(BENCH_DIR)!r}]\n"
            "import dofsim, workloads\n"
            f"workloads.make_round({workload!r}, {seed}, 0, {str(tmp)!r})\n")
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        ref_cpu = _child("import numpy")[1]
        wall, cpu = _child(code)
        raw.append(wall)
        scaled.append(cpu * SETUP_REF_S / ref_cpu)
    return {"raw": raw, "scaled": scaled}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "blas_threads": {var: os.environ.get(var) for var in spec.BLAS_THREAD_VARS},
        "sizes": workloads.SIZES[workload],
        "setup_repeats": SETUP_REPEATS,
        "trace_rounds": TRACE_ROUNDS[workload],
    }


def _counts(records: List[Record]) -> dict:
    out: Dict[str, Dict[str, int]] = {}
    for r in records:
        c = out.setdefault(r.family, {"attempted": 0, "failed": 0})
        c["attempted"] += 1
        c["failed"] += not r.ok
    return out


def end_to_end(records: List[Record], setup: Dict[str, List[float]], rss_mb: float,
               scaled: bool) -> dict:
    """The gated metrics, from CPU times at reference speed or from wall-clock times."""
    field = "norm_ns" if scaled else "ns"
    p50, p90 = _percentiles_ms(records, field)
    values = {
        "setup_s": statistics.median(setup["scaled" if scaled else "raw"]),
        "peak_rss_mb": rss_mb,
        "call_ms_p50": p50,
        "call_ms_p90": p90,
        "work_per_s": work_rate(records, field),
    }
    units = {m["name"]: m["unit"] for m in spec.END_TO_END}
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def per_command(workload: str, records: List[Record], probes: List[Record],
                metrics: dict) -> dict:
    """The end-to-end figures under the names of the commands they time.

    ``failed_frac`` counts the corner probes with the timed operations.
    """
    def value(name):
        return metrics[name]["value"]

    tried = records + probes
    named = {
        "setup_s": (value("setup_s"), "s"),
        "peak_rss_mb": (value("peak_rss_mb"), "MB"),
        "failed_frac": (sum(not r.ok for r in tried) / len(tried), "ratio"),
    }
    if workload == "mc_gate":
        named["mc_trials_per_s"] = (work_rate(records, "norm_ns", "dof"), "1/s")
        named["exponent_draws_per_s"] = (work_rate(records, "norm_ns", "exponent"), "1/s")
    elif workload == "mc_scan":
        named["simulate_call_ms_p50"] = (value("call_ms_p50"), "ms")
        named["simulate_call_ms_p90"] = (value("call_ms_p90"), "ms")
    else:
        named["regions_call_ms_p50"] = (value("call_ms_p50"), "ms")
        named["regions_call_ms_p90"] = (value("call_ms_p90"), "ms")
        named["sweep_cells_per_s"] = (value("work_per_s"), "1/s")
        verify = [r.norm_ns for r in records if r.ok and r.family == "verify"]
        named["verify_s"] = (statistics.median(verify) / 1e9, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in named.items()}


def per_layer(tracer: Tracer, untraced: List[Record], traced: List[Record]) -> dict:
    """Per-function metrics of the traced pass, times at reference speed."""
    stats = tracer.per_function(np.array([r.norm_ns / r.ns if r.ns else 1.0 for r in traced]))
    metrics = {}
    for name, s in stats.items():
        for suffix, (unit, _) in spec.PER_FUNCTION.items():
            metrics[f"{name}.{suffix}"] = {"value": s[suffix], "unit": unit}

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    both = [(u.norm_ns, t.norm_ns) for u, t in zip(untraced, traced) if u.ns and t.ns]
    derived = {
        "linkmc.received_power.per_sic_rates":
            ratio(stats["linkmc.received_power"]["calls"], stats["linkmc.sic_rates"]["calls"]),
        "linkmc.trial_rates.overhead_frac":
            ratio(stats["linkmc.trial_rates"]["self_s"],
                  stats["linkmc.trial_rates"]["inclusive_s"]),
        "switcher.best_strategy.per_cell":
            ratio(stats["switcher.best_strategy"]["calls"],
                  stats["switcher.sweep"]["calls"] * workloads.SWEEP_CELLS),
        "trace_overhead_frac":
            ratio(sum(t for _, t in both), sum(u for u, _ in both)) - 1.0,
    }
    for name, value in derived.items():
        metrics[name] = {"value": value, "unit": spec.DERIVED[name][0]}
    return metrics


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; prints a summary and returns the result line.

    The process keeps to one CPU, which its set-up children inherit, so
    every calibration sample is taken on the CPU whose time it scales.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    RESULTS_DIR.mkdir(exist_ok=True)
    tmp = RESULTS_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        result, report = (_run_traced if trace else _run_untraced)(workload, seed, seconds, tmp)
        report["provenance"] = provenance(workload, seed, seconds, trace)
    finally:
        for path in tmp.iterdir():
            path.unlink()
        tmp.rmdir()
        os.sched_setaffinity(0, cpus)
    out = RESULTS_DIR / f"{workload}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"results: {os.path.relpath(out)}")
    return result


def _print_metrics(title: str, metrics: dict, skip_zero: bool = False) -> None:
    print(title)
    for name, m in metrics.items():
        if m["value"] or not skip_zero:
            print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")


def _run_untraced(workload, seed, seconds, tmp):
    setup = measure_setup(workload, seed, tmp)
    t0 = perf_counter()
    records, firsts = run_timed(workload, seed, seconds, tmp)
    elapsed = perf_counter() - t0
    repeats = repeat_check(firsts)
    probes = [execute(op, i)
              for i, op in enumerate(workloads.corner_probes(workload, seed, tmp))]
    rss_mb = peak_rss_mb()
    metrics = end_to_end(records, setup, rss_mb, scaled=True)
    raw = end_to_end(records, setup, rss_mb, scaled=False)
    named = per_command(workload, records, probes, metrics)
    failed = sum(not r.ok for r in records)
    correct = (not any(r.wrong for r in records + probes)
               and all(r["identical"] for r in repeats))
    print(f"{workload} seed={seed}: {len(records)} ops in {elapsed:.2f} s, {failed} failed, "
          f"{sum(r.ok and r.latency for r in records)} timed calls, correct={correct}")
    if probes:
        print(f"corner probes (alpha = 0, ROADMAP item 4): "
              f"{sum(not r.ok for r in probes)} of {len(probes)} failed")
        for r in probes:
            print(f"  {r.kind:<44} {'ok' if r.ok else 'FAILED'}: {r.detail}")
    _print_metrics("end to end, at reference speed:", metrics)
    _print_metrics("end to end, raw:", raw)
    _print_metrics("per command, at reference speed:", named)
    result = {"correct": correct, "attempted": len(records), "failed": failed, "metrics": metrics}
    report = {"result": result, "raw_metrics": raw, "per_command": named, "setup_samples_s": setup,
              "counts": _counts(records), "repeats": repeats, "ops": [asdict(r) for r in records],
              "corner_probes": [asdict(r) for r in probes]}
    return result, report


def _run_traced(workload, seed, seconds, tmp):
    ops = [op for r in range(TRACE_ROUNDS[workload])
           for op in workloads.make_round(workload, seed, r, tmp)]
    ops[0].run()  # warm-up, discarded
    untraced = [execute(op, i) for i, op in enumerate(ops)]
    with Tracer() as tracer:
        traced = [execute(op, i, tracer) for i, op in enumerate(ops)]
    normalise(untraced)
    normalise(traced)
    metrics = per_layer(tracer, untraced, traced)
    spans = RESULTS_DIR / f"{workload}-spans.npz"
    tracer.write(spans)
    records = untraced + traced
    failed = sum(not r.ok for r in records)
    same = all(u.sha256 == t.sha256 for u, t in zip(untraced, traced))
    correct = not any(r.wrong for r in records) and same
    print(f"{workload} seed={seed} traced: {len(ops)} ops twice, {len(tracer.name_col)} spans "
          f"in {os.path.relpath(spans)}, {failed} failed, correct={correct}")
    _print_metrics("per layer (zeros omitted):", metrics, skip_zero=True)
    result = {"correct": correct, "attempted": len(records), "failed": failed, "metrics": metrics}
    report = {"result": result, "counts": _counts(records),
              "ops": [asdict(r) for r in untraced], "traced_ops": [asdict(r) for r in traced]}
    return result, report
