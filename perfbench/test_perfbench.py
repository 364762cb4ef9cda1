"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from dofsim import cli, linkmc, schemes  # noqa: E402
from tracing import Tracer  # noqa: E402

CONTRACT_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def _bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_is_generated_from_spec():
    assert _bench_json() == spec.benchmark_json()


def test_benchmark_json_names_units_and_bounds():
    doc = _bench_json()
    assert set(doc) == CONTRACT_KEYS
    entries = doc["workloads"] + doc["end_to_end"] + doc["per_layer"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    for name in names:
        assert spec.NAME_RE.fullmatch(name) and len(name) <= 64 and name[0].isalnum(), name
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert 2 <= len(doc["workloads"]) <= 8 and len(doc["per_layer"]) <= 128


def test_trace_shape():
    with Tracer() as tracer:
        with tracer.operation(0, "op.simulate"):
            assert cli.main(["simulate", "--scheme", "zfbf", "--trials", "3", "--snr",
                             "40,50,60", "--out", "-"]) == 0
        with tracer.operation(1, "op.regions"):
            assert cli.main(["regions", "--scenario", "matched", "--out", "-"]) == 0
    cols = tracer.columns()
    n = len(cols["name"])
    assert n > 2 and all(len(col) == n for col in cols.values())
    roots = [i for i in range(n) if cols["parent"][i] < 0]
    assert [tracer.names[cols["name"][i]] for i in roots] == ["op.simulate", "op.regions"]
    for i in range(n):
        assert cols["start"][i] <= cols["end"][i]
        assert cols["op"][i] in (0, 1)
        parent = cols["parent"][i]
        if parent >= 0:
            assert parent < i
            assert cols["start"][parent] <= cols["start"][i] <= cols["end"][i] \
                <= cols["end"][parent]
            assert cols["op"][parent] == cols["op"][i]
    stats = tracer.per_function()
    assert [name for name, *_ in spec.TRACED] == list(stats)
    assert stats["linkmc.sic_rates"]["calls"] == 9  # 3 trials at 3 ladder points
    assert stats["cli.cmd_regions"]["calls"] == 1
    # Leaving the tracer puts the original functions back.
    assert not hasattr(linkmc.sic_rates, "__wrapped__")
    assert not hasattr(cli.cmd_regions, "__wrapped__")


def _op(check):
    return workloads.Op("probe", "probe", {}, lambda: 1, check)


def test_wrong_output_and_refusal_both_count_as_failed():
    wrong = harness.execute(_op(lambda r: (False, b"x", "bad value")), 0)
    assert not wrong.ok and wrong.wrong
    refused = harness.execute(_op(lambda r: (False, b"", "exit 2")), 1)
    assert not refused.ok and not refused.wrong

    def boom():
        raise ValueError("degenerate")

    raised = harness.execute(workloads.Op("probe", "probe", {}, boom, None), 2)
    assert not raised.ok and not raised.wrong and raised.ns is None


def test_mc_scan_attempts_every_corner(tmp_path):
    ops = workloads.make_round("mc_scan", 0, 0, tmp_path)
    probes = workloads.corner_probes("mc_scan", 0, tmp_path)

    def config(op):
        argv = op.args["argv"]
        return argv[2], float(argv[4]), float(argv[6])

    corners = [config(op) for op in ops + probes if config(op)[1:] in workloads.CORNERS]
    assert sorted(corners) == sorted({(scheme, *c) for c in workloads.CORNERS
                                      for scheme in schemes.SCHEME_NAMES})
    assert all(workloads.known_refused(s, a) for s, _, a in map(config, probes))
    assert workloads.SIZES["mc_scan"]["corner_probes"] == len(probes)
    # Timed operations never fail; the probes exit 2 until ROADMAP item 4 lands.
    for i, op in enumerate(ops):
        record = harness.execute(op, i)
        assert record.ok, record.detail
    for i, op in enumerate(probes):
        record = harness.execute(op, i)
        assert not record.wrong and (record.ok or record.detail.startswith("exit 2")), \
            record.detail
    assert workloads.corner_probes("cli_mix", 0, tmp_path) == []


def test_repeated_operation_gives_identical_bytes(tmp_path):
    op = workloads.make_round("cli_mix", 3, 0, tmp_path)[0]
    first, again = harness.execute(op, 0), harness.execute(op, 0)
    assert first.ok and len(first.sha256) == 64 and first.sha256 == again.sha256


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_reports_every_metric(workload, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads, "REGIONS_BLOCK", 5)
    result = harness.run(workload, seed=7, seconds=0, trace=trace)
    expected = spec.END_TO_END if trace == 0 else spec.per_layer()
    assert set(result["metrics"]) == {m["name"] for m in expected}
    units = {m["name"]: m["unit"] for m in expected}
    for name, metric in result["metrics"].items():
        assert spec.NAME_RE.fullmatch(name)
        assert metric["unit"] == units[name]
        if trace == 0:
            assert metric["value"] > 0, name
    assert result["correct"] and result["attempted"] >= 1
    doc = json.loads((tmp_path / f"{workload}-seed7-trace{trace}.json").read_text())
    prov = doc["provenance"]
    assert prov["seed"] == 7 and prov["nproc"] >= 1 and prov["numpy"] and prov["git_commit"]
    assert all(op["sha256"] for op in doc["ops"] if op["ok"])
    if trace == 0:
        assert all(rep["identical"] for rep in doc["repeats"])
        assert set(doc["per_command"]) >= {"setup_s", "peak_rss_mb", "failed_frac"}
        assert set(doc["raw_metrics"]) == set(result["metrics"])
        assert result["failed"] == 0
        assert len(doc["corner_probes"]) == workloads.SIZES[workload].get("corner_probes", 0)
    else:
        assert (tmp_path / f"{workload}-spans.npz").is_file()
        assert result["metrics"]["trace_overhead_frac"]["value"] != 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, *spec.COMMAND[1:], "--workload", "mc_gate",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == ""
