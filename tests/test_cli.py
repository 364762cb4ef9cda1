"""End-to-end command-line tests: exit codes, output formats, reproducibility."""

import json
import subprocess
import sys

import pytest

from dofsim import cli
from dofsim.linkmc import SimReport
from dofsim.switcher import read_sweep_csv

# exit-code contract: 0 success, 1 verification failure, 2 bad args, 3 I/O


def test_regions_default_json(capsys):
    assert cli.main(["regions"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["beta"] == 0.8 and doc["alpha"] == 0.5
    assert doc["scenario"] == "unmatched"
    assert doc["equal"] is True
    assert [c["name"] for c in doc["components"]] == ["perfect", "alternating", "no_csit"]
    assert doc["components"][0]["weight"] == pytest.approx(0.5)
    composed = doc["composed"]["vertices"]
    assert [1.0, 0.65] in [[round(x, 9), round(y, 9)] for x, y in composed]
    for got, want in zip(doc["outer_bound"]["vertices"], composed, strict=True):
        assert got == pytest.approx(want)


def test_regions_matched_scenario(capsys):
    assert cli.main(["regions", "--scenario", "matched", "--beta", "0.3",
                     "--alpha", "0.1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in doc["components"]] == ["perfect", "no_csit"]
    assert doc["equal"] is True


def test_regions_rejects_alpha_above_beta(capsys):
    assert cli.main(["regions", "--beta", "0.5", "--alpha", "0.8"]) == 2
    assert "error:" in capsys.readouterr().err


def test_regions_gnuplot_blocks(capsys):
    assert cli.main(["regions", "--format", "gnuplot"]) == 0
    out = capsys.readouterr().out
    blocks = [b for b in out.split("\n\n\n") if b.strip()]
    names = [b.splitlines()[0] for b in blocks]
    assert names[0] == "# composed"
    assert names[1] == "# outer_bound"
    assert any("component perfect" in n for n in names)
    composed = blocks[0].splitlines()
    assert composed[1] == composed[-1], "polygon outline must close"


def test_regions_writes_file(tmp_path, capsys):
    target = tmp_path / "regions.json"
    assert cli.main(["regions", "--out", str(target)]) == 0
    on_disk = target.read_text()
    assert cli.main(["regions"]) == 0
    assert on_disk == capsys.readouterr().out


def test_regions_io_error(tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "x.json"
    assert cli.main(["regions", "--out", str(missing)]) == 3


def test_simulate_reports_and_is_byte_reproducible(tmp_path, capsys):
    args = ["simulate", "--scheme", "fdma", "--snr", "20,30,40", "--trials", "50",
            "--seed", "7"]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert cli.main(args + ["--out", str(first)]) == 0
    err = capsys.readouterr().err
    assert "measured sum DoF" in err and "analytic 1.0000" in err
    assert cli.main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    report = SimReport.from_json(first.read_text())
    assert report.scheme == "fdma" and report.seed == 7 and report.trials == 50


def test_simulate_scenario_is_inferred(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert cli.main(["simulate", "--scheme", "matched-optimal", "--snr", "20,30,40",
                     "--trials", "10", "--out", str(out)]) == 0
    assert SimReport.from_json(out.read_text()).scenario == "matched"
    capsys.readouterr()


def test_simulate_scenario_conflicts(capsys):
    assert cli.main(["simulate", "--scheme", "s3", "--scenario", "matched",
                     "--snr", "20,30,40", "--trials", "5"]) == 2
    assert cli.main(["simulate", "--scheme", "matched-optimal", "--scenario",
                     "unmatched", "--snr", "20,30,40", "--trials", "5"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("extra", [
    ["--trials", "0"],
    ["--snr", "40,30,50"],
    ["--snr", "40,forty,60"],
    ["--snr", ""],
    ["--snr", "20,30"],
    ["--snr", "40,50,inf"],
    ["--snr", "40,50,nan"],
    ["--snr", "40,50,4000"],
    ["--beta", "1.4"],
])
def test_simulate_bad_arguments(extra, capsys):
    assert cli.main(["simulate", "--scheme", "fdma"] + extra) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("ladder", ["40,50,inf", "40,50,nan"])
def test_simulate_rejects_non_finite_snr_up_front(ladder, capsys):
    assert cli.main(["simulate", "--scheme", "optimal-unmatched", "--snr", ladder]) == 2
    assert "SNR ladder values must be finite" in capsys.readouterr().err


def test_simulate_rejects_a_ladder_that_overflows(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert cli.main(["simulate", "--scheme", "fdma", "--snr", "3000,3050,3080",
                     "--trials", "20", "--out", str(out)]) == 2
    assert "overflows" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate --scheme fdma", "verify"])
@pytest.mark.parametrize("seed", ["-3", "1.5", "x"])
def test_bad_seed_is_an_argparse_error(command, seed, monkeypatch, capsys):
    monkeypatch.setattr(cli, "cmd_simulate", None)
    monkeypatch.setattr(cli, "cmd_verify", None)
    with pytest.raises(SystemExit) as exc:
        cli.main(command.split() + ["--seed", seed])
    assert exc.value.code == 2
    assert f"argument --seed: expected a non-negative integer, got '{seed}'" \
        in capsys.readouterr().err


def test_simulate_accepts_a_seed_wider_than_64_bits(capsys):
    assert cli.main(["simulate", "--scheme", "fdma", "--snr", "20,30,40", "--trials", "5",
                     "--seed", str(2**70 + 3)]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 2**70 + 3


def test_simulate_names_the_analytic_value_of_each_optimal_scheme(capsys):
    for scheme in ("optimal-unmatched", "matched-optimal"):
        assert cli.main(["simulate", "--scheme", scheme, "--snr", "20,30,40",
                         "--trials", "5", "--out", "-"]) == 0
        err = capsys.readouterr().err
        assert err.startswith(f"{scheme}: measured sum DoF ") and "(analytic 1.6500, " in err


def test_unknown_scheme_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--scheme", "tdma"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_sweep_csv_output(tmp_path, capsys):
    target = tmp_path / "map.csv"
    assert cli.main(["sweep", "--scenario", "unmatched", "--step", "0.1",
                     "--out", str(target)]) == 0
    assert "min ratio" in capsys.readouterr().err
    with open(target) as stream:
        cells = read_sweep_csv(stream)
    assert len(cells) == 121


def test_sweep_json_summary(capsys):
    assert cli.main(["sweep", "--scenario", "matched", "--step", "0.1",
                     "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scenario"] == "matched"
    assert doc["min_ratio"] == pytest.approx(2 / 3)


def test_sweep_bad_step(capsys):
    assert cli.main(["sweep", "--step", "0"]) == 2
    assert cli.main(["sweep", "--step", "0.007"]) == 2
    assert cli.main(["sweep", "--rho", "1.5"]) == 2
    capsys.readouterr()


def test_verify_battery_passes(capsys):
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    for check in ("power-identity", "achievability-margins", "composition-identity",
                  "min-ratio-unmatched", "min-ratio-matched"):
        assert f"[PASS] {check}" in out
    assert "[FAIL]" not in out


def test_verify_can_restrict_scenario(capsys):
    assert cli.main(["verify", "--scenario", "matched"]) == 0
    out = capsys.readouterr().out
    assert "min-ratio-matched" in out
    assert "min-ratio-unmatched" not in out


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "dofsim.cli", "regions", "--beta", "1", "--alpha", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["equal"] is True
