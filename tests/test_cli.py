"""End-to-end command-line tests: exit codes, output formats, reproducibility."""

import contextlib
import csv
import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dofsim import cli, linkmc, regions, schemes, switcher
from dofsim.channel import SCENARIO_KINDS
from dofsim.linkmc import SimReport

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
    for scheme in schemes.SCHEME_NAMES:
        assert cli.main(["simulate", "--scheme", scheme, "--snr", "20,30,40",
                         "--trials", "10", "--out", str(out)]) == 0
        assert SimReport.from_json(out.read_text()).scenario == \
            schemes.SCHEMES[scheme].scenarios[0], scheme
    capsys.readouterr()


def test_parser_choices_come_from_the_model():
    commands = cli.build_parser()._subparsers._group_actions[0].choices
    assert list(commands) == ["regions", "simulate", "sweep", "verify"]
    for command, sub in commands.items():
        choices = {a.dest: a.choices for a in sub._actions if a.choices is not None}
        assert list(choices["scenario"]) == list(SCENARIO_KINDS), command
        if command == "simulate":
            assert list(choices["scheme"]) == list(schemes.SCHEME_NAMES)


def test_simulate_scenario_conflicts(capsys):
    assert cli.main(["simulate", "--scheme", "s3", "--scenario", "matched",
                     "--snr", "20,30,40", "--trials", "5"]) == 2
    assert capsys.readouterr().err == \
        "error: scheme 's3' requires the unmatched scenario, got 'matched'\n"
    # The scenario conflict is reported before a bad ladder or trial count.
    assert cli.main(["simulate", "--scheme", "matched-optimal", "--scenario",
                     "unmatched", "--snr", "20,x", "--trials", "0"]) == 2
    assert capsys.readouterr().err == \
        "error: scheme 'matched-optimal' requires the matched scenario, got 'unmatched'\n"


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


@pytest.mark.parametrize("ladder", ["40,,50,60", "40,50,60,", ",40,50,60", "40, ,50,60", ""])
def test_simulate_rejects_an_empty_snr_entry_up_front(ladder, monkeypatch, capsys):
    monkeypatch.setattr(linkmc, "estimate_dof", None)
    assert cli.main(["simulate", "--scheme", "fdma", "--snr", ladder]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --snr has an empty entry in {ladder!r}\n"


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


def test_simulate_rejects_ladder_points_that_share_a_report_key(tmp_path, capsys):
    # Rates are keyed by f"{snr_db:g}"; 40 and 40.0000001 would both write key "40".
    out = tmp_path / "r.json"
    assert cli.main(["simulate", "--scheme", "fdma", "--snr", "40,40.0000001,50",
                     "--trials", "20", "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "error: SNR ladder points 40.0 and 40.0000001 dB share the report key '40'\n"
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
    with open(target, newline="") as stream:
        header, *rows = csv.reader(stream)
    assert header == switcher.CSV_HEADER
    assert len(rows) == 121 and all(len(row) == len(header) for row in rows)
    assert [float(row[0]) for row in rows[::11]] == [k / 10 for k in range(11)]


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


@pytest.mark.parametrize("step", ["1e-7", "5e-324"])
def test_sweep_rejects_an_oversized_grid(step, capsys):
    # 1e-7 would raster 1e14 cells and used to die in numpy asking for
    # hundreds of TiB; 5e-324 overflowed 1 / step.
    assert cli.main(["sweep", "--step", step]) == 2
    err = capsys.readouterr().err
    assert f"rasters more than {switcher.MAX_GRID_CELLS} cells" in err
    assert err.endswith("the smallest allowed step is 0.001\n")


def test_verify_battery_passes(capsys):
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    for check in ("power-identity", "achievability-margins", "composition-identity",
                  "min-ratio-unmatched", "min-ratio-matched"):
        assert f"[PASS] {check}" in out
    assert "[FAIL]" not in out
    assert "[PASS] power-identity: 2772 slot ledgers telescope to P" in out


def test_verify_composition_identity_is_exact(monkeypatch, capsys):
    # A composition off by 1e-15 in every rank, far inside any float
    # tolerance, must fail the exact check.
    compose = regions.compose_unmatched
    tiny = regions.scale(regions.canonical("no_csit"), Fraction(1, 10**15))
    monkeypatch.setattr(regions, "compose_unmatched",
                        lambda q: regions.minkowski_sum(compose(q), tiny))
    assert cli.main(["verify", "--scenario", "unmatched"]) == 1
    assert "[FAIL] composition-identity: 248 mismatches in 200 random pairs and 48 edge pairs" \
        in capsys.readouterr().out


def test_verify_checks_the_edge_pairs(capsys):
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    assert len(cli._EDGE_PAIRS) == 48
    assert "[PASS] composition-identity: 0 mismatches in 200 random pairs and 48 edge pairs" \
        in out


@pytest.mark.parametrize("argv", [
    ["--beta", "0.9967576436742457", "--alpha", "0.9967575589877823"],
    ["--beta", "0.700001", "--alpha", "0.7"],
    ["--beta", "0.9999999", "--alpha", "0.3"],
    ["--scenario", "matched", "--beta", "1.0", "--alpha", "0.999999"],
])
def test_regions_with_a_tiny_component_weight_matches_the_bound(argv, capsys):
    assert cli.main(["regions"] + argv) == 0
    assert json.loads(capsys.readouterr().out)["equal"] is True


def test_parser_defaults_do_not_leak_between_calls(capsys):
    argv = ["simulate", "--scheme", "fdma", "--snr", "20,30,40", "--trials", "3"]
    assert cli.main(argv + ["--seed", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 5
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 0
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()


def test_main_runs_the_command_the_module_holds_now(monkeypatch):
    # The reused parser must not pin the command functions it was built
    # with: a command replaced later (a test double, a tracer) runs.
    cli._parser()
    monkeypatch.setattr(cli, "cmd_sweep", lambda args: 7 if args.step == 0.05 else 8)
    assert cli.main(["sweep", "--step", "0.05"]) == 7


def test_argparse_errors_still_exit_2_with_a_reused_parser(capsys):
    for argv in (["sweep", "--format", "xml"], ["regions", "--beta", "x"], []):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    assert cli.main(["regions"]) == 0
    capsys.readouterr()


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


# Byte identity of the primary artifacts across refactors: a change that
# moves one bit of a report or of the verify battery must say so here.
_SIMULATE_GOLDEN = {
    ("fdma", "unmatched"): "f801481fc6fb29978ac91709c4db95037340a03cdb1fc6b0a119512f17f4e14c",
    ("fdma", "matched"): "c39241b3e1a1e53772f7606166e8cb9d5e911cea0df93ae107730987e211b910",
    ("matched-optimal", "matched"):
        "411d4a7aced12fe303f3b859881174ece9fb295cf8b33f9a62c08bfbba68c396",
    ("optimal-unmatched", "unmatched"):
        "8f4282a8320773b415b73f7f3bdcbaeaef55cd02a07feac7609d69830b5d6edd",
    ("s3", "unmatched"): "5c22e2dce9d7f5fa63ef252ac6d4c2e1d9b3ab94cbb57ed9d0356cff25cdb33b",
    ("zfbf", "unmatched"): "e9fbd8f77816d26dbb91e60105174f7026fe8fee4440bbec8a2ff47c49f7a4b0",
    ("zfbf", "matched"): "987b4784d091cedc9510a522d10a67d33f8e60062bb79a51ba4a33e00586481f",
}


@pytest.mark.parametrize("scheme,kind", list(_SIMULATE_GOLDEN))
def test_simulate_report_bytes_golden(scheme, kind, capsys):
    """sha256 of the reports at (0.8, 0.5) and (0.9, 0.4) on both ladders, 200 trials."""
    digest = hashlib.sha256()
    for beta, alpha in (("0.8", "0.5"), ("0.9", "0.4")):
        for ladder in ("40,50,60", "140,160,180"):
            assert cli.main(["simulate", "--scheme", scheme, "--scenario", kind,
                             "--beta", beta, "--alpha", alpha, "--snr", ladder,
                             "--trials", "200", "--out", "-"]) == 0
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == _SIMULATE_GOLDEN[(scheme, kind)]


def test_verify_stdout_bytes_golden(capsys):
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "[PASS] power-identity: 2772 slot ledgers telescope to P\n"
        "[PASS] achievability-margins: worst step margin 0\n"
        "[PASS] composition-identity: 0 mismatches in 200 random pairs and 48 edge pairs\n"
        "[PASS] min-ratio-unmatched: min ratio 0.8003 at [(0.665, 0.665)]\n"
        "[PASS] min-ratio-matched: min ratio 0.6667 on beta + alpha = 1 (201 cells)\n"
    )


def test_simulate_bytes_where_the_ladder_points_skip_different_draws(capsys):
    """At alpha = 3e-18 the alpha cells' estimates have zero variance at 40
    and 50 dB but not at 180 dB, so those points skip draws the top point
    makes; the report is pinned to the bytes of the per-point sampler."""
    assert cli.main(["simulate", "--scheme", "fdma", "--beta", "0.5", "--alpha", "3e-18",
                     "--snr", "40,50,180", "--trials", "50"]) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == (
        "890a4422a631e9c5684d5585a9b605edfab5780cf30b05be805f9402ff2311f3")
    assert captured.err == "fdma: measured sum DoF 0.9973 (analytic 1.0000, fit residual 0.0105)\n"


_ZERO_FORCE = "error: degenerate direction: cannot zero-force on a zero estimate\n"
_NORMALISE = "error: degenerate direction: cannot normalise a zero estimate\n"


# The first degenerate direction in decode-table link order names the error:
# optimal-unmatched reads a zero-forced link first at (0, 0) and the aligned
# u_0 first at (1, 0), where beta > alpha keeps u_0.
@pytest.mark.parametrize("scheme,beta,alpha,err", [
    ("zfbf", "0", "0", _ZERO_FORCE),
    ("zfbf", "1", "0", _ZERO_FORCE),
    ("s3", "0", "0", _NORMALISE),
    ("s3", "1", "0", _NORMALISE),
    ("optimal-unmatched", "0", "0", _ZERO_FORCE),
    ("optimal-unmatched", "1", "0", _NORMALISE),
])
def test_simulate_refusals_at_alpha_zero(scheme, beta, alpha, err, capsys):
    assert cli.main(["simulate", "--scheme", scheme, "--beta", beta, "--alpha", alpha,
                     "--trials", "20"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


@pytest.mark.parametrize("scheme", ["fdma", "matched-optimal"])
@pytest.mark.parametrize("beta", ["0", "1"])
def test_simulate_runs_at_alpha_zero(scheme, beta, capsys):
    assert cli.main(["simulate", "--scheme", scheme, "--beta", beta, "--alpha", "0",
                     "--trials", "20"]) == 0
    captured = capsys.readouterr()
    assert SimReport.from_json(captured.out).scheme == scheme
    assert captured.err.startswith(f"{scheme}: measured sum DoF ")


# ---------------------------------------------------------------------------
# the input contract of simulate and regions, fuzzed

_ULP_ABOVE_1 = float(np.nextafter(1.0, 2.0))
#: Quality exponents on the corners, subnormal or at the smallest normal.
_EDGE_QUALITIES = [0.0, 1.0, 0.5, 5e-324, 1e-310, 2.2250738585072014e-308]
_QUALITY = st.floats(0, 1) | st.sampled_from(_EDGE_QUALITIES)
#: (beta, alpha) anywhere in the triangle, on each of its edges, or 1 ulp outside it.
_PAIRS = st.one_of(
    st.tuples(_QUALITY, _QUALITY).map(lambda t: (max(t), min(t))),
    _QUALITY.map(lambda x: (x, x)),
    _QUALITY.map(lambda x: (x, 0.0)),
    _QUALITY.map(lambda x: (1.0, x)),
    _QUALITY.map(lambda x: (x, float(np.nextafter(x, 2.0))))
    | st.sampled_from([(_ULP_ABOVE_1, 0.5), (_ULP_ABOVE_1, _ULP_ABOVE_1), (0.5, -5e-324),
                       (0.0, -5e-324)]),
)
#: dB values that repeat, nearly collide (one report key, or 1 ulp apart),
#: are negative or zero, or overflow the received powers or a linear SNR.
_SNR_POINTS = st.floats(-20.0, 400.0) | st.sampled_from([
    40.0, 50.0, 60.0, 40.0000001, float(np.nextafter(40.0, 50.0)), -10.0, 0.0, 5e-324,
    140.0, 160.0, 180.0, 3000.0, 3080.0, 1e308])
_LADDERS = st.one_of(
    st.lists(st.floats(1.0, 400.0) | st.floats(3070.0, 3083.0), min_size=3, max_size=4,
             unique=True).map(sorted),
    st.lists(_SNR_POINTS, min_size=3, max_size=5).map(sorted),  # ascending, or with repeats
    st.lists(_SNR_POINTS, max_size=5),
).map(lambda v: ",".join(map(repr, v)))


@st.composite
def _argvs(draw):
    beta, alpha = draw(_PAIRS)
    argv = [f"--beta={beta!r}", f"--alpha={alpha!r}"]
    if draw(st.booleans()):
        scenario = draw(st.sampled_from(SCENARIO_KINDS))
        return ["regions", f"--scenario={scenario}",
                f"--format={draw(st.sampled_from(['json', 'gnuplot']))}"] + argv
    argv += [f"--scheme={draw(st.sampled_from(schemes.SCHEME_NAMES))}",
             f"--snr={draw(_LADDERS)}",
             f"--trials={draw(st.integers(1, 3) | st.integers(-1, 3))}"]
    scenario = draw(st.none() | st.sampled_from(SCENARIO_KINDS))
    return ["simulate"] + argv + ([] if scenario is None else [f"--scenario={scenario}"])


def _run(argv):
    """(exit code, stdout, stderr, output file bytes or None) of one ``cli.main`` call."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv + [f"--out={path}"])
            except SystemExit as exc:  # argparse's refusals
                code = exc.code
        written = pathlib.Path(path).read_bytes() if os.path.exists(path) else None
    return code, out.getvalue(), err.getvalue(), written


@settings(max_examples=300, deadline=None)
@given(_argvs())
def test_simulate_and_regions_either_work_or_refuse_up_front(argv):
    code, out, err, written = result = _run(argv)
    if code == 0:
        assert written is not None and out == ""
        assert not re.search(rb"nan|inf", written, re.IGNORECASE), written
    else:
        assert code == 2, result
        assert out == "" and written is None, result
        assert [line for line in err.splitlines() if "error:" in line] == [
            err.splitlines()[-1]], err
    assert _run(argv) == result
