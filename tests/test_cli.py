"""End-to-end command-line tests: exit codes, output formats, reproducibility."""

import contextlib
import csv
import errno
import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dofsim import cli, linkmc, regions, schemes, switcher
from dofsim.channel import SCENARIO_KINDS, QualityPair, Scenario
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
    commands = cli.build_parser().commands
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
    for check in ("power-identity-proof", "achievability-proof", "composition-proof",
                  "spot-checks", "min-ratio-unmatched", "min-ratio-matched"):
        assert f"[PASS] {check}" in out
    assert "[FAIL]" not in out
    assert "[PASS] power-identity-proof: 49 face templates telescope to P in both subbands" in out


def test_verify_checks_every_face_template_ledger_itself(monkeypatch):
    """verify runs ``power_ledger`` on each subband of each of the 49 face
    templates, whose ledgers hold as forms on the whole face."""
    scenarios = [Scenario(kind) for kind in SCENARIO_KINDS]
    assert next(cli._verify_checks(scenarios, 0))[1]  # builds every template
    seen = []
    ledger = schemes.power_ledger
    monkeypatch.setattr(schemes, "power_ledger",
                        lambda d, slot: seen.append(slot) or ledger(d, slot))
    assert next(cli._verify_checks(scenarios, 0)) == (
        "power-identity-proof", True, "49 face templates telescope to P in both subbands")
    assert len(seen) == 2 * 49
    monkeypatch.setattr(schemes, "power_ledger", lambda d, slot: {})
    name, passed, detail = next(cli._verify_checks(scenarios, 0))
    assert (name, passed) == ("power-identity-proof", False)
    assert detail.startswith("fdma (unmatched) on interior: "
                             "power identity violated in slot 'A' of 'fdma'"), detail
    assert detail.endswith(" (48 more)"), detail


def test_verify_audits_each_template_at_its_face_vertices(monkeypatch):
    """The achievability proof audits each template evaluated at each vertex
    of its face's closure, on the face's own forms: 84 audits."""
    scenarios = [Scenario(kind) for kind in SCENARIO_KINDS]
    audited = []
    audit = schemes.static_achievability_check
    monkeypatch.setattr(schemes, "static_achievability_check",
                        lambda d: audited.append(d) or audit(d))
    checks = cli._verify_checks(scenarios, 0)
    next(checks)
    assert next(checks) == ("achievability-proof", True,
                            "84 face-vertex audits, worst step margin 0")
    want = [(t, QualityPair(b, a)) for scheme, row in schemes.SCHEMES.items()
            for kind in row.scenarios for face in schemes.FACES.values()
            for t in [schemes._template(row.build, kind, face)] for b, a in face]
    assert len(audited) == len(want) == 84
    for d, (t, q) in zip(audited, want):
        assert d == schemes._at(t, q) and d.table is t.table


def test_verify_composition_identity_is_exact(monkeypatch, capsys):
    # A composition off by 1e-15 in every rank, far inside any float
    # tolerance, must fail the exact check at every corner and random pair.
    compose = regions.compose_unmatched
    tiny = regions.scale(regions.canonical("no_csit"), Fraction(1, 10**15))
    monkeypatch.setattr(regions, "compose_unmatched",
                        lambda q: regions.minkowski_sum(compose(q), tiny))
    assert cli.main(["verify", "--scenario", "unmatched"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] composition-proof: unmatched at corner (0, 0): ranks " in out
    assert "(2 more)\n[FAIL] spot-checks: unmatched at (" in out


def test_verify_composition_proof_covers_the_edge_pairs(monkeypatch):
    """The composition proof composes exactly at the three corners of the
    triangle, whose closure holds every edge pair (``tests/test_verify_proof.py``)
    and on which the ranks are affine, so no edge pair needs its own composition."""
    seen = []
    bound = regions.outer_bound
    monkeypatch.setattr(regions, "outer_bound", lambda q: seen.append(q) or bound(q))
    checks = cli._verify_checks([Scenario(kind) for kind in SCENARIO_KINDS], 0)
    assert next(c for c in checks if c[0] == "composition-proof") == (
        "composition-proof", True, "6 exact compositions equal the outer bound at the corners")
    assert [(q.beta, q.alpha) for q in seen] == list(schemes._CORNERS) * len(SCENARIO_KINDS)
    assert all(type(q.beta) is Fraction and type(q.alpha) is Fraction for q in seen)


def test_verify_spot_checks_follow_the_seed(monkeypatch, capsys):
    drawn = []
    build = schemes.build_descriptor
    monkeypatch.setattr(schemes, "build_descriptor",
                        lambda scheme, q, scenario: drawn.append(q) or build(scheme, q, scenario))
    for seed in ("0", "0", "1"):
        assert cli.main(["verify", "--seed", seed]) == 0
    capsys.readouterr()
    runs = [drawn[i * len(drawn) // 3:(i + 1) * len(drawn) // 3] for i in range(3)]
    assert runs[0] == runs[1] != runs[2]
    assert len(set(runs[0])) == cli._SPOT_PAIRS
    assert all(type(q.beta) is Fraction and type(q.alpha) is Fraction for q in drawn)


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


# ---------------------------------------------------------------------------
# dispatch: the command's own parser, the full parser for every usage error

def _outcome(call, argv):
    """(exit code, stdout, stderr) of ``call(argv)``; argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _print_namespace(args):
    print(sorted(vars(args).items()))
    return 0


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["bogus"], ["reg"],
    ["regions", "--help"], ["regions", "--beta", "0.5", "-h"],
    ["regions", "--bet", "0.5"], ["regions", "--beta"], ["regions", "--beta", "x"],
    ["regions", "--format", "svg"],
    ["regions", "stray"], ["regions", "--nope", "1"],
    ["regions", "--beta", "-0.5"], ["simulate", "--scheme", "fdma", "--snr=-5,10,20"],
    ["regions", "--", "x"],
])
def test_main_parses_as_the_full_parser_does(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for name in cli.build_parser().commands:
        monkeypatch.setattr(cli, f"cmd_{name}", _print_namespace)
    want = _outcome(lambda a: _print_namespace(cli.build_parser().parse_args(a)), argv)
    assert _outcome(cli.main, argv) == want
    assert want[0] in (0, 2)


def test_main_reads_sys_argv(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["dofsim", "sweep", "--step", "0.05"])
    monkeypatch.setattr(cli, "cmd_sweep", lambda args: 7 if args.step == 0.05 else 8)
    assert cli.main() == 7


# ---------------------------------------------------------------------------
# --out files: one write(2) per artifact over the old bytes from offset 0, then a
# longer regular file is trimmed to the artifact's length and closed; no fsync, as before

def _text_mode_out(path):
    """The ``--out`` writer of a text-mode file, as the artifacts were once written."""
    if path in (None, "-"):
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


_ARTIFACTS = [
    ["regions", "--beta", "0.7", "--alpha", "0.3"],
    ["regions", "--format", "gnuplot"],
    ["regions", "--scenario", "matched", "--format", "gnuplot"],
    ["simulate", "--scheme", "optimal-unmatched", "--snr", "40,50,60", "--trials", "30"],
    ["sweep", "--step", "0.05"],
    ["sweep", "--scenario", "matched", "--step", "0.1", "--format", "json"],
]


@pytest.mark.parametrize("argv", _ARTIFACTS)
def test_out_file_has_the_bytes_of_a_text_mode_file(argv, tmp_path, monkeypatch, capsys):
    assert cli.main(argv + ["--out", str(tmp_path / "raw")]) == 0
    monkeypatch.setattr(cli, "_open_out", _text_mode_out)
    assert cli.main(argv + ["--out", str(tmp_path / "text")]) == 0
    assert (tmp_path / "raw").read_bytes() == (tmp_path / "text").read_bytes()
    capsys.readouterr()


def test_out_truncates_a_longer_file(tmp_path, capsys):
    target = tmp_path / "regions.json"
    target.write_bytes(b"x" * 100_000)
    assert cli.main(["regions", "--out", str(target)]) == 0
    assert cli.main(["regions"]) == 0
    assert target.read_text() == capsys.readouterr().out


def test_out_retries_short_writes(tmp_path, monkeypatch, capsys):
    assert cli.main(["regions", "--format", "gnuplot", "--out", str(tmp_path / "whole")]) == 0
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:7]))
    assert cli.main(["regions", "--format", "gnuplot", "--out", str(tmp_path / "short")]) == 0
    assert (tmp_path / "short").read_bytes() == (tmp_path / "whole").read_bytes()
    capsys.readouterr()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_failing_write_exits_3_and_closes_the_file(tmp_path, monkeypatch, capsys):
    full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def write(fd, data):
        raise full

    monkeypatch.setattr(os, "write", write)
    open_fds = len(os.listdir("/proc/self/fd"))
    assert cli.main(["regions", "--out", str(tmp_path / "r.json")]) == 3
    assert len(os.listdir("/proc/self/fd")) == open_fds
    assert capsys.readouterr().err == f"i/o error: {full}\n" == \
        "i/o error: [Errno 28] No space left on device\n"


def test_out_file_mode_follows_the_umask(tmp_path, capsys):
    umask = os.umask(0o027)
    try:
        assert cli.main(["regions", "--out", str(tmp_path / "raw")]) == 0
        with open(tmp_path / "text", "w"):
            pass
    finally:
        os.umask(umask)
    mode = (tmp_path / "raw").stat().st_mode & 0o777
    assert mode == 0o666 & ~0o027 == (tmp_path / "text").stat().st_mode & 0o777
    capsys.readouterr()


def test_out_dash_writes_through_sys_stdout(monkeypatch):
    monkeypatch.setattr(os, "write", None)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["regions", "--format", "gnuplot", "--out", "-"]) == 0
    assert out.getvalue().startswith("# composed\n")


@pytest.mark.parametrize("argv,writes", [
    (["regions"], 1),
    (["regions", "--format", "gnuplot"], 1),
    (["simulate", "--scheme", "fdma", "--snr", "40,50,60", "--trials", "20"], 1),
    (["sweep", "--step", "0.05", "--format", "json"], 1),
    # 201**2 = 40 401 rows: nine full blocks of 4096 rows and a partial tenth.
    (["sweep", "--step", "0.005", "--format", "csv"], 10),
])
def test_out_artifact_is_written_whole(argv, writes, tmp_path, monkeypatch, capsys):
    calls = []
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: calls.append(len(data)) or write(fd, data))
    target = tmp_path / "artifact"
    assert cli.main(argv + ["--out", str(target)]) == 0
    assert len(calls) == writes and sum(calls) == target.stat().st_size
    capsys.readouterr()


@pytest.mark.parametrize("old", ["absent", "shorter", "longer", "equal"])
@pytest.mark.parametrize("argv", _ARTIFACTS)
def test_out_rewrites_to_the_text_mode_bytes_trimming_only_a_longer_file(argv, old, tmp_path,
                                                                         monkeypatch, capsys):
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_open_out", _text_mode_out)
        assert cli.main(argv + ["--out", str(tmp_path / "text")]) == 0
    want = (tmp_path / "text").read_bytes()
    target = tmp_path / "raw"
    if old != "absent":
        size = {"shorter": len(want) // 2, "longer": len(want) + 100_000, "equal": len(want)}[old]
        target.write_bytes(bytes(b ^ 0xFF for b in want[:size]).ljust(size, b"x"))
    calls = _record_ftruncate(monkeypatch)
    assert cli.main(argv + ["--out", str(target)]) == 0
    assert target.read_bytes() == want
    assert calls == ([len(want)] if old == "longer" else [])
    capsys.readouterr()


def _fd_count():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_write_failing_part_way_leaves_the_bytes_written(tmp_path, monkeypatch, capsys):
    assert cli.main(["regions", "--out", str(tmp_path / "whole")]) == 0
    target = tmp_path / "r.json"
    target.write_bytes(b"x" * 100_000)
    full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    write, sent = os.write, []

    def write_7_then_fail(fd, data):
        if sent:
            raise full
        sent.append(write(fd, data[:7]))
        return sent[0]

    monkeypatch.setattr(os, "write", write_7_then_fail)
    open_fds = _fd_count()
    assert cli.main(["regions", "--out", str(target)]) == 3
    assert _fd_count() == open_fds
    assert sent == [7]
    assert target.read_bytes() == (tmp_path / "whole").read_bytes()[:7]
    assert capsys.readouterr().err == "i/o error: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_failing_trim_exits_3_and_closes_the_file(tmp_path, monkeypatch, capsys):
    def ftruncate(fd, length):
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    target = tmp_path / "r.json"
    target.write_bytes(b"x" * 100_000)
    monkeypatch.setattr(os, "ftruncate", ftruncate)
    open_fds = _fd_count()
    assert cli.main(["regions", "--out", str(target)]) == 3
    assert _fd_count() == open_fds
    assert capsys.readouterr().err == "i/o error: [Errno 5] Input/output error\n"


def _record_ftruncate(monkeypatch):
    calls = []
    ftruncate = os.ftruncate
    monkeypatch.setattr(os, "ftruncate",
                        lambda fd, length: calls.append(length) or ftruncate(fd, length))
    return calls


@pytest.mark.skipif(not os.path.exists(os.devnull), reason="needs a null device")
def test_out_devnull_is_not_trimmed(monkeypatch, capsys):
    calls = _record_ftruncate(monkeypatch)
    assert cli.main(["regions", "--out", os.devnull]) == 0
    assert calls == []
    capsys.readouterr()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_out_fifo_is_written_whole_and_not_trimmed(tmp_path, monkeypatch, capsys):
    assert cli.main(["regions", "--format", "gnuplot", "--out", str(tmp_path / "whole")]) == 0
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    calls = _record_ftruncate(monkeypatch)
    try:
        assert cli.main(["regions", "--format", "gnuplot", "--out", str(fifo)]) == 0
    finally:
        reader.join(timeout=60)
    assert not reader.is_alive()
    assert calls == []
    assert got == [(tmp_path / "whole").read_bytes()]
    capsys.readouterr()


def test_out_rewrite_keeps_the_inode_and_mode(tmp_path, capsys):
    target = tmp_path / "regions.json"
    target.write_bytes(b"x" * 100_000)
    target.chmod(0o600)
    inode = target.stat().st_ino
    assert cli.main(["regions", "--out", str(target)]) == 0
    assert target.stat().st_ino == inode
    assert target.stat().st_mode & 0o777 == 0o600
    assert len(target.read_bytes()) < 100_000
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


def _python_m_dofsim(*argv):
    """``python -m dofsim argv`` in a fresh interpreter that imports this tree's package."""
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "dofsim", *argv], capture_output=True,
                          timeout=120, env=env)


def test_package_entry_point_prints_what_main_prints(capsys):
    proc = _python_m_dofsim("regions", "--format", "gnuplot")
    assert cli.main(["regions", "--format", "gnuplot"]) == 0
    assert proc.returncode == 0
    assert proc.stdout == capsys.readouterr().out.encode()


def test_package_entry_point_without_a_command_exits_2_with_the_usage():
    proc = _python_m_dofsim()
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.decode().startswith("usage: dofsim [-h] {regions,simulate,sweep,verify}")


# Byte identity of the primary artifacts across refactors: a change that
# moves one bit of a report or of the verify battery must say so here.
_SIMULATE_GOLDEN = {
    ("fdma", "unmatched"): "f801481fc6fb29978ac91709c4db95037340a03cdb1fc6b0a119512f17f4e14c",
    ("fdma", "matched"): "c39241b3e1a1e53772f7606166e8cb9d5e911cea0df93ae107730987e211b910",
    ("matched-optimal", "matched"):
        "ac31778851a8f90c3eb3443ffe87dd5ed7bb322acf267fd277c0ff988702a927",
    ("optimal-unmatched", "unmatched"):
        "06ab8bc493d17bd287d5c63e354959526cbbcccba587889546e4853a925ae5ec",
    ("s3", "unmatched"): "39529c9822d3bc7d7936c1927f5599b0a657c60d2107c5c05cd9b03c5cc8f40c",
    ("zfbf", "unmatched"): "0e0af6946e4062e6d5070bd1eb7961e6386b385dfcadf70b0ae3f8e2e48e6029",
    ("zfbf", "matched"): "d5f3c6e4d5c99a64591cb421d6b7f00ae7523e824d5069e0c2012b1f4168bf8a",
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


@pytest.mark.parametrize("scheme,kind", [k for k in _SIMULATE_GOLDEN if k[0] != "fdma"])
def test_simulate_golden_is_the_true_stack_walk_reading_the_error_on_nulled_rows(
        scheme, kind, capsys, monkeypatch):
    """The re-pinned goldens are the bytes of the walk that read the true channel
    on every link, with only its nulled rows read from the error."""
    from test_linkmc import true_stack_walk_reading_the_error_on_nulled_rows

    monkeypatch.setattr(linkmc, "_link_powers", true_stack_walk_reading_the_error_on_nulled_rows)
    test_simulate_report_bytes_golden(scheme, kind, capsys)


def test_verify_stdout_bytes_golden(capsys):
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "[PASS] power-identity-proof: 49 face templates telescope to P in both subbands\n"
        "[PASS] achievability-proof: 84 face-vertex audits, worst step margin 0\n"
        "[PASS] composition-proof: 6 exact compositions equal the outer bound at the corners\n"
        "[PASS] spot-checks: 4 random exact pairs: builds, audits and compositions pass\n"
        "[PASS] min-ratio-unmatched: min ratio 0.8003 at [(0.665, 0.665)]\n"
        "[PASS] min-ratio-matched: min ratio 0.6667 on beta + alpha = 1 (201 cells)\n"
    )


def test_simulate_bytes_where_an_estimate_variance_is_zero_at_some_ladder_points(capsys):
    """At alpha = 3e-18 the alpha cells' estimates have zero variance at 40
    and 50 dB but not at 180 dB; every point reads the same normals, so the
    fit sees one set of draws rescaled along the ladder."""
    assert cli.main(["simulate", "--scheme", "fdma", "--beta", "0.5", "--alpha", "3e-18",
                     "--snr", "40,50,180", "--trials", "50"]) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == (
        "9aa67e8dfcf7685730d51120f194ea915b17d25815311908d42ace1b2574c0c1")
    assert captured.err == "fdma: measured sum DoF 0.9996 (analytic 1.0000, fit residual 0.0014)\n"


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


def _run(argv, writes=True):
    """(exit code, stdout, stderr, output file bytes or None) of one ``cli.main``
    call, given an ``--out`` file when the command ``writes`` one."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv + ([f"--out={path}"] if writes else []))
            except SystemExit as exc:  # argparse's refusals
                code = exc.code
        written = pathlib.Path(path).read_bytes() if os.path.exists(path) else None
    return code, out.getvalue(), err.getvalue(), written


@pytest.mark.parametrize("command", [
    ["regions"], ["regions", "--format=gnuplot"], ["regions", "--scenario=matched"],
    ["simulate", "--scheme=fdma", "--trials=20"], ["simulate", "--scheme=zfbf", "--trials=20"]])
def test_a_signed_zero_quality_gives_the_bytes_of_zero(command):
    # -0.0 is a legal spelling of 0; it once reached the artifacts as "alpha": -0.0.
    for negative, positive in ((["--alpha=-0.0"], ["--alpha=0"]),
                               (["--beta=-0.0", "--alpha=-0.0"], ["--beta=0", "--alpha=0"])):
        for writes in (True, False):
            got, want = _run(command + negative, writes), _run(command + positive, writes)
            assert got == want and got[0] in (0, 2), (negative, writes)
            assert b"-0.0" not in (got[3] or got[1].encode())


def _assert_works_or_refuses_up_front(argv, writes=True):
    """Exit 0 with a finite artifact (the output file, or verify's report on
    stdout), or exit 2 with one ``error:`` line and nothing written; the same
    bytes again on a repeat."""
    code, out, err, written = result = _run(argv, writes)
    if code == 0:
        artifact = written if writes else out.encode()
        assert artifact and (out == "" if writes else written is None), result
        assert not re.search(rb"nan|inf", artifact, re.IGNORECASE), artifact
    else:
        assert code == 2, result
        assert out == "" and written is None, result
        assert [line for line in err.splitlines() if "error:" in line] == [
            err.splitlines()[-1]], err
    assert _run(argv, writes) == result


@settings(max_examples=300, deadline=None)
@given(_argvs())
def test_simulate_and_regions_either_work_or_refuse_up_front(argv):
    _assert_works_or_refuses_up_front(argv)


_NON_FINITE = [float("nan"), float("inf"), float("-inf")]
#: Steps that divide 1 (coarse, or the benchmark's 0.005), that do not, that
#: raster too many cells, and that lie outside (0, 0.1].
_STEPS = st.floats(0.01, 0.1) | st.sampled_from([
    0.1, 0.05, 0.02, 0.005, 0.03, 1 / 3, 0.0, -0.1, 5e-324, 1e-4,
    float(np.nextafter(0.1, 1.0))] + _NON_FINITE)
_RHOS = st.floats(0, 1) | st.sampled_from([0.0, 5e-324, 0.9, 1.0, _ULP_ABOVE_1, -0.5] + _NON_FINITE)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SCENARIO_KINDS), _STEPS, _RHOS, st.sampled_from(["csv", "json"]))
def test_sweep_either_works_or_refuses_up_front(scenario, step, rho, fmt):
    _assert_works_or_refuses_up_front(["sweep", f"--scenario={scenario}", f"--step={step!r}",
                                       f"--rho={rho!r}", f"--format={fmt}"])


@pytest.mark.parametrize("seed,scenario", [
    ("-1", None), ("1.5", None), ("nan", "unmatched"), ("0x10", "matched"),
    (str(10**23), "matched"), ("7", None)])
def test_verify_either_works_or_refuses_up_front(seed, scenario):
    argv = ["verify", f"--seed={seed}"] + ([] if scenario is None else [f"--scenario={scenario}"])
    _assert_works_or_refuses_up_front(argv, writes=False)


@pytest.mark.parametrize("seed,scheme", [
    ("-1", "fdma"), ("1.5", "zfbf"), ("nan", "s3"), ("0x10", "matched-optimal"),
    (str(10**23), "optimal-unmatched"), ("7", "zfbf")])
def test_simulate_seed_either_works_or_refuses_up_front(seed, scheme):
    _assert_works_or_refuses_up_front(["simulate", f"--scheme={scheme}", "--snr=40,50,60",
                                       "--trials=3", f"--seed={seed}"])
