"""``tools/mc_layers.py`` times each Monte-Carlo layer by wrapping it by name.

A layer that the path no longer enters, because it was renamed, inlined or
bypassed, would read 0 ms in the table without any error; this checks that
every ``LAYERS`` entry is called on each 100-trial ``estimate_dof`` case.
"""

import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("mc_layers", ROOT / "tools" / "mc_layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_is_called_by_each_100_trial_estimate():
    tool = _tool()
    names = [name for name, _ in tool.LAYERS]
    cases = [(label, call) for label, call, trials in tool._cases() if trials == 100]
    assert len(cases) == len(tool.CONFIGS)
    for label, call in cases:
        totals, parts = tool.measure(call, repeats=2)
        assert len(totals) == 2
        for _, calls in parts:
            assert min(calls) >= 1, (label, dict(zip(names, calls)))


def test_printed_quartiles_lie_within_two_timed_calls(monkeypatch, capsys):
    tool = _tool()
    layers = len(tool.LAYERS)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(tool, "_cases", lambda: iter([("spread case", None, None)]))
    monkeypatch.setattr(tool, "measure", lambda call, repeats: (
        [1_000_000, 9_000_000], [([0] * layers, [1] * layers)] * 2))
    tool.main([str(ROOT), "--repeats", "2"])
    line = capsys.readouterr().out.splitlines()[-1]
    q1, q3 = (float(v) for v in re.search(r"\[\s*(\S+),\s*(\S+)\]", line).groups())
    assert 1.0 <= q1 <= q3 <= 9.0, line


def test_a_full_block_draw_holds_two_cell_stacks():
    tool = _tool()
    from dofsim import channel

    label, call, trials = next(case for case in tool._cases() if case[2] == channel.TRIAL_BLOCK)
    held, peak = tool._memory(call)
    # The estimate and error stacks, each (cells, points, trials, 2) complex.
    stacks = 2 * len(channel.CELLS) * len(tool.LADDER_DB) * trials * 2 * 16
    assert 0 < held and abs(held - stacks) <= 0.01 * stacks, (label, held)
    assert peak > 0, label
