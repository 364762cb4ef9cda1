"""``tools/cold_cli.py`` times commands in fresh interpreters and prints JSON."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_run_of_regions_prints_each_command_and_its_median():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cold_cli.py"), str(ROOT), "--runs", "1",
         "--command", "regions"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    doc = json.loads(proc.stdout)
    assert doc["runs"] == 1
    assert list(doc["commands"]) == ["bare", "regions"]
    assert doc["commands"]["bare"]["argv"] is None
    assert doc["commands"]["regions"]["argv"] == ["regions"]
    for entry in doc["commands"].values():
        (cpu,) = entry["cpu_s"]
        assert entry["median_cpu_s"] == cpu > 0
