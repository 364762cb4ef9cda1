"""Every function the per-layer benchmark trace wraps still exists.

``perfbench/tracing.py`` patches the targets listed in
``perfbench/spec.TRACED`` by name, so renaming or deleting one of them
breaks the traced benchmark run; this catches it in the unit tests.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPEC_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spec.py"


def _traced_targets():
    loader = importlib.util.spec_from_file_location("perfbench_spec", SPEC_PATH)
    spec = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spec)
    return [target for _, targets, _ in spec.TRACED for target in targets]


@pytest.mark.parametrize("target", _traced_targets())
def test_traced_target_resolves(target):
    module, *path = target.split(".")
    owner = importlib.import_module(f"dofsim.{module}")
    for attr in path:
        owner = getattr(owner, attr)
    assert callable(owner)
