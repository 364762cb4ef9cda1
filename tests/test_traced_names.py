"""Every function the per-layer benchmark trace and ``tools/mc_layers.py`` wrap still exists.

``perfbench/tracing.py`` patches the targets listed in
``perfbench/spec.TRACED`` by name, and ``tools/mc_layers.py`` those in its
``LAYERS``, so renaming or deleting one of them breaks the traced
benchmark run or the layer table; this catches it in the unit tests.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(name, path):
    loader = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


def _traced_targets():
    spec = _load("perfbench_spec", ROOT / "perfbench" / "spec.py")
    return [target for _, targets, _ in spec.TRACED for target in targets]


def _layer_targets():
    return [target for _, target in _load("mc_layers", ROOT / "tools" / "mc_layers.py").LAYERS]


def _assert_resolves(target):
    module, *path = target.split(".")
    owner = importlib.import_module(f"dofsim.{module}")
    for attr in path:
        owner = getattr(owner, attr)
    assert callable(owner)


@pytest.mark.parametrize("target", _traced_targets())
def test_traced_target_resolves(target):
    _assert_resolves(target)


@pytest.mark.parametrize("target", _layer_targets())
def test_mc_layers_target_resolves(target):
    _assert_resolves(target)

