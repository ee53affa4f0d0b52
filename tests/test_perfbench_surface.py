"""The benchmark under perfbench/ calls mebagg by name; these checks fail
when a library change would break it."""

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    spans = _load("spans")
    for module, names in spans.LAYERS.items():
        mod = importlib.import_module(f"mebagg.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"mebagg.{module}.{name}"


def test_workloads_import():
    workloads = _load("workloads")
    assert set(workloads.WORKLOADS) == {"sweep", "worstcase", "labeled", "cli"}
