"""The benchmark under perfbench/ calls mebagg by name and reads its
results; these checks fail when a library change would break it."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from mebagg import aggregate

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


@pytest.mark.parametrize("name", ["sweep", "worstcase"])
def test_candidate_ball_workloads_run_traced(name, tmp_path):
    # the ops read CandidateBalls' arrays, and the deferred ``distinct``
    # annotation evaluates once each op is recorded
    spans, workloads = _load("spans"), _load("workloads")
    workload, tracer = workloads.WORKLOADS[name], spans.Tracer()
    lay = spans.Layers(tracer)
    for op_id, inp in enumerate(workload.setup(7, tmp_path)[:4]):
        assert workload.op(inp, lay)
        tracer.record_op(op_id, 0.0, 0.0, None)
    distinct = [s["distinct"] for s in tracer.spans if s["name"] == "aggregate.candidate_balls"]
    assert len(distinct) == 4 and all(isinstance(k, int) and k > 0 for k in distinct)


def test_worstcase_ops_reuse_the_subset_tables(tmp_path):
    # the index rows of a run of support sizes depend on n and the sizes
    # alone, so a second pass over the worstcase shapes builds no table again
    spans, workloads = _load("spans"), _load("workloads")
    workload, tracer = workloads.WORKLOADS["worstcase"], spans.Tracer()
    lay = spans.Layers(tracer)
    shapes = len(workloads.WORSTCASE_SHAPES)
    aggregate._subset_table.cache_clear()
    for op_id, inp in enumerate(workload.setup(7, tmp_path)[: 2 * shapes]):
        assert workload.op(inp, lay)
        tracer.record_op(op_id, 0.0, 0.0, None)
    info = aggregate._subset_table.cache_info()
    assert info.hits >= info.misses > 0


def test_labeled_workload_passes_one_op_per_rule(tmp_path):
    # the rules take turns pass by pass, one shape list each; every op checks
    # its rule's output against criteria 06, 08 and 10 through the traced layers
    spans, workloads = _load("spans"), _load("workloads")
    workload, tracer = workloads.WORKLOADS["labeled"], spans.Tracer()
    lay = spans.Layers(tracer)
    inputs = workload.setup(7, tmp_path)
    shapes = len(workloads.LABELED_SHAPES)
    for op_id, rule in enumerate(workloads.LABELED_RULES):
        inp = inputs[op_id * shapes]
        assert inp[3] == rule
        assert workload.op(inp, lay), rule
        tracer.record_op(op_id, 0.0, 0.0, None)
    called = {s["name"] for s in tracer.spans}
    assert {f"aggregate.{fn}" for fn, _ in workloads.LABELED_RULES.values()} <= called
