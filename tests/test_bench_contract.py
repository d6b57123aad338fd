"""The names the benchmark under ``perfbench/`` reaches into the package by,
and the names the committed ``BENCH_*.json`` results use.

The benchmark traces package functions by name and builds its own models, so
a rename in the package would otherwise show up only when a traced benchmark
run starts.  A committed result counts only if it reports the workloads and
metrics that ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from modalrel import GenParams, KripkeModel
from test_acceptance import CAMPAIGN_PARAMS

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "module_name, attr", [target[:2] for target in load_perfbench("tracing").TARGETS]
)
def test_traced_name_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_sparse_model_builds():
    model = load_perfbench("workloads").sparse_model(6, random.Random(0))
    assert isinstance(model, KripkeModel)
    assert len(model.states) == 6


def test_campaign_case_runs():
    # a case calls harness.check with Translator.for_model, which the package keeps for it
    op = load_perfbench("workloads").Campaign.case(CAMPAIGN_PARAMS, 0)
    assert op.ok


def test_campaign_bounds_build_the_acceptance_params():
    # the benchmark builds GenParams by keyword from CAMPAIGN_BOUNDS
    bounds = load_perfbench("workloads").CAMPAIGN_BOUNDS
    assert GenParams(seed=42, **bounds) == CAMPAIGN_PARAMS


def test_committed_bench_results_name_declared_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in declared["workloads"]}
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    per_layer = {m["name"] for m in declared["per_layer"]}
    results = sorted(ROOT.glob("BENCH_*.json"))
    assert results
    for path in results:
        bench = json.loads(path.read_text())
        assert set(bench["end_to_end"]) <= workloads, path.name
        assert set(bench["per_layer"]) <= workloads, path.name
        for workload in bench["end_to_end"].values():
            assert workload["runs"], path.name
            for run in workload["runs"]:
                assert set(run["parent"]) <= end_to_end and set(run["change"]) <= end_to_end
            assert set(workload["summary"]) <= end_to_end, path.name
        for traced in bench["per_layer"].values():
            assert set(traced["parent"]) <= per_layer and set(traced["change"]) <= per_layer
