"""Self-test of the benchmark at tiny sizes.

Run from the root of a checkout:

    python3 -m pytest benchmarks/test_benchmark.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # puts the checkout's src/ first on sys.path
import disentmetrics
import tracing
import workloads

ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# small enough to run in seconds, large enough that every pinned target holds
TINY = {
    "population": {"count": 5, "factors": 2, "n": 100},
    "interventions": {"train_points": 1000, "eval_points": 500, "batch_size": 128},
    "dataset-files": {"factors": 3, "n": 300},
}


def _declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench_out")
    return {w: run.run(w, 3, 0.01, 1, sizes=TINY[w], out_dir=out) for w in TINY}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(TINY) == set(workloads.FULL_SIZES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(TINY))
def test_end_to_end_metrics_print_with_units(workload, tmp_path):
    result, detail = run.run(workload, 3, 0.01, 0, sizes=TINY[workload], out_dir=tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert detail["environment"]["blas_threads"] == run.BLAS_THREADS
    json.loads(json.dumps(result))


@pytest.mark.parametrize("workload", list(TINY))
def test_traced_run_attributes_load_to_the_right_layers(workload, traced):
    result, detail = traced[workload]
    metrics = result["metrics"]
    assert result["correct"] and detail["traced_digests_match"] and detail["absent"] == []
    assert {k: v["unit"] for k, v in metrics.items()} == _declared("per_layer")
    for layer in workloads.MAIN_LAYERS[workload]:
        assert metrics[f"{layer}.calls"]["value"] > 0, layer
    for layer in workloads.BYPASSED[workload]:
        assert metrics[f"{layer}.calls"]["value"] == 0, layer
        assert metrics[f"{layer}.s"]["value"] == 0, layer


def test_predictions_name_declared_metrics_and_workloads():
    layer_metrics = set(_declared("per_layer"))
    end_to_end = set(_declared("end_to_end"))
    for layer_metric, moves, workload, unchanged in workloads.PREDICTIONS:
        assert layer_metric in layer_metrics
        assert set(moves) <= end_to_end
        assert {workload, *unchanged} <= set(workloads.WORKLOADS)


def test_dataset_files_counts_mi_builds_per_dataset(traced):
    metrics = traced["dataset-files"][0]["metrics"]
    # eval builds MI once for one dataset, compare once per MI metric for two
    assert metrics["estimators.informativeness_from_mi.per_dataset"]["value"] == pytest.approx(5 / 3)
    assert metrics["core.save_dataset.bytes"]["value"] > 0
    assert metrics["core.load_dataset.bytes"]["value"] > metrics["core.save_dataset.bytes"]["value"]


def test_removed_target_is_reported_absent(monkeypatch):
    monkeypatch.delattr(disentmetrics.estimators, "stump_accuracy")
    tracer = tracing.Tracer()
    original = disentmetrics.estimators.discretize
    restore = tracer.install(disentmetrics)
    try:
        assert disentmetrics.estimators.discretize is not original
    finally:
        restore()
    assert tracer.absent == ["estimators.stump_accuracy"]
    assert disentmetrics.estimators.discretize is original


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "population", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
