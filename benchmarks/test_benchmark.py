"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest benchmarks
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _lookup_sites():
    return [(owner, attr, vars(owner)[attr]) for owner, attr, _ in tracing._targets(tracing.Tracer())]


def _restored(saved) -> bool:
    return all(vars(owner)[attr] is original for owner, attr, original in saved)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_pass_is_transparent(workload, tmp_path):
    tasks = workloads.tasks_for(workload, 0)
    saved = _lookup_sites()
    plain = worker.run_pass(tasks, tmp_path).digests
    traced, metrics = worker.run_traced_pass(tasks, tmp_path, workload)
    assert traced.digests == plain
    assert _restored(saved)
    reference = workloads.load_reference()
    assert [workloads.check(t, d, reference) for t, d in zip(tasks, plain)] == [[]] * len(tasks)
    mapped = [m for m, spec in tracing.LAYER_METRICS.items() if workload in spec[3]]
    assert {m: metrics[m] for m in mapped if metrics[m] <= 0} == {}


def test_installed_restores_names_after_an_error():
    saved = _lookup_sites()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            assert not _restored(saved)
            raise RuntimeError("task failed")
    assert _restored(saved)


def test_layer_metric_left_out_when_its_wrapper_is_bypassed():
    # a lagrange_sweep pass whose spans never reach lagrange_at_jump
    spans = [["harness.run_sequence", 0.0, 1.0, None, 0, 0]]
    metrics = tracing.layer_metrics(spans, "lagrange_sweep")
    assert "lagrange.at_jump.s" not in metrics
    assert metrics["harness.run_sequence.s"] == 1.0
    assert tracing.layer_metrics(spans, "spectra_table")["lagrange.at_jump.s"] == 0.0


def test_self_time_excludes_children():
    spans = [
        ["lagrange.at_jump", 0.0, 1.0, None, 0, 10],
        ["piecewise.eval_many", 0.2, 0.5, 0, 0, 10],
        ["piecewise.eval_many", 0.6, 0.7, 0, 0, 10],
    ]
    metrics = tracing.layer_metrics(spans, "lagrange_sweep")
    assert metrics["lagrange.at_jump.self_s"] == pytest.approx(0.6)
    assert metrics["piecewise.eval_many.points"] == 20
    assert metrics["lagrange.ns_per_node"] == pytest.approx(1e8)


def test_every_seed_picks_tasks_with_a_reference():
    reference = workloads.load_reference()
    for workload, slots in workloads.WORKLOADS.items():
        assert workloads.tasks_for(workload, 0) == [slot.default for slot in slots]
        for seed in range(1, 40):
            tasks = workloads.tasks_for(workload, seed)
            assert tasks == workloads.tasks_for(workload, seed)
            assert [t.key for t in tasks if t.key not in reference] == []


def test_benchmark_json_names_what_the_benchmark_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    units = {name: spec[0] for name, spec in tracing.LAYER_METRICS.items()}
    units.update(tracing.PASS_METRICS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == units


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_run_prints_every_end_to_end_metric():
    proc = _run(ROOT, "--workload", "shepard_sweep", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = _run(tmp_path, "--workload", "long_prefix", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
