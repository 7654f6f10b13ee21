"""Run one workload in this (fresh) interpreter and print its figures as JSON.

Started by run.py, once per benchmark run, so that peak RSS belongs to the
workload alone.  After one small untimed warm-up task it runs the workload's
task list back to back, pass after pass, as one closed-loop caller on one
thread, until --seconds is used up.  Every task is timed between two runs
of the calibration kernel, and wall_s sums each task's median scaled time.
Every task of every pass is checked against the reference; a failing task
is counted, never skipped or retried.

With --trace 1 untraced and traced passes alternate.  Per-layer metrics are
the medians over the traced passes, the tracing overhead is the traced
wall_s minus the untraced one, and a traced task whose output differs from
the same task untraced counts as failed.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import calibrate  # noqa: E402
import jumpspectra  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
MAX_REPORTED_ERRORS = 5


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


@dataclass
class Pass:
    """One run of the task list: per-task wall seconds, the mean seconds of
    the calibration kernel run right before and right after each task, CPU
    seconds and task digests."""

    seconds: list[float] = field(default_factory=list)
    kernels: list[float] = field(default_factory=list)
    cpu: float = 0.0
    digests: list[dict] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.seconds)


def run_pass(tasks, workdir: Path, tracer=None) -> Pass:
    """Run the task list once.  Digests are taken outside the timed intervals."""
    out = Pass()
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = i
        kernel = calibrate.kernel_seconds()
        cpu_start, start = _cpu_seconds(), perf_counter()
        try:
            raw = task.run(workdir)
            error = None
        except Exception:  # a failing task is counted, the pass goes on
            error = traceback.format_exc(limit=3)
        out.seconds.append(perf_counter() - start)
        out.cpu += _cpu_seconds() - cpu_start
        out.kernels.append((kernel + calibrate.kernel_seconds()) / 2)
        out.digests.append({"error": error} if error else task.digest(raw, workdir))
    return out


def run_traced_pass(tasks, workdir: Path, workload: str) -> tuple[Pass, dict]:
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = run_pass(tasks, workdir, tracer)
    return traced, tracing.layer_metrics(tracer.spans, workload)


def scaled_wall(passes: list[Pass]) -> float:
    """Sum over tasks of the median over passes of the task's scaled seconds."""
    per_task = zip(*(
        [calibrate.scaled(t, k) for t, k in zip(p.seconds, p.kernels)] for p in passes
    ))
    return sum(statistics.median(times) for times in per_task)


def science(digests) -> dict:
    """Largest value, index and KS errors over the compares of one pass."""
    out = {}
    for metric, key in (("max_value_err", "value_errors"), ("max_index_err", "index_errors")):
        values = [v for d in digests for v in d.get(key, [])]
        if values:
            out[metric] = max(values)
    ks = [d["ks"] for d in digests if d.get("ks") is not None]
    if ks:
        out["max_ks"] = max(ks)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    reference = workloads.load_reference()
    tasks = workloads.tasks_for(args.workload, args.seed)
    passes, traced_passes, layers = [], [], []
    attempted = failed = 0
    errors: list[str] = []

    def count(digests, untraced=None):
        nonlocal attempted, failed
        for i, (task, digest) in enumerate(zip(tasks, digests)):
            attempted += 1
            problems = workloads.check(task, digest, reference)
            if untraced is not None and digest != untraced[i]:
                problems.append("traced output differs from untraced")
            if problems:
                failed += 1
                errors.extend(f"{task.key}: {p}" for p in problems)

    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    try:
        workloads.WARM_UP.run(workdir)
        deadline = perf_counter() + args.seconds
        while True:
            started = perf_counter()
            passes.append(run_pass(tasks, workdir))
            count(passes[-1].digests)
            if args.trace:
                traced, metrics = run_traced_pass(tasks, workdir, args.workload)
                traced_passes.append(traced)
                layers.append(metrics)
                count(traced.digests, untraced=passes[-1].digests)
            elapsed = perf_counter() - started
            if len(passes) >= MIN_PASSES and perf_counter() + elapsed > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:MAX_REPORTED_ERRORS],
        "wall_s": scaled_wall(passes),
        "raw_walls": [p.wall for p in passes],
        "kernel_s": statistics.median(k for p in passes for k in p.kernels),
        "peak_rss_mb": _peak_rss_mb(),
        "science": science(passes[0].digests),
        "versions": {
            "jumpspectra": jumpspectra.__version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }
    if args.trace:
        per_pass = {name: [m[name] for m in layers if name in m] for name in layers[0]}
        result["layers"] = {
            name: statistics.median(values)
            for name, values in per_pass.items()
            if len(values) == len(layers)
        }
        result["layers"]["proc.cpu_s"] = statistics.median(p.cpu for p in passes)
        result["layers"]["proc.cpu_per_wall"] = statistics.median(p.cpu / p.wall for p in passes)
        result["layers"]["trace.overhead_s"] = scaled_wall(traced_passes) - scaled_wall(passes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
