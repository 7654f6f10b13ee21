"""End-to-end benchmark of jumpspectra, one workload per run.

Run from the repository root:

    python3 benchmarks/run.py --workload lagrange_sweep --seed 0 --seconds 20 --trace 0

Workloads: lagrange_sweep, shepard_sweep, spectra_table, long_prefix (see
workloads.py and BENCHMARK.json for what each runs and why).

--trace 0 reports the end-to-end metrics:
  wall_s       seconds to run the workload's task list once: the sum over
               tasks of the median over passes of each task's seconds
  setup_s      median CPU seconds that the main thread of a fresh
               interpreter spends importing jumpspectra and jumpspectra.cli,
               over several interpreters (unlike wall time, CPU time leaves
               out time that the host's scheduler takes from the import)
  peak_rss_mb  peak resident set of the workload's own fresh interpreter
  pass_ratio   tasks whose output passed every check / tasks attempted
Both are scaled to a reference machine speed by a calibration kernel timed
in the same process next to each measurement (see calibrate.py); the
summary also prints the unscaled pass times.
--trace 1 reports the per-layer metrics of tracing.py and the tracing
overhead, from a run that alternates traced and untraced passes.

The lines before the last one give provenance and a readable summary that
also carries fail_ratio and the largest value, index and KS errors.  The last
line is one JSON object with the keys correct, attempted, failed and metrics.
Exit status is 0 when a result was printed, whether or not it is correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PACKAGE = ROOT / "src" / "jumpspectra"
WORKLOADS = ("lagrange_sweep", "shepard_sweep", "spectra_table", "long_prefix")
SETUP_RUNS = 11
TIME_LIMIT_S = 170.0
# run by each fresh interpreter that measures setup: calibrate, then import
IMPORT = """
import statistics
from time import thread_time
import calibrate
kernel = statistics.median(calibrate.kernel_seconds() for _ in range(3))
start = thread_time()
import jumpspectra, jumpspectra.cli
print(calibrate.scaled(thread_time() - start, kernel))
print(jumpspectra.__file__)
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(BENCH_DIR), env.get("PYTHONPATH")])
    )
    return env


def measure_setup(env: dict, runs: int) -> list[float]:
    """Scaled CPU seconds that fresh interpreters spend importing the package and its CLI."""
    times = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"importing jumpspectra failed:\n{proc.stderr}")
        seconds, path = proc.stdout.split()
        if Path(path).resolve().parent != PACKAGE.resolve():
            raise RuntimeError(f"jumpspectra imported from {path}, not {PACKAGE}")
        times.append(float(seconds))
    return times


def git_commit() -> str | None:
    """The commit checked out in the repository, read from .git if there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    started = perf_counter()

    if not (PACKAGE / "__init__.py").is_file():
        print(f"jumpspectra sources not found at {PACKAGE}", file=sys.stderr)
        return 2
    env = _child_env()
    # setup is sampled before and after the workload, so that its median
    # spans the run rather than one moment of the host's load
    setup_runs = 0 if args.trace else SETUP_RUNS
    try:
        setup = measure_setup(env, setup_runs // 2)
        worker = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, TIME_LIMIT_S - (perf_counter() - started)),
        )
        setup += measure_setup(env, setup_runs - setup_runs // 2)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    sys.stderr.write(worker.stderr)
    if worker.returncode != 0 or not worker.stdout.strip():
        print(f"worker exited with status {worker.returncode}", file=sys.stderr)
        return 2
    result = json.loads(worker.stdout.strip().splitlines()[-1])
    for error in result["errors"]:
        print(f"FAILED {error}", file=sys.stderr)

    attempted, failed = result["attempted"], result["failed"]
    walls = result["raw_walls"]
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **result["versions"],
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_kernel_s": result["kernel_s"],
        "git_commit": git_commit(),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    print("provenance " + json.dumps(provenance))
    print(
        f"{args.workload} seed={args.seed}: {len(walls)} untraced passes, "
        f"{attempted} tasks attempted, {failed} failed"
    )

    if args.trace:
        units = {name: spec[0] for name, spec in tracing.LAYER_METRICS.items()}
        units.update(tracing.PASS_METRICS)
        metrics = {
            name: _metric(value, units[name]) for name, value in result["layers"].items()
        }
    else:
        metrics = {
            "wall_s": _metric(result["wall_s"], "s"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
            "pass_ratio": _metric((attempted - failed) / attempted, "ratio"),
        }
        print(f"  unscaled wall per pass: median {statistics.median(walls):.4f} "
              f"min {min(walls):.4f} max {max(walls):.4f} s")
        print(f"  scaled setup per interpreter: min {min(setup):.4f} max {max(setup):.4f} s")
        summary = {"fail_ratio": failed / attempted, **result["science"]}
        for name, value in summary.items():
            print(f"  {name:<14} {value:.6g}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
