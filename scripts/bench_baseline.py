#!/usr/bin/env python3
"""Benchmark two checkouts side by side and write BENCH_<tag>.json.

Run from the root of the checkout under test (the head), with the commit to
compare against unpacked in another directory (the base):

    git archive <base-commit> --prefix=base/ | tar -x -C /tmp
    python3 scripts/bench_baseline.py --base /tmp/base --base-label <base-commit> \
        --head-label <description> --tag <tag>

For every workload of BENCHMARK.json and every seed, benchmarks/run.py runs
once in the base and once in the head, the side that goes first
alternating from seed to seed, so that drift of the host's speed hits both
sides alike.  The file records, per workload and
side, the median and quartiles of each end-to-end metric over the seeds,
the per-layer metrics of one traced seed-0 run, and the wall time of one
Tier-1 test run on each side (not a benchmark metric; it has no bound).
Each end-to-end run takes about 27 s, so the ten seeds take about 40 min.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy
import scipy

HEAD = Path(__file__).resolve().parent.parent
TIER1 = ["-m", "pytest", "-q", "-p", "no:cacheprovider"]
# ten pairs, the fewest that can back a claimed gain
SEEDS = range(1, 11)


def bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The metrics of one benchmarks/run.py call, by name; exits on a failed run."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        sys.exit(f"{workload} seed {seed} in {checkout} failed:\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def tier1_seconds(checkout: Path) -> float:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    start = perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=checkout, env=env,
                          capture_output=True, text=True, timeout=1200)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"Tier-1 tests failed in {checkout}:\n{proc.stdout[-2000:]}")
    return elapsed


def summary(runs: list[dict]) -> dict:
    """Median and quartiles of each metric over runs, with the values."""
    out = {}
    for name in runs[0]:
        values = [r[name] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median, "q1": q1, "q3": q3, "values": values}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    parser.add_argument("--base-label", default="base", help="what the base is, e.g. its commit")
    parser.add_argument("--head-label", default="head", help="what the head is")
    parser.add_argument("--tag", required=True, help="writes BENCH_<tag>.json in the head")
    args = parser.parse_args()
    spec = json.loads((HEAD / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sides = {"base": args.base.resolve(), "head": HEAD}

    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {side: [] for side in sides}
        for i, seed in enumerate(SEEDS):
            for side, checkout in sorted(sides.items(), reverse=i % 2 == 1):
                runs[side].append(bench(checkout, workload, seed, seconds, 0))
                print(f"{workload} seed {seed} {side}: {runs[side][-1]}", file=sys.stderr)
        entry = {side: summary(r) for side, r in runs.items()}
        entry["median_change_pct"] = {
            name: 100 * (entry["head"][name]["median"] / entry["base"][name]["median"] - 1)
            for name in entry["head"]
        }
        entry["traced_seed0"] = {
            side: bench(checkout, workload, 0, seconds, 1) for side, checkout in sides.items()
        }
        workloads[workload] = entry

    payload = {
        "tag": args.tag,
        "base": args.base_label,
        "head": args.head_label,
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "seeds": list(SEEDS),
        "run_seconds": seconds,
        "workloads": workloads,
        "tier1_wall_s": {side: tier1_seconds(checkout) for side, checkout in sides.items()},
    }
    out = HEAD / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
