#!/usr/bin/env python3
"""Reproduce the Lagrange limit spectrum at a rational angle ratio.

Runs the interpolation sequence at the jump of a unit step located at
x0 = cos(pi p/q), clusters the values, compares against the predicted
atoms, and writes a CSV trace plus a JSON comparison report.

    python scripts/lagrange_spectrum.py --p 1 --q 3 --n-max 3000 --out-dir out
"""

import argparse
import json
from fractions import Fraction
from pathlib import Path

from jumpspectra.harness import (
    ExperimentConfig,
    compare,
    write_comparison_json,
    write_run_csv,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=1)
    ap.add_argument("--q", type=int, default=3)
    ap.add_argument("--d", type=float, default=0.3, help="step value at the jump")
    ap.add_argument("--n-max", type=int, default=3000)
    ap.add_argument("--out-dir", default="out")
    args = ap.parse_args()

    cfg = ExperimentConfig(
        operator="lagrange",
        location=Fraction(args.p, args.q),
        n_max=args.n_max,
        d=args.d,
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tag = f"lagrange_p{args.p}_q{args.q}_n{args.n_max}"

    report = compare(cfg)
    write_run_csv(cfg, report.prefix, out / f"{tag}.csv")
    write_comparison_json(cfg, report, out / f"{tag}.json")

    print(json.dumps(report.predicted.to_dict(), indent=2))
    for cluster in report.empirical.clusters:
        print(
            f"cluster center={cluster.center:+.6f} "
            f"index={cluster.empirical_index:.4f} count={cluster.count}"
        )
    print(f"pass={report.passed}  artifacts in {out}/")


if __name__ == "__main__":
    main()
