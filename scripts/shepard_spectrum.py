#!/usr/bin/env python3
"""Reproduce the Shepard limit spectrum at a rational or irrational x0.

Rational locations compare detected clusters against the predicted atoms;
irrational locations check the profile-inverted tail values against the
uniform distribution (Kolmogorov-Smirnov).

    python scripts/shepard_spectrum.py --s 2 --p 1 --q 3 --n-max 3000
    python scripts/shepard_spectrum.py --s 2 --x0 0.7071067811865476 --n-max 5000
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
from jumpspectra.theory import Irrational


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--s", type=float, default=2.0)
    ap.add_argument("--p", type=int)
    ap.add_argument("--q", type=int)
    ap.add_argument("--x0", type=float, help="declared-irrational location")
    ap.add_argument("--d", type=float, default=0.3)
    ap.add_argument("--n-max", type=int, default=3000)
    ap.add_argument("--gap", type=float, help="cluster gap override (s=1 runs need ~0.15)")
    ap.add_argument("--out-dir", default="out")
    args = ap.parse_args()

    if args.x0 is not None:
        location = Irrational(args.x0)
        tag = f"shepard_s{args.s}_x{args.x0:.6f}_n{args.n_max}"
    elif args.p is not None and args.q is not None:
        location = Fraction(args.p, args.q)
        tag = f"shepard_s{args.s}_p{args.p}_q{args.q}_n{args.n_max}"
    else:
        ap.error("give either --p/--q or --x0")

    cfg = ExperimentConfig(
        operator="shepard",
        location=location,
        s=args.s,
        n_max=args.n_max,
        d=args.d,
        gap=args.gap,
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    report = compare(cfg)
    write_run_csv(cfg, report.prefix, out / f"{tag}.csv")
    write_comparison_json(cfg, report, out / f"{tag}.json")

    print(json.dumps(report.predicted.to_dict(), indent=2))
    if report.ks_distance is not None:
        print(f"KS distance vs uniform: {report.ks_distance:.5f}")
    for cluster in report.empirical.clusters:
        print(
            f"cluster center={cluster.center:+.6f} "
            f"index={cluster.empirical_index:.4f} count={cluster.count}"
        )
    print(f"pass={report.passed}  artifacts in {out}/")


if __name__ == "__main__":
    main()
