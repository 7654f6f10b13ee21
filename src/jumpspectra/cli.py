"""Command-line interface.

Subcommands:
  run       evaluate an operator sequence at a jump, write CSV or JSON rows
  compare   run + cluster + grade against the predicted spectrum
  predict   print the predicted spectrum as JSON
  zeta      ad-hoc special-function evaluation (zeta, J, g, g_s)
  selftest  run the built-in invariant suite

Exit codes: 0 success / comparison pass, 1 comparison fail, 2 configuration
error, 3 numeric precondition failure (profile monotonicity gate).

Flags mirror ExperimentConfig fields; an optional --config JSON file
supplies defaults that individual flags override.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .harness import (
    ComparisonReport,
    ConfigError,
    ExperimentConfig,
    compare,
    predict,
    run_sequence,
    write_comparison_json,
    write_run_csv,
    write_run_json,
)
from .piecewise import load_descriptor
from .selftest import run_selftest
from .specfun import (
    ProfileMonotonicityError,
    g_lagrange,
    g_shepard,
    hurwitz_zeta,
    lerch_j,
)
from .theory import Irrational

EXIT_OK = 0
EXIT_COMPARE_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with default flag values")
    p.add_argument("--operator", choices=["lagrange", "shepard"])
    p.add_argument("--s", type=float, help="shepard exponent (s >= 1)")
    p.add_argument("--theta-num", type=int, help="lagrange: theta0/pi numerator")
    p.add_argument("--theta-den", type=int, help="lagrange: theta0/pi denominator")
    p.add_argument("--x0-num", type=int, help="shepard: x0 numerator")
    p.add_argument("--x0-den", type=int, help="shepard: x0 denominator")
    p.add_argument("--location", type=float, help="float location (with --irrational)")
    p.add_argument("--irrational", action="store_true",
                   help="treat --location as declared irrational")
    p.add_argument("--fn", help="function descriptor file (JSON)")
    p.add_argument("--jump", type=int, help="jump index inside the descriptor")
    p.add_argument("--d", type=float, help="point value of the default unit step")
    p.add_argument("--n-max", type=int)
    p.add_argument("--stride", type=int)
    p.add_argument("--gap", type=float)
    p.add_argument("--tail-fraction", type=float)
    p.add_argument("--value-tol", type=float)
    p.add_argument("--index-tol", type=float)
    p.add_argument("--ks-tol", type=float)
    p.add_argument("--format", choices=["csv", "json"])
    p.add_argument("--out", help="output path")


def _merged_options(args) -> dict:
    opts: dict = {}
    if args.config:
        with open(args.config) as fh:
            opts.update(json.load(fh))
    for key, value in vars(args).items():
        if key in ("config", "command") or value is None or value is False:
            continue
        opts[key.replace("_", "-")] = value
    return opts


def _location_from_options(opts, operator: str):
    if opts.get("theta-num") is not None or opts.get("theta-den") is not None:
        if operator != "lagrange":
            raise ConfigError("location: --theta-num/--theta-den require --operator lagrange")
        if opts.get("theta-num") is None or opts.get("theta-den") is None:
            raise ConfigError("location: both --theta-num and --theta-den are required")
        return Fraction(int(opts["theta-num"]), int(opts["theta-den"]))
    if opts.get("x0-num") is not None or opts.get("x0-den") is not None:
        if operator != "shepard":
            raise ConfigError("location: --x0-num/--x0-den require --operator shepard")
        if opts.get("x0-num") is None or opts.get("x0-den") is None:
            raise ConfigError("location: both --x0-num and --x0-den are required")
        return Fraction(int(opts["x0-num"]), int(opts["x0-den"]))
    if opts.get("location") is not None:
        if not opts.get("irrational"):
            raise ConfigError(
                "location: float locations must carry --irrational (use the "
                "num/den flags for exact rationals)"
            )
        return Irrational(float(opts["location"]))
    raise ConfigError("location: one of --theta-num/--theta-den, --x0-num/--x0-den, "
                      "or --location --irrational is required")


def _config_from_options(opts) -> ExperimentConfig:
    operator = opts.get("operator")
    if operator is None:
        raise ConfigError("operator: required")
    location = _location_from_options(opts, operator)
    cfg = ExperimentConfig(operator=operator, location=location)
    if opts.get("s") is not None:
        cfg.s = float(opts["s"])
    if opts.get("fn"):
        cfg.fn = load_descriptor(opts["fn"])
        cfg.jump_index = int(opts.get("jump", 0))
    if opts.get("d") is not None:
        cfg.d = float(opts["d"])
    if opts.get("n-max") is not None:
        cfg.n_max = int(opts["n-max"])
    if opts.get("stride") is not None:
        cfg.stride = int(opts["stride"])
    if opts.get("gap") is not None:
        cfg.gap = float(opts["gap"])
    if opts.get("tail-fraction") is not None:
        cfg.tail_fraction = float(opts["tail-fraction"])
    if opts.get("value-tol") is not None:
        cfg.value_tol = float(opts["value-tol"])
    if opts.get("index-tol") is not None:
        cfg.index_tol = float(opts["index-tol"])
    if opts.get("ks-tol") is not None:
        cfg.ks_tol = float(opts["ks-tol"])
    if opts.get("eps-grid") is not None:  # config-file only
        cfg.eps_grid = tuple(float(e) for e in opts["eps-grid"])
    if opts.get("index-floor") is not None:
        cfg.index_floor = float(opts["index-floor"])
    cfg.validate()
    return cfg


def _cmd_run(args) -> int:
    opts = _merged_options(args)
    cfg = _config_from_options(opts)
    prefix = run_sequence(cfg)
    fmt = opts.get("format", "csv")
    out = opts.get("out")
    if out is None:
        raise ConfigError("out: required for run")
    if fmt == "csv":
        write_run_csv(cfg, prefix, out)
    else:
        write_run_json(cfg, prefix, out)
    print(f"wrote {len(prefix.values)} rows to {out}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    opts = _merged_options(args)
    cfg = _config_from_options(opts)
    report: ComparisonReport = compare(cfg)
    out = opts.get("out")
    if out:
        write_comparison_json(cfg, report, out)
    summary = {
        "pass": report.passed,
        "n_atoms": len(report.predicted.atoms),
        "n_clusters": len(report.empirical.clusters),
        "ks_distance": report.ks_distance,
    }
    print(json.dumps(summary))
    return EXIT_OK if report.passed else EXIT_COMPARE_FAIL


def _cmd_predict(args) -> int:
    opts = _merged_options(args)
    cfg = _config_from_options(opts)
    spectrum = predict(cfg)
    text = json.dumps(spectrum.to_dict(), indent=2)
    if opts.get("out"):
        with open(opts["out"], "w") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


def _cmd_zeta(args) -> int:
    kind = args.kind
    if kind in ("zeta", "j"):
        ev = (hurwitz_zeta if kind == "zeta" else lerch_j)(args.s, args.a)
        print(json.dumps({"kind": kind, "s": ev.s, "a": ev.a, "value": ev.value}))
    elif kind == "g":
        print(json.dumps({"kind": kind, "x": args.x, "value": g_lagrange(args.x)}))
    else:
        print(json.dumps({"kind": kind, "s": args.s, "x": args.x,
                          "value": g_shepard(args.s, args.x)}))
    return EXIT_OK


def _cmd_selftest(_args) -> int:
    checks = run_selftest()
    ok = True
    for c in checks:
        status = "PASS" if c["ok"] else "FAIL"
        detail = f"  ({c['detail']})" if c["detail"] else ""
        print(f"[{status}] {c['name']}{detail}")
        ok = ok and c["ok"]
    return EXIT_OK if ok else EXIT_COMPARE_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jumpspectra",
        description="Operator sequences at jump discontinuities: runs, "
                    "cluster detection, and predicted-spectrum comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("run", _cmd_run), ("compare", _cmd_compare), ("predict", _cmd_predict)):
        p = sub.add_parser(name)
        _add_experiment_flags(p)
        p.set_defaults(func=fn)
    pz = sub.add_parser("zeta", help="ad-hoc special function evaluation")
    pz.add_argument("--kind", choices=["zeta", "j", "g", "gs"], required=True)
    pz.add_argument("--s", type=float, default=2.0)
    pz.add_argument("--a", type=float, default=1.0)
    pz.add_argument("--x", type=float, default=0.5)
    pz.set_defaults(func=_cmd_zeta)
    ps = sub.add_parser("selftest", help="run the built-in invariant suite")
    ps.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ProfileMonotonicityError as exc:
        print(f"numeric precondition failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
