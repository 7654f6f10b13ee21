"""Command-line interface.

Subcommands:
  run       evaluate an operator sequence at a jump, write CSV or JSON rows
  compare   run + cluster + grade against the predicted spectrum
  predict   print the predicted spectrum as JSON
  zeta      ad-hoc special-function evaluation (zeta, J, g, g_s)
  selftest  run the built-in invariant suite

Exit codes: 0 success / comparison pass, 1 comparison fail, 2 configuration
error (bad flags, config file or descriptor, or a file that cannot be read
or written), 3 numeric precondition failure (profile monotonicity gate).
Any other exception is an internal fault and propagates with its traceback.

Flags mirror ExperimentConfig fields; an optional --config JSON file
supplies defaults that individual flags override, and may name only flags,
eps-grid and index-floor.
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
    p.add_argument("--s", type=float, help="shepard exponent (1 <= s <= 20)")
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


# flag -> (ExperimentConfig field, converter); eps-grid and index-floor can
# only come from a --config file
_FIELDS = {
    "operator": ("operator", str),
    "s": ("s", float),
    "fn": ("fn", load_descriptor),
    "jump": ("jump_index", int),
    "d": ("d", float),
    "n-max": ("n_max", int),
    "stride": ("stride", int),
    "gap": ("gap", float),
    "tail-fraction": ("tail_fraction", float),
    "value-tol": ("value_tol", float),
    "index-tol": ("index_tol", float),
    "ks-tol": ("ks_tol", float),
    "eps-grid": ("eps_grid", lambda v: tuple(float(e) for e in v)),
    "index-floor": ("index_floor", float),
}


def _converted(opts, flag: str, convert):
    """convert(opts[flag]); a value it cannot take is a ConfigError."""
    try:
        return convert(opts[flag])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{flag}: {exc!r}") from exc


def _merged_options(args) -> dict:
    flags = {key.replace("_", "-") for key in vars(args)} - {"config", "command", "func"}
    opts: dict = {}
    if args.config:
        with open(args.config) as fh:
            try:
                config = json.load(fh)
            except ValueError as exc:
                raise ConfigError(f"config: {exc}") from exc
        if not isinstance(config, dict):
            raise ConfigError("config: must be a JSON object")
        unknown = sorted(set(config) - flags - set(_FIELDS))
        if unknown:
            raise ConfigError(f"config: unknown keys {unknown}")
        opts.update(config)
    for key, value in vars(args).items():
        if key in ("config", "command") or value is None or value is False:
            continue
        opts[key.replace("_", "-")] = value
    return opts


def _rational(opts, num: str, den: str) -> Fraction:
    if opts.get(num) is None or opts.get(den) is None:
        raise ConfigError(f"location: both --{num} and --{den} are required")
    q = _converted(opts, den, int)
    if q == 0:
        raise ConfigError(f"{den}: must be nonzero")
    return Fraction(_converted(opts, num, int), q)


def _location_from_options(opts, operator: str):
    if opts.get("theta-num") is not None or opts.get("theta-den") is not None:
        if operator != "lagrange":
            raise ConfigError("location: --theta-num/--theta-den require --operator lagrange")
        return _rational(opts, "theta-num", "theta-den")
    if opts.get("x0-num") is not None or opts.get("x0-den") is not None:
        if operator != "shepard":
            raise ConfigError("location: --x0-num/--x0-den require --operator shepard")
        return _rational(opts, "x0-num", "x0-den")
    if opts.get("location") is not None:
        if not opts.get("irrational"):
            raise ConfigError(
                "location: float locations must carry --irrational (use the "
                "num/den flags for exact rationals)"
            )
        return Irrational(_converted(opts, "location", float))
    raise ConfigError("location: one of --theta-num/--theta-den, --x0-num/--x0-den, "
                      "or --location --irrational is required")


def _config_from_options(opts) -> ExperimentConfig:
    if opts.get("operator") is None:
        raise ConfigError("operator: required")
    kwargs = {
        field: _converted(opts, flag, convert)
        for flag, (field, convert) in _FIELDS.items()
        if opts.get(flag) is not None
    }
    location = _location_from_options(opts, kwargs["operator"])
    return ExperimentConfig(location=location, **kwargs)


def _cmd_run(args) -> int:
    opts = _merged_options(args)
    cfg = _config_from_options(opts)
    fmt = opts.get("format", "csv")
    out = opts.get("out")
    if out is None:
        raise ConfigError("out: required for run")
    if fmt not in ("csv", "json"):
        raise ConfigError("format: must be 'csv' or 'json'")
    prefix = run_sequence(cfg)
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
    try:
        if kind in ("zeta", "j"):
            ev = (hurwitz_zeta if kind == "zeta" else lerch_j)(args.s, args.a)
            result = {"kind": kind, "s": ev.s, "a": ev.a, "value": ev.value}
        elif kind == "g":
            result = {"kind": kind, "x": args.x, "value": g_lagrange(args.x)}
        else:
            result = {"kind": kind, "s": args.s, "x": args.x,
                      "value": g_shepard(args.s, args.x)}
    except ValueError as exc:  # an argument outside the function's domain
        raise ConfigError(str(exc)) from exc
    print(json.dumps(result))
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
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
