"""Command-line interface.

Subcommands:
  run       evaluate an operator sequence at a jump, write CSV or JSON rows
  compare   run + cluster + grade against the predicted spectrum
  predict   print the predicted spectrum as JSON
  zeta      ad-hoc special-function evaluation (zeta, J, g, g_s)
  selftest  run the built-in invariant suite

Exit codes: 0 success / comparison pass, 1 comparison fail, 2 configuration
error (bad flags, config file or descriptor, or a file that cannot be read
or written), 3 numeric precondition failure (profile monotonicity gate),
4 internal fault (any other exception; its traceback goes to stderr).

One table, _TABLE, names every experiment flag and config key.  An optional
--config JSON file supplies defaults that the flags given override, and may
name only the table's keys: the flags, eps-grid and index-floor.  A flag's
string and a config value take the same converter from the table.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from fractions import Fraction

from .harness import (
    LAGRANGE,
    SHEPARD,
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
EXIT_INTERNAL = 4


def _of(*types):
    """A converter that takes a value of one of types, a bool only where
    bool is one of them, and returns it as types[0]: nothing is truncated."""
    def convert(value):
        if isinstance(value, bool) is not (bool in types) or not isinstance(value, types):
            raise TypeError(f"{value!r} is not of type {types[0].__name__}")
        return types[0](value)
    return convert


_integer, _real, _string, _boolean = _of(int, str), _of(float, int, str), _of(str), _of(bool)


def _reals(value) -> tuple:
    return tuple(map(_real, _of(list)(value)))


# key -> (ExperimentConfig field or None, converter, flag help).  A flag's
# string and a --config file's JSON value take the same converter.  Keys
# with no field are read by _location and the subcommands; a key with no
# help has no flag and comes only from a --config file.
_TABLE = {
    "operator": ("operator", _string, "lagrange or shepard"),
    "s": ("s", _real, "shepard exponent (1 <= s <= 20)"),
    "theta-num": (None, _integer, "lagrange: theta0/pi numerator"),
    "theta-den": (None, _integer, "lagrange: theta0/pi denominator"),
    "x0-num": (None, _integer, "shepard: x0 numerator"),
    "x0-den": (None, _integer, "shepard: x0 denominator"),
    "location": (None, _real, "float location (with --irrational)"),
    "irrational": (None, _boolean, "treat --location as declared irrational"),
    "fn": ("fn", lambda v: load_descriptor(_string(v)), "function descriptor file (JSON)"),
    "jump": ("jump_index", _integer, "jump index inside the descriptor"),
    "d": ("d", _real, "point value of the default unit step"),
    "n-max": ("n_max", _integer, "orders n run up to n-max (>= 64)"),
    "stride": ("stride", _integer, "step between orders"),
    "gap": ("gap", _real, "gap that separates clusters"),
    "tail-fraction": ("tail_fraction", _real, "share of the last orders clustered"),
    "value-tol": ("value_tol", _real, "atom value tolerance"),
    "index-tol": ("index_tol", _real, "atom index tolerance"),
    "ks-tol": ("ks_tol", _real, "KS distance tolerance"),
    "eps-grid": ("eps_grid", _reals, None),
    "index-floor": ("index_floor", _real, None),
    "format": (None, _string, "csv or json"),
    "out": (None, _string, "output path"),
}


def _location(opts):
    """The exact p/q of the operator's num/den pair, or a float declared
    irrational."""
    for num, den, operator in (("theta-num", "theta-den", LAGRANGE),
                               ("x0-num", "x0-den", SHEPARD)):
        if num in opts or den in opts:
            if opts["operator"] != operator:
                raise ConfigError(f"location: --{num}/--{den} require --operator {operator}")
            if num not in opts or den not in opts:
                raise ConfigError(f"location: both --{num} and --{den} are required")
            if opts[den] == 0:
                raise ConfigError(f"{den}: must be nonzero")
            return Fraction(opts[num], opts[den])
    if "location" in opts:
        if not opts.get("irrational"):
            raise ConfigError("location: float locations must carry --irrational (use "
                              "the num/den flags for exact rationals)")
        return Irrational(opts["location"])
    raise ConfigError("location: one of --theta-num/--theta-den, --x0-num/--x0-den, "
                      "or --location --irrational is required")


def _experiment(args) -> tuple[dict, ExperimentConfig]:
    """The --config values under the flags given, each through its table
    converter, and the ExperimentConfig they describe."""
    raw: dict = {}
    if args.config:
        with open(args.config) as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:
                raise ConfigError(f"config: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config: must be a JSON object")
        unknown = sorted(set(raw) - set(_TABLE))
        if unknown:
            raise ConfigError(f"config: unknown keys {unknown}")
    raw.update((k, v) for k, v in vars(args).items() if k in _TABLE and v is not None)
    opts = {}
    for key, value in raw.items():
        if value is not None:  # a descriptor that lacks a key raises KeyError
            try:
                opts[key] = _TABLE[key][1](value)
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"{key}: {exc!r}") from exc
    if "operator" not in opts:
        raise ConfigError("operator: required")
    fields = {field: opts[key] for key, (field, _, _) in _TABLE.items()
              if field is not None and key in opts}
    return opts, ExperimentConfig(location=_location(opts), **fields)


def _cmd_run(args) -> int:
    opts, cfg = _experiment(args)
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
    opts, cfg = _experiment(args)
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
    opts, cfg = _experiment(args)
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
        p.set_defaults(func=fn)
        p.add_argument("--config", help="JSON file with default flag values")
        for key, (_, convert, help_text) in _TABLE.items():
            if help_text is not None:
                switch = {"action": "store_true"} if convert is _boolean else {}
                p.add_argument(f"--{key}", dest=key, default=None, help=help_text, **switch)
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ProfileMonotonicityError as exc:
        print(f"numeric precondition failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except Exception:  # the CLI's boundary: report the fault with its traceback
        print(f"internal fault:\n{traceback.format_exc()}", end="", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
