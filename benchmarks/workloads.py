"""Task lists of the four benchmark workloads and the checks on their outputs.

A workload is a fixed list of slots.  Each slot has a default task, which
seed 0 runs, and the variants that other seeds pick from: p among the
residues coprime to the slot's fixed q, or a location from a pool of
quadratic irrationals.  Keeping q fixed keeps a slot's cost and node-hit
fraction the same for every seed.

A task builds its configuration and test function afresh each time it runs,
so no LimitProfile or config object is shared between timed tasks: every
compare pays the profile build that a CLI user pays.  Tasks call into the
package through module attributes (``harness.compare``, ``cli.main``, ...),
which is where the traced run puts its wrappers.

Each task reduces its raw output to a digest of plain JSON values and checks
it against ``reference.json``; ``make_reference.py`` writes that file for
every variant of every slot.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from jumpspectra import cli, harness, theory
from jumpspectra.density import IntervalUnion
from jumpspectra.harness import ExperimentConfig
from jumpspectra.piecewise import ContinuousPart, from_steps
from jumpspectra.specfun import lagrange_profile, shepard_profile
from jumpspectra.theory import Irrational

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Tolerances against the reference.  Closed-form or reordered arithmetic in
# specfun and the sweeps moves values by at most ~1e-13; a wrong sweep moves
# cluster centers by far more than 1e-9.
TOL_ATOM = 1e-10
TOL_EMPIRICAL = 1e-9

# Badly approximable locations, so that every declared-irrational compare
# sees an equidistributed offset sequence at the benchmark's n_max.
IRRATIONALS = {
    "sqrt2-1": math.sqrt(2) - 1,
    "sqrt2/2": math.sqrt(2) / 2,
    "(sqrt5-1)/2": (math.sqrt(5) - 1) / 2,
    "(3-sqrt5)/2": (3 - math.sqrt(5)) / 2,
    "sqrt3-1": math.sqrt(3) - 1,
    "sqrt3/3": math.sqrt(3) / 3,
    "sqrt5-2": math.sqrt(5) - 2,
}

SPECTRA_MAX_Q = 24
SHEPARD_TABLE_S = (1.5, 2.0, 3.0, 5.0)
SET_INDEX_LOWS = tuple(round(0.03 * j, 2) for j in range(30))
SET_INDEX_WIDTH = 0.1
PROFILE_GRID_POINTS = 100_000
PROFILE_SAMPLE_STRIDE = 1000
REDUCED_FRACTIONS = tuple(
    (p, q) for q in range(2, SPECTRA_MAX_Q + 1) for p in range(1, q) if math.gcd(p, q) == 1
)


def _close(label: str, got, ref, tol: float) -> list[str]:
    if len(got) != len(ref):
        return [f"{label}: {len(got)} values, reference has {len(ref)}"]
    worst = max((abs(a - b) for a, b in zip(got, ref)), default=0.0)
    return [f"{label}: off the reference by {worst:.3g} > {tol:g}"] if worst > tol else []


def report_digest(report: dict) -> dict:
    """The checked fields of a ComparisonReport.to_dict()."""
    return {
        "passed": report["pass"],
        "atoms": [a["value"] for a in report["predicted"]["atoms"]],
        "atom_indices": [
            f"{a['index_num']}/{a['index_den']}" for a in report["predicted"]["atoms"]
        ],
        "centers": [c["center"] for c in report["empirical"]["clusters"]],
        "value_errors": [m["value_error"] for m in report["matching"]],
        "index_errors": [m["index_error"] for m in report["matching"]],
        "ks": report["ks_distance"],
    }


def check_report(got: dict, ref: dict) -> list[str]:
    errors = [] if got["passed"] else ["compare did not pass"]
    errors += _close("atom values", got["atoms"], ref["atoms"], TOL_ATOM)
    if got["atom_indices"] != ref["atom_indices"]:
        errors.append(f"atom indices {got['atom_indices']} != {ref['atom_indices']}")
    errors += _close("cluster centers", got["centers"], ref["centers"], TOL_EMPIRICAL)
    errors += _close("value errors", got["value_errors"], ref["value_errors"], TOL_EMPIRICAL)
    if (got["ks"] is None) != (ref["ks"] is None):
        errors.append(f"ks distance {got['ks']} where the reference has {ref['ks']}")
    elif got["ks"] is not None:
        errors += _close("ks distance", [got["ks"]], [ref["ks"]], TOL_EMPIRICAL)
    return errors


# ---------------------------------------------------------------------------
# task kinds
# ---------------------------------------------------------------------------

class _Task:
    def reference(self, digest: dict) -> dict:
        """The reference entry that make_reference.py stores for a digest."""
        return digest


@dataclass(frozen=True)
class Compare(_Task):
    """harness.compare on one freshly built configuration."""

    key: str
    config: Callable[[], ExperimentConfig]

    def run(self, workdir: Path):
        return harness.compare(self.config())

    def digest(self, report, workdir: Path) -> dict:
        return report_digest(report.to_dict())

    def check(self, got: dict, ref: dict) -> list[str]:
        return check_report(got, ref)


@dataclass(frozen=True)
class PredictTable(_Task):
    """harness.predict, as the CLI calls it, for every reduced p/q with q <= 24."""

    key: str
    operator: str
    s: float = 2.0

    def run(self, workdir: Path):
        return [
            (p, q, harness.predict(ExperimentConfig(self.operator, Fraction(p, q), s=self.s)))
            for p, q in REDUCED_FRACTIONS
        ]

    def digest(self, spectra, workdir: Path) -> dict:
        return {
            f"{p}/{q}": [[a.value, f"{a.index.numerator}/{a.index.denominator}"] for a in sp.atoms]
            for p, q, sp in spectra
        }

    def check(self, got: dict, ref: dict) -> list[str]:
        # the atom set at p/q depends on q alone, so the reference holds one per q
        errors = []
        for pq, atoms in got.items():
            want = ref[pq.split("/")[1]]
            errors += _close(f"atoms at {pq}", [a[0] for a in atoms], [a[0] for a in want], TOL_ATOM)
            if [a[1] for a in atoms] != [a[1] for a in want]:
                errors.append(f"atom indices at {pq} differ from the reference")
        if len(got) != len(REDUCED_FRACTIONS):
            errors.append(f"{len(got)} spectra, expected {len(REDUCED_FRACTIONS)}")
        return errors

    def reference(self, digest: dict) -> dict:
        by_q: dict[str, list] = {}
        for pq, atoms in digest.items():
            q = pq.split("/")[1]
            if by_q.setdefault(q, atoms) != atoms:
                raise ValueError(f"atoms at {pq} differ from another p with the same q")
        return by_q


@dataclass(frozen=True)
class SetIndex(_Task):
    """predicted_set_index of one declared-irrational spectrum over 30 intervals."""

    key: str
    config: Callable[[], ExperimentConfig]

    def run(self, workdir: Path):
        spectrum = harness.predict(self.config())
        return [
            theory.predicted_set_index(
                spectrum, IntervalUnion(((lo, lo + SET_INDEX_WIDTH),))
            )
            for lo in SET_INDEX_LOWS
        ]

    def digest(self, measures, workdir: Path) -> dict:
        return {"measures": measures}

    def check(self, got: dict, ref: dict) -> list[str]:
        return _close("set indices", got["measures"], ref["measures"], TOL_EMPIRICAL)


@dataclass(frozen=True)
class ProfileCurve(_Task):
    """LimitProfile.eval_many on a 1e5-point grid: the curve behind a figure."""

    key: str
    profile: Callable

    def run(self, workdir: Path):
        xs = (np.arange(PROFILE_GRID_POINTS) + 0.5) / PROFILE_GRID_POINTS
        return self.profile().eval_many(xs)

    def digest(self, ys, workdir: Path) -> dict:
        return {
            "points": int(ys.size),
            "samples": ys[::PROFILE_SAMPLE_STRIDE].tolist(),
            "sum": float(np.sum(ys)),
        }

    def check(self, got: dict, ref: dict) -> list[str]:
        errors = [] if got["points"] == ref["points"] else ["wrong number of points"]
        errors += _close("profile samples", got["samples"], ref["samples"], TOL_ATOM)
        return errors + _close("profile sum", [got["sum"]], [ref["sum"]], TOL_ATOM * got["points"])


@dataclass(frozen=True)
class CliRun(_Task):
    """``jumpspectra run --format csv`` through cli.main, in process."""

    key: str
    argv: tuple[str, ...]

    def run(self, workdir: Path):
        out = workdir / "run.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([*self.argv, "--format", "csv", "--out", str(out)])

    def digest(self, exit_code: int, workdir: Path) -> dict:
        with open(workdir / "run.csv", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        columns = [header.index(c) for c in ("n", "sigma_num", "sigma_den", "is_node")]
        exact = "\n".join(",".join(row[i] for i in columns) for row in rows)
        return {
            "exit_code": exit_code,
            "header": header,
            "rows": len(rows),
            "nodes": sum(row[columns[3]] == "1" for row in rows),
            "sigma_sha256": hashlib.sha256(exact.encode()).hexdigest(),
        }

    def check(self, got: dict, ref: dict) -> list[str]:
        return [f"{k}: {got[k]!r} != reference {ref[k]!r}" for k in ref if got[k] != ref[k]]


@dataclass(frozen=True)
class CliCompare(_Task):
    """``jumpspectra compare --out report.json`` through cli.main, in process."""

    key: str
    argv: tuple[str, ...]

    def run(self, workdir: Path):
        out = workdir / "compare.json"
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([*self.argv, "--out", str(out)])

    def digest(self, exit_code: int, workdir: Path) -> dict:
        with open(workdir / "compare.json") as fh:
            report = json.load(fh)["report"]
        return {"exit_code": exit_code, **report_digest(report)}

    def check(self, got: dict, ref: dict) -> list[str]:
        errors = [] if got["exit_code"] == 0 else [f"exit code {got['exit_code']}"]
        return errors + check_report(got, ref)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Slot:
    default: object
    variants: tuple


def _coprime(q: int) -> list[int]:
    return [p for p in range(1, q) if math.gcd(p, q) == 1]


def _rational_slot(make, q: int, default_p: int) -> Slot:
    return Slot(make(default_p), tuple(make(p) for p in _coprime(q)))


def _irrational_slot(make, default: str) -> Slot:
    return Slot(make(default), tuple(make(name) for name in IRRATIONALS))


def _lagrange_step(p: int, q: int, n_max: int, d: float) -> Compare:
    return Compare(
        f"lagrange/step/theta={p}/{q}/N={n_max}/d={d}",
        partial(ExperimentConfig, "lagrange", Fraction(p, q), d=d, n_max=n_max),
    )


def _two_jump_config(p: int, at_second: bool) -> ExperimentConfig:
    # the function of acceptance criterion 7: x^2 with jumps at cos(pi/2) and
    # cos(pi*p/3); the compare runs at one of them
    x1 = math.cos(math.pi * p / 3)
    f = from_steps(
        ContinuousPart((0.0, 0.0, 1.0)), [(0.0, 1.0, 0.3), (x1, -0.5, 0.6)], (-1.0, 1.0)
    )
    location, x = (Fraction(p, 3), x1) if at_second else (Fraction(1, 2), 0.0)
    jump_index = [j.x_float for j in f.jumps].index(x)
    return ExperimentConfig(
        "lagrange", location, fn=f, jump_index=jump_index, n_max=3000, value_tol=5e-3
    )


def _two_jump(p: int, at_second: bool) -> Compare:
    at = f"{p}/3" if at_second else "1/2"
    return Compare(
        f"lagrange/two-jump/second=cos(pi*{p}/3)/theta={at}/N=3000",
        partial(_two_jump_config, p, at_second),
    )


def _lagrange_irrational(name: str) -> Compare:
    return Compare(
        f"lagrange/step/theta={name}/N=2000",
        partial(ExperimentConfig, "lagrange", Irrational(IRRATIONALS[name]), n_max=2000),
    )


def _shepard_step(p: int, q: int, s: float, n_max: int, **extra) -> Compare:
    suffix = "".join(f"/{k}={v}" for k, v in extra.items())
    return Compare(
        f"shepard/step/s={s}/x0={p}/{q}/N={n_max}{suffix}",
        partial(ExperimentConfig, "shepard", Fraction(p, q), s=s, n_max=n_max, **extra),
    )


def _linear_base_config(p: int) -> ExperimentConfig:
    f = from_steps(ContinuousPart((0.0, 1.0)), [(Fraction(p, 3), 1.0, 0.8)], (0.0, 1.0))
    return ExperimentConfig("shepard", Fraction(p, 3), s=2.0, fn=f, n_max=2000)


def _linear_base(p: int) -> Compare:
    return Compare(f"shepard/linear-base/s=2.0/x0={p}/3/N=2000", partial(_linear_base_config, p))


def _shepard_irrational(s: float, name: str) -> Compare:
    return Compare(
        f"shepard/step/s={s}/x0={name}/N=5000",
        partial(ExperimentConfig, "shepard", Irrational(IRRATIONALS[name]), s=s, n_max=5000),
    )


_S1 = ("--operator", "shepard", "--s", "1", "--d", "-0.25")


def _cli_run(p: int) -> CliRun:
    return CliRun(
        f"cli-run/shepard/s=1/x0={p}/3/N=50000/d=-0.25",
        ("run", *_S1, "--x0-num", str(p), "--x0-den", "3", "--n-max", "50000"),
    )


def _cli_compare(p: int) -> CliCompare:
    return CliCompare(
        f"cli-compare/shepard/s=1/x0={p}/3/N=20000/d=-0.25/gap=0.15",
        ("compare", *_S1, "--x0-num", str(p), "--x0-den", "3", "--n-max", "20000",
         "--gap", "0.15"),
    )


def _set_index(operator: str, name: str) -> SetIndex:
    # the spectrum of a declared-irrational location does not depend on the
    # location, so every pool member shares one reference entry
    return SetIndex(
        f"set-index/{operator}/irrational",
        partial(ExperimentConfig, operator, Irrational(IRRATIONALS[name]), s=2.0),
    )


WORKLOADS: dict[str, list[Slot]] = {
    "lagrange_sweep": [
        _rational_slot(lambda p: _lagrange_step(p, 3, 3000, 0.3), 3, 1),
        _rational_slot(lambda p: _lagrange_step(p, 2, 2000, -0.25), 2, 1),
        _rational_slot(lambda p: _two_jump(p, at_second=False), 3, 1),
        _rational_slot(lambda p: _two_jump(p, at_second=True), 3, 1),
        _irrational_slot(_lagrange_irrational, "sqrt2-1"),
    ],
    "shepard_sweep": [
        _rational_slot(lambda p: _shepard_step(p, 3, 2.0, 10_000), 3, 1),
        _rational_slot(lambda p: _shepard_step(p, 5, 3.0, 10_000), 5, 2),
        _rational_slot(_linear_base, 3, 1),
        _irrational_slot(partial(_shepard_irrational, 2.0), "sqrt2/2"),
        _irrational_slot(partial(_shepard_irrational, 5.0), "sqrt2/2"),
    ],
    "spectra_table": [
        Slot(PredictTable("predict/lagrange", "lagrange"), ()),
        *(Slot(PredictTable(f"predict/shepard/s={s}", "shepard", s), ()) for s in SHEPARD_TABLE_S),
        _irrational_slot(partial(_set_index, "lagrange"), "sqrt2-1"),
        _irrational_slot(partial(_set_index, "shepard"), "sqrt2/2"),
        Slot(ProfileCurve("profile/lagrange", lagrange_profile), ()),
        Slot(ProfileCurve("profile/shepard/s=2.0", partial(shepard_profile, 2.0)), ()),
    ],
    "long_prefix": [
        _rational_slot(
            lambda p: _shepard_step(p, 3, 1.0, 1_000_000, d=-0.25, gap=0.15), 3, 1
        ),
        # offsets 1/5 and 4/5 reach 1/2 at a logarithmic rate: at N=1e6 their
        # cluster still sits 0.023 from it, past the default s=1 value_tol
        _rational_slot(
            lambda p: _shepard_step(p, 5, 1.0, 1_000_000, d=-0.25, gap=0.15, value_tol=0.03),
            5,
            2,
        ),
        _rational_slot(_cli_run, 3, 1),
        _rational_slot(_cli_compare, 3, 1),
    ],
}

# one small untimed task run before timing starts
WARM_UP = _lagrange_step(1, 3, 200, 0.3)


def tasks_for(workload: str, seed: int) -> list:
    """The workload's task list for a seed; seed 0 runs every slot's default."""
    rng = random.Random(seed)
    return [
        slot.default if seed == 0 or not slot.variants else rng.choice(slot.variants)
        for slot in WORKLOADS[workload]
    ]


def all_variants() -> list:
    """Every task any seed can run, one per reference key."""
    tasks = {}
    for slots in WORKLOADS.values():
        for slot in slots:
            for task in (slot.default, *slot.variants):
                tasks.setdefault(task.key, task)
    return list(tasks.values())


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def check(task, digest: dict, reference: dict) -> list[str]:
    """Every way the digest of one task run differs from the reference."""
    if "error" in digest:
        return [digest["error"]]
    if task.key not in reference:
        return [f"no reference for {task.key}"]
    return task.check(digest, reference[task.key])
