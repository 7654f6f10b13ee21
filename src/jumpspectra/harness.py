"""Experiment pipeline: run operator sequences at a jump, cluster the
values, compare against the predicted spectrum, and emit reports.

A run is fully determined by its ExperimentConfig and is deterministic
(bit-identical on reruns).  Operator evaluations across n are independent;
they are executed in index order so aggregated output never depends on
scheduling.

Comparison logic:
  * atomic spectra are matched to detected clusters greedily by nearest
    center value; the run passes when every predicted atom is matched
    within value_tol / index_tol and no unmatched cluster carries an index
    above the floor;
  * continuous spectra are checked by inverting the affine map and the
    limit profile on the tail values and measuring the Kolmogorov-Smirnov
    distance of the result against the uniform distribution.

CSV rows carry the node offset from piecewise.node_offsets, computed once
per run: exact and reduced (sigma_num/sigma_den) whenever the location is
rational, the float offset otherwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from . import piecewise
from .density import (
    DEFAULT_EPS_GRID,
    DEFAULT_GAP,
    DEFAULT_INDEX_FLOOR,
    DEFAULT_TAIL_FRACTION,
    Cluster,
    ClusterReport,
    SequencePrefix,
    _validate_grid,
    detect_clusters,
    tail_values,
)
from .lagrange import ChebyshevGrid, lagrange_at_jump
from .lagrange import sweep as lagrange_sweep
from .piecewise import JumpFunction, blocks, n_array, node_offsets, pure_step
from .shepard import ShepardConfig, shepard_at_jump, step_sweep
from .specfun import SHEPARD_S_MAX, SHEPARD_S_MIN
from .theory import (
    Irrational,
    PredictedSpectrum,
    predict_lagrange,
    predict_shepard,
)

LAGRANGE = "lagrange"
SHEPARD = "shepard"

DEFAULT_VALUE_TOL = 2e-3
DEFAULT_VALUE_TOL_S1 = 2e-2
DEFAULT_INDEX_TOL = 0.02
DEFAULT_KS_TOL = 0.05


class ConfigError(ValueError):
    """Invalid experiment configuration (reported with the offending field)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one operator run.

    location is the jump coordinate: for Lagrange the angle ratio
    theta0/pi, for Shepard the abscissa x0; either a Fraction (exact
    arithmetic drives node coincidences) or an Irrational marker with a
    float approximation.  fn defaults to the canonical unit step at the
    location with point value d.

    A config is validated once, at construction (ConfigError), and cannot
    be changed afterwards.
    """

    operator: str
    location: object
    s: float = 2.0
    fn: JumpFunction | None = None
    jump_index: int = 0
    d: float = 0.3
    n_max: int = 1000
    stride: int = 1
    eps_grid: tuple = DEFAULT_EPS_GRID
    gap: float = DEFAULT_GAP
    tail_fraction: float = DEFAULT_TAIL_FRACTION
    value_tol: float | None = None
    index_tol: float = DEFAULT_INDEX_TOL
    ks_tol: float = DEFAULT_KS_TOL
    index_floor: float = DEFAULT_INDEX_FLOOR

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.operator not in (LAGRANGE, SHEPARD):
            raise ConfigError(f"operator: must be '{LAGRANGE}' or '{SHEPARD}'")
        if not isinstance(self.location, (Fraction, Irrational)):
            raise ConfigError(
                "location: must be a Fraction or an Irrational marker"
            )
        # boundary locations make the jump non-interior; experiments
        # require a genuine interior discontinuity
        if not 0 < self.location_ratio() < 1:
            raise ConfigError("location: the ratio (theta0/pi or x0) must lie in (0, 1)")
        if self.operator == SHEPARD and not SHEPARD_S_MIN <= self.s <= SHEPARD_S_MAX:
            raise ConfigError(
                f"s: exponent must lie in [{SHEPARD_S_MIN:g}, {SHEPARD_S_MAX:g}]"
            )
        if self.n_max < 64:
            raise ConfigError("n_max: must be >= 64")
        if self.stride < 1:
            raise ConfigError("stride: must be >= 1")
        if not self.gap > 0:
            raise ConfigError("gap: must be positive")
        if not 0 < self.tail_fraction <= 1:
            raise ConfigError("tail_fraction: must be in (0, 1]")
        try:
            _validate_grid(self.eps_grid)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"eps_grid: {exc}") from exc
        if self.fn is not None:
            lo, hi = (-1.0, 1.0) if self.operator == LAGRANGE else (0.0, 1.0)
            if not (self.fn.domain[0] <= lo and hi <= self.fn.domain[1]):
                raise ConfigError(
                    f"fn: descriptor domain must contain [{lo:g}, {hi:g}], "
                    "where the operator samples"
                )
            if not 0 <= self.jump_index < len(self.fn.jumps):
                raise ConfigError("jump_index: out of range for the descriptor")
            declared = self.fn.jumps[self.jump_index].x_float
            if abs(declared - self.x0_float()) > 1e-9:
                raise ConfigError(
                    f"jump_index: descriptor jump at {declared} does not match "
                    f"location {self.x0_float()}"
                )

    def location_ratio(self):
        """The location as Fraction or float (angle ratio / abscissa)."""
        if isinstance(self.location, Fraction):
            return self.location
        return float(self.location.approx)

    def x0_float(self) -> float:
        ratio = float(self.location_ratio())
        if self.operator == LAGRANGE:
            return math.cos(math.pi * ratio)
        return ratio

    def resolved_fn(self) -> tuple[JumpFunction, int]:
        if self.fn is not None:
            return self.fn, self.jump_index
        if self.operator == LAGRANGE:
            return pure_step(self.x0_float(), self.d, piecewise.LEFT0_RIGHT1, (-1.0, 1.0)), 0
        x0 = self.location if isinstance(self.location, Fraction) else self.x0_float()
        return pure_step(x0, self.d, piecewise.LEFT1_RIGHT0, (0.0, 1.0)), 0

    def ns(self) -> range:
        return range(1, self.n_max + 1, self.stride)

    def resolved_value_tol(self) -> float:
        if self.value_tol is not None:
            return self.value_tol
        if self.operator == SHEPARD and self.s == 1.0:
            return DEFAULT_VALUE_TOL_S1
        return DEFAULT_VALUE_TOL

    def to_dict(self) -> dict:
        if isinstance(self.location, Fraction):
            loc = {"num": self.location.numerator, "den": self.location.denominator}
        else:
            loc = {"value": self.location.approx, "irrational": True}
        fn, jump_index = self.resolved_fn()
        out = {
            "operator": self.operator,
            "location": loc,
            "n_max": self.n_max,
            "stride": self.stride,
            "jump_index": jump_index,
            "fn": piecewise.to_descriptor_dict(fn),
            "gap": self.gap,
            "tail_fraction": self.tail_fraction,
            "value_tol": self.resolved_value_tol(),
            "index_tol": self.index_tol,
            "ks_tol": self.ks_tol,
        }
        if self.operator == SHEPARD:
            out["s"] = self.s
        return out


def run_sequence(cfg: ExperimentConfig) -> SequencePrefix:
    """Operator values at the selected jump for n = 1, 1+stride, ...

    Pure and deterministic: the value at each position depends only on the
    configuration.  Shepard values come from one step_sweep call when f is
    one jump on a constant base stored at the location, the default step
    or a descriptor, and from shepard_at_jump per order otherwise.
    Lagrange values come from one lagrange.sweep call, whose values are
    within rounding of lagrange_at_jump's at each n; the orders it does not
    serve (a trig base, n <= the degree of the polynomial base, a node near
    another jump) go through lagrange_at_jump one at a time.
    """
    f, i = cfg.resolved_fn()
    ns = cfg.ns()
    ratio = cfg.location_ratio()
    if cfg.operator == SHEPARD:
        # step_sweep evaluates at the stored location, so a step stored at
        # the location takes it, descriptor or not
        if f.step_limits is not None and f.jumps[i].x == ratio:
            values = step_sweep(f, cfg.s, ns)
        else:
            values = np.array(
                [shepard_at_jump(ShepardConfig(cfg.s, n), f, i, x0=ratio) for n in ns]
            )
        return SequencePrefix(values)
    served, values = lagrange_sweep(f, i, ratio, ns)
    for row in np.flatnonzero(~served).tolist():
        values[row] = lagrange_at_jump(ChebyshevGrid(ns[row]), f, i, ratio)
    return SequencePrefix(values)


def predict(cfg: ExperimentConfig) -> PredictedSpectrum:
    """Predicted spectrum for the configured jump and location."""
    f, i = cfg.resolved_fn()
    jump = f.jumps[i]
    if cfg.operator == LAGRANGE:
        return predict_lagrange(jump, cfg.location)
    return predict_shepard(jump, cfg.location, cfg.s)


def ks_uniform_distance(sample) -> float:
    """One-sample Kolmogorov-Smirnov distance against U(0, 1)."""
    u = np.sort(np.asarray(sample, dtype=float))
    if u.size == 0:
        raise ValueError("empty sample")
    i = np.arange(1, u.size + 1)
    return float(np.max(np.maximum(i / u.size - u, u - (i - 1) / u.size)))


@dataclass(frozen=True)
class MatchEntry:
    atom_value: float
    atom_index: Fraction
    cluster: Cluster
    value_error: float
    index_error: float


@dataclass
class ComparisonReport:
    """Outcome of compare; prefix is the graded sequence, left out of to_dict."""

    predicted: PredictedSpectrum
    empirical: ClusterReport
    matching: list[MatchEntry]
    unmatched_atoms: list
    unmatched_clusters: list[Cluster]
    ks_distance: float | None
    passed: bool
    tolerances: dict
    prefix: SequencePrefix

    def to_dict(self) -> dict:
        return {
            "predicted": self.predicted.to_dict(),
            "empirical": {
                "clusters": [
                    {
                        "center": c.center,
                        "empirical_index": c.empirical_index,
                        "count": c.count,
                    }
                    for c in self.empirical.clusters
                ],
                "unassigned_fraction": self.empirical.unassigned_fraction,
            },
            "matching": [
                {
                    "atom_value": m.atom_value,
                    "atom_index_num": m.atom_index.numerator,
                    "atom_index_den": m.atom_index.denominator,
                    "cluster_center": m.cluster.center,
                    "cluster_index": m.cluster.empirical_index,
                    "value_error": m.value_error,
                    "index_error": m.index_error,
                }
                for m in self.matching
            ],
            "unmatched_atoms": [
                {"value": a.value, "index_num": a.index.numerator,
                 "index_den": a.index.denominator}
                for a in self.unmatched_atoms
            ],
            "unmatched_clusters": [
                {"center": c.center, "empirical_index": c.empirical_index,
                 "count": c.count}
                for c in self.unmatched_clusters
            ],
            "ks_distance": self.ks_distance,
            "pass": self.passed,
            "tolerances": self.tolerances,
        }


def _greedy_match(atoms, clusters):
    pairs = sorted(
        (
            (abs(a.value - c.center), ia, ic)
            for ia, a in enumerate(atoms)
            for ic, c in enumerate(clusters)
        ),
    )
    used_a, used_c, matches = set(), set(), []
    for err, ia, ic in pairs:
        if ia in used_a or ic in used_c:
            continue
        used_a.add(ia)
        used_c.add(ic)
        a, c = atoms[ia], clusters[ic]
        matches.append(
            MatchEntry(
                atom_value=a.value,
                atom_index=a.index,
                cluster=c,
                value_error=err,
                index_error=abs(float(a.index) - c.empirical_index),
            )
        )
    unmatched_atoms = [a for ia, a in enumerate(atoms) if ia not in used_a]
    unmatched_clusters = [c for ic, c in enumerate(clusters) if ic not in used_c]
    return matches, unmatched_atoms, unmatched_clusters


def compare(cfg: ExperimentConfig) -> ComparisonReport:
    """Run the sequence, detect clusters, and grade against the prediction."""
    prefix = run_sequence(cfg)
    spectrum = predict(cfg)
    report = detect_clusters(
        prefix,
        gap=cfg.gap,
        tail_fraction=cfg.tail_fraction,
        index_floor=cfg.index_floor,
        eps_grid=cfg.eps_grid,
    )
    value_tol = cfg.resolved_value_tol()
    tolerances = {
        "value_tol": value_tol,
        "index_tol": cfg.index_tol,
        "ks_tol": cfg.ks_tol,
        "index_floor": cfg.index_floor,
    }
    if spectrum.continuous is not None:
        cont = spectrum.continuous
        t = (tail_values(prefix.values, cfg.tail_fraction) - cont.alpha) / cont.beta
        u = cont.profile.invert_many(t)
        ks = ks_uniform_distance(u)
        return ComparisonReport(
            predicted=spectrum,
            empirical=report,
            matching=[],
            unmatched_atoms=[],
            unmatched_clusters=list(report.clusters),
            ks_distance=ks,
            passed=ks < cfg.ks_tol,
            tolerances=tolerances,
            prefix=prefix,
        )
    matches, un_atoms, un_clusters = _greedy_match(spectrum.atoms, report.clusters)
    ok = (
        not un_atoms
        and all(
            m.value_error < value_tol and m.index_error < cfg.index_tol
            for m in matches
        )
        and all(c.empirical_index <= cfg.index_floor for c in un_clusters)
    )
    return ComparisonReport(
        predicted=spectrum,
        empirical=report,
        matching=matches,
        unmatched_atoms=un_atoms,
        unmatched_clusters=un_clusters,
        ks_distance=None,
        passed=ok,
        tolerances=tolerances,
        prefix=prefix,
    )


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _run_columns(cfg: ExperimentConfig, ns: range, values) -> dict[str, list]:
    """The columns by name, for the orders ns of the run and their values:
    n, the node offset, is_node and value."""
    ns = n_array(ns)
    ratio = cfg.location_ratio()
    _, num, den, is_node = node_offsets(ratio, ns, 0.5 if cfg.operator == LAGRANGE else 0)
    if isinstance(ratio, Fraction):
        g = np.gcd(num, den)
        sigma = {"sigma_num": num // g, "sigma_den": den // g}
    else:
        sigma = {"sigma_float": num}
    columns = {"n": ns, **sigma, "is_node": is_node.astype(int), "value": values}
    return {name: column.tolist() for name, column in columns.items()}


def _write_rows(fh, cfg: ExperimentConfig, prefix: SequencePrefix, head, row, sep="") -> None:
    """Write head(names), then one row per n, CHUNK orders at a time: each
    block is one % call on row(names) repeated once per row, sep between
    rows.  The cells are Python ints and finite floats (SequencePrefix
    holds finite values only), which %r spells as csv and json do."""
    ns = cfg.ns()
    for lo, hi in blocks(0, len(ns)):
        columns = _run_columns(cfg, ns[lo:hi], prefix.values[lo:hi])
        names, cells = list(columns), tuple(chain.from_iterable(zip(*columns.values())))
        rows = sep.join([row(names)] * (hi - lo)) % cells
        fh.write((sep if lo else head(names)) + rows)


def write_run_csv(cfg: ExperimentConfig, prefix: SequencePrefix, path) -> None:
    """One CSV row per n: the node offset, the node decision and the value."""
    with open(path, "w", newline="") as fh:
        _write_rows(fh, cfg, prefix, lambda names: ",".join(names) + "\r\n",
                    lambda names: ",".join(["%r"] * len(names)) + "\r\n")


def write_run_json(cfg: ExperimentConfig, prefix: SequencePrefix, path) -> None:
    """{"config": ..., "rows": [one object per n]} in json.dump's indent=2 layout."""
    head = json.dumps({"config": cfg.to_dict(), "rows": []}, indent=2).removesuffix("]\n}") + "\n"

    def row(names):
        return "    {\n" + ",\n".join(f'      "{name}": %r' for name in names) + "\n    }"

    with open(path, "w") as fh:
        _write_rows(fh, cfg, prefix, lambda names: head, row, ",\n")
        fh.write("\n  ]\n}\n")


def write_comparison_json(cfg: ExperimentConfig, report: ComparisonReport, path) -> None:
    payload = {"config": cfg.to_dict(), "report": report.to_dict()}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
