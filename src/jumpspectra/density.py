"""Finite-prefix natural densities, convergence indices, and cluster detection.

The lower/upper density of an index set K is estimated from a prefix of
length N by taking the min/max of the running ratios |K n {1..n}|/n over
the tail window n in [ceil(N/2), N]; the window suppresses initial
transients and is configurable.  The index of a sequence at a target L is
the estimated lower density of {n : |x_n - L| < eps}, stabilized over a
decreasing eps grid:

  * ratios are computed for every eps in the grid (they are non-increasing
    as eps shrinks since the membership sets are nested);
  * a leading run of ratios exactly 1.0 is coverage saturation (the
    inflated target swallowed every value) and is ignored unless the whole
    profile saturates;
  * the estimate is read off the first stable plateau: find the first
    consecutive pair of ratios closer than the stability tolerance, anchor
    there, extend downward while ratios stay within the tolerance of the
    anchor, and return the deepest ratio of that run.  If no consecutive
    pair is stable, the ratio at the smallest eps is returned.

The plateau rule keeps coarse-eps contamination from neighboring clusters
out of the estimate while still letting slowly shrinking memberships (for
example equidistributed sequences hitting an inflated interval) settle to
their true measure.

One pass over the prefix reads a whole profile without moving a single
ratio.  The values are read one block of piecewise.CHUNK at a time; each
block's keys and each set's membership are evaluated once, and every set
carries its running count and its first extreme ratio from block to
block, so no prefix-long temporary is built and the integer counts, hence
the quotients, are the ones a cumulative sum over the whole prefix gives.
The sets of a profile are nested (strict |x_n - L| < eps with eps
decreasing, x_n > M with M increasing, closed inflated intervals with eps
decreasing, each exact in floating point since rounding is monotone), so a
set whose block count has equalled the previous, larger set's in every
block so far is that set: it takes that set's count and extreme and runs
no cumulative sum of its own.  lower_density, upper_density and
complement_identity_check are the one-set case of the same scan.

All functions are pure; callers may evaluate different prefixes in
parallel.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .piecewise import blocks

#: default eps grid 2^-1 .. 2^-14 (geometric, coarse to fine)
DEFAULT_EPS_GRID: tuple[float, ...] = tuple(2.0**-j for j in range(1, 15))

#: M grid realizing the sup over M for +-infinity targets
DEFAULT_M_GRID: tuple[float, ...] = tuple(10.0**k for k in range(1, 7))

DEFAULT_STABILITY_TOL = 0.01
DEFAULT_GAP = 1e-2
DEFAULT_INDEX_FLOOR = 0.005
DEFAULT_TAIL_FRACTION = 0.5


@dataclass(frozen=True)
class SequencePrefix:
    """A finite prefix x_1..x_N of a real sequence (1-indexed)."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("empty prefix")
        if not np.all(np.isfinite(arr)):
            raise ValueError("prefix values must be finite")
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class IntervalUnion:
    """Finite union of disjoint closed intervals, sorted ascending."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        if not ivs:
            raise ValueError("IntervalUnion requires at least one interval")
        for a, b in ivs:
            if b < a:
                raise ValueError(f"interval [{a}, {b}] is reversed")
        for (_, b0), (a1, _) in zip(ivs, ivs[1:]):
            if a1 <= b0:
                raise ValueError("intervals must be disjoint and sorted")
        object.__setattr__(self, "intervals", ivs)

    @classmethod
    def from_pairs(cls, pairs) -> "IntervalUnion":
        """Build from unsorted, possibly overlapping pairs (merges overlaps)."""
        pairs = sorted((float(a), float(b)) for a, b in pairs)
        merged: list[list[float]] = []
        for a, b in pairs:
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        return cls(tuple((a, b) for a, b in merged))

    def inflate(self, eps: float) -> "IntervalUnion":
        """Add (-eps, eps) to every interval and re-merge overlaps."""
        if eps < 0:
            raise ValueError("eps must be >= 0")
        return IntervalUnion.from_pairs(
            (a - eps, b + eps) for a, b in self.intervals
        )

    def contains(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        starts = np.array([a for a, _ in self.intervals])
        ends = np.array([b for _, b in self.intervals])
        idx = np.searchsorted(starts, xs, side="right") - 1
        ok = idx >= 0
        out = np.zeros(xs.shape, dtype=bool)
        out[ok] = xs[ok] <= ends[idx[ok]]
        return out


@dataclass(frozen=True)
class IndexEstimate:
    """Index estimate with its eps-profile (eps or 1/M, ratio) pairs."""

    target: object
    eps_profile: tuple[tuple[float, float], ...]
    estimate: float


@dataclass(frozen=True)
class Cluster:
    center: float
    empirical_index: float
    count: int


@dataclass(frozen=True)
class ClusterReport:
    clusters: tuple[Cluster, ...]
    unassigned_fraction: float


def _window_start(n_total: int, window: float) -> int:
    """The first n of the tail window n in [ceil(N*window), N]."""
    if not 0.0 <= window <= 1.0:  # also refuses NaN
        raise ValueError(f"window must be in [0, 1], got {window}")
    if n_total == 0:
        raise ValueError("empty prefix")
    return max(1, math.ceil(n_total * window))


def _nested_scan(values, key, members, window: float, lowest=True) -> list:
    """(ratio, count, n) at the first lowest (or highest) running ratio of
    each of a sequence of nested sets, largest first.

    Set j holds the n with members[j](key(x_n)), and its running ratios are
    count/n = |K n {1..n}|/n over the tail window n in [ceil(N*window), N].
    A set whose block count has equalled the previous set's in every block
    so far takes that set's (count, extreme) state (module docstring).
    """
    head = _window_start(values.size, window) - 1
    pick, beats = (np.argmin, operator.lt) if lowest else (np.argmax, operator.gt)
    states = [(0, None)] * len(members)
    # tied[j]: set j has equalled set j - 1 in every block so far
    tied = [j > 0 for j in range(len(members))]
    for lo, hi in blocks(0, values.size):
        keys = key(values[lo:hi])
        # the block's first skip values lie ahead of the window
        skip = max(head - lo, 0)
        above = None
        for j, member in enumerate(members):
            inside = member(keys)
            found = int(np.count_nonzero(inside))
            tied[j] = tied[j] and found == above
            above = found
            if tied[j]:
                states[j] = states[j - 1]
                continue
            count, best = states[j]
            if hi > head:
                # the running counts over the window's part of the block, in
                # doubles (exact below 2^53), divided in place
                ahead = count + int(np.count_nonzero(inside[:skip]))
                ratios = inside[skip:].astype(float)
                np.cumsum(ratios, out=ratios)
                if ahead:
                    ratios += ahead
                ratios /= np.arange(lo + skip + 1, hi + 1)
                i = int(pick(ratios))
                if best is None or beats(ratios[i], best[0]):
                    at = ahead + int(np.count_nonzero(inside[skip : skip + i + 1]))
                    best = float(ratios[i]), at, lo + skip + 1 + i
            states[j] = count + found, best
    return [best for _, best in states]


def _as_is(block):
    return block


def _one_set(membership, window: float, member=_as_is, lowest=True):
    """(ratio, count, n) of the scan of one set, K = {n : member(membership)_n}."""
    return _nested_scan(np.asarray(membership, dtype=bool), member, [_as_is], window, lowest)[0]


def lower_density(membership, window: float = 0.5) -> float:
    """min of |K n {1..n}|/n over the tail window n in [ceil(N*window), N]."""
    return _one_set(membership, window)[0]


def upper_density(membership, window: float = 0.5) -> float:
    """max of the prefix ratios over the same tail window."""
    return _one_set(membership, window, lowest=False)[0]


def complement_identity_check(membership, window: float = 0.5) -> bool:
    """Exact check of lower(K) = 1 - upper(K^c) in rational arithmetic."""
    _, count, n = _one_set(membership, window)
    _, comp_count, comp_n = _one_set(membership, window, np.logical_not, lowest=False)
    return Fraction(count, n) == 1 - Fraction(comp_count, comp_n)


def _plateau_estimate(ratios, tol: float) -> float:
    """Stable-plateau readout of a coarse-to-fine ratio profile.

    A leading run of ratios exactly 1.0 is saturation (the inflated target
    covered every value) and is skipped before anchoring, unless the whole
    profile is saturated, in which case the index is 1.
    """
    start = 0
    while start < len(ratios) and ratios[start] == 1.0:
        start += 1
    if start == len(ratios):
        return 1.0
    ratios = ratios[start:]
    first = None
    for j in range(1, len(ratios)):
        if abs(ratios[j] - ratios[j - 1]) < tol:
            first = j
            break
    if first is None:
        return ratios[-1]
    anchor = ratios[first]
    k = first
    while k + 1 < len(ratios) and abs(ratios[k + 1] - anchor) < tol:
        k += 1
    return ratios[k]


def _nested_index(target, values, key, members, scales, tol, window) -> IndexEstimate:
    """The IndexEstimate of nested sets, its profile the (scale, ratio) pairs."""
    ratios = [best[0] for best in _nested_scan(values, key, members, window)]
    return IndexEstimate(target, tuple(zip(scales, ratios)), _plateau_estimate(ratios, tol))


def _validate_grid(eps_grid):
    grid = [float(e) for e in eps_grid]
    if not grid:
        raise ValueError("eps grid must be nonempty")
    if any(e <= 0 for e in grid):
        raise ValueError("eps grid entries must be positive")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise ValueError("eps grid must be strictly decreasing")
    return grid


def empirical_index(
    prefix: SequencePrefix,
    target: float,
    eps_grid=DEFAULT_EPS_GRID,
    stability_tol: float = DEFAULT_STABILITY_TOL,
    window: float = 0.5,
) -> IndexEstimate:
    """Convergence index of the prefix at a real target or at +-infinity.

    Finite targets use membership |x_n - target| < eps over the eps grid.
    target = +-math.inf uses membership {x_n > M} / {x_n < M} over the
    default M grid (restricted to M below the prefix extreme, where the
    finite-prefix estimator is informative, or to the first M, with ratio
    0, when none is); the profile then stores (1/M, ratio) so it stays
    sorted by decreasing scale.
    """
    values = prefix.values
    if math.isinf(target):
        sign = 1.0 if target > 0 else -1.0
        # max(-x) is -min(x) exactly
        extreme = float(np.max(values)) if sign > 0 else -float(np.min(values))
        # with no M below the extreme, the first M's set is empty: ratio 0
        ms = [m for m in DEFAULT_M_GRID if m < extreme] or [DEFAULT_M_GRID[0]]
        members = [lambda signed, m=m: signed > m for m in ms]
        return _nested_index(
            target, values, lambda block: sign * block, members, [1.0 / m for m in ms],
            stability_tol, window,
        )
    grid = _validate_grid(eps_grid)
    members = [lambda dist, eps=eps: dist < eps for eps in grid]
    return _nested_index(
        target, values, lambda block: np.abs(block - target), members, grid, stability_tol, window
    )


def set_index(
    prefix: SequencePrefix,
    targets: IntervalUnion,
    eps_grid=DEFAULT_EPS_GRID,
    stability_tol: float = DEFAULT_STABILITY_TOL,
    window: float = 0.5,
) -> IndexEstimate:
    """Convergence index of the prefix relative to an interval union."""
    grid = _validate_grid(eps_grid)
    members = [targets.inflate(eps).contains for eps in grid]
    return _nested_index(targets, prefix.values, _as_is, members, grid, stability_tol, window)


def tail_values(values: np.ndarray, tail_fraction: float) -> np.ndarray:
    """The values at positions from int((1 - tail_fraction) * N) on.

    At least the last value is kept, however small tail_fraction is.
    """
    return values[min(int((1.0 - tail_fraction) * values.size), values.size - 1):]


def detect_clusters(
    prefix: SequencePrefix,
    gap: float = DEFAULT_GAP,
    tail_fraction: float = DEFAULT_TAIL_FRACTION,
    index_floor: float = DEFAULT_INDEX_FLOOR,
    eps_grid=DEFAULT_EPS_GRID,
    stability_tol: float = DEFAULT_STABILITY_TOL,
    window: float = 0.5,
) -> ClusterReport:
    """Gap-split clustering of the tail values, indexed over the full prefix.

    Values with position n > (1 - tail_fraction) * N are sorted and split
    wherever consecutive values differ by more than `gap`.  Each group's
    center is the mean of its members; its index is empirical_index at the
    center, with the eps grid capped at half the distance to the nearest
    other center.  The cap keeps the membership balls of distinct clusters
    disjoint, which forces sum(indices) <= 1 structurally (the per-n ratios
    of disjoint sets sum to at most 1, and each reported index is a min of
    such ratios).  Groups whose index falls below `index_floor` are
    dropped.
    """
    if gap <= 0:
        raise ValueError("gap must be positive")
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must be in (0, 1]")
    tail = np.sort(tail_values(prefix.values, tail_fraction))
    # the gaps tail[i+1] - tail[i] one block of i at a time, each block
    # reading one value past its end, so no N-long difference is held
    cuts = [
        np.flatnonzero(tail[lo + 1 : hi + 1] - tail[lo:hi] > gap) + (lo + 1)
        for lo, hi in blocks(0, tail.size - 1)
    ]
    groups = np.split(tail, np.concatenate(cuts or [np.empty(0, dtype=int)]))
    centers = [float(np.mean(g)) for g in groups]
    grid = _validate_grid(eps_grid)
    clusters = []
    for i, group in enumerate(groups):
        center = centers[i]
        isolation = min(
            (abs(center - c) for j, c in enumerate(centers) if j != i),
            default=math.inf,
        ) / 2.0
        capped = [e for e in grid if e <= isolation] or [isolation / 2.0]
        est = empirical_index(prefix, center, capped, stability_tol, window)
        if est.estimate >= index_floor:
            clusters.append(Cluster(center, est.estimate, int(group.size)))
    total = sum(c.empirical_index for c in clusters)
    return ClusterReport(tuple(clusters), max(0.0, 1.0 - total))


def index_sum_audit(report: ClusterReport, tol: float = 1e-12) -> bool:
    """True iff the detected indices respect the disjoint-sum bound."""
    return sum(c.empirical_index for c in report.clusters) <= 1.0 + tol
