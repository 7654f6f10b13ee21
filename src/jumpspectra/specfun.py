"""Hurwitz zeta, the alternating Lerch series, and the two limit profiles.

Everything here is a closed form over scipy's Hurwitz zeta and digamma:

    J(1, x) = [psi((x+1)/2) - psi(x/2)] / 2
    J(s, x) = 2^(-s) [zeta(s, x/2) - zeta(s, (x+1)/2)]      (s > 1)

The two limit profiles

    g(x)    = sin(pi x)/pi * J(1, x)          (Lagrange clusters)
    g_s(x)  = zeta(s, x) / (zeta(s, x) + zeta(s, 1-x))   (Shepard clusters)

map (0,1) onto (0,1), are strictly decreasing, and satisfy
profile(x) + profile(1-x) = 1.  Monotonicity is not assumed: it is checked
on a fine grid the first time a profile inversion is requested, and a
failure raises ProfileMonotonicityError.

All functions are pure and safe for concurrent use; the only cached state
(the profile monotonicity grid) is computed idempotently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, zeta

ZETA_S_MAX = 50.0
ZETA_A_MAX = 2.0
# lerch_j refuses 1 < s < 1 + LERCH_J_POLE_GAP: there the zeta difference
# cancels the 1/(s-1) pole and the error passes 1e-10 (1.0e-10 at
# s = 1 + 1e-6, 1.6e-9 at s = 1 + 1e-7; 1.7e-11 at s = 1 + 1e-5)
LERCH_J_POLE_GAP = 1e-5
# Shepard exponent range [SHEPARD_S_MIN, SHEPARD_S_MAX]; the operators accept
# both ends, the profile g_s needs s > SHEPARD_S_MIN.
SHEPARD_S_MIN = 1.0
SHEPARD_S_MAX = 20.0

_MONOTONE_GRID_SIZE = 10_000


class ProfileMonotonicityError(RuntimeError):
    """Raised when a limit profile fails the strict-monotonicity gate."""


@dataclass(frozen=True)
class ZetaEval:
    """One zeta-family evaluation."""

    s: float
    a: float
    value: float


def hurwitz_zeta(s: float, a: float) -> ZetaEval:
    """zeta(s, a) = sum_{n>=0} (n+a)^(-s) for s > 1, a > 0.

    Supported box: s in (1, 50], a in (0, 2].  Outside it the call is
    refused rather than silently degraded.
    """
    s, a = float(s), float(a)
    if s <= 1.0:
        raise ValueError(f"hurwitz_zeta requires s > 1, got s={s}")
    if a <= 0.0:
        raise ValueError(f"hurwitz_zeta requires a > 0, got a={a}")
    if s > ZETA_S_MAX or a > ZETA_A_MAX:
        raise ValueError(
            f"(s={s}, a={a}) outside supported box s in (1, {ZETA_S_MAX}], "
            f"a in (0, {ZETA_A_MAX}]"
        )
    return ZetaEval(s=s, a=a, value=float(zeta(s, a)))


def _lerch_j_values(s: float, a):
    """J(s, a) for s >= 1 and scalar or array a, by the closed forms above."""
    if s == 1.0:
        return 0.5 * (digamma((a + 1.0) / 2.0) - digamma(a / 2.0))
    return 2.0**-s * (zeta(s, a / 2.0) - zeta(s, (a + 1.0) / 2.0))


def lerch_j(s: float, a: float) -> ZetaEval:
    """J(s, a) = sum_{n>=0} (-1)^n (n+a)^(-s) for s >= 1, 0 < a <= 1.

    For s > 1 the zeta difference cancels the 1/(s-1) pole, so the absolute
    error grows as s approaches 1 (1.7e-11 at s = 1 + 1e-5).  The band
    1 < s < 1 + LERCH_J_POLE_GAP, where it would pass 1e-10, is refused;
    s = 1 itself uses the digamma form and is exact to rounding.
    """
    s, a = float(s), float(a)
    if s < 1.0:
        raise ValueError(f"lerch_j requires s >= 1, got s={s}")
    if 1.0 < s < 1.0 + LERCH_J_POLE_GAP:
        raise ValueError(
            f"lerch_j refuses s in (1, 1+{LERCH_J_POLE_GAP:g}) near the pole, got s={s}"
        )
    if not 0.0 < a <= 1.0:
        raise ValueError(f"lerch_j requires a in (0, 1], got a={a}")
    if s > ZETA_S_MAX:
        raise ValueError(f"s={s} outside supported box [1, {ZETA_S_MAX}]")
    return ZetaEval(s=s, a=a, value=float(_lerch_j_values(s, a)))


def j_zeta_relation_residual(s: float, a: float) -> float:
    """Consistency residual of J(s,a) against 2^(1-s) zeta(s,a/2) - zeta(s,a).

    Since J(s, a) is defined through zeta(s, a/2) and zeta(s, (a+1)/2), the
    residual checks scipy's zeta against its duplication formula
    zeta(s, a/2) + zeta(s, (a+1)/2) = 2^s zeta(s, a); the independent check
    of both functions is the brute-force summation in the tests.  It is
    scale-normalized by max(1, |lhs|, |rhs|): for parameters where the
    values reach 1e13 an absolute difference cannot resolve below machine
    epsilon times the magnitude, and the normalized form is the meaningful
    one.
    """
    lhs = lerch_j(s, a).value
    rhs = 2.0 ** (1.0 - s) * hurwitz_zeta(s, a / 2.0).value - hurwitz_zeta(s, a).value
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def _g_lagrange_values(x):
    return np.sin(np.pi * x) / np.pi * _lerch_j_values(1.0, x)


def _g_shepard_values(s: float, x):
    za = zeta(s, x)
    return za / (za + zeta(s, 1.0 - x))


def g_lagrange(x: float) -> float:
    """Limit profile of Lagrange interpolation at a unit jump, on (0,1)."""
    x = float(x)
    if not 0.0 < x < 1.0:
        raise ValueError(f"g_lagrange requires x in (0, 1), got {x}")
    return float(_g_lagrange_values(x))


def g_shepard(s: float, x: float) -> float:
    """Limit profile of the Shepard operator with exponent s > 1, on (0,1)."""
    s, x = float(s), float(x)
    if not 0.0 < x < 1.0:
        raise ValueError(f"g_shepard requires x in (0, 1), got {x}")
    if not SHEPARD_S_MIN < s <= SHEPARD_S_MAX:
        raise ValueError(f"g_shepard requires s in (1, {SHEPARD_S_MAX}], got {s}")
    return float(_g_shepard_values(s, x))


class LimitProfile:
    """A strictly decreasing limit profile on (0,1) with verified inversion.

    kind is "lagrange_g" or "shepard_gs" (the latter carries the exponent
    s).  Inversion and preimage measures are gated on a strict-monotonicity
    check over a 10^4-point grid; the check runs once per instance.
    """

    def __init__(self, kind: str, s: float | None = None):
        if kind == "lagrange_g":
            if s is not None:
                raise ValueError("lagrange_g takes no exponent")
        elif kind == "shepard_gs":
            if s is None or not SHEPARD_S_MIN < float(s) <= SHEPARD_S_MAX:
                raise ValueError(
                    f"shepard_gs requires s in (1, {SHEPARD_S_MAX}], got {s}"
                )
            s = float(s)
        else:
            raise ValueError(f"unknown profile kind {kind!r}")
        self.kind = kind
        self.s = s
        self._grid: tuple[np.ndarray, np.ndarray] | None = None

    def __repr__(self):
        if self.kind == "shepard_gs":
            return f"LimitProfile(shepard_gs, s={self.s})"
        return "LimitProfile(lagrange_g)"

    def __call__(self, x: float) -> float:
        if self.kind == "lagrange_g":
            return g_lagrange(x)
        return g_shepard(self.s, x)

    def eval_many(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if np.any(xs <= 0.0) or np.any(xs >= 1.0):
            raise ValueError("profile arguments must lie in (0, 1)")
        if self.kind == "lagrange_g":
            return _g_lagrange_values(xs)
        return _g_shepard_values(self.s, xs)

    def monotone_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Grid of (x, profile(x)) values, verified strictly decreasing.

        For large exponents the profile saturates to exactly 1.0 (or 0.0)
        in double precision near the ends; ties are tolerated only inside
        those saturated fringes.
        """
        if self._grid is None:
            n = _MONOTONE_GRID_SIZE
            xs = np.arange(1, n + 1) / (n + 1.0)
            ys = self.eval_many(xs)
            diffs = np.diff(ys)
            saturated = ((ys[:-1] > 1.0 - 1e-9) & (ys[1:] > 1.0 - 1e-9)) | (
                (ys[:-1] < 1e-9) & (ys[1:] < 1e-9)
            )
            if not (np.all(diffs <= 0.0) and np.all((diffs < 0.0) | saturated)):
                raise ProfileMonotonicityError(
                    f"profile not monotone on grid: {self!r}"
                )
            self._grid = (xs, ys)
        return self._grid

    def invert(self, y: float, tol: float = 1e-10) -> float:
        """x with profile(x) = y, by bisection; clips to [0, 1] outside range."""
        self.monotone_grid()
        lo, hi = 1e-12, 1.0 - 1e-12
        if y >= self(lo):
            return 0.0
        if y <= self(hi):
            return 1.0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if self(mid) > y:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def invert_many(self, ys) -> np.ndarray:
        """Vectorized inversion by interpolation on the monotone grid.

        Accurate to roughly the grid resolution squared; intended for bulk
        statistics (CDF comparisons), not for certified endpoints.
        """
        xs, grid_ys = self.monotone_grid()
        ys = np.asarray(ys, dtype=float)
        # profile is decreasing: reverse to feed np.interp an increasing grid
        return np.clip(np.interp(ys, grid_ys[::-1], xs[::-1]), 0.0, 1.0)


def lagrange_profile() -> LimitProfile:
    return LimitProfile("lagrange_g")


def shepard_profile(s: float) -> LimitProfile:
    return LimitProfile("shepard_gs", s=s)


def profile_preimage_measure(profile: LimitProfile, intervals) -> float:
    """Total length of profile^{-1}(A) for a union of closed intervals.

    `intervals` is an IntervalUnion or any iterable of (lo, hi) pairs.
    Endpoints are inverted by bisection to 1e-10; the profile must pass the
    monotonicity gate.  Since the profile decreases from 1 to 0, the
    preimage of [lo, hi] is [invert(hi), invert(lo)].
    """
    pairs = getattr(intervals, "intervals", intervals)
    profile.monotone_grid()
    total = 0.0
    for lo, hi in pairs:
        if hi < lo:
            raise ValueError(f"interval [{lo}, {hi}] is reversed")
        total += max(0.0, profile.invert(lo) - profile.invert(hi))
    return min(1.0, total)
