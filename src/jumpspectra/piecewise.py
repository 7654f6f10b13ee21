"""Piecewise test functions: a continuous base plus finitely many jumps.

The continuous part is a polynomial plus a finite cosine/sine series, which
keeps every representable function simultaneously of bounded variation and
uniformly smooth enough for both operator families.  Jumps are first-kind
discontinuities declared by their location, one-sided limits, and point
value; a zero jump (left == right) is rejected at construction.

Evaluation is exact: away from the jumps f(x) = base(x) plus the sum of
the jump amounts to the left of x, and at a declared jump location f
returns the declared point value.

Node-coincidence policy, shared by the whole package.  A jump location is a
node of the n-th grid when its offset sigma_n = frac(t_n) is 0, with
t_n = n*x0 (Shepard) or n*theta0/pi + 1/2 (Lagrange).  node_offsets is the
one site of both rules for that decision:

  * exact rational location p/q: integer arithmetic, sigma_n = 0 exactly
    when the denominator divides the numerator of t_n; no tolerance;
  * float location: t_n lies within max(OFFSET_TOL, 4*eps*t_n) of an
    integer.  The 4*eps*t_n term bounds the rounding that t_n itself
    carries, about eps*t_n, which passes OFFSET_TOL once t_n exceeds about
    4500.

OFFSET_TOL is read only by node_offsets; the operators take its decision,
k0 and sigma_n, and build their weights from it.  So node_offsets alone
decides whether an operator's evaluation point is a node.

NODE_ATOL is the other float tolerance.  It is read only by the point
values (eval_many, one_sided_limits), by Lagrange's cardinal rule in
fundamental_weights, which takes an arbitrary x and no ratio to decide
by, and by the Lagrange sweep's 2*NODE_ATOL gates, which keep clear of
both: a point within NODE_ATOL of a jump location or a grid node is that
point, so a node computed through a different floating-point route still
picks up the jump's point value or the cardinal weights.  The Shepard step
sweep leaves the point value to eval_many: 2*NODE_ATOL only picks the
orders whose two nodes beside x0 it reads through eval_many.

Jump locations may be exact rationals (Fraction) or floats; the rational
form is preserved so that downstream node-offset arithmetic stays exact.

Instances are immutable and freely shareable across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

NODE_ATOL = 1e-13
OFFSET_TOL = 1e-12
_INT64_MAX = np.iinfo(np.int64).max

#: length of the blocks that the long-prefix paths (lagrange.sweep,
#: shepard.step_sweep, the density scans, the CSV and JSON exports) work in,
#: so that their temporaries follow the block and not the number of orders;
#: blocks reads it at call time
CHUNK = 1 << 16

LEFT0_RIGHT1 = "left0_right1"
LEFT1_RIGHT0 = "left1_right0"


def n_array(n_values) -> np.ndarray:
    """The grid orders n_values as an int array, for node_offsets and the sweeps.

    A range is built with np.arange, which at 10^6 orders takes about
    0.6 ms where np.fromiter over the range takes about 40 ms (2-vCPU
    x86_64); any other sequence of ints (a list, an integer array) goes
    through np.asarray.
    """
    if isinstance(n_values, range):
        return np.arange(n_values.start, n_values.stop, n_values.step, dtype=int)
    return np.asarray(n_values, dtype=int)


def blocks(start: int, stop: int):
    """(lo, hi) of the consecutive CHUNK-long blocks covering [start, stop)."""
    return ((lo, min(lo + CHUNK, stop)) for lo in range(start, stop, CHUNK))


def node_offsets(ratio, n, shift):
    """(k0, num, den, is_node) for t_n = n*ratio + shift, sigma_n = num/den.

    n is an int or an integer array; shift is 0 (Shepard, ratio = x0) or
    1/2 (Lagrange, ratio = theta0/pi).  k0 = floor(t_n) and sigma_n =
    t_n - k0, except at a float node, where sigma_n = 0 and k0 is the
    nearest integer.  A Fraction ratio p/q gives integers with den = q or
    2q and is_node = (num == 0); when the numerator of t_n could pass int64,
    the arithmetic runs on Python ints (object arrays).  A float ratio gives
    den = 1 and the tolerance rule of the policy above.
    """
    if not 0 <= ratio <= 1:
        raise ValueError("location ratio must lie in [0, 1]")
    if shift not in (0, 0.5):
        raise ValueError("shift must be 0 or 1/2")
    if isinstance(ratio, Fraction):
        p, q = ratio.numerator, ratio.denominator
        m = 2 if shift else 1
        if isinstance(n, np.ndarray) and n.size and m * int(n.max()) * p + q > _INT64_MAX:
            n = n.astype(object)
        t = n * (m * p)
        if shift:
            t += q
        num = t % (m * q)
        return t // (m * q), num, m * q, num == 0
    t = n * float(ratio) + shift
    k0 = np.floor(t)
    num = t - k0
    is_node = np.minimum(num, 1.0 - num) < np.maximum(OFFSET_TOL, 4 * np.finfo(float).eps * t)
    k0 = (k0 + (is_node & (num > 0.5))).astype(int)
    return k0, np.where(is_node, 0.0, num), 1, is_node


@dataclass(frozen=True)
class JumpSpec:
    """A first-kind discontinuity: location, one-sided limits, point value."""

    x: object  # float or Fraction
    left: float
    right: float
    value: float

    def __post_init__(self):
        if self.left == self.right:
            raise ValueError(
                f"jump at x={self.x} has equal one-sided limits (no discontinuity)"
            )

    @property
    def x_float(self) -> float:
        return float(self.x)


@dataclass(frozen=True)
class ContinuousPart:
    """Polynomial (ascending coefficients) plus finite cos/sin series."""

    poly: tuple[float, ...] = (0.0,)
    trig: tuple[tuple[float, float, float], ...] = ()

    def eval_many(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if not self.poly:
            out = np.zeros_like(xs)
        else:
            # Horner from the leading coefficient; adding a zero changes nothing
            out = np.full_like(xs, self.poly[-1])
            for c in reversed(self.poly[:-1]):
                out *= xs
                if c:
                    out += c
        for freq, cc, sc in self.trig:
            if cc:
                out += cc * np.cos(freq * xs)
            if sc:
                out += sc * np.sin(freq * xs)
        return out

    def __call__(self, x: float) -> float:
        return float(self.eval_many(np.array([x]))[0])


@dataclass(frozen=True)
class JumpFunction:
    """Continuous base plus sorted interior jumps on a closed domain.

    The declared one-sided limits must be consistent with the base and the
    accumulated jump amounts: left_i = base(x_i) + sum_{k<i} (right_k -
    left_k).  This is validated at construction, so eval and
    one_sided_limits can be computed exactly from the representation.
    """

    base: ContinuousPart
    jumps: tuple[JumpSpec, ...]
    domain: tuple[float, float]
    # jump table for eval_many: the jump locations, and _offsets[i] = the
    # summed amounts of the first i jumps
    _locs: np.ndarray = field(init=False, repr=False, compare=False)
    _offsets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lo, hi = self.domain
        if not lo < hi:
            raise ValueError("domain must be a nondegenerate closed interval")
        xs = [j.x_float for j in self.jumps]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("jump locations must be strictly increasing")
        if any(not lo < x < hi for x in xs):
            raise ValueError("jump locations must be strictly interior")
        offsets = [0.0]
        for j in self.jumps:
            expected_left = self.base(j.x_float) + offsets[-1]
            if not math.isclose(j.left, expected_left, rel_tol=1e-9, abs_tol=1e-9):
                raise ValueError(
                    f"declared left limit {j.left} at x={j.x} is inconsistent "
                    f"with base + prior jumps ({expected_left})"
                )
            offsets.append(offsets[-1] + (j.right - j.left))
        object.__setattr__(self, "_locs", np.array(xs, dtype=float))
        object.__setattr__(self, "_offsets", np.array(offsets))

    @property
    def step_limits(self) -> tuple[float, float] | None:
        """(f(x0-0), f(x0+0)) when f is one jump x0 on a constant base, else None.

        The limits are the values eval_many gives on either side of x0, the
        base plus _offsets, not the declared ones, which validation lets
        differ from these by up to 1e-9 (relative or absolute).
        """
        if len(self.jumps) != 1 or len(self.base.poly) > 1 or self.base.trig:
            return None
        c = self.base.poly[0] if self.base.poly else 0.0
        return float(c + self._offsets[0]), float(c + self._offsets[1])

    @property
    def offsets(self) -> np.ndarray:
        """offsets[m], m = 0..len(jumps): what eval_many adds to the base
        right of the first m locations (and left of the next one)."""
        return self._offsets.copy()

    def _check_domain(self, xs):
        lo, hi = self.domain
        if xs.size and (xs.min() < lo - 1e-12 or xs.max() > hi + 1e-12):
            raise ValueError(f"argument outside domain [{lo}, {hi}]")

    def eval_many(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        self._check_domain(xs)
        out = self.base.eval_many(xs)
        if self.jumps:
            # _offsets[number of locations <= x], one comparison per location
            # (the point values below take one pass per jump too): at two
            # jumps and 3000 points eval_many takes about 40 us, against
            # 54 us through searchsorted (2-vCPU x86_64)
            offsets = np.full_like(xs, self._offsets[0])
            for loc, offset in zip(self._locs.tolist(), self._offsets[1:].tolist()):
                np.copyto(offsets, offset, where=xs >= loc)
            out += offsets
            for j in self.jumps:
                out[np.abs(xs - j.x_float) <= NODE_ATOL] = j.value
        return out

    def eval(self, x: float) -> float:
        return float(self.eval_many(np.array([x]))[0])

    __call__ = eval

    def one_sided_limits(self, x0: float) -> tuple[float, float]:
        """(f(x0-0), f(x0+0)), exact from the representation."""
        x0 = float(x0)
        lo, hi = self.domain
        if not lo < x0 < hi:
            raise ValueError("one-sided limits require an interior point")
        base = self.base(x0)
        left = base + sum(
            j.right - j.left for j in self.jumps if j.x_float < x0 - NODE_ATOL
        )
        right = base + sum(
            j.right - j.left for j in self.jumps if j.x_float <= x0 + NODE_ATOL
        )
        return left, right


def pure_step(x0, d: float, orientation: str, domain) -> JumpFunction:
    """The canonical unit step as a JumpFunction."""
    domain = (float(domain[0]), float(domain[1]))
    if orientation == LEFT0_RIGHT1:
        base = ContinuousPart((0.0,))
        jump = JumpSpec(x=x0, left=0.0, right=1.0, value=float(d))
    elif orientation == LEFT1_RIGHT0:
        base = ContinuousPart((1.0,))
        jump = JumpSpec(x=x0, left=1.0, right=0.0, value=float(d))
    else:
        raise ValueError(f"unknown orientation {orientation!r}")
    return JumpFunction(base=base, jumps=(jump,), domain=domain)


def from_steps(base: ContinuousPart, steps, domain) -> JumpFunction:
    """Build a JumpFunction from (location, jump_amount, point_value) triples.

    One-sided limits are derived from the base and the accumulated amounts,
    so the result is consistent by construction.
    """
    domain = (float(domain[0]), float(domain[1]))
    ordered = sorted(steps, key=lambda t: float(t[0]))
    jumps = []
    acc = 0.0
    for x, amount, value in ordered:
        left = base(float(x)) + acc
        jumps.append(JumpSpec(x=x, left=left, right=left + amount, value=float(value)))
        acc += amount
    return JumpFunction(base=base, jumps=tuple(jumps), domain=domain)


# ---------------------------------------------------------------------------
# descriptor files
# ---------------------------------------------------------------------------

def _loc_to_json(x):
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator}
    return float(x)


def _loc_from_json(obj):
    if isinstance(obj, dict):
        return Fraction(int(obj["num"]), int(obj["den"]))
    return float(obj)


def to_descriptor_dict(f: JumpFunction) -> dict:
    return {
        "domain": [f.domain[0], f.domain[1]],
        "poly": list(f.base.poly),
        "trig": [list(t) for t in f.base.trig],
        "jumps": [
            {"x": _loc_to_json(j.x), "left": j.left, "right": j.right, "value": j.value}
            for j in f.jumps
        ],
    }


def from_descriptor_dict(data: dict) -> JumpFunction:
    if not isinstance(data, dict):
        raise ValueError("a function descriptor must be a JSON object")
    base = ContinuousPart(
        poly=tuple(float(c) for c in data.get("poly", [0.0])) or (0.0,),
        trig=tuple(
            (float(a), float(b), float(c)) for a, b, c in data.get("trig", [])
        ),
    )
    jumps = tuple(
        JumpSpec(
            x=_loc_from_json(j["x"]),
            left=float(j["left"]),
            right=float(j["right"]),
            value=float(j["value"]),
        )
        for j in data.get("jumps", [])
    )
    lo, hi = data["domain"]
    return JumpFunction(base=base, jumps=jumps, domain=(float(lo), float(hi)))


def save_descriptor(f: JumpFunction, path) -> None:
    with open(path, "w") as fh:
        json.dump(to_descriptor_dict(f), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_descriptor(path) -> JumpFunction:
    with open(path) as fh:
        return from_descriptor_dict(json.load(fh))
