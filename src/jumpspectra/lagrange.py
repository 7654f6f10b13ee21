"""Lagrange interpolation at Chebyshev nodes, evaluated through the
trigonometric form of the fundamental polynomials.

With x = cos(theta) and nodes x_{n,k} = cos(theta_{n,k}),
theta_{n,k} = (2k-1) pi / (2n), the k-th fundamental polynomial is

    ell_{n,k}(cos theta) = (-1)^(k-1)/n * cos(n theta)
                           * sin theta_{n,k} / (cos theta - cos theta_{n,k})

and the identity

    sin theta_k / (cos theta - cos theta_k) = (cot a_k + cot b_k) / 2,
    a_k = (theta_k + theta)/2,  b_k = (theta_k - theta)/2,

turns every weight into two tangents and no division by a cosine
difference:

    ell_{n,k} = cos(n theta)/(2n) * (cot a_k + cot b_k) * (-1)^(k-1).

All evaluations (fundamental_weights, lagrange_eval, lagrange_at_jump) go
through that one kernel.  Near coincidence b_k is small and carries the
whole singularity, so its relative accuracy sets the accuracy of the sum.
When theta = pi p/q is an exact rational angle, lagrange_at_jump forms the
half-angles from exact integer numerators,

    (theta_k -+ theta)/2 = pi ((2k-1) q -+ 2np) / (4nq),

so b_k is exact to one rounding however close theta sits to a node; a float
angle uses (theta_k -+ theta)/2 directly.  The O(n^2) product form is
retained only as a test oracle.

The node offset of a jump location x0 = cos(theta0) is
sigma_n = frac(n*theta0/pi + 1/2), the fractional position of theta0 inside
the n-th node grid; piecewise.node_offsets computes it (shift 1/2), in
integer arithmetic when theta0/pi is the exact rational p/q, because the
node-coincidence dichotomy (sigma_n = 0) is arithmetic, not numeric.

Everything is pure; grids are immutable and evaluation across n is safe to
parallelize.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .piecewise import NODE_ATOL, JumpFunction, node_offsets


class ChebyshevGrid:
    """Chebyshev nodes cos((2k-1) pi / (2n)), k = 1..n (descending in x)."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("grid order must be >= 1")
        self.n = int(n)
        self.thetas = np.arange(1, 2 * self.n, 2) * math.pi / (2 * self.n)
        self.nodes = np.cos(self.thetas)

    def __repr__(self):
        return f"ChebyshevGrid(n={self.n})"


def _coincident_node(grid: ChebyshevGrid, x: float, theta: float):
    """Index (0-based) of a node within tolerance of x, or None."""
    j = int(round(grid.n * theta / math.pi + 0.5)) - 1
    j = min(max(j, 0), grid.n - 1)
    for jj in (j - 1, j, j + 1):
        if 0 <= jj < grid.n and abs(x - grid.nodes[jj]) < NODE_ATOL:
            return jj
    return None


def _weights(n: int, a: np.ndarray, b: np.ndarray, cos_n_theta: float) -> np.ndarray:
    """cos(n theta)/(2n) * (cot a_k + cot b_k) * (-1)^(k-1), k = 1..n.

    a and b are the half-angles (theta_k + theta)/2 and (theta_k - theta)/2;
    both arrays are overwritten.
    """
    np.tan(a, out=a)
    np.tan(b, out=b)
    np.divide(1.0, a, out=a)
    np.divide(1.0, b, out=b)
    a += b
    a *= cos_n_theta / (2 * n)
    a[1::2] *= -1.0
    return a


def fundamental_weights(
    grid: ChebyshevGrid,
    x: float,
    cos_n_theta: float | None = None,
    half_angles: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """All ell_{n,k}(x), k = 1..n, via the trigonometric form.

    cos_n_theta overrides cos(n*theta) and half_angles the arrays
    ((theta_k + theta)/2, (theta_k - theta)/2); the caller can supply exactly
    reduced values when theta is a rational multiple of pi.  A node within
    NODE_ATOL of x gets the cardinal weights.
    """
    if not -1.0 <= x <= 1.0:
        raise ValueError("argument must lie in [-1, 1]")
    theta = math.acos(x)
    j = _coincident_node(grid, x, theta)
    if j is not None:
        out = np.zeros(grid.n)
        out[j] = 1.0
        return out
    if cos_n_theta is None:
        cos_n_theta = math.cos(grid.n * theta)
    if half_angles is None:
        half_angles = ((grid.thetas + theta) / 2, (grid.thetas - theta) / 2)
    return _weights(grid.n, *half_angles, cos_n_theta)


def fundamental_eval(grid: ChebyshevGrid, k: int, x: float) -> float:
    """ell_{n,k}(x) for a single k in 1..n."""
    if not 1 <= k <= grid.n:
        raise ValueError(f"k must be in 1..{grid.n}")
    return float(fundamental_weights(grid, x)[k - 1])


def lagrange_eval(grid: ChebyshevGrid, f: JumpFunction, x: float) -> float:
    """Interpolant value sum_k ell_{n,k}(x) f(x_{n,k})."""
    weights = fundamental_weights(grid, x)
    return float(weights @ f.eval_many(grid.nodes))


def fundamental_product_reference(grid: ChebyshevGrid, k: int, x: float) -> float:
    """O(n) product form of ell_{n,k}; reference oracle for the trig form."""
    if not 1 <= k <= grid.n:
        raise ValueError(f"k must be in 1..{grid.n}")
    xk = grid.nodes[k - 1]
    others = np.delete(grid.nodes, k - 1)
    return float(np.prod((x - others) / (xk - others)))


def _rational_cos_n_theta(p: int, q: int, n: int) -> float:
    # reduce n*p/q mod 2 exactly before the single cosine call
    return math.cos(math.pi * ((n * p) % (2 * q)) / q)


def _rational_half_angles(p: int, q: int, n: int):
    """(theta_k + theta0)/2 and (theta_k - theta0)/2 for theta0 = pi p/q.

    Both are pi*m/(4nq) with the integer m = (2k-1)q +- 2np, |m| < 4nq;
    None when 4nq passes 2**53, above which not every m is an exact double.
    """
    if 4 * n * q > 2**53:
        return None
    scale = math.pi / (4 * n * q)
    a = np.arange(q + 2 * n * p, q + 2 * n * (p + q), 2 * q, dtype=float)
    b = np.arange(q - 2 * n * p, q + 2 * n * (q - p), 2 * q, dtype=float)
    a *= scale
    b *= scale
    return a, b


def lagrange_at_jump(
    grid: ChebyshevGrid, f: JumpFunction, jump_index: int, theta0=None
) -> float:
    """Interpolant value at the jump location x_i = cos(theta_i).

    theta0 (Fraction p/q for pi*p/q, float angle, or None to derive it from
    the stored location) drives the exact node-coincidence decision: when
    the location is a node of this grid the interpolant reproduces the
    declared point value; otherwise the trigonometric sum is evaluated, on
    the rational path with exactly reduced cos(n*theta0) and exact-integer
    half-angles.
    """
    jump = f.jumps[jump_index]
    if theta0 is None:
        theta0 = math.acos(jump.x_float)
    ratio = theta0 if isinstance(theta0, Fraction) else theta0 / math.pi
    if node_offsets(ratio, grid.n, 0.5)[3]:
        return jump.value
    if isinstance(theta0, Fraction):
        p, q = theta0.numerator, theta0.denominator
        x0 = math.cos(math.pi * p / q)
        cn = _rational_cos_n_theta(p, q, grid.n)
        half_angles = _rational_half_angles(p, q, grid.n)
    else:
        x0 = math.cos(theta0)
        cn = math.cos(grid.n * theta0)
        half_angles = None
    weights = fundamental_weights(grid, x0, cos_n_theta=cn, half_angles=half_angles)
    return float(weights @ f.eval_many(grid.nodes))
