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

fundamental_weights, lagrange_eval and lagrange_at_jump all evaluate that
one kernel.  Near coincidence b_k is small and carries the whole
singularity, so its relative accuracy sets the accuracy of the sum.  When
theta = pi p/q is an exact rational angle, lagrange_at_jump forms the
half-angles from exact integer numerators,

    (theta_k -+ theta)/2 = pi ((2k-1) q -+ 2np) / (4nq),

so b_k is exact to one rounding however close theta sits to a node; a float
angle uses (theta_k -+ theta)/2 directly.  The O(n^2) product form is
retained only as a test oracle.

At a pure step (one jump on a constant base, JumpFunction.step_limits) the
nodes on each side of the jump all sample one limit, and sum_k ell_{n,k} = 1,
so

    L_n f(x0) = left + (right - left) * sum_{theta_k < theta0} ell_{n,k}(x0),

and lagrange_at_jump evaluates the kernel on the shorter side only:
min(k0, n - k0) tangent pairs, no evaluation of f at the nodes and no dot
product.  Float weights sum to 1 only to rounding, so on a float angle the
one-side sum is taken only when one limit is 0, over the other limit's
side.  Every other case gets the full weight vector against f at every
node.  A grid computes its nodes only when they are used.

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
from functools import cached_property

import numpy as np

from .piecewise import NODE_ATOL, JumpFunction, node_offsets

# integers up to this bound are exact doubles
_EXACT_DOUBLE_INT = 2**53


class ChebyshevGrid:
    """Chebyshev nodes cos((2k-1) pi / (2n)), k = 1..n (descending in x).

    nodes is computed on first use: lagrange_at_jump at a pure step needs
    only the two nodes around the jump.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("grid order must be >= 1")
        self.n = int(n)
        self.thetas = np.arange(1, 2 * self.n, 2) * math.pi / (2 * self.n)

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.cos(self.thetas)

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


def _weights(
    n: int, a: np.ndarray, b: np.ndarray, cos_n_theta: float, first_k: int = 1
) -> np.ndarray:
    """cos(n theta)/(2n) * (cot a_k + cot b_k) * (-1)^(k-1), k = first_k, ...

    a and b are the half-angles (theta_k + theta)/2 and (theta_k - theta)/2
    of consecutive k from first_k on; both arrays are overwritten.
    """
    np.tan(a, out=a)
    np.tan(b, out=b)
    np.divide(1.0, a, out=a)
    np.divide(1.0, b, out=b)
    a += b
    a *= cos_n_theta / (2 * n)
    a[first_k % 2::2] *= -1.0
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


def _rational_half_angles(p: int, q: int, n: int, lo: int = 1, hi: int | None = None):
    """(theta_k + theta0)/2 and (theta_k - theta0)/2 for theta0 = pi p/q, k = lo..hi.

    Both are pi*m/(4nq) with the integer m = (2k-1)q +- 2np, |m| < 4nq;
    None when 4nq passes 2**53, above which not every m is an exact double.
    hi defaults to n.
    """
    if 4 * n * q > _EXACT_DOUBLE_INT:
        return None
    if hi is None:
        hi = n
    scale = math.pi / (4 * n * q)
    a = np.arange((2 * lo - 1) * q + 2 * n * p, (2 * hi + 1) * q + 2 * n * p, 2 * q, dtype=float)
    b = np.arange((2 * lo - 1) * q - 2 * n * p, (2 * hi + 1) * q - 2 * n * p, 2 * q, dtype=float)
    a *= scale
    b *= scale
    return a, b


def _brackets(grid: ChebyshevGrid, k0: int, *xs: float) -> bool:
    """Whether nodes k0 and k0 + 1 (1-based) enclose every x with more than
    2*NODE_ATOL to spare; a missing node (k0 = 0 or n) bounds nothing.

    Where this holds, neither JumpFunction.eval_many nor _coincident_node
    finds a node within NODE_ATOL of any x.  The two nodes come from
    math.cos, which may differ from grid.nodes' np.cos in the last place;
    the second NODE_ATOL covers that.
    """
    above = math.cos(grid.thetas[k0 - 1]) if k0 > 0 else math.inf
    below = math.cos(grid.thetas[k0]) if k0 < grid.n else -math.inf
    return all(above - x > 2 * NODE_ATOL and x - below > 2 * NODE_ATOL for x in xs)


def lagrange_at_jump(
    grid: ChebyshevGrid, f: JumpFunction, jump_index: int, theta0=None
) -> float:
    """Interpolant value at the jump location x_i = cos(theta_i).

    theta0 (Fraction p/q for pi*p/q, float angle, or None to derive it from
    the stored location) drives the exact node-coincidence decision: when
    the location is a node of this grid the interpolant reproduces the
    declared point value.  Otherwise the kernel gives the weights, on the
    rational path from exactly reduced cos(n*theta0) and exact-integer
    half-angles, and they are summed one of two ways:

      * one side: f.step_limits is not None, its domain holds [-1, 1],
        nodes k0 and k0 + 1 enclose both x0 and the stored location with
        more than 2*NODE_ATOL to spare, and the half-angles are exact or one
        limit is 0.  Nodes 1..k0 (theta_k < theta0) then sample the right
        limit and the others the left one, so the value is the other side's
        limit plus the difference of the limits times the weights summed
        over one index range, or that limit alone when the range is empty.
        With exact half-angles the range is the shorter one.  Float
        half-angles make the weights sum to 1 only to rounding, so there the
        range is the nonzero limit's, and the value does not use sum = 1;
      * general, for everything else: the full weight vector against f at
        every node.

    The limits are the values f takes at the nodes (step_limits), not the
    declared ones.  Where the one-side sum applies, the general sum makes
    the same node decisions and agrees to rounding.
    """
    jump = f.jumps[jump_index]
    if theta0 is None:
        theta0 = math.acos(jump.x_float)
    exact = isinstance(theta0, Fraction)
    n = grid.n
    k0, _, _, is_node = node_offsets(theta0 if exact else theta0 / math.pi, n, 0.5)
    if is_node:
        return jump.value
    if exact:
        p, q = theta0.numerator, theta0.denominator
        x0 = math.cos(math.pi * p / q)
        cn = _rational_cos_n_theta(p, q, n)
    else:
        x0 = math.cos(theta0)
        cn = math.cos(n * theta0)
    k0 = int(k0)
    limits = f.step_limits
    exact_angles = exact and 4 * n * q <= _EXACT_DOUBLE_INT
    # float half-angles and cos(n*theta0) are rounded apart, so float weights
    # sum to 1 only to about 1e-13 (1e-9 beside a node): there the one-side
    # sum is taken only with one limit 0, whose side it leaves out, so the
    # value never rests on sum = 1
    one_side = limits is not None and (exact_angles or 0.0 in limits)
    # a domain holding [-1, 1] holds every node, so eval_many would not raise
    holds_grid = f.domain[0] <= -1.0 and 1.0 <= f.domain[1]
    if one_side and holds_grid and _brackets(grid, k0, x0, jump.x_float):
        left, right = limits
        # nodes 1..k0 sample the right limit, nodes k0+1..n the left one; the
        # sum runs over the shorter side, on a float angle the nonzero limit's
        right_side = 2 * k0 <= n if exact_angles else left == 0.0
        if right_side:
            lo, hi, summed, other = 1, k0, right, left
        else:
            lo, hi, summed, other = k0 + 1, n, left, right
        if lo > hi:
            return other
        if exact_angles:
            half_angles = _rational_half_angles(p, q, n, lo, hi)
        else:
            angle = math.pi * p / q if exact else theta0
            thetas = grid.thetas[lo - 1:hi]
            half_angles = ((thetas + angle) / 2, (thetas - angle) / 2)
        weights = _weights(n, *half_angles, cn, first_k=lo)
        return other + (summed - other) * float(weights.sum())
    half_angles = _rational_half_angles(p, q, n) if exact else None
    weights = fundamental_weights(grid, x0, cos_n_theta=cn, half_angles=half_angles)
    return float(weights @ f.eval_many(grid.nodes))
