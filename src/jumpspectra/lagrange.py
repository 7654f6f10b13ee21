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

fundamental_weights, lagrange_eval, lagrange_at_jump and step_sweep all
evaluate that one kernel.  Near coincidence b_k is small and carries the whole
singularity, so its relative accuracy sets the accuracy of the sum.  When
theta = pi p/q is an exact rational angle, lagrange_at_jump and step_sweep
form the half-angles from exact integer numerators,

    (theta_k -+ theta)/2 = pi ((2k-1) q -+ 2np) / (4nq),

so b_k is exact to one rounding however close theta sits to a node; a float
angle uses (theta_k -+ theta)/2 directly.  The O(n^2) product form is
retained only as a test oracle.

At a pure step (one jump on a constant base, JumpFunction.step_limits) the
nodes on each side of the jump all sample one limit, and sum_k ell_{n,k} = 1,
so

    L_n f(x0) = left + (right - left) * sum_{theta_k < theta0} ell_{n,k}(x0),

and the kernel runs over the shorter side only: min(k0, n - k0) tangent
pairs, no evaluation of f at the nodes and no dot product.  Float weights
sum to 1 only to rounding, so on a float angle the one-side sum is taken
only when one limit is 0, over the other limit's side.  step_sweep computes
that sum for every n of a run in batched passes: one node_offsets call, the
gate as array tests, cos(n*theta0) once per distinct residue, and the terms
of many orders laid out in blocks of whole rows, each row summed over its
own terms.  lagrange_at_jump makes the same call with one row, so a
sweep value equals the per-n value bit for bit.  Every other case, and
every order the gate turns away, gets the full weight vector against f at
every node, one order at a time.  A grid computes its angles and nodes only
when they are used.

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

from .piecewise import NODE_ATOL, JumpFunction, n_array, node_offsets

# integers up to this bound are exact doubles
_EXACT_DOUBLE_INT = 2**53
# step_sweep's one-side sum: terms per block, whose two buffers take
# 256 KB, and orders per call, which keeps the per-order arrays near 100 KB.
# With both, the benchmark's lagrange_sweep peak RSS reads about 0.5 MB
# above the one-order-at-a-time loop's (0.9 MB with every order in one
# call); smaller blocks cost time
_BLOCK = 2**14
_ROWS = 512


class ChebyshevGrid:
    """Chebyshev nodes cos((2k-1) pi / (2n)), k = 1..n (descending in x).

    thetas and nodes are computed on first use.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("grid order must be >= 1")
        self.n = int(n)

    @cached_property
    def thetas(self) -> np.ndarray:
        return np.arange(1, 2 * self.n, 2) * math.pi / (2 * self.n)

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


def _cot_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """cot a + cot b, written into a; b is overwritten too."""
    np.tan(a, out=a)
    np.tan(b, out=b)
    np.divide(1.0, a, out=a)
    np.divide(1.0, b, out=b)
    a += b
    return a


def _weights(n: int, a: np.ndarray, b: np.ndarray, cos_n_theta: float) -> np.ndarray:
    """cos(n theta)/(2n) * (cot a_k + cot b_k) * (-1)^(k-1), k = 1..n.

    a and b are the half-angles (theta_k + theta)/2 and (theta_k - theta)/2;
    both arrays are overwritten.
    """
    a = _cot_sum(a, b)
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


def _cos_n_theta(theta0, n: int) -> float:
    """cos(n*theta0); on an exact angle pi*p/q, n*p is reduced mod 2q exactly
    before the single cosine call."""
    if isinstance(theta0, Fraction):
        p, q = theta0.numerator, theta0.denominator
        return math.cos(math.pi * (n * p % (2 * q)) / q)
    return math.cos(n * theta0)


def _cos_n_thetas(theta0, ns: list[int]) -> np.ndarray:
    """_cos_n_theta at each n, on an exact angle once per distinct n*p mod 2q
    (a table of all 2q residues would cost O(q) whatever the n)."""
    if not isinstance(theta0, Fraction):
        return np.array([_cos_n_theta(theta0, n) for n in ns])
    p, q = theta0.numerator, theta0.denominator
    residues = [n * p % (2 * q) for n in ns]
    cos = {r: _cos_n_theta(theta0, n) for r, n in dict(zip(residues, ns)).items()}
    return np.array([cos[r] for r in residues])


def _rational_half_angles(p: int, q: int, n: int):
    """(theta_k + theta0)/2 and (theta_k - theta0)/2 for theta0 = pi p/q, k = 1..n.

    Both are pi*m/(4nq) with the integer m = (2k-1) q +- 2np, |m| < 4nq;
    None when 4nq passes 2**53, above which not every m is an exact double.
    """
    if 4 * n * q > _EXACT_DOUBLE_INT:
        return None
    scale = math.pi / (4 * n * q)
    a = np.arange(q + 2 * n * p, (2 * n + 1) * q + 2 * n * p, 2 * q, dtype=float)
    b = np.arange(q - 2 * n * p, (2 * n + 1) * q - 2 * n * p, 2 * q, dtype=float)
    a *= scale
    b *= scale
    return a, b


def _brackets(n: np.ndarray, k0: np.ndarray, *xs: float) -> np.ndarray:
    """For each row (n, k0): whether nodes k0 and k0 + 1 (1-based) of the
    n-th grid enclose every x with more than 2*NODE_ATOL to spare; a missing
    node (k0 = 0 or n) bounds nothing.

    Where this holds, neither JumpFunction.eval_many nor _coincident_node
    finds a node within NODE_ATOL of any x.  The nodes' angles
    (2k-1)*pi/(2n) are the doubles of ChebyshevGrid.thetas, but their
    cosines may differ from grid.nodes' in the last place; the second
    NODE_ATOL covers that.
    """
    above = np.where(k0 > 0, np.cos((2 * k0 - 1) * math.pi / (2 * n)), np.inf)
    below = np.where(k0 < n, np.cos((2 * k0 + 1) * math.pi / (2 * n)), -np.inf)
    inside = np.ones(n.size, dtype=bool)
    for x in xs:
        inside &= (above - x > 2 * NODE_ATOL) & (x - below > 2 * NODE_ATOL)
    return inside


def _side_sums(theta0, exact: bool, n, lo, count) -> np.ndarray:
    """sum_{k=lo}^{lo+count-1} (-1)^(k-1) (cot a_k + cot b_k) for each row.

    Every count is >= 1.  The rows, taken in order of count, fill blocks of
    up to _BLOCK terms (or one longer row): a block is a rectangle, one row
    per grid and one column per k - lo, padded to its longest row, and is
    computed by broadcasting into two buffers that every block reuses.  Each row is
    summed over its own terms, so its sum does not depend on its block.
    exact takes the half-angles pi*m/(4nq) of the exact angle pi*p/q =
    theta0 (every 4nq <= 2**53); otherwise theta0 is a float angle and they
    are (theta_k +- theta0)/2 with theta_k the doubles of
    ChebyshevGrid.thetas.
    """
    order = np.argsort(count, kind="stable")
    n, lo, count = n[order], lo[order], count[order]
    size = max(_BLOCK, int(count[-1]))
    a, b = np.empty(size), np.empty(size)
    if exact:
        p, q = theta0.numerator, theta0.denominator
        step = 2 * q
        first = (2 * lo - 1) * q
        row_a = (first + 2 * p * n).astype(float)
        row_b = (first - 2 * p * n).astype(float)
        row_scale = math.pi / (4 * q * n).astype(float)
    else:
        step = 2
        row_a = (2 * lo - 1).astype(float)
        row_scale = (2 * n).astype(float)
    # step * (k - lo): with the rows' first terms, the integers (2k-1) q +- 2np
    # or 2k - 1, all below 2**53 and so exact as doubles
    columns = np.arange(int(count[-1])) * float(step)
    sums = np.empty(n.size)
    i = 0
    while i < n.size:
        fits = np.arange(1, min(n.size - i, size // int(count[i])) + 1)
        j = i + int(np.searchsorted(fits * count[i:i + fits.size], size, side="right"))
        rows, width = slice(i, j), int(count[j - 1])
        x = a[:(j - i) * width].reshape(j - i, width)
        y = b[:(j - i) * width].reshape(j - i, width)
        np.add(row_a[rows, None], columns[:width], out=x)
        if exact:
            np.add(row_b[rows, None], columns[:width], out=y)
            x *= row_scale[rows, None]
            y *= row_scale[rows, None]
        else:
            x *= math.pi
            x /= row_scale[rows, None]
            np.subtract(x, theta0, out=y)
            y /= 2
            x += theta0
            x /= 2
        # the padding past a row's count holds finite values that no sum reads
        _cot_sum(x, y)
        x[:, 1::2] *= -1.0
        bounds = np.arange(j - i) * width
        bounds = np.column_stack((bounds, bounds + count[rows])).ravel()[:-1]
        block = np.add.reduceat(x.ravel(), bounds)[::2]
        # (-1)^(k-1) = (-1)^(k - lo) * (-1)^(lo - 1)
        np.negative(block, out=block, where=lo[rows] % 2 == 0)
        sums[rows] = block
        i = j
    out = np.empty(n.size)
    out[order] = sums
    return out


def _one_side(f: JumpFunction, theta0, n: np.ndarray, k0: np.ndarray):
    """The one-side sum at off-node rows (n, k0) of a step (f.step_limits set).

    Returns (served, values): which rows the sum serves, and their values in
    row order.  A row is served when f's domain holds [-1, 1], nodes k0 and
    k0 + 1 enclose both x0 and the stored location with more than
    2*NODE_ATOL to spare, and the half-angles are exact (4nq <= 2**53) or
    one limit is 0.  Nodes 1..k0 (theta_k < theta0) then sample the right
    limit and the others the left one, so the value is the other side's
    limit plus the difference of the limits times the weights summed over
    one index range, or that limit alone when the range is empty.  With
    exact half-angles the range is the shorter one.  Float half-angles make
    the weights sum to 1 only to rounding, so there the range is the nonzero
    limit's, and the value does not use sum = 1.
    """
    left, right = f.step_limits
    # a domain holding [-1, 1] holds every node, so eval_many would not raise
    if not (f.domain[0] <= -1.0 and 1.0 <= f.domain[1]):
        return np.zeros(n.size, dtype=bool), np.empty(0)
    if isinstance(theta0, Fraction):
        angle = math.pi * theta0.numerator / theta0.denominator
        exact = n <= _EXACT_DOUBLE_INT // (4 * theta0.denominator)
    else:
        angle = theta0
        exact = np.zeros(n.size, dtype=bool)
    # float half-angles and cos(n*theta0) are rounded apart, so float weights
    # sum to 1 only to about 1e-13 (1e-9 beside a node): there the one-side
    # sum is taken only with one limit 0, whose side it leaves out, so the
    # value never rests on sum = 1
    served = (exact | (0.0 in (left, right))) & _brackets(
        n, k0, math.cos(angle), f.jumps[0].x_float
    )
    n, k0, exact = n[served], k0[served], exact[served]
    # nodes 1..k0 sample the right limit, nodes k0+1..n the left one; the
    # sum runs over the shorter side, on a float angle the nonzero limit's
    right_side = np.where(exact, 2 * k0 <= n, left == 0.0)
    lo = np.where(right_side, 1, k0 + 1)
    count = np.where(right_side, k0, n - k0)
    summed = np.where(right_side, right, left)
    values = np.where(right_side, left, right)
    terms = np.flatnonzero(count > 0)
    n, lo, count, exact = n[terms], lo[terms], count[terms], exact[terms]
    weight_sums = np.empty(terms.size)
    for rows, exact_rows in ((exact, True), (~exact, False)):
        if rows.any():
            weight_sums[rows] = _side_sums(
                theta0 if exact_rows else angle, exact_rows, n[rows], lo[rows], count[rows]
            )
    weight_sums *= _cos_n_thetas(theta0, n.tolist()) / (2 * n)
    values[terms] += (summed[terms] - values[terms]) * weight_sums
    return served, values


def _general_sum(grid: ChebyshevGrid, f: JumpFunction, theta0) -> float:
    """The full weight vector against f at every node, off a node."""
    n = grid.n
    cn = _cos_n_theta(theta0, n)
    if isinstance(theta0, Fraction):
        p, q = theta0.numerator, theta0.denominator
        x0 = math.cos(math.pi * p / q)
        half_angles = _rational_half_angles(p, q, n)
    else:
        x0 = math.cos(theta0)
        half_angles = None
    weights = fundamental_weights(grid, x0, cos_n_theta=cn, half_angles=half_angles)
    return float(weights @ f.eval_many(grid.nodes))


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

      * one side, where f.step_limits is set and _one_side serves the
        order: a one-row call into the batched sum of step_sweep;
      * general, for everything else: the full weight vector against f at
        every node.

    The limits are the values f takes at the nodes (step_limits), not the
    declared ones.  Where the one-side sum applies, the general sum makes
    the same node decisions and agrees to rounding.
    """
    jump = f.jumps[jump_index]
    if theta0 is None:
        theta0 = math.acos(jump.x_float)
    ratio = theta0 if isinstance(theta0, Fraction) else theta0 / math.pi
    k0, _, _, is_node = node_offsets(ratio, grid.n, 0.5)
    if is_node:
        return jump.value
    if f.step_limits is not None:
        served, values = _one_side(f, theta0, np.array([grid.n]), np.array([int(k0)]))
        if served[0]:
            return float(values[0])
    return _general_sum(grid, f, theta0)


def step_sweep(f: JumpFunction, theta0, n_values) -> np.ndarray:
    """L_n f at the jump of a single-jump constant-base f, for many n.

    theta0 is the jump's angle, a Fraction p/q for pi*p/q or a float; n_values
    holds the grid orders n >= 1, a range or any other sequence of ints.  The
    result has one value per order, in the same order, each the value
    lagrange_at_jump gives at that order: the point value at a node, the
    one-side sum, batched over _ROWS off-node orders at a time, where
    _one_side serves the order, and the general sum, one order at a time, at
    the rest.
    """
    if f.step_limits is None:
        raise ValueError("step_sweep requires exactly one jump on a constant continuous part")
    n = n_array(n_values)
    if n.size and n.min() < 1:
        raise ValueError("grid order must be >= 1")
    ratio = theta0 if isinstance(theta0, Fraction) else theta0 / math.pi
    k0, _, _, is_node = node_offsets(ratio, n, 0.5)
    out = np.full(n.size, f.jumps[0].value)
    live = np.flatnonzero(~is_node)
    for start in range(0, live.size, _ROWS):
        rows = live[start:start + _ROWS]
        served, values = _one_side(f, theta0, n[rows], k0[rows].astype(np.int64))
        out[rows[served]] = values
        for row in rows[~served].tolist():
            out[row] = _general_sum(ChebyshevGrid(int(n[row])), f, theta0)
    return out
