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

Every weight is built from the two node gaps of theta: with
theta_{k0} < theta < theta_{k0+1}, D = theta_{k0+1} - theta and
D' = theta - theta_{k0}, both in (0, pi/n).  With h = pi/(2n),

    b_k = D/2 + (k-k0-1) h  (k > k0),    b_k = -(D'/2 + (k0-k) h)  (k <= k0),
    cos(n theta) = (-1)^k0 sin(n min(D, D')),

and a_k = theta + b_k up to k = n - k0, the last k with a_k < pi/2; past
it a_k nears pi, and cot a_k = cot(b_k - (pi - theta)).  The full weight
vector forms every b_k from the nearer of the two nodes, j, as
(k - j) h + (theta_j - theta)/2, whose second term is at most h/2.  So no
step loses more than half of its larger term, and a weight is as accurate
as the gaps, however close theta sits to a node, to 0 or to pi.  The gaps
come from node_offsets' decision (k0, sigma_n) on the ratio r = theta/pi,
the one location unit of every entry point: on an exact ratio p/q from its
integers, D' = pi num/(n den) and D = pi (den - num)/(n den); on a float
ratio from t + e = n r, the exact product in two doubles, as
D' = pi/n ((t - (k0 - 1/2)) + e) and D = pi/n (((k0 + 1/2) - t) - e),
whose leading differences are exact or at least 1/4, so both gaps are
accurate to a few roundings however small.  The angle is then pi r and
its supplement pi (1 - r).  fundamental_weights (at r = acos(x)/pi),
lagrange_eval, lagrange_at_jump and step_sweep all evaluate that one
kernel.  The O(n^2) product form is retained only as a test oracle.

At a pure step (one jump on a constant base, JumpFunction.step_limits) the
nodes on each side of the jump all sample one limit, and sum_k ell_{n,k} = 1
to rounding, so

    L_n f(x0) = left + (right - left) * sum_{theta_k < theta0} ell_{n,k}(x0),

and the kernel runs over the shorter side only: min(k0, n - k0) tangent
pairs, from the jump outward, no evaluation of f at the nodes and no dot
product.  On the shorter side every a_k lies on one side of pi/2.
step_sweep computes that sum for every n of a run in batched passes: one
node_offsets call, the gate as array tests, and the terms of many orders
laid out in blocks of whole rows, each row summed over its own terms.
lagrange_at_jump at a step is a one-order step_sweep, so a sweep value
equals the per-n value bit for bit.  Every other case, and every order the
gate turns away, gets the full weight vector against f at every node, one
order at a time.  A grid computes its angles and nodes only when they are
used.

The node offset of a jump location x0 = cos(theta0) is
sigma_n = frac(n*theta0/pi + 1/2), the fractional position of theta0 inside
the n-th node grid; piecewise.node_offsets computes it (shift 1/2), in
integer arithmetic when theta0/pi is the exact rational p/q, because the
node-coincidence dichotomy (sigma_n = 0) is arithmetic, not numeric.  Every
location argument is that ratio theta0/pi, a Fraction or a float, never
the angle itself.

Everything is pure; grids are immutable and evaluation across n is safe to
parallelize.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

import numpy as np

from .piecewise import NODE_ATOL, JumpFunction, n_array, node_offsets

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


def _split(a):
    """a = high + low, high holding the leading 26 bits (Dekker)."""
    big = 134217729.0 * a  # 2**27 + 1
    high = big - (big - a)
    return high, a - high


def _two_product(a, b):
    """(p, e) with p = a*b rounded and a*b = p + e exactly, for floats or
    float arrays (Python 3.11 has no math.fma)."""
    p = a * b
    (a_hi, a_lo), (b_hi, b_lo) = _split(a), _split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _float_gaps(ratio, n, k0):
    """(D, D', angle, supplement) at the angle pi*ratio of the float ratio,
    in the grids of the orders n with node index k0.

    With t + e = n*ratio exactly, n D/pi = (k0 + 1/2) - t - e and
    n D'/pi = t - (k0 - 1/2) + e; t lies within 1/2 of k0, so each leading
    difference is exact or at least 1/4, and both gaps are accurate to a
    few roundings however small.
    """
    t, t_err = _two_product(n, ratio)
    scale = math.pi / n
    return (
        (((k0 + 0.5) - t) - t_err) * scale,
        ((t - (k0 - 0.5)) + t_err) * scale,
        math.pi * ratio,
        math.pi * (1.0 - ratio),
    )


def _location(ratio, n):
    """(is_node, k0, D, D', angle, supplement) of the location ratio
    theta0/pi in the grids of the orders n.

    ratio is a Fraction p/q or a float; n an int or an integer array.
    is_node and k0 are node_offsets' (shift 1/2); D and D' are the gaps
    theta_{k0+1} - theta0 and theta0 - theta_{k0}, positive at every
    off-node row; angle is theta0 as a double and supplement pi - theta0.
    """
    k0, num, den, is_node = node_offsets(ratio, n, 0.5)
    if not isinstance(ratio, Fraction):
        return (is_node, k0, *_float_gaps(ratio, n, k0))
    p, q = ratio.numerator, ratio.denominator
    # sigma_n = num/den = n (theta0 - theta_k0)/pi, with num < den <= 2q
    before, after = num, den - num
    if isinstance(n, np.ndarray):
        k0, before, after = k0.astype(np.int64), before.astype(float), after.astype(float)
    scale = math.pi / (n * float(den))
    return is_node, k0, after * scale, before * scale, math.pi * p / q, math.pi * (q - p) / q


def _cot_sum(ab: np.ndarray) -> np.ndarray:
    """cot a + cot b for the stacked half-angles ab = (a, b), written into a."""
    np.tan(ab, out=ab)
    np.divide(1.0, ab, out=ab)
    ab[0] += ab[1]
    return ab[0]


def _weights(n: int, k0: int, gap: float, gap_before: float, angle: float, supplement: float):
    """(w, scale) with ell_{n,k} = scale * w[k-1], k = 1..n, at the angle
    with node index k0 and gaps D = gap and D' = gap_before (supplement =
    pi - angle); a caller that sums the weights against values scales the
    sum."""
    ab = np.empty((2, n))
    a, b = ab[0], ab[1]
    # b_k = (k - j) h + (theta_j - theta)/2 from the nearer node j, whose
    # half-gap is at most h/2: every b_k keeps half its leading term
    j, half_gap = (k0, -gap_before / 2) if gap_before <= gap else (k0 + 1, gap / 2)
    np.multiply(np.arange(1 - j, n + 1 - j, dtype=float), math.pi / (2 * n), out=b)
    b += half_gap
    np.add(b, angle, out=a)
    # a_k passes pi/2 after k = n - k0: there a_k - pi stands in for it
    np.subtract(b[n - k0:], supplement, out=a[n - k0:])
    weights = _cot_sum(ab)
    # (-1)^(k-1) cos(n theta) = (-1)^(k0+k-1) sin(n min(D, D'))
    weights[(k0 + 1) % 2::2] *= -1.0
    return weights, math.sin(n * min(gap, gap_before)) / (2 * n)


def fundamental_weights(grid: ChebyshevGrid, x: float) -> np.ndarray:
    """All ell_{n,k}(x), k = 1..n, via the trigonometric form.

    A node within NODE_ATOL of x gets the cardinal weights.
    """
    if not -1.0 <= x <= 1.0:
        raise ValueError("argument must lie in [-1, 1]")
    theta = math.acos(x)
    j = _coincident_node(grid, x, theta)
    if j is not None:
        out = np.zeros(grid.n)
        out[j] = 1.0
        return out
    # more than NODE_ATOL from every node, theta is far enough from each
    # node angle for floor(t_n) to be the node index and both gaps positive
    n, ratio = grid.n, theta / math.pi
    k0 = int(n * ratio + 0.5)
    weights, scale = _weights(n, k0, *_float_gaps(ratio, n, k0))
    weights *= scale
    return weights


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


def _side_sums(n, gap, reach, count) -> np.ndarray:
    """sum_{j<count} (-1)^j (cot x_j + cot(x_j - reach)) for each row, with
    x_j = gap/2 + j pi/(2n).

    A row is one side of the jump, from the jump outward: x_j = |b_k|, and
    reach is theta0 on the side k <= k0 (x_j - reach = -a_k) and
    pi - theta0 on the other (x_j - reach = a_k - pi), so a term is
    -(cot a_k + cot b_k) on the first side and +(cot a_k + cot b_k) on the
    second.  Every count is >= 1.  The rows, taken in order of count, fill
    blocks of up to _BLOCK terms (or one longer row): a block is a
    rectangle, one row per grid and one column per term, padded to its
    longest row, and is computed by broadcasting into one buffer that every
    block reuses.  Each row is summed over its own terms, so its sum does
    not depend on its block.
    """
    if not n.size:
        return np.empty(0)
    order = np.argsort(count, kind="stable")
    n, count, reach = n[order], count[order], reach[order]
    step, start = math.pi / (2 * n), gap[order] / 2
    size = max(_BLOCK, int(count[-1]))
    buffer = np.empty((2, size))
    columns = np.arange(int(count[-1]), dtype=float)
    sums = np.empty(n.size)
    i = 0
    while i < n.size:
        fits = np.arange(1, min(n.size - i, size // int(count[i])) + 1)
        j = i + int(np.searchsorted(fits * count[i:i + fits.size], size, side="right"))
        rows, width = slice(i, j), int(count[j - 1])
        xv = buffer[:, :(j - i) * width]
        x, v = (half.reshape(j - i, width) for half in xv)
        np.multiply(columns[:width], step[rows, None], out=x)
        x += start[rows, None]
        np.subtract(x, reach[rows, None], out=v)
        # the padding past a row's count holds values that no sum reads
        terms = _cot_sum(xv).reshape(j - i, width)
        terms[:, 1::2] *= -1.0
        bounds = np.arange(j - i) * width
        bounds = np.column_stack((bounds, bounds + count[rows])).ravel()[:-1]
        sums[rows] = np.add.reduceat(terms.ravel(), bounds)[::2]
        i = j
    out = np.empty(n.size)
    out[order] = sums
    return out


def _one_side(f: JumpFunction, n, k0, gap, gap_before, angle: float, supplement: float):
    """The one-side sum at off-node rows of a step (f.step_limits set).

    The rows are orders n with node index k0 and gaps D = gap and
    D' = gap_before at the angle (supplement = pi - angle).  Returns
    (served, values): which rows the sum serves, and their values in row
    order.  A row is served when f's domain holds [-1, 1] and nodes k0 and
    k0 + 1 enclose both x0 and the stored location with more than
    2*NODE_ATOL to spare.  Nodes 1..k0 (theta_k < theta0) then sample the
    right limit and the others the left one, and the weights sum to 1 to
    rounding, so the value is the other side's limit plus the difference of
    the limits times the weights summed over the shorter side, or that limit
    alone when the shorter side is empty.
    """
    left, right = f.step_limits
    # a domain holding [-1, 1] holds every node, so eval_many would not raise
    if not (f.domain[0] <= -1.0 and 1.0 <= f.domain[1]):
        return np.zeros(n.size, dtype=bool), np.empty(0)
    served = _brackets(n, k0, math.cos(angle), f.jumps[0].x_float)
    n, k0, gap, gap_before = n[served], k0[served], gap[served], gap_before[served]
    right_side = 2 * k0 <= n
    count = np.where(right_side, k0, n - k0)
    summed = np.where(right_side, right, left)
    values = np.where(right_side, left, right)
    terms = np.flatnonzero(count > 0)
    n, gap, gap_before, right_side = n[terms], gap[terms], gap_before[terms], right_side[terms]
    weight_sums = _side_sums(
        n,
        np.where(right_side, gap_before, gap),
        np.where(right_side, angle, supplement),
        count[terms],
    )
    # on either side, ell_k = sin(n min(D, D'))/(2n) times the j-th term of
    # _side_sums: (-1)^(k-1) cos(n theta0) = (-1)^(k0+k-1) sin(n min(D, D'))
    weight_sums *= np.sin(n * np.minimum(gap, gap_before)) / (2 * n)
    values[terms] += (summed[terms] - values[terms]) * weight_sums
    return served, values


def _general_sum(grid: ChebyshevGrid, f: JumpFunction, k0, gap, gap_before, angle, supplement):
    """The full weight vector against f at every node, off a node; a node
    within NODE_ATOL of cos(angle) gets the cardinal weights, as in
    fundamental_weights."""
    values = f.eval_many(grid.nodes)
    j = _coincident_node(grid, math.cos(angle), angle)
    if j is not None:
        return float(values[j])
    weights, scale = _weights(grid.n, k0, gap, gap_before, angle, supplement)
    return scale * float(weights @ values)


def lagrange_at_jump(
    grid: ChebyshevGrid, f: JumpFunction, jump_index: int, ratio=None
) -> float:
    """Interpolant value at the jump location x_i = cos(theta_i).

    ratio is the location theta_i/pi, a Fraction p/q or a float, or None
    for acos(x_i)/pi from the stored location; it drives the node-
    coincidence decision: when the location is a node of this grid the
    interpolant reproduces the declared point value.  Otherwise the kernel
    gives the weights from the jump's two node gaps, and they are summed
    one of two ways:

      * one side, where f.step_limits is set: a one-order step_sweep, which
        takes the shorter side's sum where _one_side serves the order;
      * general, for everything else: the full weight vector against f at
        every node.

    The limits are the values f takes at the nodes (step_limits), not the
    declared ones.  Where the one-side sum applies, the general sum makes
    the same node decisions and agrees to rounding.
    """
    jump = f.jumps[jump_index]
    if ratio is None:
        ratio = math.acos(jump.x_float) / math.pi
    if f.step_limits is not None:
        return float(step_sweep(f, ratio, [grid.n])[0])
    is_node, k0, gap, gap_before, angle, supplement = _location(ratio, grid.n)
    if is_node:
        return jump.value
    return _general_sum(grid, f, k0, gap, gap_before, angle, supplement)


def step_sweep(f: JumpFunction, ratio, n_values) -> np.ndarray:
    """L_n f at the jump of a single-jump constant-base f, for many n.

    ratio is the jump's location theta0/pi, a Fraction p/q or a float;
    n_values holds the grid orders n >= 1, a range or any other sequence of
    ints.  The result has one value per order, in the same order: the point
    value at a node, the one-side sum over the shorter side, batched over
    _ROWS off-node orders at a time, where _one_side serves the order, and the
    general sum, one order at a time, at the rest.  lagrange_at_jump gives
    the same value at each order.
    """
    if f.step_limits is None:
        raise ValueError("step_sweep requires exactly one jump on a constant continuous part")
    n = n_array(n_values)
    if n.size and n.min() < 1:
        raise ValueError("grid order must be >= 1")
    is_node, k0, gap, gap_before, angle, supplement = _location(ratio, n)
    out = np.full(n.size, f.jumps[0].value)
    live = np.flatnonzero(~is_node)
    for start in range(0, live.size, _ROWS):
        rows = live[start:start + _ROWS]
        served, values = _one_side(
            f, n[rows], k0[rows], gap[rows], gap_before[rows], angle, supplement
        )
        out[rows[served]] = values
        for row in rows[~served].tolist():
            out[row] = _general_sum(
                ChebyshevGrid(int(n[row])), f, int(k0[row]), gap[row], gap_before[row],
                angle, supplement,
            )
    return out
