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
D' = theta - theta_{k0}, both in (0, pi/n).  With h = pi/(2n), the nodes
on each side of theta, counted from theta outward by j, have

    |b_k| = x_j = gap/2 + j h,   j = k0 - k, gap = D'  (k <= k0),
                                 j = k - k0 - 1, gap = D  (k > k0),
    cos(n theta) = (-1)^k0 sin(n min(D, D')),

so ell_{n,k} = sin(n min(D, D'))/(2n) * (-1)^j (cot x_j + cot(x_j - reach)),
with the side's reach, which turns x_j into the other half-angle: -a_k on
the shorter side, pi - a_k or a_k - pi on the longer (_reaches).  _terms
computes that one term for the full weight vector, the head of _side_sums
and the sweep's hit corrections alike, so a served order's head terms
equal the full vector's bit for bit.  x_j is a sum of two nonnegative
terms, and x_j - reach keeps at least half of reach (below), so no step
loses more than half of its larger term, and a weight is as accurate as
the gaps, however close theta sits to a node, to 0 or to pi.  The gaps
come from node_offsets' decision (k0, sigma_n) on the ratio r = theta/pi,
the one location unit of every entry point: on an exact ratio p/q from its
integers, D' = pi num/(n den) and D = pi (den - num)/(n den); on a float
ratio from t + e = n r, the exact product in two doubles, as
D' = pi/n ((t - (k0 - 1/2)) + e) and D = pi/n (((k0 + 1/2) - t) - e),
whose leading differences are exact or at least 1/4, so both gaps are
accurate to a few roundings however small.  The angle is then pi r and
its supplement pi (1 - r).  fundamental_weights (at r = acos(x)/pi),
lagrange_eval, lagrange_at_jump and sweep all evaluate that one kernel.
The O(n^2) product form is retained only as a test oracle.

L_n reproduces polynomials of degree < n.  So for f a polynomial base p
plus jumps, f = p + sum_j a_j H(x - x_j), with a_j = right_j - left_j and
H the side rule of eval_many (x >= x_j), and sum_k ell_{n,k} = 1 to
rounding,

    L_n f(x0) = p(x0) + sum_j a_j sum_{x_k >= x_j} ell_{n,k}(x0)
                + sum_{hits} ell_{n,k}(x0) (value_j - [p(x_k) + the jumps
                  the sums put left of x_k]),

the hits being nodes on another jump x_j, where f takes that jump's point
value.  Every inner sum is a k-range of x0's weights: the shorter side of
x0, from the jump outward, or a prefix of either side up to another jump.
The kernel runs over those ranges only, with no evaluation of f at the
nodes and no dot product.  sweep computes them for every n of a run in
batched passes: one node_offsets call, the gates as array tests, and the
segment sums of each side of x0 in O(1) per order.  At a step (one jump on
a constant base) this is the one-side sum,
left + (right - left) * sum_{theta_k < theta0} ell_{n,k}, or its mirror.

A side of length L (k0 on the side k <= k0, n - k0 on the other) is
sum_j (-1)^j g(x_j), with g(x) = cot x + cot(x - reach), x_j = |b_k| =
gap/2 + j h and reach the shift that turns x_j into the second half-angle
(_side_sums).  Its first _HEAD = 32 terms are summed directly.  Past
them, Euler-Boole summation gives the terms a <= j < b of a segment as

    1/2 sum_k e_k h^k [(-1)^a g^(k)(x_a) - (-1)^b g^(k)(x_b)],

with e_0 = 1 and, for odd k, e_k = E_k(0)/k! = -1/2, 1/24, -1/240,
17/40320, -31/725760, 691/159667200, -5461/12454041600 (E_k the Euler
polynomials; e_k = 0 for even k > 0), and cot^(k) x = P_k(cot x), with
P_0(c) = c and P_(k+1)(c) = -(1 + c^2) P_k'(c).  Cut after k = 13, the
remainder is about k! (h/(pi dist))^k / dist at k = 15, dist the distance
from the arguments to the nearest multiple of pi; at dist >= _HEAD h that
is below 2e-18/dist, under a last place of the segment's first term.  Every
tail argument keeps that distance.  The direct head keeps out the pole of
cot x_j as x_j -> 0, and x_j >= _HEAD h past it.  reach keeps x_j - reach
at least min(x_j, theta0/2) (on the side k <= k0) or
min(x_j, (pi - theta0)/2) (on the other) from a multiple of pi;
theta0/2 = (k0 - 1/2) h + D'/2 and (pi - theta0)/2 = (n - k0 - 1/2) h + D/2,
so on a side long enough to have a tail, L > _HEAD, that is _HEAD h too.

sweep serves an order when f has no trig part, the domain holds [-1, 1],
the degree len(poly) - 1 is below n, and one node-proximity test
(_other_jump) passes at every stored jump location.  At the location of
the evaluated jump it finds k0 nodes right of it and none within
2*NODE_ATOL, so nodes k0 and k0 + 1 enclose it with that to spare.  x0
itself takes no gate: node_offsets has decided it from the ratio, the
weights come from the ratio's gaps, and x0 enters only through p(x0).  At
each other jump every node is either more than 2*NODE_ATOL from it or
within NODE_ATOL/2 of it (a hit, corrected with the side the sums gave
that node).  Either way a last-place difference between two cosines
cannot flip a node's side or its hit.  lagrange_at_jump is the definition
the sweep is tested against: the node decision, then the full weight
vector against f at every node, for any f and any order.  Where the sweep
serves an order it agrees with that sum to rounding; the orders it leaves
(trig bases, n <= deg p, a node between NODE_ATOL/2 and 2*NODE_ATOL of a
jump, or between x0 and the stored location) go to lagrange_at_jump.  The
sweep takes the orders piecewise.CHUNK at a time, so its temporaries
follow the block and only the result follows the number of orders.  A grid
computes its angles and nodes only when they are used.

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

import itertools
import math
from fractions import Fraction
from functools import cached_property

import numpy as np

from .piecewise import NODE_ATOL, JumpFunction, blocks, n_array, node_offsets

# _side_sums' direct terms per row, and its Euler-Boole terms (module
# docstring): e_k and P_k's coefficients in ascending powers of cot^2 x,
# for odd k = 1, ..., 13
_HEAD = 32
_EULER_BOOLE = (
    (-1 / 2, (-1, -1)),
    (1 / 24, (-2, -8, -6)),
    (-1 / 240, (-16, -136, -240, -120)),
    (17 / 40320, (-272, -3968, -12096, -13440, -5040)),
    (-31 / 725760, (-7936, -176896, -814080, -1491840, -1209600, -362880)),
    (691 / 159667200, (-353792, -11184128, -71867136, -191431680, -250145280,
                       -159667200, -39916800)),
    (-5461 / 12454041600, (-22368256, -951878656, -8109803520, -29228559360,
                            -54428774400, -55212917760, -29059430400, -6227020800)),
)
# orders per sweep call, which keeps the per-order arrays near 100 KB
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


def _reaches(n, k0, angle: float, supplement: float):
    """The reaches of the sides k <= k0 and k > k0 (_side_sums) at the
    orders n with node index k0: the shorter side takes -a_k, the longer
    pi - a_k or a_k - pi."""
    first = 2 * k0 <= n
    return np.where(first, angle, -supplement), np.where(first, -angle, supplement)


def _terms(n, gap, reach, j):
    """(-1)^j (cot x_j + cot(x_j - reach)), x_j = gap/2 + j pi/(2n): the
    j-th term of a side from x0 outward, which times
    sin(n min(D, D'))/(2n) is the weight of its node (module docstring);
    the arguments broadcast, and j is an integer array."""
    x = j * (math.pi / (2 * n))
    x += gap / 2
    # in place: a sweep block's head is about 256 KB per array
    shifted = x - reach
    for cot in (x, shifted):
        np.tan(cot, out=cot)
        np.divide(1.0, cot, out=cot)
    x += shifted
    x *= np.where(j & 1, -1.0, 1.0)
    return x


def _weights(n: int, k0: int, gap: float, gap_before: float, angle: float, supplement: float):
    """(w, scale) with ell_{n,k} = scale * w[k-1], k = 1..n, at the angle
    with node index k0 and gaps D = gap and D' = gap_before (supplement =
    pi - angle); a caller that sums the weights against values scales the
    sum.  Node k0 - j is term j of the side k <= k0 and node k0 + 1 + j
    term j of the other."""
    before, after = _reaches(n, k0, angle, supplement)
    weights = np.empty(n)
    weights[:k0] = _terms(n, gap_before, before, np.arange(k0 - 1, -1, -1))
    weights[k0:] = _terms(n, gap, after, np.arange(n - k0))
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


def _other_jump(n: np.ndarray, x: float):
    """(count, hit, clear) for a jump at x, in the grids of the orders n.

    _sweep_block reads it at every stored jump location; at the evaluated
    jump it asks for count == k0, clear and no hit.  count is the number of
    nodes with x_k >= x, the nodes eval_many puts right of the jump; hit is
    the index of a node within NODE_ATOL/2 of x, which eval_many gives the
    jump's point value, or 0; clear is whether every node is either such a
    hit or more than 2*NODE_ATOL from x (and no two are hits).  Where clear
    holds, a last-place difference between these cosines and grid.nodes'
    moves no node across x or into or out of NODE_ATOL of it.  Only the
    nearest node angle and its two neighbours can come that close, and
    every node before them lies right of x.
    """
    theta = math.acos(min(max(x, -1.0), 1.0))
    near = np.clip(np.rint(n * (theta / math.pi) + 0.5).astype(np.int64), 1, n)
    # one row each for the nearest node angle and its two neighbours
    k = near + np.array([[-1], [0], [1]])
    valid = (k >= 1) & (k <= n)
    node = np.cos((2 * k - 1) * math.pi / (2 * n))
    dist = np.abs(node - x)
    count = np.maximum(near - 2, 0) + (valid & (node >= x)).sum(axis=0)
    on = valid & (dist <= NODE_ATOL / 2)
    clear = (on | ~(valid & (dist <= 2 * NODE_ATOL))).all(axis=0) & (on.sum(axis=0) <= 1)
    hit = np.where(on, k, 0).max(axis=0)
    return count, hit, clear


def _side_sums(n, gap, reach, cuts) -> np.ndarray:
    """Segment sums of sum_j (-1)^j g(x_j), g(x) = cot x + cot(x - reach),
    x_j = gap/2 + j h, h = pi/(2n): column c of the result sums j over
    [cuts[c-1], cuts[c]) (cuts[-1] read as 0; an empty range sums to 0).

    A row is one side of the jump, from the jump outward, x_j = |b_k|, and
    its length cuts[:, -1] is >= 1.  On the side k <= k0, reach is theta0
    (x_j - reach = -a_k) or -(pi - theta0) (x_j - reach = pi - a_k); on the
    other it is pi - theta0 (a_k - pi) or -theta0 (a_k), whichever keeps
    the argument away from +-pi.  A term is -(cot a_k + cot b_k) on the
    first side and +(cot a_k + cot b_k) on the second.  The terms j < _HEAD
    are summed directly, each segment over its own terms in one pairwise
    fold of the row; a segment's terms j >= _HEAD come from the Euler-Boole
    sum at its two ends (module docstring).  Every step is elementwise or
    along one row, so a row's sums do not depend on the rows beside it.
    """
    step, start = math.pi / (2 * n), gap / 2
    bounds = np.column_stack((np.zeros(n.size, dtype=cuts.dtype), cuts))
    # the head, past a row's length too, where no segment reads it
    j = np.arange(_HEAD)
    terms = _terms(n[:, None], gap[:, None], reach[:, None], j)
    sums = np.empty(cuts.shape)
    for c in range(cuts.shape[1]):
        part = np.where((bounds[:, c, None] <= j) & (j < bounds[:, c + 1, None]), terms, 0.0)
        while part.shape[1] > 1:
            part = part[:, :part.shape[1] // 2] + part[:, part.shape[1] // 2:]
        sums[:, c] = part[:, 0]
    # the tail: (-1)^e (g + sum_k e_k h^k g^(k)) at x_e, for every bound e
    # moved up to _HEAD, halved and differenced across each segment; rows
    # no longer than _HEAD have none
    rows = np.flatnonzero(cuts[:, -1] > _HEAD)
    if not rows.size:
        return sums
    ends = np.maximum(bounds[rows], _HEAD)
    h = step[rows, None]
    x = ends * h + start[rows, None]
    cot = 1.0 / np.tan(np.stack((x, x - reach[rows, None])))
    square, power = cot * cot, h
    tail = cot[0] + cot[1]
    for e_k, p_k in _EULER_BOOLE:
        p = p_k[-1]
        for coefficient in p_k[-2::-1]:
            p = p * square + coefficient
        tail += (e_k * power) * (p[0] + p[1])
        power = power * (h * h)
    tail[ends % 2 == 1] *= -1.0
    sums[rows] += (tail[:, :-1] - tail[:, 1:]) / 2
    return sums


def _sweep_block(f: JumpFunction, i: int, n, k0, gap, gap_before, angle: float, supplement: float):
    """The identity at off-node rows: orders n with node index k0 and gaps
    D = gap and D' = gap_before at the angle of jump i (supplement =
    pi - angle).  Returns (served, values): which rows it serves (see
    sweep), and their values in row order.

    Node k takes the level v_m = p(x0) + f.offsets[m], for the m locations
    at or left of it: the values eval_many gives, not the declared limits.  From x0 outward, each
    side's nodes fall into segments at the other jumps, with levels i+1,
    i+2, ... on the side k <= k0 and i, i-1, ... on the other.  The weights
    sum to 1, so the value is the level of the longer side's far segment
    (v_0 or v_J) plus, over every other segment, its weight sum times its
    level's difference from that one: all of the shorter side and the
    longer side up to its farthest jump.  At one jump on a constant base
    this is the one-side sum of a step, with its arithmetic:
    other + (summed - other) * S.
    """
    served = len(f.base.poly) - 1 < n
    counts, hits = {}, {}
    for j, jump in enumerate(f.jumps):
        count, hit, clear = _other_jump(n, jump.x_float)
        served &= clear
        if j == i:
            # nodes k0 and k0 + 1 enclose the stored location with no node
            # within 2*NODE_ATOL of it
            served &= (count == k0) & (hit == 0)
        else:
            counts[j], hits[j] = count, hit
    # a node that two jumps hit would take only one of their point values
    for hit, other_hit in itertools.combinations(hits.values(), 2):
        served &= (hit == 0) | (hit != other_hit)
    rows = np.flatnonzero(served)
    n, k0, gap, gap_before = n[rows], k0[rows], gap[rows], gap_before[rows]
    jumps, levels = len(f.jumps), f.base(math.cos(angle)) + f.offsets
    first = 2 * k0 <= n
    # the sides k <= k0 and k > k0, from x0 outward: whether each is the
    # shorter, its length, gap and reach, its cut at each other jump on it,
    # and the levels of its segments
    shorter = (first, ~first)
    lengths, gaps = (k0, n - k0), (gap_before, gap)
    reaches = _reaches(n, k0, angle, supplement)
    jump_cuts = ([k0 - counts[j][rows] for j in range(i + 1, jumps)],
                 [counts[j][rows] - k0 for j in range(i - 1, -1, -1)])
    side_levels = (levels[i + 1:], levels[i::-1])
    width = max(jumps - i, i + 1)
    cuts = np.vstack([
        np.column_stack(c + [np.where(short, length, c[-1] if c else 0)] * (width - len(c)))
        for short, length, c in zip(shorter, lengths, jump_cuts)
    ])
    segments = np.zeros(cuts.shape)
    live = np.flatnonzero(cuts[:, -1] > 0)
    segments[live] = _side_sums(
        np.concatenate((n, n))[live], np.concatenate(gaps)[live],
        np.concatenate(reaches)[live], cuts[live],
    )
    # on either side, ell_k = sin(n min(D, D'))/(2n) times the j-th term of
    # _side_sums: (-1)^(k-1) cos(n theta0) = (-1)^(k0+k-1) sin(n min(D, D'))
    scale = np.sin(n * np.minimum(gap, gap_before)) / (2 * n)
    segments *= np.concatenate((scale, scale))[:, None]
    far = np.where(first, levels[0], levels[-1])
    steps = np.vstack([np.pad(lv, (0, width - lv.size)) - far[:, None] for lv in side_levels])
    weighted = (steps * segments).sum(axis=1)
    values = far + (weighted[:n.size] + weighted[n.size:])
    # a node on another jump takes its point value: ell_k times that value
    # less the value the segments gave the node
    for j, hit in hits.items():
        at = np.flatnonzero(hit[rows])
        k, m = hit[rows][at], n[at]
        side = 0 if j > i else 1
        position = k0[at] - k if side == 0 else k - k0[at] - 1
        weight = scale[at] * _terms(m, gaps[side][at], reaches[side][at], position)
        node = np.cos((2 * k - 1) * math.pi / (2 * m))
        given = f.base.eval_many(node) + f.offsets[np.where(k <= counts[j][rows][at], j + 1, j)]
        values[at] += weight * (f.jumps[j].value - given)
    return served, values


def lagrange_at_jump(
    grid: ChebyshevGrid, f: JumpFunction, jump_index: int, ratio=None
) -> float:
    """Interpolant value at the jump location x_i = cos(theta_i): the
    definition of L_n f there, which sweep serves faster for many n.

    ratio is the location theta_i/pi, a Fraction p/q or a float, or None
    for acos(x_i)/pi from the stored location; it drives the node-
    coincidence decision: when the location is a node of this grid the
    interpolant reproduces the declared point value.  Otherwise the kernel
    gives every weight from the jump's two node gaps, and the value is the
    full weight vector against f at every node, for any base and order.
    """
    jump = f.jumps[jump_index]
    if ratio is None:
        ratio = math.acos(jump.x_float) / math.pi
    is_node, k0, gap, gap_before, angle, supplement = _location(ratio, grid.n)
    if is_node:
        return jump.value
    weights, scale = _weights(grid.n, k0, gap, gap_before, angle, supplement)
    return scale * float(weights @ f.eval_many(grid.nodes))


def sweep(f: JumpFunction, jump_index: int, ratio, n_values):
    """L_n f at jump jump_index of f, for many n, through the identity.

    ratio is the jump's location theta0/pi, a Fraction p/q or a float;
    n_values holds the grid orders n >= 1: a range or any other sliceable
    sequence of ints (a list, an integer array).  Returns (served, values),
    one entry per order in the same order: the point value at a node, and
    the identity, batched over _ROWS off-node orders at a time, where its
    gates pass (module docstring).  The values of the other orders are nan;
    lagrange_at_jump gives them, and agrees with a served value to
    rounding.  The orders are taken CHUNK at a time, each block sliced from
    n_values and given its own _location call, so the temporaries follow
    the block and only the result follows the number of orders.
    """
    jump = f.jumps[jump_index]
    served = np.zeros(len(n_values), dtype=bool)
    values = np.full(served.size, np.nan)
    # L_n reproduces only polynomials, and eval_many would raise on a node
    # outside the domain
    polynomial = not f.base.trig and f.domain[0] <= -1.0 and 1.0 <= f.domain[1]
    for lo, hi in blocks(0, served.size):
        n = n_array(n_values[lo:hi])
        if n.min() < 1:
            raise ValueError("grid order must be >= 1")
        is_node, k0, gap, gap_before, angle, supplement = _location(ratio, n)
        served[lo:hi] = is_node
        values[lo:hi][is_node] = jump.value
        if not polynomial:
            continue
        live = np.flatnonzero(~is_node)
        for start in range(0, live.size, _ROWS):
            rows = live[start:start + _ROWS]
            ok, block = _sweep_block(
                f, jump_index, n[rows], k0[rows], gap[rows], gap_before[rows], angle, supplement
            )
            served[lo + rows[ok]] = True
            values[lo + rows[ok]] = block
    return served, values
