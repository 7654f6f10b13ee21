"""Shepard inverse-distance operators on the uniform grid k/n in [0, 1].

    S_{n,s} f(x) = sum_k f(k/n) |x - k/n|^(-s) / sum_k |x - k/n|^(-s)

At a grid node the operator reproduces the sample exactly; elsewhere it is
a convex combination of the samples, so values always stay inside the
sampled range.

Node coincidences are decided by piecewise.node_offsets (shift 0): by
integer divisibility (q | n p) for a rational evaluation point x0 = p/q,
never by floating-point closeness, and by the offset rule of the piecewise
module for a float point.  The weights come from the same call: off a node,
with k0 = floor(n x0) and sigma = frac(n x0) = num/den, the distances
n |x0 - k/n| are (k0 - k) + sigma for k <= k0 and (k - k0 - 1) + (1 - sigma)
after it, exact integers plus the offset, and (d_min/d_k)^s with
d_min = min(sigma, 1 - sigma) > 0 cannot overflow or divide by zero for any
s in the supported box [1, 20].

step_sweep evaluates the operator at the jump of a single-jump,
constant-base function for a whole range of n at once.  It rearranges the
weighted sum by factoring n^s out of the weights: with sigma = frac(n x0)
the numerator and denominator reduce to the partial sums
A = sum_{m=0}^{k0} (sigma+m)^(-s) and B = sum_{m=0}^{n-k0-1} (1-sigma+m)^(-s),
so S = (left*A + right*B)/(A+B).  Each partial sum is a difference of two
tails, sum_{m=0}^{M-1} (c+m)^(-s) = H(c) - H(c+M), with H = -digamma for
s = 1 and H = zeta(s, .) for s > 1, so the sweep is O(1) per n for every
s; the rearrangement is equality-tested against shepard_eval.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import digamma, zeta

from . import piecewise
from .piecewise import NODE_ATOL, JumpFunction, blocks, n_array, node_offsets
from .specfun import SHEPARD_S_MAX, SHEPARD_S_MIN


@dataclass(frozen=True)
class ShepardConfig:
    """Exponent s in [1, 20] and grid order n (nodes k/n, k = 0..n)."""

    s: float
    n: int

    def __post_init__(self):
        if not SHEPARD_S_MIN <= self.s <= SHEPARD_S_MAX:
            raise ValueError(
                f"s={self.s} outside supported box [{SHEPARD_S_MIN}, {SHEPARD_S_MAX}]"
            )
        if self.n < 1:
            raise ValueError("grid order must be >= 1")

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n + 1) / self.n


def _offset_sum(cfg: ShepardConfig, f: JumpFunction, k0, num, den) -> float:
    """Operator value off a node, at the point of node index k0 and offset
    sigma = num/den (node_offsets, shift 0)."""
    # sigma and 1 - sigma each rounded once, so neither reads 0 off a node
    before, after = num / den, (den - num) / den
    dist = np.concatenate((np.arange(k0, -1, -1) + before, np.arange(cfg.n - k0) + after))
    weights = (min(before, after) / dist) ** cfg.s
    return float(np.sum(f.eval_many(cfg.nodes) * weights) / np.sum(weights))


def shepard_eval(cfg: ShepardConfig, f: JumpFunction, x) -> float:
    """Operator value at x in [0, 1] (a float or a Fraction); reproduces f
    exactly at grid nodes."""
    k0, num, den, is_node = node_offsets(x, cfg.n, 0)
    if is_node:
        return f.eval(k0 / cfg.n)
    return _offset_sum(cfg, f, k0, num, den)


def shepard_at_jump(cfg: ShepardConfig, f: JumpFunction, jump_index: int, x0=None) -> float:
    """Operator value at a declared jump, with the exact node branch.

    x0 defaults to the stored jump location (a Fraction is honored
    exactly).  Equals shepard_eval at the same point.
    """
    jump = f.jumps[jump_index]
    k0, num, den, is_node = node_offsets(jump.x if x0 is None else x0, cfg.n, 0)
    if is_node:
        return jump.value
    return _offset_sum(cfg, f, k0, num, den)


def _tail(s: float):
    """H with sum_{m=0}^{M-1} (c+m)^(-s) = H(c) - H(c+M)."""
    if s == 1.0:
        return lambda c: -digamma(c)
    return lambda c: zeta(s, c)


def step_sweep(f: JumpFunction, s: float, n_values) -> np.ndarray:
    """S_{n,s} f at the jump of a single-jump constant-base f, for many n.

    Requires exactly one jump on a constant continuous part (the canonical
    steps qualify) and weights the limits f.step_limits gives, the values f
    takes at the nodes, so the values equal shepard_at_jump for each n.

    n_values holds the grid orders n >= 1: a range or any other sliceable
    sequence of ints (a list, an integer array).  The result has one value
    per order, in the same order.  The orders are taken CHUNK at a time,
    each block sliced from n_values and given its own node_offsets call, so
    the sweep's temporaries follow the block and only the result follows
    the number of orders.

    On an exact location p/q with q no larger than the number of orders
    and than CHUNK, sigma = r/q takes only q values, so the two head tails
    H(sigma) and H(1 - sigma) come from one table per residue r; otherwise
    each order takes its four tails.  Both routes give the same doubles.
    An order with a node within 2*NODE_ATOL of x0 that is not x0 itself
    goes to shepard_at_jump: eval_many may give that node the jump's point
    value, and its sigma may round to 0 or 1.

    For s > 1 each tail zeta(s, c) carries the 1/(s-1) pole, which cancels
    in the difference, so the absolute error grows roughly as 4e-17/(s-1),
    up to about 4e-11 at s = 1 + 1e-6 and 4e-8 at s = 1 + 1e-9 for n <= 10^4.
    """
    limits = f.step_limits
    if limits is None:
        raise ValueError("step_sweep requires exactly one jump on a constant continuous part")
    if not SHEPARD_S_MIN <= s <= SHEPARD_S_MAX:
        raise ValueError(
            f"s={s} outside supported box [{SHEPARD_S_MIN}, {SHEPARD_S_MAX}]"
        )
    jump = f.jumps[0]
    tail = _tail(float(s))
    out = np.empty(len(n_values))
    heads, exact = None, isinstance(jump.x, Fraction)
    if exact and jump.x.denominator <= min(out.size, piecewise.CHUNK):
        # r/q and 1.0 - r/q are the doubles the per-order route forms;
        # (q - r)/q can round differently
        residue_sigma = np.arange(jump.x.denominator) / jump.x.denominator
        heads = tail(residue_sigma), tail(1.0 - residue_sigma)
    for lo, hi in blocks(0, out.size):
        orders = n_array(n_values[lo:hi])
        k0, num, den, node = node_offsets(jump.x, orders, 0)
        live, close = ~node, ()
        # off a node sigma >= 1/q, so an exact p/q with q n < 1/(2*NODE_ATOL)
        # has no node within 2*NODE_ATOL of x0
        if not (exact and jump.x.denominator * int(orders.max()) < 0.5 / NODE_ATOL):
            sigma = np.asarray(num / den, dtype=float)
            near = np.minimum(sigma, 1.0 - sigma) <= 2 * NODE_ATOL * orders
            close = np.flatnonzero(live & near)
            live[close] = False
        num, k0, n = num[live], k0[live].astype(float), orders[live].astype(float)
        # asarray turns the Python-int quotients of a large p/q into doubles
        sigma = np.asarray(num / den, dtype=float)
        if heads is None:
            head_a, head_b = tail(sigma), tail(1.0 - sigma)
        else:
            residue = num.astype(int)
            head_a, head_b = heads[0][residue], heads[1][residue]
        a = head_a - tail(sigma + k0 + 1.0)
        b = head_b - tail(n - k0 + 1.0 - sigma)
        block = out[lo:hi]
        block[:] = jump.value
        block[live] = (limits[0] * a + limits[1] * b) / (a + b)
        for i in close:
            block[i] = shepard_at_jump(ShepardConfig(s, int(orders[i])), f, 0)
    return out
