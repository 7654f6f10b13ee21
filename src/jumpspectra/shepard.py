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
so S = (left*A + right*B)/(A+B).  Each is a partial sum
P(c, M) = sum_{m=0}^{M-1} (c+m)^(-s), with c = sigma or 1 - sigma in (0, 1)
and M = k0 + 1 or n - k0 >= 1, and step_sweep takes it in O(1) per order.
For s = 1 it is the difference of two tails, H(c) - H(c+M), with
H = -digamma.  For s > 1 both sums are taken in units of d^(-s), with
d = min(sigma, 1 - sigma) as in the weights above, so every term is at most
1, the nearer side's first term is 1, and nothing overflows however close
x0 lies to a node.  Their first _HEAD = 16 terms are summed directly.
Past them, Euler-Maclaurin summation gives the terms 16 <= m < M, with
a = c + 16 and b = c + M, as

    int_a^b x^(-s) dx + G(a) - G(b),
    G(x) = x^(-s) (1/2 + sum_{k=1}^{6} B_2k/(2k)! (s)_(2k-1) x^(1-2k)),

with B_2k = 1/6, -1/30, 1/42, -1/30, 5/66, -691/2730 (the Bernoulli
numbers) and (s)_j = s (s+1) ... (s+j-1).  The integral is taken as
a^(1-s) (-expm1(-(s-1) log1p((M-16)/a)))/(s-1), which has no pole at s = 1:
as s -> 1 it tends to log(b/a) with nothing to cancel, where the difference
of two zeta(s, .) tails loses about 1e-16/(s-1) to their 1/(s-1) poles.
Every derivative of x^(-s) keeps one sign and shrinks in magnitude, so the
remainder is smaller than the first term left out,
|B_14|/14! (s)_13 a^(-s-13); at a > 16 that is below 1.3e-18 for every s in
(1, 20], while the sum is at least its first term c^(-s) >= 1.  What is
left is rounding: against 40-digit sums the kernel is within 6e-16
relative for s from 1 + 1e-12 to 20, c in (1e-3, 1) and M up to 10^6.

The limits stand for f at every node but two: where x0 lies within
2*NODE_ATOL of a node, eval_many may give node k0/n or (k0 + 1)/n the
jump's point value (or the limit of the other side), so step_sweep reads
f at both through eval_many and adds (f(node) - limit) times that side's
first term to the numerator.  The rearrangement is equality-tested against
shepard_eval.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import digamma

from . import piecewise
from .piecewise import NODE_ATOL, JumpFunction, blocks, n_array, node_offsets
from .specfun import SHEPARD_S_MAX, SHEPARD_S_MIN

# step_sweep's direct terms per partial sum, and B_2k/(2k)! for k = 1..6,
# the Euler-Maclaurin terms of the rest (module docstring)
_HEAD = 16
_BERNOULLI = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160, -691 / 1307674368000)


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
    """Operator value at x in [0, 1] (a float or a Fraction); at a point
    node_offsets calls a grid node it reproduces f exactly, f(x)."""
    k0, num, den, is_node = node_offsets(x, cfg.n, 0)
    if is_node:
        return f.eval(x)
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


def _bernoulli_terms(s: float) -> tuple[float, ...]:
    """B_2k/(2k)! (s)_(2k-1) for k = 1..6, (s)_j the rising factorial."""
    rising, out = s, []
    for k, b in enumerate(_BERNOULLI):
        out.append(b * rising)
        rising *= (s + 2 * k + 1) * (s + 2 * k + 2)
    return tuple(out)


def _boundary(terms, power, inv):
    """G(x) = x^(-s) (1/2 + sum_k B_2k/(2k)! (s)_(2k-1) x^(1-2k)), from
    power = x^(-s) and inv = 1/x."""
    square, p = inv * inv, terms[-1]
    for term in terms[-2::-1]:
        p = p * square + term
    return power * (0.5 + inv * p)


def _heads(s: float, c, d):
    """What the partial sums sum_{m<M} (c+m)^(-s) need of each c alone.

    For s = 1, the tail -digamma(c).  For s > 1, in units of d^(-s) (one
    d <= c per column): the running sums of the first _HEAD terms (row
    j - 1 holds the sum of j terms, one column per c), a = c + _HEAD,
    a^(1-s) and G(a).
    """
    if s == 1.0:
        return -digamma(c)
    x = np.arange(_HEAD + 1.0)[:, None] + c
    a = x[-1].copy()
    # the powers replace the bases, so the heads hold one (_HEAD + 1) x len(c)
    # array: about 9 MB per side for a CHUNK-long block
    powers = np.power(np.divide(x, d, out=x), -s, out=x)
    power, running = powers[-1], powers[:-1]
    for j in range(1, _HEAD):
        running[j] += running[j - 1]
    return running, a, a * power, _boundary(_bernoulli_terms(s), power, 1.0 / a)


def _partial_sums(s: float, heads, rows, m, end):
    """sum_{j<m} (c+j)^(-s) for each order, in the units of heads (_heads):
    its c is entry rows of heads, m >= 1 its number of terms and end = c + m."""
    if s == 1.0:
        return heads[rows] + digamma(end)
    running, a, a_power, boundary = heads
    a, a_power = a[rows], a_power[rows]
    head = running[np.minimum(m, _HEAD).astype(int) - 1, rows]
    # the integral from a to end, a^(1-s) (1 - (end/a)^(1-s))/(s-1), with
    # u = (end/a)^(1-s) - 1 from expm1 so that it holds as s -> 1
    u = np.expm1((1.0 - s) * np.log1p((m - _HEAD) / a))
    inv = 1.0 / end
    # end^(-s) = a^(1-s) (1 + u) / end, in the units of a^(1-s)
    end_boundary = _boundary(_bernoulli_terms(s), a_power * (1.0 + u) * inv, inv)
    tail = a_power * (-u / (s - 1.0)) + boundary[rows] - end_boundary
    return head + np.where(m > _HEAD, tail, 0.0)


def step_sweep(f: JumpFunction, s: float, n_values) -> np.ndarray:
    """S_{n,s} f at the jump of a single-jump constant-base f, for many n.

    Requires exactly one jump on a constant continuous part (the canonical
    steps qualify) and weights the limits f.step_limits gives, the values f
    takes at the nodes, so the values equal shepard_at_jump for each n.
    Where a node lies within 2*NODE_ATOL of x0 (never on an exact p/q with
    q n < 1/(2*NODE_ATOL)), f is read at the two nodes beside x0 and the
    point value eval_many gives either one enters with its weight.

    n_values holds the grid orders n >= 1: a range or any other sliceable
    sequence of ints (a list, an integer array).  The result has one value
    per order, in the same order.  The orders are taken CHUNK at a time,
    each block sliced from n_values and given its own node_offsets call, so
    the sweep's temporaries follow the block and only the result follows
    the number of orders.

    On an exact location p/q with q no larger than the number of orders
    and than CHUNK, sigma = r/q takes only q - 1 values off a node, so what
    the two partial sums need of sigma and of 1 - sigma alone (the s = 1
    tails, or the 16 direct terms and G(c + 16) in units of
    d^(-s) = min(sigma, 1 - sigma)^(-s) for s > 1) comes from one table per
    residue r; otherwise each order computes its own.  Both routes give the
    same doubles.

    Each partial sum is within about 6e-16 relative of the exact sum for
    every s in the box, s just above 1 included (module docstring).
    """
    limits = f.step_limits
    if limits is None:
        raise ValueError("step_sweep requires exactly one jump on a constant continuous part")
    if not SHEPARD_S_MIN <= s <= SHEPARD_S_MAX:
        raise ValueError(
            f"s={s} outside supported box [{SHEPARD_S_MIN}, {SHEPARD_S_MAX}]"
        )
    jump, s = f.jumps[0], float(s)
    out = np.empty(len(n_values))
    table, exact = None, isinstance(jump.x, Fraction)
    if exact and jump.x.denominator <= min(out.size, piecewise.CHUNK):
        # r/q and 1.0 - r/q, r = 1..q-1, are the doubles the per-order route
        # forms off a node; (q - r)/q can round differently
        sigma = np.arange(1, jump.x.denominator) / jump.x.denominator
        rest = 1.0 - sigma
        d = np.minimum(sigma, rest)
        table = _heads(s, sigma, d), _heads(s, rest, d)
    for lo, hi in blocks(0, out.size):
        orders = n_array(n_values[lo:hi])
        if orders.min() < 1:
            raise ValueError("grid order must be >= 1")
        k0, num, den, node = node_offsets(jump.x, orders, 0)
        live = ~node
        num, k0, n = num[live], k0[live].astype(float), orders[live].astype(float)
        # asarray turns the Python-int quotients of a large p/q into doubles;
        # past 2^53 num/den can round to 1.0, so 1 - sigma comes from integers
        sigma = np.asarray(num / den, dtype=float)
        rest = 1.0 - sigma if den <= 2**53 else np.asarray((den - num) / den, dtype=float)
        # off a node sigma >= 1/q, so an exact p/q with q n < 1/(2*NODE_ATOL)
        # has no node within 2*NODE_ATOL of x0
        clear = exact and den * int(orders.max()) < 0.5 / NODE_ATOL
        d = None if clear and s == 1.0 else np.minimum(sigma, rest)
        # per-order heads live for one call each: one side's at a time
        rows = np.arange(sigma.size) if table is None else num.astype(int) - 1
        a = _partial_sums(s, table[0] if table else _heads(s, sigma, d), rows,
                          k0 + 1.0, sigma + k0 + 1.0)
        b = _partial_sums(s, table[1] if table else _heads(s, rest, d), rows,
                          n - k0, n - k0 + 1.0 - sigma)
        total = limits[0] * a + limits[1] * b
        close = () if clear else np.flatnonzero(d <= 2 * NODE_ATOL * n)
        if len(close):
            # f at nodes k0/n and (k0 + 1)/n, formed as cfg.nodes forms them:
            # a value other than the side's limit (the jump's point value)
            # enters with its weight, that side's first term
            k, m, unit = k0[close], n[close], d[close] if s > 1.0 else 1.0
            nodes = np.concatenate((k / m, (k + 1.0) / m))
            at_left, at_right = f.eval_many(nodes).reshape(2, -1)
            total[close] += ((at_left - limits[0]) * (sigma[close] / unit) ** -s
                             + (at_right - limits[1]) * (rest[close] / unit) ** -s)
        block = out[lo:hi]
        block[:] = jump.value
        block[live] = total / (a + b)
    return out
