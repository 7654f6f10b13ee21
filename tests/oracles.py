"""Independent brute-force oracles used to freeze or cross-check expected
values.  These deliberately avoid the library's scipy closed forms and
plateau machinery: plain truncated summation with interval tail bounds, raw
membership counts, and grid scans.  The product-form basis is not here:
the tests use the library's lagrange.fundamental_product_reference, the
oracle selftest also needs.

side_sums_direct sums the Lagrange side terms one by one, as the sweep did
before its Euler-Boole tails.  The whole-array oracles at the end hold
every order or value at once, with the arithmetic that the block-wise
library paths (shepard.step_sweep, the density window scans, the cluster
gap cuts, the run exports) must reproduce bit for bit; for s > 1 the step
sweep's oracle keeps the scipy zeta tails that the sweep no longer uses,
so the two agree only to the tails' rounding.
"""

import math

import numpy as np
from scipy.special import digamma, zeta

from jumpspectra.harness import _run_columns
from jumpspectra.piecewise import n_array, node_offsets

CHUNK = 1_000_000


def zeta_direct(s, a, terms=10**7):
    """(value, bound): direct sum of (n+a)^-s plus integral tail bracket."""
    total = 0.0
    for start in range(0, terms, CHUNK):
        n = np.arange(start, min(start + CHUNK, terms), dtype=float)
        total += float(np.sum((n + a) ** (-s)))
    upper = (terms - 1 + a) ** (1 - s) / (s - 1)
    lower = (terms + a) ** (1 - s) / (s - 1)
    return total + 0.5 * (upper + lower), 0.5 * (upper - lower)


def lerch_j_direct(s, a, pairs=10**7):
    """(value, bound): paired alternating sum plus integral tail bracket."""
    total = 0.0
    for start in range(0, pairs, CHUNK):
        m = np.arange(start, min(start + CHUNK, pairs), dtype=float)
        total += float(np.sum((2 * m + a) ** (-s) - (2 * m + 1 + a) ** (-s)))

    def integral_from(t0):
        x, y = 2 * t0 + a, 2 * t0 + 1 + a
        if s == 1:
            return 0.5 * math.log(y / x)
        d = s - 1.0
        return -(x**-d) * math.expm1(-d * math.log(y / x)) / (2 * d)

    lower = integral_from(pairs)
    upper = integral_from(pairs - 1)
    return total + 0.5 * (upper + lower), 0.5 * (upper - lower)


def g_lagrange_direct(x, pairs=10**7):
    value, bound = lerch_j_direct(1.0, x, pairs)
    scale = math.sin(math.pi * x) / math.pi
    return scale * value, scale * bound


def count_fraction(mask):
    """Plain membership fraction |K|/N over the whole prefix."""
    mask = np.asarray(mask, dtype=bool)
    return float(np.count_nonzero(mask)) / mask.size


def grid_scan_preimage(profile_eval_many, pairs, du=1e-6):
    """Riemann scan of |profile^{-1}(union of [lo, hi])| with step du."""
    total = 0
    n = int(round(1.0 / du))
    for start in range(0, n, CHUNK):
        u = (np.arange(start, min(start + CHUNK, n), dtype=float) + 0.5) * du
        y = profile_eval_many(u)
        inside = np.zeros(u.shape, dtype=bool)
        for lo, hi in pairs:
            inside |= (y >= lo) & (y <= hi)
        total += int(np.count_nonzero(inside))
    return total * du


def weyl_sequence(n_terms, alpha, beta=0.0):
    return (np.arange(1, n_terms + 1, dtype=float) * alpha + beta) % 1.0


def side_sums_direct(n, gap, reach, cuts):
    """lagrange._side_sums term by term: per row, every term
    (-1)^j (cot x_j + cot(x_j - reach)), x_j = gap/2 + j pi/(2n), of its
    length cuts[-1], and each segment [cuts[c-1], cuts[c]) summed over its
    own terms with math.fsum."""
    out = np.zeros(cuts.shape)
    for row, (m, g, r, bounds) in enumerate(zip(n.tolist(), gap, reach, cuts.tolist())):
        x = np.arange(bounds[-1], dtype=float) * (math.pi / (2 * m)) + g / 2
        terms = 1.0 / np.tan(x) + 1.0 / np.tan(x - r)
        terms[1::2] *= -1.0
        for c, (lo, hi) in enumerate(zip([0] + bounds[:-1], bounds)):
            out[row, c] = math.fsum(terms[lo:hi])
    return out


def step_sweep_whole(f, s, n_values):
    """shepard.step_sweep over all orders in one array, four tails per order:
    -digamma for s = 1 (the sweep's doubles) and scipy zeta for s > 1
    (within about 1e-16/(s-1) of the sweep's partial-sum kernel)."""
    limits, jump = f.step_limits, f.jumps[0]
    n = n_array(n_values)
    k0, num, den, node = node_offsets(jump.x, n, 0)
    live = ~node
    sigma = np.asarray(num[live] / den, dtype=float)
    k0, n = k0[live].astype(float), n[live].astype(float)

    def tail(c):
        return -digamma(c) if s == 1.0 else zeta(s, c)

    a = tail(sigma) - tail(sigma + k0 + 1.0)
    b = tail(1.0 - sigma) - tail(n - k0 + 1.0 - sigma)
    out = np.full(node.size, jump.value)
    out[live] = (limits[0] * a + limits[1] * b) / (a + b)
    return out


def window_ratios_whole(member, window):
    """The running ratios |K n {1..n}|/n over the tail window, from one
    cumulative sum over the whole prefix."""
    member = np.asarray(member, dtype=bool)
    start = max(1, math.ceil(member.size * window))
    counts = np.cumsum(member)[start - 1 :]
    return counts / np.arange(start, member.size + 1)


def lower_density_whole(member, window):
    return float(np.min(window_ratios_whole(member, window)))


def gap_groups(sorted_values, gap):
    """The runs of sorted_values split where neighbours differ by more than gap."""
    return np.split(sorted_values, np.flatnonzero(np.diff(sorted_values) > gap) + 1)


def run_rows(cfg, prefix):
    """One dict per n of the whole run: n, the node offset, is_node and
    value, the rows that write_run_csv and write_run_json write CHUNK
    orders at a time."""
    columns = _run_columns(cfg, cfg.ns(), prefix.values)
    return [dict(zip(columns, row)) for row in zip(*columns.values())]
