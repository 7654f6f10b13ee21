import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpspectra import piecewise, shepard
from jumpspectra.piecewise import (
    CHUNK,
    NODE_ATOL,
    OFFSET_TOL,
    ContinuousPart,
    JumpFunction,
    from_descriptor_dict,
    from_steps,
    node_offsets,
    pure_step,
)
from jumpspectra.shepard import ShepardConfig, shepard_at_jump, shepard_eval, step_sweep
from jumpspectra.specfun import g_shepard

from oracles import step_sweep_whole

H_HALF = pure_step(Fraction(1, 2), 0.3, "left1_right0", (0.0, 1.0))
H_THIRD = pure_step(Fraction(1, 3), 0.3, "left1_right0", (0.0, 1.0))


def _linear_base(x0):
    """The benchmark's linear-base function: x plus a unit jump at x0."""
    return from_steps(ContinuousPart((0.0, 1.0)), [(x0, 1.0, 0.8)], (0.0, 1.0))


def _exact_sum(mpmath, cfg, f, x):
    """S_{n,s} f(x) to 40 digits, with the double node values f takes, at
    the exact value of x (p/q for a Fraction, the double itself for a float)."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x.numerator) / x.denominator if isinstance(x, Fraction) else mpmath.mpf(x)
        weights = [abs(x - mpmath.mpf(k) / cfg.n) ** -cfg.s for k in range(cfg.n + 1)]
        values = f.eval_many(cfg.nodes).tolist()
        return float(mpmath.fsum(w * v for w, v in zip(weights, values)) / mpmath.fsum(weights))


def _exact_step_value(mpmath, f, s, n):
    """S_{n,s} f at the jump of a step from 40-digit partial sums A and B,
    at the offset node_offsets gives: r/q exactly at p/q, the double at a
    float location."""
    jump, (left, right) = f.jumps[0], f.step_limits
    k0, num, den, is_node = node_offsets(jump.x, n, 0)
    if is_node:
        return jump.value
    # a float location gives numpy scalars, which mpf does not take
    k0, num = int(k0), np.asarray(num).item()
    with mpmath.workdps(40):
        s, sigma = mpmath.mpf(s), mpmath.mpf(num) / den
        a = mpmath.zeta(s, sigma) - mpmath.zeta(s, sigma + k0 + 1)
        b = mpmath.zeta(s, 1 - sigma) - mpmath.zeta(s, 1 - sigma + n - k0)
        return float((left * a + right * b) / (a + b))


@st.composite
def _exponents(draw):
    """s - 1 log-uniform in [1e-12, 1e-2], or s uniform in (1, 20]."""
    if draw(st.booleans()):
        return 1.0 + 10.0 ** draw(st.floats(min_value=-12.0, max_value=-2.0))
    return draw(st.floats(min_value=1.0, max_value=20.0, exclude_min=True))


@st.composite
def _locations(draw):
    """An exact p/q with q <= 50, or a float in (0, 1)."""
    if draw(st.booleans()):
        q = draw(st.integers(min_value=2, max_value=50))
        return Fraction(draw(st.integers(min_value=1, max_value=q - 1)), q)
    return draw(st.floats(min_value=1e-3, max_value=1 - 1e-3))


@st.composite
def _near_node_locations(draw):
    """(x0, n): x0 = (k + delta)/n with |delta| log-uniform in [1e-14, 1e-10],
    as a float or as the nearest p/q with q up to 10^18, so that a node of
    order n (and of its multiples) lies within about 1e-10/n of x0."""
    n = draw(st.integers(min_value=2, max_value=3000))
    k = draw(st.integers(min_value=1, max_value=n - 1))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    delta = sign * 10.0 ** draw(st.floats(min_value=-14.0, max_value=-10.0))
    if draw(st.booleans()):
        return k / n + delta / n, n
    q = draw(st.integers(min_value=2, max_value=10**18))
    p = round(q * (k + Fraction(delta)) / n)
    return Fraction(min(max(p, 1), q - 1), q), n


class TestEval:
    def test_constant_reproduced(self):
        f = JumpFunction(ContinuousPart((2.75,)), (), (0.0, 1.0))
        for s in (1.0, 2.0, 7.5):
            for n in (5, 64):
                assert shepard_eval(ShepardConfig(s, n), f, 0.374) == pytest.approx(
                    2.75, abs=1e-12
                )

    def test_node_reproduction(self):
        f = from_steps(ContinuousPart((0.0, 1.0)), [(0.41, 1.0, 0.8)], (0.0, 1.0))
        cfg = ShepardConfig(2.0, 10)
        for k in (0, 3, 10):
            assert shepard_eval(cfg, f, k / 10) == f.eval(k / 10)

    def test_symmetric_midpoint(self):
        for n in (501, 1001):
            value = shepard_eval(ShepardConfig(2.0, n), H_HALF, 0.5)
            assert abs(value - 0.5) <= 1e-3

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            shepard_eval(ShepardConfig(2.0, 10), H_HALF, 1.5)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_float_node_reproduces_f_at_the_point(self, n):
        # x0 = k/n + e with NODE_ATOL < e < OFFSET_TOL/n: node_offsets calls
        # x0 a node, but k/n lies more than NODE_ATOL from the jump, where
        # f takes its left limit; the operator reproduces f at x0 itself
        e = (NODE_ATOL + OFFSET_TOL / n) / 2
        for k in range(1, n):
            x0 = k / n + e
            h = pure_step(x0, 0.3, "left1_right0", (0.0, 1.0))
            cfg = ShepardConfig(2.0, n)
            assert node_offsets(x0, n, 0)[3] and h.eval(k / n) == 1.0
            assert shepard_eval(cfg, h, x0) == shepard_at_jump(cfg, h, 0) == h.eval(x0) == 0.3

    def test_exponent_box(self):
        with pytest.raises(ValueError):
            ShepardConfig(0.5, 10)
        with pytest.raises(ValueError):
            ShepardConfig(25.0, 10)

    def test_large_exponent_no_overflow(self):
        value = shepard_eval(ShepardConfig(20.0, 200), H_HALF, 0.2501)
        assert np.isfinite(value)
        assert 0.0 <= value <= 1.0

    def test_offset_just_past_the_node_tolerance(self):
        # sigma = frac(100 x) is about 5e-12, above the float node rule's
        # 1e-12, while |x - 37/100| is about 5e-14: every weight comes from
        # sigma, so the value is the sum's, however close x is to the node
        mpmath = pytest.importorskip("mpmath")
        cfg, f = ShepardConfig(2.0, 100), _linear_base(Fraction(1, 3))
        x = 0.37 + 5e-14
        k0, sigma, _, is_node = node_offsets(x, cfg.n, 0)
        assert not is_node and k0 == 37 and 4e-12 < sigma < 6e-12
        value = shepard_eval(cfg, f, x)
        samples = f.eval_many(cfg.nodes)
        assert np.isfinite(value) and samples.min() <= value <= samples.max()
        assert abs(value - _exact_sum(mpmath, cfg, f, x)) < 1e-15

    @given(
        x=st.floats(min_value=0.0, max_value=1.0),
        s=st.floats(min_value=1.0, max_value=10.0),
        n=st.integers(min_value=2, max_value=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_range_invariant(self, x, s, n):
        cfg = ShepardConfig(s, n)
        samples = H_THIRD.eval_many(cfg.nodes)
        value = shepard_eval(cfg, H_THIRD, x)
        assert samples.min() - 1e-12 <= value <= samples.max() + 1e-12


class TestSigma:
    def test_half(self):
        assert node_offsets(Fraction(1, 2), 4, 0)[3]
        _, num, den, is_node = node_offsets(Fraction(1, 2), 5, 0)
        assert Fraction(num, den) == Fraction(1, 2) and not is_node

    def test_third_cycle(self):
        _, num, den, _ = node_offsets(Fraction(1, 3), np.arange(1, 10), 0)
        got = [Fraction(r, den) for r in num.tolist()]
        assert got == [Fraction(1, 3), Fraction(2, 3), 0] * 3

    def test_float_path(self):
        for n in range(1, 30):
            _, num, den, is_node = node_offsets(Fraction(1, 3), n, 0)
            approx = node_offsets(1 / 3, n, 0)
            assert approx[3] == is_node
            assert approx[1] == pytest.approx(num / den, abs=1e-9)


class TestAtJump:
    def test_node_returns_point_value(self):
        for s in (1.0, 2.0, 5.0):
            for n in (64, 128, 500):
                assert shepard_at_jump(ShepardConfig(s, n), H_HALF, 0) == 0.3

    def test_rational_offset_approaches_profile(self):
        target = g_shepard(2.0, 1 / 3)
        value = shepard_at_jump(ShepardConfig(2.0, 2998), H_THIRD, 0)
        assert abs(value - target) < 1e-3

    def test_matches_generic_eval(self):
        for n in (7, 50, 333):
            cfg = ShepardConfig(2.0, n)
            assert shepard_at_jump(cfg, H_THIRD, 0) == pytest.approx(
                shepard_eval(cfg, H_THIRD, float(Fraction(1, 3))), abs=1e-12
            )

    @pytest.mark.parametrize("x0", [Fraction(1, 3), Fraction(2, 3)])
    def test_linear_base_against_a_40_digit_sum(self, x0):
        mpmath = pytest.importorskip("mpmath")
        f = _linear_base(x0)
        for n in (7, 100, 998, 1000, 1997, 2000):
            cfg = ShepardConfig(2.0, n)
            value = shepard_at_jump(cfg, f, 0)
            assert abs(value - _exact_sum(mpmath, cfg, f, x0)) < 1e-15

    def test_offset_within_an_ulp_of_one(self):
        # 3 p = 2q - 1: at n = 3 sigma = (q - 1)/q rounds to 1.0, so the
        # distance to the node after x0 must come from den - num, not 1 - sigma
        q = 2**60 + 1
        x0 = Fraction((2 * q - 1) // 3, q)
        assert 3 * x0.numerator == 2 * q - 1
        mpmath = pytest.importorskip("mpmath")
        h = pure_step(x0, 0.3, "left1_right0", (0.0, 1.0))
        for cfg in (ShepardConfig(2.0, 3), ShepardConfig(1.0, 3)):
            value = shepard_at_jump(cfg, h, 0)
            assert np.isfinite(value)
            assert abs(value - _exact_sum(mpmath, cfg, h, x0)) < 1e-15

    def test_s1_midpoint_rate(self):
        # the approach to 1/2 for s=1 is logarithmic: the two offset classes
        # straddle 1/2 and their midpoint closes in slowly
        def branch_mid(n):
            lo = step_sweep(H_THIRD, 1.0, [n])[0]
            hi = step_sweep(H_THIRD, 1.0, [n + 2])[0]
            return 0.5 * (lo + hi)

        mid_small, mid_large = branch_mid(998), branch_mid(9998)
        assert abs(mid_large - 0.5) < 2e-2
        assert abs(mid_large - 0.5) < abs(mid_small - 0.5)


class TestStepSweep:
    @pytest.mark.parametrize("s", [1.0, 1.000001, 1.01, 2.0, 3.5, 20.0, 1 + 1e-9, 1 + 1e-12])
    def test_matches_direct_eval_rational(self, s):
        # up to n = 10^4, where next to the pole at s = 1 a difference of
        # two zeta tails would lose about 1e-16/(s-1)
        values = step_sweep(H_THIRD, s, range(1, 10_001))
        for n in (2, 7, 50, 333, 399, 1000, 3001, 9997, 9998, 10_000):
            cfg = ShepardConfig(s, n)
            direct = shepard_at_jump(cfg, H_THIRD, 0)
            assert values[n - 1] == pytest.approx(direct, abs=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(
        s=_exponents(),
        x0=_locations(),
        n_max=st.integers(min_value=1, max_value=10_000),
        picks=st.lists(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=4),
        d=st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_matches_a_40_digit_sum(self, s, x0, n_max, picks, d):
        mpmath = pytest.importorskip("mpmath")
        h = pure_step(x0, d, "left1_right0", (0.0, 1.0))
        values = step_sweep(h, s, range(1, n_max + 1))
        bound = 1e-14 * (1 + max(abs(v) for v in h.step_limits + (d,)))
        for n in {n_max, *(1 + (p - 1) % n_max for p in picks)}:
            assert abs(values[n - 1] - _exact_step_value(mpmath, h, s, n)) <= 1e-13
            if s >= 1.01:
                direct = shepard_at_jump(ShepardConfig(s, n), h, 0)
                assert abs(values[n - 1] - direct) <= bound

    def test_matches_direct_eval_float(self):
        x0 = math.sqrt(2) / 2
        h = pure_step(x0, 0.3, "left1_right0", (0.0, 1.0))
        values = step_sweep(h, 2.0, range(1, 200))
        for n in (3, 17, 101, 199):
            direct = shepard_eval(ShepardConfig(2.0, n), h, x0)
            assert values[n - 1] == pytest.approx(direct, abs=1e-10)

    def test_general_jump_values(self):
        f = from_steps(ContinuousPart((4.0,)), [(Fraction(1, 3), -3.0, 2.5)], (0.0, 1.0))
        values = step_sweep(f, 2.0, range(1, 100))
        for n in (5, 31, 99):
            direct = shepard_at_jump(ShepardConfig(2.0, n), f, 0)
            assert values[n - 1] == pytest.approx(direct, abs=1e-10)

    def test_weights_the_values_at_the_nodes(self):
        # the declared left limit sits 5e-7 off base 1000, which validation
        # allows; shepard_at_jump sees the base at the nodes, so must the sweep
        f = from_descriptor_dict(
            {
                "domain": [0.0, 1.0],
                "poly": [1000.0],
                "jumps": [{"x": {"num": 1, "den": 3}, "left": 1000.0000005, "right": 1001.0,
                           "value": 0.0}],
            }
        )
        values = step_sweep(f, 2.0, range(1, 100))
        for n in (5, 31, 99):
            direct = shepard_at_jump(ShepardConfig(2.0, n), f, 0)
            assert values[n - 1] == pytest.approx(direct, abs=1e-10)

    @pytest.mark.parametrize("p, n", [(50002, 100003), (499993, 999983), (1500008, 3000017)])
    @pytest.mark.parametrize("s", [1.0, 2.0])
    def test_float_node_at_large_n(self, p, n, s):
        # n*x0 carries rounding of about eps*n*x0, past 1e-12 at these n;
        # step_sweep and shepard_at_jump must still both see the node
        x0 = p / n
        h = pure_step(x0, 0.3, "left1_right0", (0.0, 1.0))
        assert node_offsets(x0, n, 0)[3]
        assert step_sweep(h, s, [n])[0] == shepard_at_jump(ShepardConfig(s, n), h, 0) == 0.3

    @pytest.mark.parametrize(
        "p, q, ns",
        [
            (10**17 + 1, 3 * 10**17 + 7, (64, 100, 1000)),
            (10**13 + 1, 10**13 + 3, (10**6,)),
        ],
    )
    def test_large_numerator_does_not_overflow(self, p, q, ns):
        # n*p passes int64 from n = 100 (first case) and at n = 10^6 (second)
        h = pure_step(Fraction(p, q), 0.3, "left1_right0", (0.0, 1.0))
        values = step_sweep(h, 2.0, ns)
        for n, value in zip(ns, values):
            assert value == pytest.approx(shepard_at_jump(ShepardConfig(2.0, n), h, 0), abs=1e-10)

    @pytest.mark.parametrize("s", [1.0, 2.0])
    def test_node_within_an_ulp_of_a_large_q_location(self, s):
        # at n = 3, 6, ..., 18, n p mod q is within an ulp of q: sigma rounds
        # to 1.0, and node k0 + 1 lies within NODE_ATOL of x0, where eval_many
        # gives it the point value
        h = pure_step(Fraction(10**17 + 1, 3 * 10**17 + 7), 0.3, "left1_right0", (0.0, 1.0))
        values = step_sweep(h, s, range(1, 20))
        for n, value in zip(range(1, 20), values):
            direct = shepard_at_jump(ShepardConfig(s, n), h, 0)
            assert value == pytest.approx(direct, abs=1e-15)
            if n % 3 == 0:
                assert value == pytest.approx(0.3, abs=1e-15)

    @pytest.mark.parametrize("n", [10, 30, 40, 60, 200, 1000])
    @pytest.mark.parametrize("s", [1.0, 2.0])
    def test_float_location_next_to_a_node(self, n, s):
        # 5e-12/n past node n // 3: no node by node_offsets' rule, but within
        # 2*NODE_ATOL of x0 from n = 25 and within NODE_ATOL from n = 50
        x0 = (n // 3) / n + 5e-12 / n
        h = pure_step(x0, 0.3, "left1_right0", (0.0, 1.0))
        orders = [n - 1, n, n + 1]
        assert not node_offsets(x0, n, 0)[3]
        for order, value in zip(orders, step_sweep(h, s, orders)):
            direct = shepard_at_jump(ShepardConfig(s, order), h, 0)
            assert value == pytest.approx(direct, abs=1e-15 if order == n and n > 25 else 1e-14)
        if n > 50:
            assert step_sweep(h, s, [n])[0] == pytest.approx(0.3, abs=1e-10)

    @settings(max_examples=80, deadline=None)
    @given(
        location=_near_node_locations(),
        s=st.one_of(st.just(1.0), st.floats(min_value=1.0, max_value=20.0, exclude_min=True)),
        pick=st.integers(min_value=1, max_value=3000),
        d=st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_next_to_a_node_matches_direct_sum(self, location, s, pick, d):
        # node k/n, or a node of a multiple of n, within about 1e-10/n of x0:
        # where eval_many gives it the point value, the sweep adds it with
        # its weight, and the weights are taken in units that cannot overflow
        x0, n = location
        h = pure_step(x0, d, "left1_right0", (0.0, 1.0))
        orders = sorted({n - 1, n, n + 1, 2 * n, 3 * n, pick} & set(range(1, 3001)))
        bound = 1e-14 * (1 + max(1.0, abs(d)))
        for order, value in zip(orders, step_sweep(h, s, orders)):
            assert abs(value - shepard_at_jump(ShepardConfig(s, order), h, 0)) <= bound

    def test_no_order_takes_the_direct_sum(self, monkeypatch):
        # every third order at the large-q location, and the four orders up
        # to 4*10^6 with a node within 2*NODE_ATOL of sqrt(2)/2, have a
        # node next to x0; none of them is summed node by node
        large_q = pure_step(Fraction(10**17 + 1, 3 * 10**17 + 7), 0.3, "left1_right0", (0.0, 1.0))
        checked = range(1, 60)
        expected = {s: [shepard_at_jump(ShepardConfig(s, n), large_q, 0) for n in checked]
                    for s in (2.0, 20.0)}
        irrational = pure_step(math.sqrt(2) / 2, 0.3, "left1_right0", (0.0, 1.0))
        orders = [1607521, 2273378, 3215042, 3880899]
        _, num, _, _ = node_offsets(irrational.jumps[0].x, np.array(orders), 0)
        assert np.all(np.minimum(num, 1.0 - num) <= 2 * NODE_ATOL * np.array(orders))

        def refuse(*args):
            raise AssertionError("step_sweep summed an order node by node")

        monkeypatch.setattr(shepard, "_offset_sum", refuse)
        for s in (2.0, 20.0):
            values = step_sweep(large_q, s, range(1, 20_001))
            assert np.all(np.isfinite(values))
            assert np.max(np.abs(values[: len(checked)] - expected[s])) <= 1e-15
        values = step_sweep(irrational, 2.0, orders)
        assert np.all((0.0 <= values) & (values <= 1.0))

    @pytest.mark.parametrize("s", [1.0, 2.0])
    def test_irrational_location_never_a_node(self, s):
        h = pure_step(math.sqrt(2) / 2, 0.3, "left1_right0", (0.0, 1.0))
        assert not np.any(step_sweep(h, s, range(1, 10**6 + 1)) == 0.3)

    def test_rejects_unsupported_functions(self):
        two = from_steps(
            ContinuousPart((0.0,)),
            [(0.3, 1.0, 0.5), (0.7, 1.0, 1.5)],
            (0.0, 1.0),
        )
        with pytest.raises(ValueError):
            step_sweep(two, 2.0, [10])
        curved = from_steps(ContinuousPart((0.0, 1.0)), [(0.5, 1.0, 0.5)], (0.0, 1.0))
        with pytest.raises(ValueError):
            step_sweep(curved, 2.0, [10])

    @pytest.mark.parametrize("orders", [[0], [-1], [1, 0]])
    def test_rejects_orders_below_one(self, orders):
        # as ShepardConfig and lagrange.sweep do
        h = pure_step(0.3, 0.3, "left1_right0", (0.0, 1.0))
        with pytest.raises(ValueError, match="grid order must be >= 1"):
            step_sweep(h, 2.0, orders)


class TestChunkedSweep:
    """step_sweep against the whole-array sweep, across the block edges.

    For s = 1 the oracle's digamma tails give the sweep's doubles.  For
    s > 1 its scipy zeta tails are arithmetic independent of the sweep's
    partial-sum kernel; each tail difference loses about 1e-16/(s-1) to the
    tails' poles, and at s >= 1.5 the two differ by at most 4.4e-16 on these
    cases, so they are compared within ZETA_TOL.  The block loop and the
    residue table are checked bit for bit by one block over every order.
    """

    ZETA_TOL = 1e-14

    ORDERS = [
        range(1, 2 * CHUNK + 5),
        range(CHUNK - 3, 2 * CHUNK + 4, 7),
        [CHUNK + 1, 5, CHUNK, 2 * CHUNK + 3, CHUNK - 1, 1, 2],
        list(range(CHUNK + 40, 0, -1)),
    ]
    # small q (the residue tails), q past CHUNK, q past the number of
    # orders, and a float location
    LOCATIONS = [Fraction(1, 3), Fraction(2, 5), Fraction(5, 7), Fraction(12345, 70001),
                 Fraction(40001, 100003), math.sqrt(2) / 2]

    @pytest.mark.parametrize("orders", ORDERS, ids=["range", "stride", "list", "long-list"])
    @pytest.mark.parametrize("x0", LOCATIONS, ids=str)
    @pytest.mark.parametrize("s", [1.0, 1.5, 2.0, 5.0])
    def test_matches_whole_array_sweep(self, orders, x0, s, monkeypatch):
        h = pure_step(x0, -0.25, "left1_right0", (0.0, 1.0))
        values, whole = step_sweep(h, s, orders), step_sweep_whole(h, s, orders)
        if s == 1.0:
            assert np.array_equal(values, whole)
        else:
            assert np.max(np.abs(values - whole)) <= self.ZETA_TOL
        # one block holds every order, and a q up to the number of orders
        # takes the residue table
        monkeypatch.setattr(piecewise, "CHUNK", len(orders))
        assert np.array_equal(values, step_sweep(h, s, orders))

    @pytest.mark.parametrize("q, ps, s", [(3, (1, 2), 2.0), (5, (1, 2, 3, 4), 3.0)])
    def test_benchmark_steps_match_whole_array_sweep(self, q, ps, s):
        # the step tasks of the shepard_sweep benchmark workload, at N = 10^4
        for p in ps:
            h = pure_step(Fraction(p, q), 0.3, "left1_right0", (0.0, 1.0))
            orders = range(1, 10_001)
            values = step_sweep(h, s, orders)
            assert np.max(np.abs(values - step_sweep_whole(h, s, orders))) <= self.ZETA_TOL

    @pytest.mark.parametrize("x0", [math.sqrt(2) - 1, math.sqrt(2) / 2, (math.sqrt(5) - 1) / 2,
                                    (3 - math.sqrt(5)) / 2, math.sqrt(3) - 1, math.sqrt(3) / 3,
                                    math.sqrt(5) - 2])
    def test_benchmark_irrational_steps_match_whole_array_sweep(self, x0):
        # the declared-irrational tasks of the shepard_sweep workload, N = 5000
        h = pure_step(x0, 0.3, "left1_right0", (0.0, 1.0))
        for s in (2.0, 5.0):
            orders = range(1, 5001)
            values = step_sweep(h, s, orders)
            assert np.max(np.abs(values - step_sweep_whole(h, s, orders))) <= self.ZETA_TOL


class TestS1Excursions:
    def test_extreme_values_have_vanishing_density(self):
        # a location lying extremely close to rationals drives the s=1
        # values next to both one-sided limits, but only along subsequences
        # of vanishing density: the index of the midpoint band stays high
        h = pure_step(0.110001, 0.3, "left1_right0", (0.0, 1.0))
        values = step_sweep(h, 1.0, range(1, 100_001))
        assert values.max() > 0.9
        assert values.min() < 0.1
        from jumpspectra.density import IntervalUnion, SequencePrefix, set_index

        prefix = SequencePrefix(values)
        band = IntervalUnion(((0.45, 0.55),))
        # coarse eps grid matched to the logarithmic convergence rate
        est = set_index(prefix, band, eps_grid=(0.4, 0.35))
        assert est.estimate > 0.95


class TestUniformConvergence:
    def _max_err(self, s, n):
        xs = np.concatenate([np.linspace(0.0, 0.2, 30), np.linspace(0.45, 1.0, 40)])
        cfg = ShepardConfig(s, n)
        target = H_THIRD.eval_many(xs)
        return max(
            abs(shepard_eval(cfg, H_THIRD, x) - t) for x, t in zip(xs, target)
        )

    def test_envelope_s2(self):
        errors = [self._max_err(2.0, n) for n in (128, 512, 2048)]
        assert errors[2] < errors[1] < errors[0]

    def test_envelope_s1(self):
        errors = [self._max_err(1.0, n) for n in (128, 512, 2048)]
        assert errors[2] < errors[1] < errors[0]
