import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jumpspectra import lagrange, piecewise
from jumpspectra.lagrange import (
    _EULER_BOOLE,
    _HEAD,
    ChebyshevGrid,
    _coincident_node,
    _location,
    _side_sums,
    _weights,
    fundamental_eval,
    fundamental_product_reference,
    fundamental_weights,
    lagrange_at_jump,
    lagrange_eval,
    sweep,
)
from jumpspectra.piecewise import (
    NODE_ATOL,
    ContinuousPart,
    JumpFunction,
    from_descriptor_dict,
    from_steps,
    node_offsets,
    pure_step,
)
from jumpspectra.specfun import g_lagrange

from oracles import product_basis, side_sums_direct

CONST_ONE = JumpFunction(ContinuousPart((1.0,)), (), (-1.0, 1.0))
CUBE = JumpFunction(ContinuousPart((0.0, 0.0, 0.0, 1.0)), (), (-1.0, 1.0))


def _two_jump_at(ratio: Fraction, trig=()):
    """Acceptance criterion 7's x^2-base function with a jump at cos(pi*ratio).

    Its jumps sit at 0 = cos(pi/2) and cos(pi/3); for ratio != 1/2 the
    second one moves to cos(pi*ratio).  trig adds a cosine/sine series to
    the base.  Returns the function and the index of the jump at the
    location.
    """
    x0 = math.cos(math.pi * ratio.numerator / ratio.denominator)
    at_zero = ratio == Fraction(1, 2)
    x1 = math.cos(math.pi / 3) if at_zero else x0
    base = ContinuousPart((0.0, 0.0, 1.0), trig)
    f = from_steps(base, [(0.0, 1.0, 0.3), (x1, -0.5, 0.6)], (-1.0, 1.0))
    return f, [j.x_float for j in f.jumps].index(0.0 if at_zero else x0)


class TestGrid:
    def test_layout(self):
        grid = ChebyshevGrid(8)
        assert np.all(np.diff(grid.thetas) > 0)
        assert grid.thetas[0] > 0 and grid.thetas[-1] < math.pi
        assert np.all(np.diff(grid.nodes) < 0)
        assert np.all(np.abs(grid.nodes) < 1)

    def test_symmetry(self):
        grid = ChebyshevGrid(11)
        assert np.max(np.abs(grid.nodes + grid.nodes[::-1])) < 1e-14

    def test_order_validated(self):
        with pytest.raises(ValueError):
            ChebyshevGrid(0)


class TestFundamental:
    def test_cardinal_property(self):
        grid = ChebyshevGrid(5)
        assert fundamental_eval(grid, 2, grid.nodes[1]) == 1.0
        assert fundamental_eval(grid, 2, grid.nodes[3]) == 0.0

    def test_trig_matches_product_form(self):
        grid = ChebyshevGrid(7)
        assert fundamental_eval(grid, 3, 0.2) == pytest.approx(
            product_basis(grid.nodes, 3, 0.2), abs=1e-9
        )

    @pytest.mark.parametrize("n", [5, 16, 33, 64])
    def test_product_form_sweep(self, n):
        grid = ChebyshevGrid(n)
        for x in (-0.95, -0.3, 0.11, 0.77):
            weights = fundamental_weights(grid, x)
            for k in (1, n // 2 + 1, n):
                assert weights[k - 1] == pytest.approx(
                    product_basis(grid.nodes, k, x), abs=1e-9
                )

    def test_reference_matches_library_oracle(self):
        grid = ChebyshevGrid(9)
        for k in (1, 4, 9):
            assert fundamental_product_reference(grid, k, 0.31) == pytest.approx(
                product_basis(grid.nodes, k, 0.31), abs=1e-14
            )

    def test_domain_checks(self):
        grid = ChebyshevGrid(4)
        with pytest.raises(ValueError):
            fundamental_eval(grid, 0, 0.5)
        with pytest.raises(ValueError):
            fundamental_eval(grid, 1, 1.5)

    @pytest.mark.parametrize("n", [8, 64, 512])
    def test_partition_of_unity(self, n):
        grid = ChebyshevGrid(n)
        xs = np.linspace(-1.0, 1.0, 1000)
        worst = max(abs(np.sum(fundamental_weights(grid, x)) - 1.0) for x in xs)
        assert worst < 4 * np.finfo(float).eps * math.log(n)
        # lagrange_at_jump's general weights at exact angles: near theta0/pi
        # = 1, where a_k nears pi, and near 0
        for ratio in (Fraction(229539, 229559), Fraction(999, 1000), Fraction(1, 1000),
                      Fraction(n - 1, n + 1), Fraction(1, 3)):
            for order in (n - 1, n, 300, 3000):
                grid = ChebyshevGrid(order)
                if not node_offsets(ratio, order, 0.5)[3]:
                    total = _general_weights(grid, ratio).sum()
                    assert abs(total - 1.0) < 4 * np.finfo(float).eps * math.log(order)


class TestInterpolation:
    def test_constant_reproduced(self):
        for n in (3, 10, 41):
            assert lagrange_eval(ChebyshevGrid(n), CONST_ONE, 0.123) == pytest.approx(
                1.0, abs=1e-10
            )

    def test_cubic_reproduced(self):
        assert lagrange_eval(ChebyshevGrid(4), CUBE, 0.37) == pytest.approx(
            0.37**3, abs=1e-10
        )

    def test_node_values_reproduced(self):
        h = pure_step(math.cos(math.pi / 3), 0.2, "left0_right1", (-1.0, 1.0))
        grid = ChebyshevGrid(12)
        for j in (0, 5, 11):
            x = grid.nodes[j]
            assert lagrange_eval(grid, h, x) == h.eval(x)

    def test_step_decays_away_from_jump(self):
        h = pure_step(math.cos(math.pi / 3), 0.2, "left0_right1", (-1.0, 1.0))
        value = lagrange_eval(ChebyshevGrid(50), h, -0.9)
        assert abs(value) < 0.05

    def test_uniform_convergence_envelope(self):
        h = pure_step(math.cos(math.pi / 3), 0.2, "left0_right1", (-1.0, 1.0))
        xs = np.concatenate([np.linspace(-0.95, 0.1, 60), np.linspace(0.8, 0.95, 30)])
        target = h.eval_many(xs)

        def max_err(n):
            grid = ChebyshevGrid(n)
            return max(
                abs(lagrange_eval(grid, h, x) - t) for x, t in zip(xs, target)
            )

        errors = {n: max_err(n) for n in (128, 512, 2048)}
        assert errors[2048] < errors[512] < errors[128]
        fitted_c = 128 * errors[128]
        assert errors[2048] < 1.5 * fitted_c / 2048


class TestSigma:
    def test_middle_node(self):
        _, num, den, is_node = node_offsets(Fraction(1, 2), 1, 0.5)
        assert is_node and Fraction(num, den) == 0

    def test_half_offset(self):
        _, num, den, is_node = node_offsets(Fraction(1, 2), 2, 0.5)
        assert Fraction(num, den) == Fraction(1, 2) and not is_node

    def test_third_cycle(self):
        _, num, den, _ = node_offsets(Fraction(1, 3), np.arange(1, 7), 0.5)
        got = [Fraction(r, den) for r in num.tolist()]
        assert got == [Fraction(5, 6), Fraction(1, 6), Fraction(1, 2)] * 2
        assert not node_offsets(Fraction(1, 3), np.arange(1, 50), 0.5)[3].any()

    def test_even_denominator_hits_nodes(self):
        ns = np.arange(1, 20)
        nodes = ns[node_offsets(Fraction(1, 2), ns, 0.5)[3]].tolist()
        assert nodes == [1, 3, 5, 7, 9, 11, 13, 15, 17, 19]

    def test_float_path_agrees(self):
        ratio = 1 / 3
        for n in range(1, 30):
            k0, num, den, is_node = node_offsets(Fraction(1, 3), n, 0.5)
            approx = node_offsets(ratio, n, 0.5)
            assert approx[3] == is_node
            assert approx[1] == pytest.approx(num / den, abs=1e-9)
            assert approx[0] == k0

    @pytest.mark.parametrize("n, k", [(4099, 1000), (100003, 30001), (3000017, 1000001)])
    def test_float_node_at_large_n(self, n, k):
        # the ratio theta_{n,k}/pi in floating point: t = n*ratio + 1/2
        # carries rounding of about eps*t, past 1e-12 at the largest n
        k0, sigma, _, is_node = node_offsets((2 * k - 1) / (2 * n), n, 0.5)
        assert is_node and k0 == k and sigma == 0.0

    def test_angle_validation(self):
        with pytest.raises(ValueError):
            node_offsets(Fraction(3, 2), 5, 0.5)
        with pytest.raises(ValueError):
            node_offsets(1.25, 5, 0.5)


class TestAtJump:
    def test_node_hits_return_point_value(self):
        h = pure_step(0.0, 0.37, "left0_right1", (-1.0, 1.0))
        for n in (1, 3, 65, 321):
            assert lagrange_at_jump(ChebyshevGrid(n), h, 0, Fraction(1, 2)) == 0.37

    def test_even_orders_approach_half(self):
        h = pure_step(0.0, 0.37, "left0_right1", (-1.0, 1.0))
        for n in (500, 1000):
            value = lagrange_at_jump(ChebyshevGrid(n), h, 0, Fraction(1, 2))
            assert abs(value - 0.5) < 1e-3

    def test_sixth_offset_approaches_profile(self):
        h = pure_step(0.5, 0.3, "left0_right1", (-1.0, 1.0))
        value = lagrange_at_jump(ChebyshevGrid(2000), h, 0, Fraction(1, 3))
        _, num, den, _ = node_offsets(Fraction(1, 3), 2000, 0.5)
        assert Fraction(num, den) == Fraction(1, 6)
        assert abs(value - g_lagrange(1 / 6)) < 1e-3

    def test_matches_generic_eval(self):
        h = pure_step(0.5, 0.3, "left0_right1", (-1.0, 1.0))
        for n in (7, 40, 101):
            grid = ChebyshevGrid(n)
            direct = lagrange_eval(grid, h, 0.5)
            at_jump = lagrange_at_jump(grid, h, 0, Fraction(1, 3))
            assert at_jump == pytest.approx(direct, abs=1e-12)

    def test_node_case_matches_generic_eval(self):
        # x0 = 0 is a node for odd n; the generic path resolves through the
        # node-coincidence branch and the jump tolerance to the same value
        h = pure_step(0.0, 0.37, "left0_right1", (-1.0, 1.0))
        grid = ChebyshevGrid(9)
        assert lagrange_eval(grid, h, 0.0) == 0.37
        assert lagrange_at_jump(grid, h, 0, Fraction(1, 2)) == 0.37

    @pytest.mark.parametrize("ratio", [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(5, 12)])
    @pytest.mark.parametrize("n", [7, 40, 101, 257])
    def test_rational_path_matches_product_basis(self, n, ratio):
        x0 = math.cos(math.pi * ratio.numerator / ratio.denominator)
        step = (pure_step(x0, 0.3, "left0_right1", (-1.0, 1.0)), 0)
        for f, i in (step, _two_jump_at(ratio)):
            grid = ChebyshevGrid(n)
            fk = f.eval_many(grid.nodes)
            direct = sum(product_basis(grid.nodes, k, x0) * fk[k - 1] for k in range(1, n + 1))
            assert lagrange_at_jump(grid, f, i, ratio) == pytest.approx(direct, abs=1e-12)
            served, values = sweep(f, i, ratio, [n])
            assert served[0] and values[0] == pytest.approx(direct, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        q=st.integers(min_value=2, max_value=50),
        p_seed=st.integers(min_value=1, max_value=49),
        n=st.integers(min_value=1, max_value=3000),
    )
    def test_rational_and_float_angle_paths_agree(self, q, p_seed, n):
        p = 1 + p_seed % (q - 1)
        assume(math.gcd(p, q) == 1)
        h = pure_step(math.cos(math.pi * p / q), 0.3, "left0_right1", (-1.0, 1.0))
        grid = ChebyshevGrid(n)
        exact = lagrange_at_jump(grid, h, 0, Fraction(p, q))
        swept = [sweep(h, 0, ratio, [n]) for ratio in (Fraction(p, q), p / q)]
        assert all(served[0] for served, _ in swept)
        if node_offsets(Fraction(p, q), n, 0.5)[3]:
            assert exact == 0.3
            assert lagrange_at_jump(grid, h, 0, p / q) == 0.3
            assert [values[0] for _, values in swept] == [0.3, 0.3]
        else:
            assert lagrange_at_jump(grid, h, 0, p / q) == pytest.approx(exact, abs=1e-10)
            assert swept[1][1][0] == pytest.approx(swept[0][1][0], abs=1e-10)

    def test_float_angle_path(self):
        h = pure_step(math.cos(0.3 * math.pi), 0.3, "left0_right1", (-1.0, 1.0))
        value = lagrange_at_jump(ChebyshevGrid(64), h, 0, 0.3)
        assert -0.2 < value < 1.2

    def test_location_is_a_ratio_not_an_angle(self):
        h = pure_step(0.5, 0.3, "left0_right1", (-1.0, 1.0))
        # the default is acos(x0)/pi = 1/3 to rounding
        assert lagrange_at_jump(ChebyshevGrid(10), h, 0) == pytest.approx(
            lagrange_at_jump(ChebyshevGrid(10), h, 0, Fraction(1, 3)), abs=1e-14
        )
        with pytest.raises(TypeError):
            lagrange_at_jump(ChebyshevGrid(10), h, 0, theta0=math.pi / 3)
        with pytest.raises(ValueError):
            lagrange_at_jump(ChebyshevGrid(10), h, 0, math.pi / 3)


def _general_weights(grid, ratio):
    """Every node's weight, from the gaps lagrange_at_jump uses."""
    _, k0, gap, gap_before, angle, supplement = _location(ratio, grid.n)
    weights, scale = _weights(grid.n, k0, gap, gap_before, angle, supplement)
    return weights * scale


def _step(x0, limits, d):
    """A single jump at x0 on a constant base, with the given one-sided limits."""
    left, right = limits
    return from_steps(ContinuousPart((left,)), [(x0, right - left, d)], (-1.0, 1.0))


class TestOneSideSum:
    """sweep at one jump on a constant base sums one side's weights, within
    rounding of lagrange_at_jump, the full weight vector against f."""

    @settings(max_examples=200, deadline=None)
    @given(
        q=st.integers(min_value=2, max_value=60),
        p_seed=st.integers(min_value=1, max_value=59),
        n=st.integers(min_value=1, max_value=3000),
        d=st.floats(min_value=-2.0, max_value=2.0),
        limits=st.sampled_from([(0.0, 1.0), (1.0, 0.0), (-0.75, 2.5), (3.0, 0.5)]),
        float_ratio=st.booleans(),
    )
    def test_matches_the_general_sum(self, q, p_seed, n, d, limits, float_ratio):
        p = 1 + p_seed % (q - 1)
        assume(math.gcd(p, q) == 1)
        ratio = p / q if float_ratio else Fraction(p, q)
        f = _step(math.cos(math.pi * p / q), limits, d)
        grid = ChebyshevGrid(n)
        served, values = sweep(f, 0, ratio, [n])
        # with q <= 60 and n <= 3000 no node is within 1e-7 of x0, so every
        # order passes the gate, on an exact and a float ratio
        assert served[0]
        if node_offsets(Fraction(p, q), n, 0.5)[3]:
            assert values[0] == lagrange_at_jump(grid, f, 0, ratio) == d
        else:
            assert values[0] == pytest.approx(lagrange_at_jump(grid, f, 0, ratio), abs=1e-14)

    @settings(max_examples=100, deadline=None)
    @given(
        q=st.integers(min_value=2, max_value=60),
        p_seed=st.integers(min_value=1, max_value=59),
        n=st.integers(min_value=1, max_value=40),
        limits=st.sampled_from([(0.0, 1.0), (1.0, 0.0), (-0.75, 2.5)]),
    )
    def test_matches_the_product_form(self, q, p_seed, n, limits):
        p = 1 + p_seed % (q - 1)
        assume(math.gcd(p, q) == 1)
        assume(not node_offsets(Fraction(p, q), n, 0.5)[3])
        x0 = math.cos(math.pi * p / q)
        f = _step(x0, limits, 0.3)
        grid = ChebyshevGrid(n)
        fk = f.eval_many(grid.nodes)
        direct = sum(
            fundamental_product_reference(grid, k, x0) * fk[k - 1] for k in range(1, n + 1)
        )
        assert lagrange_at_jump(grid, f, 0, Fraction(p, q)) == pytest.approx(direct, abs=1e-12)
        served, values = sweep(f, 0, Fraction(p, q), [n])
        assert served[0] and values[0] == pytest.approx(direct, abs=1e-12)

    def test_node_hits_return_the_point_value(self):
        f = _step(math.cos(3 * math.pi / 8), (0.0, 1.0), 0.37)
        for ratio in (Fraction(3, 8), 3 / 8):
            served, values = sweep(f, 0, ratio, [4, 12, 20])
            assert served.all() and values.tolist() == [0.37] * 3
            for n in (4, 12, 20):
                assert lagrange_at_jump(ChebyshevGrid(n), f, 0, ratio) == 0.37

    @pytest.mark.parametrize("limits", [(0.0, 1.0), (1.0, 0.0), (-0.75, 2.5)])
    @pytest.mark.parametrize("float_ratio", [False, True])
    def test_every_node_on_one_side(self, limits, float_ratio):
        # theta0 = pi/7 lies before theta_1 = pi/6 (k0 = 0): every node samples
        # the left limit; 6pi/7 lies past theta_3 = 5pi/6 (k0 = n)
        grid = ChebyshevGrid(3)
        left, right = limits
        for ratio, k0, limit in ((Fraction(1, 7), 0, left), (Fraction(6, 7), 3, right)):
            assert node_offsets(ratio, 3, 0.5)[0] == k0
            location = float(ratio) if float_ratio else ratio
            f = _step(math.cos(math.pi * ratio.numerator / ratio.denominator), limits, 0.3)
            served, values = sweep(f, 0, location, [3])
            per_n = lagrange_at_jump(grid, f, 0, location)
            assert served[0]
            assert values[0] == pytest.approx(limit, abs=1e-14)
            assert values[0] == pytest.approx(per_n, abs=1e-14)
            assert per_n == pytest.approx(limit, abs=1e-14)

    def test_node_between_location_and_jump_takes_the_general_path(self):
        # the descriptor's jump sits 2e-10 (in theta/pi) from the location,
        # with node k = 13 of n = 40 between them: the nodes' values differ
        # from the one-side partition, so sweep leaves the order to the full
        # weight vector against f at the nodes
        n, k = 40, 13
        ratio = (2 * k - 1) / (2 * n) + 1e-10
        f = _step(math.cos(math.pi * ((2 * k - 1) / (2 * n) - 1e-10)), (0.0, 1.0), 0.3)
        grid = ChebyshevGrid(n)
        assert f.jumps[0].x_float > grid.nodes[k - 1] > math.cos(math.pi * ratio)
        served, values = sweep(f, 0, ratio, [n])
        assert not served[0] and np.isnan(values[0])
        # node k lies right of x0 but left of the jump: f takes the left limit
        fk = f.eval_many(grid.nodes)
        assert fk[k - 1] == 0.0
        direct = _general_weights(grid, ratio) @ fk
        assert lagrange_at_jump(grid, f, 0, ratio) == pytest.approx(direct, abs=1e-14)

    @pytest.mark.parametrize(
        "base, declared, ratio",
        [
            # base 1000 on the rational path: the declared left limit is
            # 5e-7 off, within validation's 1e-9 relative
            (1000.0, (1000.0000005, 1001.0), Fraction(2, 7)),
            # base 0 on a float ratio: the declared left limit is 5e-10, but
            # the nodes left of the jump give 0
            (0.0, (5e-10, 1.0), 2 / 7),
        ],
    )
    def test_limits_are_the_values_at_the_nodes(self, base, declared, ratio):
        x0 = math.cos(2 * math.pi / 7)
        f = from_descriptor_dict(
            {
                "domain": [-1.0, 1.0],
                "poly": [base],
                "jumps": [{"x": x0, "left": declared[0], "right": declared[1], "value": 0.3}],
            }
        )
        assert f.step_limits[0] == base != f.jumps[0].left
        served, values = sweep(f, 0, ratio, [5, 64, 1001])
        assert served.all()
        for n, value in zip((5, 64, 1001), values):
            per_n = lagrange_at_jump(ChebyshevGrid(n), f, 0, ratio)
            assert value == pytest.approx(per_n, abs=1e-10)

    def test_general_functions_take_the_general_path(self):
        # the identity serves a polynomial base only above its degree, and
        # no trig base: those orders evaluate f at the nodes
        ratio = Fraction(1, 3)
        f, i = _two_jump_at(ratio)
        assert sweep(f, i, ratio, [50, 2])[0].tolist() == [True, False]
        wave, i = _two_jump_at(ratio, trig=((3.0, 0.5, 0.0),))
        assert sweep(wave, i, ratio, [50])[0].tolist() == [False]

    def test_domain_short_of_the_grid_still_raises(self):
        # the nodes reach past the domain, so the general path's eval_many raises
        f = from_steps(ContinuousPart((0.0,)), [(0.5, 1.0, 0.3)], (-0.5, 1.0))
        with pytest.raises(ValueError):
            lagrange_at_jump(ChebyshevGrid(10), f, 0, Fraction(1, 3))


@st.composite
def _sweep_cases(draw):
    """(f, ratio, n_values) for sweep at a step: a step at an exact ratio
    theta0/pi = p/q (q up to 10^6, or past 2**51 so that 4nq > 2**53), at a
    float ratio, at a float ratio just past a node whose jump sits just
    before it, or at a float ratio where t_n = n*ratio + 1/2 sits 1 to 4
    times node_offsets' float tolerance 4*eps*t_n from an integer."""
    kind = draw(st.sampled_from(
        ["small q", "large q", "huge q", "float", "beside a node", "float rule edge"]
    ))
    limits = draw(st.sampled_from([(0.0, 1.0), (1.0, 0.0), (-0.75, 2.5), (3.0, 0.5), (0.0, -2.0)]))
    d = draw(st.floats(min_value=-2.0, max_value=2.0))
    if draw(st.booleans()):
        n_values = range(
            draw(st.integers(1, 300)), draw(st.integers(301, 1500)), draw(st.integers(11, 97))
        )
    else:
        n_values = draw(st.lists(st.integers(1, 1500), min_size=1, max_size=20))
    if kind == "beside a node":
        n0 = draw(st.integers(2, 1500))
        k = draw(st.integers(1, n0))
        delta = draw(st.floats(min_value=1e-12, max_value=1e-9))
        node = (2 * k - 1) / (2 * n0)
        ratio, x = node + delta, math.cos(math.pi * (node - delta))
        n_values = list(n_values) + [n0]
    elif kind == "float rule edge":
        # past t = 1126, 4*eps*t is above OFFSET_TOL and sets the rule
        n0 = draw(st.integers(1200, 3000))
        k = draw(st.integers(1130, n0))
        side = draw(st.sampled_from([-1.0, 1.0]))
        t = k + side * draw(st.floats(min_value=1.0, max_value=4.0)) * 4 * np.finfo(float).eps * k
        ratio = (t - 0.5) / n0
        x = math.cos(math.pi * ratio)
        n_values = list(n_values) + [n0]
    elif kind == "float":
        ratio = draw(st.floats(min_value=0.01, max_value=0.99))
        x = math.cos(math.pi * ratio)
    else:
        q = {"small q": draw(st.integers(2, 12)), "large q": draw(st.integers(13, 10**6)),
             "huge q": draw(st.integers(2**51, 2**60))}[kind]
        # past 2**51, p/q near 0 or 1 would put the jump on the boundary
        margin = q // 50 if kind == "huge q" else 1
        p = draw(st.integers(margin, q - margin))
        assume(math.gcd(p, q) == 1)
        ratio = Fraction(p, q)
        x = math.cos(math.pi * p / q)
    left, right = limits
    if draw(st.booleans()):
        # a descriptor whose declared left limit is 1e-12 off the base
        f = from_descriptor_dict({
            "domain": [-1.0, 1.0], "poly": [left],
            "jumps": [{"x": x, "left": left + 1e-12, "right": right, "value": d}],
        })
    else:
        f = _step(x, limits, d)
    return f, ratio, n_values


class TestStepSweep:
    """sweep at a step (one jump on a constant base) against itself one
    order at a time, and against lagrange_at_jump, the full weight sums."""

    @settings(max_examples=100, deadline=None)
    @given(case=_sweep_cases())
    def test_matches_per_n_evaluation(self, case):
        f, ratio, n_values = case
        served, values = sweep(f, 0, ratio, n_values)
        assert values.shape == served.shape == (len(n_values),)
        ns = np.asarray(list(n_values))
        is_node, k0, gap, gap_before, angle, supplement = _location(ratio, ns)
        # every off-node row lies strictly between two node angles
        assert np.all(gap[~is_node] > 0) and np.all(gap_before[~is_node] > 0)
        assert np.all(np.isfinite(values[served])) and np.all(np.isnan(values[~served]))
        left, right = f.step_limits
        for n, value, node, one_side in zip(ns.tolist(), values, is_node, served):
            grid = ChebyshevGrid(n)
            alone = sweep(f, 0, ratio, [n])
            if node:
                assert one_side and value == f.jumps[0].value
                assert lagrange_at_jump(grid, f, 0, ratio) == value
            elif one_side:
                assert alone[0][0] and value == alone[1][0]
                # the general sum is other * sum(w) + (summed - other) * the
                # summed side's weights, and the one-side sum puts 1 for
                # sum(w): they differ by the limit not summed times
                # sum(w) - 1, a few eps, plus the rounding of the summed side
                weights = _general_weights(grid, ratio)
                tol = (1e-14 + 2 * max(abs(left), abs(right)) * abs(weights.sum() - 1.0)
                       + 16 * np.finfo(float).eps * abs(right - left) * np.abs(weights).sum())
                assert value == pytest.approx(lagrange_at_jump(grid, f, 0, ratio), abs=tol)
            else:
                assert not alone[0][0]
                assert np.isfinite(lagrange_at_jump(grid, f, 0, ratio))

    def test_takes_the_general_path_only_where_the_bracket_fails(self):
        # the jump of a descriptor sits 1e-10 (in theta/pi) before node
        # k = 13 of n = 40 and the location 1e-10 past it
        n, k = 40, 13
        ratio = (2 * k - 1) / (2 * n) + 1e-10
        f = _step(math.cos(math.pi * ((2 * k - 1) / (2 * n) - 1e-10)), (0.0, 1.0), 0.3)
        with mock.patch.object(
            JumpFunction, "eval_many", autospec=True, side_effect=JumpFunction.eval_many
        ) as spy:
            served, _ = sweep(f, 0, ratio, range(38, 43))
        assert not spy.called
        assert served.tolist() == [True, True, False, True, True]
        assert sweep(f, 0, ratio, [n])[0].tolist() == [False]

    def test_large_denominators_take_the_one_side_sum(self):
        # 4nq passes 2**53 at n = 128; the gaps come from node_offsets'
        # integers num and den - num, both below 2q, so no order needs f at
        # the nodes
        ratio = Fraction(5864062014805, 2**44 + 1)
        f = _step(math.cos(math.pi * ratio.numerator / ratio.denominator), (-0.75, 2.5), 0.3)
        served, values = sweep(f, 0, ratio, [127, 128])
        assert served.all()
        for n, value in zip((127, 128), values):
            assert value == pytest.approx(lagrange_at_jump(ChebyshevGrid(n), f, 0, ratio), abs=1e-14)

    def test_gate_keeps_two_node_tolerances_from_a_node(self):
        # a step at x0 just left of node k: off the node in node_offsets'
        # terms either way, and served only past 2*NODE_ATOL
        n, k = 40, 13
        x_k = math.cos((2 * k - 1) * math.pi / (2 * n))
        for gap, inside in ((1.5e-13, False), (3e-13, True)):
            x0 = x_k - gap
            ratio = math.acos(x0) / math.pi
            assert not node_offsets(ratio, n, 0.5)[3]
            served, _ = sweep(_step(x0, (0.0, 1.0), 0.3), 0, ratio, [n])
            assert served[0] == inside

    @pytest.mark.parametrize("two_jumps", [False, True])
    def test_location_near_a_node_is_served_when_the_stored_jump_is_clear(self, two_jumps):
        # x0 1.5e-13 left of node k, within 2*NODE_ATOL of it, and the jump
        # stored 3e-13 left of it: node_offsets decides x0, and the gate
        # reads the stored location only
        n, k = 40, 13
        x_k = math.cos((2 * k - 1) * math.pi / (2 * n))
        ratio = math.acos(x_k - 1.5e-13) / math.pi
        assert abs(math.cos(math.pi * ratio) - x_k) < 2 * NODE_ATOL
        assert not node_offsets(ratio, n, 0.5)[3]
        x_stored = x_k - 3e-13
        if two_jumps:
            steps = [(0.0, 1.0, 0.3), (x_stored, -0.5, 0.6)]
            f = from_steps(ContinuousPart((0.0, 0.0, 1.0)), steps, (-1.0, 1.0))
        else:
            f = _step(x_stored, (0.0, 1.0), 0.3)
        i = [j.x_float for j in f.jumps].index(x_stored)
        served, values = sweep(f, i, ratio, [n])
        assert served[0]
        grid = ChebyshevGrid(n)
        tol = 1e-14 * (1 + np.abs(f.eval_many(grid.nodes)).max())
        assert abs(values[0] - lagrange_at_jump(grid, f, i, ratio)) <= tol

    @pytest.mark.parametrize("n, k, delta", [(1000, 300, 2e-14), (3000, 1000, 1e-14)])
    def test_location_within_node_atol_of_a_node(self, n, k, delta):
        # a float ratio whose x0 lies within NODE_ATOL of node k but off it
        # by node_offsets: the weights give the value, not the node's
        mpmath = pytest.importorskip("mpmath")
        ratio = (2 * k - 1) / (2 * n) + delta
        grid = ChebyshevGrid(n)
        assert not node_offsets(ratio, n, 0.5)[3]
        assert abs(math.cos(math.pi * ratio) - grid.nodes[k - 1]) < NODE_ATOL
        f = _step(math.cos(math.pi * ratio), (0.0, 1.0), 0.3)
        value = lagrange_at_jump(grid, f, 0, ratio)
        assert abs(value - _exact_sum(mpmath, ratio, grid, f)) < 1e-15

    def test_empty_orders(self):
        f = _step(0.5, (0.0, 1.0), 0.3)
        served, values = sweep(f, 0, Fraction(1, 3), range(1, 1))
        assert served.size == values.size == 0

    def test_validation(self):
        f = _step(0.5, (0.0, 1.0), 0.3)
        with pytest.raises(ValueError):
            sweep(f, 0, Fraction(1, 3), [0, 1])
        with pytest.raises(ValueError):
            sweep(f, 0, Fraction(4, 3), [1, 2])
        with pytest.raises(IndexError):
            sweep(f, 1, Fraction(1, 3), [1, 2])

    @pytest.mark.parametrize("ratio, ns", [
        (Fraction(1, 3), [100, 1000, 2999]),
        (Fraction(2, 3), [101, 1500, 3000]),
        (Fraction(7, 19), [17, 777, 2500]),
        # near theta0/pi = 0 and 1, where a_k nears 0 or pi
        (Fraction(1, 1000), [3000]),
        (Fraction(999, 1000), [3000]),
        (Fraction(229539, 229559), [300]),
        # theta0 within 1e-7 of node k = 200 of n = 777, exact and float
        (Fraction(399, 1554) + Fraction(1, 10**8), [777]),
        (399 / 1554 + 1e-8, [777]),
        # float ratios as a declared-irrational location passes them
        (math.sqrt(3) - 1, [1741]),
        (math.sqrt(2) / 2, [1562]),
        ((math.sqrt(5) - 1) / 2, [305]),
        (0.001, [3000]),
        (0.999, [3000]),
    ])
    def test_error_against_a_40_digit_sum(self, ratio, ns):
        mpmath = pytest.importorskip("mpmath")
        f = _step(math.cos(_location(ratio, 1)[4]), (0.0, 1.0), 0.3)
        served, values = sweep(f, 0, ratio, ns)
        assert served.all()
        for n, value in zip(ns, values):
            assert abs(value - _exact_sum(mpmath, ratio, ChebyshevGrid(n), f)) < 1e-15

    def test_general_path_error_against_a_40_digit_sum(self):
        # near theta0/pi = 1, where a_k nears pi; the trig term keeps the
        # order from sweep
        mpmath = pytest.importorskip("mpmath")
        ratio = Fraction(229539, 229559)
        f, i = _two_jump_at(ratio, trig=((3.0, 0.5, 0.0),))
        assert sweep(f, i, ratio, [300])[0].tolist() == [False]
        value = lagrange_at_jump(ChebyshevGrid(300), f, i, ratio)
        assert abs(value - _exact_sum(mpmath, ratio, ChebyshevGrid(300), f)) < 1e-15


@st.composite
def _polynomial_cases(draw):
    """(f, jump_index, ratio, n_values, unserved) for sweep: a polynomial
    base of degree 0-4 with 1-3 jumps, located at an exact or a float ratio;
    or criterion 7's pair, a jump at theta0/pi = p/3 with a second one at
    x = 0, a node of every odd order; or a second jump between NODE_ATOL/2
    and 2*NODE_ATOL of a node; or a trig base.  unserved(n) says whether
    sweep must leave an off-node order n to the general path."""
    kind = draw(st.sampled_from(["exact", "float", "node hit", "near a node", "trig"]))
    degree = draw(st.integers(0, 4))
    poly = tuple(draw(st.floats(-2.0, 2.0)) for _ in range(degree + 1))
    trig = ((draw(st.floats(0.5, 5.0)), 0.5, 0.25),) if kind == "trig" else ()
    n_values = draw(st.lists(st.integers(1, 1200), min_size=1, max_size=8))
    n_values += list(range(1, degree + 1))
    if kind == "node hit":
        ratio, others = Fraction(draw(st.sampled_from([1, 2])), 3), [0.0]
        n_values += [2 * draw(st.integers(degree // 2, 600)) + 1]
    else:
        q = draw(st.integers(2, 40))
        p = draw(st.integers(1, q - 1))
        assume(math.gcd(p, q) == 1)
        ratio = draw(st.floats(0.01, 0.99)) if kind == "float" else Fraction(p, q)
        others = [
            math.cos(math.pi * draw(st.floats(0.01, 0.99)))
            for _ in range(draw(st.integers(0 if kind != "near a node" else 1, 2)))
        ]
    near = None
    if kind == "near a node":
        n0 = draw(st.integers(degree + 1, 1200))
        k = draw(st.integers(1, n0))
        delta = draw(st.floats(0.6 * NODE_ATOL, 1.9 * NODE_ATOL)) * draw(st.sampled_from([-1, 1]))
        others[0] = math.cos((2 * k - 1) * math.pi / (2 * n0)) + delta
        near, n_values = n0, n_values + [n0]
    x0 = math.cos(math.pi * float(ratio))
    locations = [x0] + others
    assume(min(abs(a - b) for a, b in itertools.combinations(sorted(locations), 2)) > 1e-9
           if len(locations) > 1 else True)
    amounts = [draw(st.sampled_from([-1.5, -0.5, 0.25, 1.0, 2.0])) for _ in locations]
    values = [draw(st.floats(-1.0, 1.0)) for _ in locations]
    f = from_steps(ContinuousPart(poly, trig), list(zip(locations, amounts, values)), (-1.0, 1.0))
    jump_index = [j.x_float for j in f.jumps].index(x0)

    def unserved(n):
        return n <= degree or kind == "trig" or n == near

    return f, jump_index, ratio, n_values, unserved


class TestSweep:
    """sweep on a polynomial base with several jumps, against itself one
    order at a time and against lagrange_at_jump, the general sum."""

    @settings(max_examples=120, deadline=None)
    @given(case=_polynomial_cases())
    def test_matches_the_general_sum(self, case):
        f, i, ratio, n_values, unserved = case
        served, values = sweep(f, i, ratio, n_values)
        is_node, _, _, _, angle, _ = _location(ratio, np.array(n_values))
        for n, value, node, swept in zip(n_values, values, is_node, served):
            grid = ChebyshevGrid(n)
            per_n = lagrange_at_jump(grid, f, i, ratio)
            alone = sweep(f, i, ratio, [n])
            if node:
                # the node decision is node_offsets', on both paths
                assert swept and value == per_n == f.jumps[i].value
            elif swept:
                assert not unserved(n)
                assert alone[0][0] and value == alone[1][0]
                assert _coincident_node(grid, math.cos(angle), angle) is None
                tol = 1e-14 * (1 + np.abs(f.eval_many(grid.nodes)).max())
                assert abs(value - per_n) <= tol
            else:
                assert np.isnan(value)
                assert not alone[0][0] and np.isfinite(per_n)

    def test_odd_orders_hit_the_other_jump(self):
        # at theta0/pi = 1/3 every odd n has a node at the jump x = 0, which
        # takes that jump's point value
        ratio = Fraction(1, 3)
        f, i = _two_jump_at(ratio)
        ns = range(3, 400, 2)
        served, values = sweep(f, i, ratio, ns)
        assert served.all()
        for n, value in zip(ns, values):
            grid = ChebyshevGrid(n)
            assert f.eval_many(grid.nodes)[(n - 1) // 2] == 0.3
            tol = 1e-14 * (1 + np.abs(f.eval_many(grid.nodes)).max())
            assert abs(value - lagrange_at_jump(grid, f, i, ratio)) <= tol

    def test_a_node_on_two_jumps_takes_the_general_path(self):
        # jumps at 0 and cos(pi/2) = 6e-17: the middle node of an odd order
        # is within NODE_ATOL of both and takes the later one's point value
        ratio = Fraction(1, 3)
        steps = [(0.0, 1.0, 0.3), (math.cos(math.pi / 2), 0.5, 0.9), (0.5, -0.5, 0.6)]
        f = from_steps(ContinuousPart((0.0, 1.0)), steps, (-1.0, 1.0))
        ns = [9, 10, 11]
        served, _ = sweep(f, 2, ratio, ns)
        assert served.tolist() == [False, True, False]
        grid = ChebyshevGrid(9)
        fk = f.eval_many(grid.nodes)
        assert fk[4] == 0.9
        assert sweep(f, 2, ratio, [9])[0].tolist() == [False]
        direct = _general_weights(grid, ratio) @ fk
        assert lagrange_at_jump(grid, f, 2, ratio) == pytest.approx(direct, abs=1e-14)

    @pytest.mark.parametrize("case", [
        (Fraction(1, 3), None), (Fraction(1, 2), None), (math.sqrt(2) - 1, None),
        (Fraction(1, 3), "two jumps"), (Fraction(1, 2), "two jumps"),
    ], ids=["step-1/3", "step-1/2", "step-sqrt2-1", "two-jumps-1/3", "two-jumps-1/2"])
    def test_blocks_of_any_length_give_the_same_orders(self, case, monkeypatch):
        # n = 1..600 in blocks of 1, 2 and 7 orders, so that block edges fall
        # everywhere, against one block of every order; at 1/2 the odd
        # orders are nodes, and on the x^2 base orders 1 and 2 are unserved
        ratio, kind = case
        if kind:
            f, i = _two_jump_at(ratio)
        else:
            f, i = _step(math.cos(math.pi * float(ratio)), (0.0, 1.0), 0.3), 0
        ns = range(1, 601)
        served, values = sweep(f, i, ratio, ns)
        assert served.sum() >= 598
        for chunk in (1, 2, 7):
            monkeypatch.setattr(piecewise, "CHUNK", chunk)
            blocked = sweep(f, i, ratio, ns)
            assert np.array_equal(blocked[0], served)
            assert blocked[1].tobytes() == values.tobytes()

    @pytest.mark.parametrize("ratio, ns", [
        (Fraction(1, 3), [100, 1001, 2999, 3000]),
        (Fraction(229539, 229559), [300, 2999, 3000]),
    ])
    def test_error_against_a_40_digit_sum(self, ratio, ns):
        mpmath = pytest.importorskip("mpmath")
        f, i = _two_jump_at(ratio)
        served, values = sweep(f, i, ratio, ns)
        assert served.all()
        for n, value in zip(ns, values):
            assert abs(value - _exact_sum(mpmath, ratio, ChebyshevGrid(n), f)) < 1e-14


@st.composite
def _side_sum_cases(draw):
    """(f, jump_index, ratio, n) for one order of sweep: a polynomial base
    with a jump at an exact p/q (q <= 50), a float ratio, a float within
    1e-3 of 0 or 1 or one within 1e-9 of a node, and 0-2 other jumps
    midway between two nodes, each cutting a side after a drawn number of
    terms, many of them around _HEAD, so that segments start before, at and
    past it."""
    n = draw(st.integers(3, 4000))
    kind = draw(st.sampled_from(["exact", "float", "near 0 or 1", "near a node"]))
    if kind == "exact":
        q = draw(st.integers(2, 50))
        ratio = Fraction(draw(st.integers(1, q - 1)), q)
    elif kind == "float":
        ratio = draw(st.floats(0.001, 0.999))
    elif kind == "near 0 or 1":
        ratio = draw(st.floats(1e-7, 1e-3))
        ratio = draw(st.sampled_from([ratio, 1.0 - ratio]))
    else:
        k = draw(st.integers(1, n))
        offset = draw(st.floats(1e-11, 1e-9)) * draw(st.sampled_from([-1, 1]))
        ratio = (2 * k - 1) / (2 * n) + offset
    assume(0.0 < ratio < 1.0)
    k0 = int(_location(ratio, n)[1])
    locations = [math.cos(math.pi * float(ratio))]
    for _ in range(draw(st.integers(0, 2))):
        side = draw(st.sampled_from([0, 1]))
        length = k0 if side == 0 else n - k0
        cut = draw(st.one_of(st.integers(_HEAD - 2, _HEAD + 2), st.integers(1, n)))
        assume(cut < length)
        # theta = k pi/n, midway between nodes k and k + 1, puts k nodes right
        # of the jump
        locations.append(math.cos(math.pi * (k0 - cut if side == 0 else k0 + cut) / n))
    assume(len(set(locations)) == len(locations))
    poly = tuple(draw(st.floats(-2.0, 2.0)) for _ in range(draw(st.integers(1, 3))))
    amounts = [draw(st.sampled_from([-1.5, -0.5, 0.25, 1.0, 2.0])) for _ in locations]
    f = from_steps(ContinuousPart(poly), [(x, a, 0.3) for x, a in zip(locations, amounts)],
                   (-1.0, 1.0))
    return f, [j.x_float for j in f.jumps].index(locations[0]), ratio, n


def _swept_side_sums(f, i, ratio, n):
    """The arguments that sweep passes to _side_sums at the one order n."""
    with mock.patch.object(lagrange, "_side_sums", side_effect=_side_sums) as spy:
        served, _ = sweep(f, i, ratio, [n])
    assume(served[0] and spy.called and spy.call_args.args[0].size)
    return spy.call_args.args


def _side_rows(length, start):
    """_side_sums arguments for rows of the given length with one cut at
    start, on both sides of the jump and at two gaps and two orders."""
    rows = []
    for n in (3 * length + 1, 2000):
        h = math.pi / (2 * n)
        for gap in (0.3 * h, 1.7 * h):
            # the side k <= k0 with k0 = length, reach theta0, and the other
            # side with n - k0 = length, reach pi - theta0
            rows.append((n, gap, (2 * length - 1) * h + gap))
            rows.append((n, gap, math.pi - ((2 * (n - length) + 1) * h - gap)))
    n, gap, reach = (np.array(column) for column in zip(*rows))
    return n, gap, reach, np.tile([start, length], (n.size, 1))


def _first_term(gap, reach):
    """|cot x_0| + |cot(x_0 - reach)| per row, as a column."""
    return (np.abs(1.0 / np.tan(gap / 2)) + np.abs(1.0 / np.tan(gap / 2 - reach)))[:, None]


def _exact_side_sums(mpmath, n, gap, reach, cuts):
    """_side_sums to 40 digits, for the exact values of its double arguments."""
    out = np.zeros(cuts.shape)
    with mpmath.workdps(40):
        for row, (m, g, r, bounds) in enumerate(zip(n.tolist(), gap, reach, cuts.tolist())):
            h, lo = mpmath.pi / (2 * m), 0
            for c, hi in enumerate(bounds):
                total = 0
                for j in range(lo, hi):
                    x = mpmath.mpf(g) / 2 + j * h
                    total += (-1) ** j * (mpmath.cot(x) + mpmath.cot(x - mpmath.mpf(r)))
                out[row, c], lo = float(total), hi
    return out


class TestSideSums:
    """_side_sums, its direct head and Euler-Boole tail, against the direct
    sum of every term and against 40-digit sums, within 1e-15 of the
    magnitude of each row's first term."""

    def test_coefficients(self):
        # e_k are the Taylor coefficients of 2/(e^t + 1) = sum E_k(0) t^k/k!,
        # and P_k come from P_0(c) = c, P_(k+1)(c) = -(1 + c^2) P_k'(c)
        exp_plus_one = [Fraction(2)] + [Fraction(1, math.factorial(m)) for m in range(1, 14)]
        e = [Fraction(1)]
        for m in range(1, 14):
            e.append(-sum(exp_plus_one[i] * e[m - i] for i in range(1, m + 1)) / 2)
        p = [0, 1]
        derivatives = {}
        for k in range(1, 14):
            dp = [i * a for i, a in enumerate(p)][1:]
            p = [0] * (len(dp) + 2)
            for i, a in enumerate(dp):
                p[i] -= a
                p[i + 2] -= a
            derivatives[k] = p
        assert [e[k] for k in range(2, 14, 2)] == [0] * 6
        odd = range(1, 14, 2)
        assert [e_k for e_k, _ in _EULER_BOOLE] == [float(e[k]) for k in odd]
        assert [list(p_k) for _, p_k in _EULER_BOOLE] == [derivatives[k][::2] for k in odd]
        assert all(not any(derivatives[k][1::2]) for k in odd)

    @settings(max_examples=80, deadline=None)
    @given(case=_side_sum_cases())
    def test_matches_the_direct_sum(self, case):
        n, gap, reach, cuts = _swept_side_sums(*case)
        error = np.abs(_side_sums(n, gap, reach, cuts) - side_sums_direct(n, gap, reach, cuts))
        assert np.all(error <= 1e-15 * _first_term(gap, reach))

    @settings(max_examples=40, deadline=None)
    @given(case=_side_sum_cases())
    def test_error_against_a_40_digit_sum(self, case):
        mpmath = pytest.importorskip("mpmath")
        n, gap, reach, cuts = _swept_side_sums(*case)
        exact = _exact_side_sums(mpmath, n, gap, reach, cuts)
        error = np.abs(_side_sums(n, gap, reach, cuts) - exact)
        assert np.all(error <= 1e-15 * _first_term(gap, reach))

    @pytest.mark.parametrize("length", [_HEAD - 1, _HEAD, _HEAD + 1, _HEAD + 2])
    @pytest.mark.parametrize("start", [0, 1, _HEAD - 1, _HEAD, _HEAD + 1])
    def test_segments_around_the_head(self, length, start):
        n, gap, reach, cuts = _side_rows(length, min(start, length))
        sums, unit = _side_sums(n, gap, reach, cuts), _first_term(gap, reach)
        assert np.all(np.abs(sums - side_sums_direct(n, gap, reach, cuts)) <= 1e-15 * unit)
        mpmath = pytest.importorskip("mpmath")
        exact = _exact_side_sums(mpmath, n, gap, reach, cuts)
        assert np.all(np.abs(sums - exact) <= 1e-15 * unit)

    @pytest.mark.parametrize("length", [1, 2, _HEAD // 2, _HEAD])
    def test_short_rows_skip_the_tail(self, length):
        # no row longer than _HEAD: the head alone gives the sums, and no
        # Euler-Boole term is read
        n, gap, reach, cuts = _side_rows(length, length // 2)
        with mock.patch.object(lagrange, "_EULER_BOOLE", None):
            sums = _side_sums(n, gap, reach, cuts)
        direct = side_sums_direct(n, gap, reach, cuts)
        assert np.all(np.abs(sums - direct) <= 1e-15 * _first_term(gap, reach))

    @pytest.mark.parametrize("ratio, n", [
        (Fraction(1, 3), 100),
        (Fraction(2, 3), 3000),
        (Fraction(1, 1000), 3000),
        (math.sqrt(2) - 1, 777),
        (399 / 1554 + 1e-8, 777),
        (0.999, 3000),
    ])
    def test_head_terms_are_the_general_weights(self, ratio, n):
        # one term kernel: the head of each side's row, from x0 outward, is
        # the full weight vector's, bit for bit; a second jump on the longer
        # side makes sweep sum both sides
        _, k0, gap, gap_before, angle, supplement = _location(ratio, n)
        x0 = math.cos(angle)
        other = math.cos((angle + math.pi) / 2 if 2 * k0 <= n else angle / 2)
        f = from_steps(ContinuousPart((0.0, 1.0)), [(x0, 1.0, 0.3), (other, -0.5, 0.6)],
                       (-1.0, 1.0))
        terms, heads = lagrange._terms, []
        with mock.patch.object(
            lagrange, "_terms", side_effect=lambda *a: heads.append(terms(*a)) or heads[-1]
        ):
            served, _ = sweep(f, [j.x_float for j in f.jumps].index(x0), ratio, [n])
        assert served[0]
        weights, _ = _weights(n, k0, gap, gap_before, angle, supplement)
        sides = (weights[:k0][::-1], weights[k0:])
        assert heads[0].shape == (2, _HEAD)
        for head, side in zip(heads[0], sides):
            length = min(_HEAD, side.size)
            assert np.array_equal(head[:length], side[:length])

    @pytest.mark.parametrize("two_jumps", [False, True])
    def test_a_full_block_equals_one_order_at_a_time(self, two_jumps):
        # at theta0/pi = 1/3 no order is a node, so orders 60-571 make one
        # block of _ROWS rows; the shorter side, k0 = round(n/3), has
        # _HEAD - 1 to _HEAD + 2 terms at n = 92-103
        ratio = Fraction(1, 3)
        f, i = _two_jump_at(ratio) if two_jumps else (_step(0.5, (0.0, 1.0), 0.3), 0)
        ns = range(60, 60 + lagrange._ROWS)
        with mock.patch.object(lagrange, "_side_sums", side_effect=_side_sums) as spy:
            served, values = sweep(f, i, ratio, ns)
        assert served.all() and spy.call_count == 1
        k0 = _location(ratio, np.arange(92, 104))[1]
        assert set(k0.tolist()) == set(range(_HEAD - 1, _HEAD + 3))
        for n, value in zip(ns, values):
            assert value == sweep(f, i, ratio, [n])[1][0]
            grid = ChebyshevGrid(n)
            tol = 1e-14 * (1 + np.abs(f.eval_many(grid.nodes)).max())
            assert abs(value - lagrange_at_jump(grid, f, i, ratio)) <= tol


def _exact_sum(mpmath, ratio, grid, f):
    """sum_k ell_{n,k}(cos theta0) f(x_{n,k}) to 40 digits, with the
    double node values f takes, at theta0 = pi*ratio for the exact value of
    ratio: p/q for a Fraction, the double itself for a float."""
    n = grid.n
    with mpmath.workdps(40):
        if isinstance(ratio, Fraction):
            theta0 = mpmath.pi * ratio.numerator / ratio.denominator
        else:
            theta0 = mpmath.pi * mpmath.mpf(ratio)
        scale = mpmath.cos(n * theta0) / (2 * n)
        total = 0
        for k, fk in enumerate(f.eval_many(grid.nodes).tolist(), start=1):
            if fk:
                theta_k = (2 * k - 1) * mpmath.pi / (2 * n)
                total += fk * scale * (-1) ** (k - 1) * (
                    mpmath.cot((theta_k + theta0) / 2) + mpmath.cot((theta_k - theta0) / 2)
                )
        return float(total)
