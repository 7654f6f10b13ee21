import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jumpspectra.lagrange import (
    ChebyshevGrid,
    _rational_cos_n_theta,
    _rational_half_angles,
    fundamental_eval,
    fundamental_product_reference,
    fundamental_weights,
    lagrange_at_jump,
    lagrange_eval,
)
from jumpspectra.piecewise import (
    ContinuousPart,
    JumpFunction,
    from_descriptor_dict,
    from_steps,
    node_offsets,
    pure_step,
)
from jumpspectra.specfun import g_lagrange

from oracles import product_basis

CONST_ONE = JumpFunction(ContinuousPart((1.0,)), (), (-1.0, 1.0))
CUBE = JumpFunction(ContinuousPart((0.0, 0.0, 0.0, 1.0)), (), (-1.0, 1.0))


def _two_jump_at(ratio: Fraction):
    """Acceptance criterion 7's x^2-base function with a jump at cos(pi*ratio).

    Its jumps sit at 0 = cos(pi/2) and cos(pi/3); for ratio != 1/2 the
    second one moves to cos(pi*ratio).  Returns the function and the index
    of the jump at the location.
    """
    x0 = math.cos(math.pi * ratio.numerator / ratio.denominator)
    at_zero = ratio == Fraction(1, 2)
    x1 = math.cos(math.pi / 3) if at_zero else x0
    f = from_steps(ContinuousPart((0.0, 0.0, 1.0)), [(0.0, 1.0, 0.3), (x1, -0.5, 0.6)], (-1.0, 1.0))
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
        assert worst < 1e-10


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
        # the ratio lagrange_at_jump derives from the float angle pi/3
        ratio = (math.pi / 3) / math.pi
        for n in range(1, 30):
            k0, num, den, is_node = node_offsets(Fraction(1, 3), n, 0.5)
            approx = node_offsets(ratio, n, 0.5)
            assert approx[3] == is_node
            assert approx[1] == pytest.approx(num / den, abs=1e-9)
            assert approx[0] == k0

    @pytest.mark.parametrize("n, k", [(4099, 1000), (100003, 30001), (3000017, 1000001)])
    def test_float_node_at_large_n(self, n, k):
        # theta0 = theta_{n,k} in floating point: t = n*theta0/pi + 1/2 carries
        # rounding of about eps*t, past 1e-12 at the largest n
        k0, sigma, _, is_node = node_offsets(math.pi * (2 * k - 1) / (2 * n) / math.pi, n, 0.5)
        assert is_node and k0 == k and sigma == 0.0

    def test_angle_validation(self):
        with pytest.raises(ValueError):
            node_offsets(Fraction(3, 2), 5, 0.5)
        with pytest.raises(ValueError):
            node_offsets(4.0 / math.pi, 5, 0.5)


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

    @settings(max_examples=150, deadline=None)
    @given(
        q=st.integers(min_value=2, max_value=50),
        p_seed=st.integers(min_value=1, max_value=49),
        n=st.integers(min_value=1, max_value=3000),
    )
    def test_rational_and_float_angle_paths_agree(self, q, p_seed, n):
        p = 1 + p_seed % (q - 1)
        assume(math.gcd(p, q) == 1)
        angle = math.pi * p / q
        h = pure_step(math.cos(angle), 0.3, "left0_right1", (-1.0, 1.0))
        grid = ChebyshevGrid(n)
        exact = lagrange_at_jump(grid, h, 0, Fraction(p, q))
        if node_offsets(Fraction(p, q), n, 0.5)[3]:
            assert exact == 0.3
            assert lagrange_at_jump(grid, h, 0, angle) == 0.3
        else:
            assert lagrange_at_jump(grid, h, 0, angle) == pytest.approx(exact, abs=1e-10)

    def test_huge_denominator_falls_back_to_float_half_angles(self):
        # 4nq exceeds 2**53, so the half-angle numerators are not exact doubles
        ratio = Fraction(3**39 + 1, 3**40)
        angle = math.pi * ratio.numerator / ratio.denominator
        h = pure_step(math.cos(angle), 0.3, "left0_right1", (-1.0, 1.0))
        grid = ChebyshevGrid(64)
        assert lagrange_at_jump(grid, h, 0, ratio) == pytest.approx(
            lagrange_at_jump(grid, h, 0, angle), abs=1e-12
        )

    def test_float_angle_path(self):
        h = pure_step(math.cos(1.0), 0.3, "left0_right1", (-1.0, 1.0))
        value = lagrange_at_jump(ChebyshevGrid(64), h, 0, 1.0)
        assert -0.2 < value < 1.2


def _general_sum(grid, f, theta0):
    """Weights against f at every node, from the angles lagrange_at_jump uses."""
    n = grid.n
    if isinstance(theta0, Fraction):
        p, q = theta0.numerator, theta0.denominator
        x0, cn = math.cos(math.pi * p / q), _rational_cos_n_theta(p, q, n)
        half_angles = _rational_half_angles(p, q, n)
    else:
        x0, cn = math.cos(theta0), math.cos(n * theta0)
        half_angles = ((grid.thetas + theta0) / 2, (grid.thetas - theta0) / 2)
    return float(fundamental_weights(grid, x0, cn, half_angles) @ f.eval_many(grid.nodes))


def _general_path(grid, f, theta0):
    """The general path of lagrange_at_jump: like _general_sum, but on a float
    angle fundamental_weights forms the half-angles from acos(x0)."""
    if isinstance(theta0, Fraction):
        return _general_sum(grid, f, theta0)
    x0, cn = math.cos(theta0), math.cos(grid.n * theta0)
    return float(fundamental_weights(grid, x0, cn) @ f.eval_many(grid.nodes))


def _at_jump(grid, f, theta0, jump_index=0):
    """lagrange_at_jump's value, and whether it evaluated f at the nodes."""
    with mock.patch.object(
        JumpFunction, "eval_many", autospec=True, side_effect=JumpFunction.eval_many
    ) as spy:
        value = lagrange_at_jump(grid, f, jump_index, theta0)
    return value, spy.called


def _step(x0, limits, d):
    """A single jump at x0 on a constant base, with the given one-sided limits."""
    left, right = limits
    return from_steps(ContinuousPart((left,)), [(x0, right - left, d)], (-1.0, 1.0))


class TestOneSideSum:
    """lagrange_at_jump at one jump on a constant base sums one side's weights."""

    @settings(max_examples=200, deadline=None)
    @given(
        q=st.integers(min_value=2, max_value=60),
        p_seed=st.integers(min_value=1, max_value=59),
        n=st.integers(min_value=1, max_value=3000),
        d=st.floats(min_value=-2.0, max_value=2.0),
        limits=st.sampled_from([(0.0, 1.0), (1.0, 0.0), (-0.75, 2.5), (3.0, 0.5)]),
        float_angle=st.booleans(),
    )
    def test_matches_the_general_sum(self, q, p_seed, n, d, limits, float_angle):
        p = 1 + p_seed % (q - 1)
        assume(math.gcd(p, q) == 1)
        theta0 = math.pi * p / q if float_angle else Fraction(p, q)
        f = _step(math.cos(math.pi * p / q), limits, d)
        grid = ChebyshevGrid(n)
        value, evaluated_f = _at_jump(grid, f, theta0)
        if node_offsets(Fraction(p, q), n, 0.5)[3]:
            assert value == d
        elif float_angle and 0.0 not in limits:
            # float weights sum to 1 only to rounding, which the one-side sum
            # would carry into the value: the general path answers
            assert evaluated_f
            assert value == _general_path(grid, f, theta0)
        else:
            # with q <= 60 and n <= 3000 no node is within 1e-7 of x0.  The
            # rounding of cos(n*theta0), up to about 2e-14 relative here,
            # scales the one-side sum and the general sum differently
            assert not evaluated_f
            assert value == pytest.approx(_general_sum(grid, f, theta0), abs=1e-12)

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

    def test_node_hits_return_the_point_value(self):
        f = _step(math.cos(3 * math.pi / 8), (0.0, 1.0), 0.37)
        for n in (4, 12, 20):
            assert _at_jump(ChebyshevGrid(n), f, Fraction(3, 8)) == (0.37, False)
            assert _at_jump(ChebyshevGrid(n), f, 3 * math.pi / 8) == (0.37, False)

    @pytest.mark.parametrize("limits", [(0.0, 1.0), (1.0, 0.0), (-0.75, 2.5)])
    @pytest.mark.parametrize("float_angle", [False, True])
    def test_every_node_on_one_side(self, limits, float_angle):
        # theta0 = pi/7 lies before theta_1 = pi/6 (k0 = 0): every node samples
        # the left limit; 6pi/7 lies past theta_3 = 5pi/6 (k0 = n)
        grid = ChebyshevGrid(3)
        left, right = limits
        for ratio, k0, limit in ((Fraction(1, 7), 0, left), (Fraction(6, 7), 3, right)):
            assert node_offsets(ratio, 3, 0.5)[0] == k0
            theta0 = math.pi * ratio.numerator / ratio.denominator if float_angle else ratio
            f = _step(math.cos(math.pi * ratio.numerator / ratio.denominator), limits, 0.3)
            value, evaluated_f = _at_jump(grid, f, theta0)
            assert evaluated_f == (float_angle and 0.0 not in limits)
            assert value == pytest.approx(limit, abs=1e-14)
            assert value == pytest.approx(_general_sum(grid, f, theta0), abs=1e-14)

    def test_node_between_location_and_jump_takes_the_general_path(self):
        # the descriptor's jump sits 6e-10 (in angle) from the location, with
        # node k = 13 of n = 40 between them: the nodes' values differ from
        # the one-side partition, so the general path answers, bit for bit
        n, k = 40, 13
        theta_k = (2 * k - 1) * math.pi / (2 * n)
        theta0 = theta_k + 3e-10
        f = _step(math.cos(theta_k - 3e-10), (0.0, 1.0), 0.3)
        grid = ChebyshevGrid(n)
        assert f.jumps[0].x_float > grid.nodes[k - 1] > math.cos(theta0)
        value, evaluated_f = _at_jump(grid, f, theta0)
        assert evaluated_f
        assert value == _general_path(grid, f, theta0)

    @pytest.mark.parametrize(
        "base, declared, theta0",
        [
            # base 1000 on the rational path: the declared left limit is
            # 5e-7 off, within validation's 1e-9 relative
            (1000.0, (1000.0000005, 1001.0), Fraction(2, 7)),
            # base 0 on a float angle: the declared left limit is 5e-10, but
            # the nodes left of the jump give 0, so the zero-limit rule holds
            (0.0, (5e-10, 1.0), 2 * math.pi / 7),
        ],
    )
    def test_limits_are_the_values_at_the_nodes(self, base, declared, theta0):
        x0 = math.cos(2 * math.pi / 7)
        f = from_descriptor_dict(
            {
                "domain": [-1.0, 1.0],
                "poly": [base],
                "jumps": [{"x": x0, "left": declared[0], "right": declared[1], "value": 0.3}],
            }
        )
        assert f.step_limits[0] == base != f.jumps[0].left
        for n in (5, 64, 1001):
            grid = ChebyshevGrid(n)
            value, evaluated_f = _at_jump(grid, f, theta0)
            assert not evaluated_f
            assert value == pytest.approx(_general_sum(grid, f, theta0), abs=1e-10)

    def test_general_functions_take_the_general_path(self):
        f, i = _two_jump_at(Fraction(1, 3))
        assert _at_jump(ChebyshevGrid(50), f, Fraction(1, 3), i)[1]

    def test_domain_short_of_the_grid_still_raises(self):
        # the nodes reach past the domain, so the general path's eval_many raises
        f = from_steps(ContinuousPart((0.0,)), [(0.5, 1.0, 0.3)], (-0.5, 1.0))
        with pytest.raises(ValueError):
            lagrange_at_jump(ChebyshevGrid(10), f, 0, Fraction(1, 3))
