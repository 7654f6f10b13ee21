import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpspectra.piecewise import (
    LEFT0_RIGHT1,
    LEFT1_RIGHT0,
    NODE_ATOL,
    ContinuousPart,
    JumpFunction,
    JumpSpec,
    from_descriptor_dict,
    from_steps,
    load_descriptor,
    node_offsets,
    pure_step,
    save_descriptor,
    to_descriptor_dict,
)


@pytest.fixture
def two_jump():
    # base 0 with jumps at 1/3 (0 -> 2, value 1) and 2/3 (2 -> -1, value 0)
    return JumpFunction(
        base=ContinuousPart((0.0,)),
        jumps=(
            JumpSpec(x=Fraction(1, 3), left=0.0, right=2.0, value=1.0),
            JumpSpec(x=Fraction(2, 3), left=2.0, right=-1.0, value=0.0),
        ),
        domain=(0.0, 1.0),
    )


class TestEval:
    def test_pure_step(self):
        h = pure_step(0.0, 0.7, LEFT0_RIGHT1, (-1.0, 1.0))
        assert h.eval(-0.5) == 0.0
        assert h.eval(0.0) == 0.7
        assert h.eval(0.5) == 1.0

    def test_reversed_step(self):
        h = pure_step(Fraction(1, 2), 0.2, LEFT1_RIGHT0, (0.0, 1.0))
        assert h.eval(0.25) == 1.0
        assert h.eval(0.5) == 0.2
        assert h.eval(0.75) == 0.0

    def test_polynomial_base(self):
        f = JumpFunction(ContinuousPart((0.0, 0.0, 1.0)), (), (-1.0, 1.0))
        assert f.eval(0.3) == pytest.approx(0.09, abs=1e-15)

    def test_between_jumps(self, two_jump):
        assert two_jump.eval(0.5) == 2.0
        assert two_jump.eval(0.1) == 0.0
        assert two_jump.eval(0.9) == -1.0
        assert two_jump.eval(float(Fraction(1, 3))) == 1.0

    def test_trig_base(self):
        f = JumpFunction(
            ContinuousPart((1.0,), ((2.0, 0.5, -0.25),)), (), (0.0, 1.0)
        )
        x = 0.3
        assert f.eval(x) == pytest.approx(
            1.0 + 0.5 * np.cos(2 * x) - 0.25 * np.sin(2 * x), abs=1e-15
        )

    def test_domain_enforced(self, two_jump):
        with pytest.raises(ValueError):
            two_jump.eval(1.5)
        with pytest.raises(ValueError):
            two_jump.eval_many(np.array([0.5, -1e-11]))
        assert two_jump.eval_many(np.array([-5e-13, 1.0 + 5e-13])).tolist() == [0.0, -1.0]

    def test_empty_input(self, two_jump):
        for f in (two_jump, pure_step(0.0, 0.7, LEFT0_RIGHT1, (-1.0, 1.0))):
            out = f.eval_many(np.array([]))
            assert isinstance(out, np.ndarray) and out.shape == (0,)

    def test_point_values_within_tolerance(self, two_jump):
        for j in two_jump.jumps:
            x = j.x_float
            xs = x + np.array([-0.9, -0.5, 0.0, 0.5, 0.9]) * NODE_ATOL
            assert two_jump.eval_many(xs).tolist() == [j.value] * 5
        # just outside the tolerance the one-sided limits apply again
        x = two_jump.jumps[0].x_float
        assert two_jump.eval_many(np.array([x - 3e-13, x + 3e-13])).tolist() == [0.0, 2.0]

    def test_polynomial_base_matches_polyval(self):
        coeffs = (0.3, -1.2, 0.5, 2.0, -0.7)  # ascending
        f = JumpFunction(ContinuousPart(coeffs), (), (-1.0, 1.0))
        xs = np.linspace(-1.0, 1.0, 101)
        assert np.max(np.abs(f.eval_many(xs) - np.polyval(coeffs[::-1], xs))) <= 1e-14


def _eval_by_searchsorted(f, xs):
    """eval_many's definition: Horner over every coefficient from zero, and
    the region of each point from searchsorted."""
    out = np.zeros_like(xs)
    for c in reversed(f.base.poly):
        out *= xs
        out += c
    locs = np.array([j.x_float for j in f.jumps])
    offsets = np.concatenate([[0.0], np.cumsum([j.right - j.left for j in f.jumps])])
    out += offsets[np.searchsorted(locs, xs, side="right")]
    for j in f.jumps:
        out[np.abs(xs - j.x_float) <= NODE_ATOL] = j.value
    return out


class TestEvalMatchesDefinition:
    @settings(max_examples=100, deadline=None)
    @given(
        poly=st.lists(st.sampled_from([0.0, 1.0, -0.5, 2.25, 1e-3]), min_size=1, max_size=5),
        steps=st.lists(
            st.tuples(st.floats(-0.95, 0.95), st.sampled_from([1.0, -0.5, 3.0]), st.floats(-1, 1)),
            max_size=5, unique_by=lambda t: round(t[0], 6),
        ),
        xs=st.lists(st.floats(-1.0, 1.0), max_size=40),
    )
    def test_bit_identical(self, poly, steps, xs):
        f = from_steps(ContinuousPart(tuple(poly)), steps, (-1.0, 1.0))
        # the jump locations themselves and points beside them
        xs = np.array(xs + [x + d for x, _, _ in steps for d in (-NODE_ATOL, 0.0, 2 * NODE_ATOL)])
        xs = np.clip(xs, -1.0, 1.0)
        assert np.array_equal(f.eval_many(xs), _eval_by_searchsorted(f, xs))

    def test_empty_polynomial_is_the_zero_base(self):
        assert ContinuousPart(()).eval_many(np.array([0.5, -1.0])).tolist() == [0.0, 0.0]


def _beside(f, x0):
    """eval_many just left and just right of x0."""
    return tuple(f.eval_many([x0 - 1e-9, x0 + 1e-9]).tolist())


class TestLimits:
    def test_pure_step_limits(self):
        h = pure_step(0.0, 0.7, LEFT0_RIGHT1, (-1.0, 1.0))
        assert h.step_limits == _beside(h, 0.0) == (0.0, 1.0)

    def test_continuous_point(self, two_jump):
        assert _beside(two_jump, 0.5) == (2.0, 2.0)

    def test_second_jump(self, two_jump):
        assert _beside(two_jump, float(Fraction(2, 3))) == (2.0, -1.0)
        assert two_jump.offsets.tolist() == [0.0, 2.0, -1.0]

    def test_limits_differ_by_coefficient(self, two_jump):
        for i, jump in enumerate(two_jump.jumps):
            left, right = _beside(two_jump, jump.x_float)
            amount = jump.right - jump.left
            assert right - left == pytest.approx(amount, abs=1e-12)
            assert two_jump.offsets[i + 1] - two_jump.offsets[i] == pytest.approx(amount, abs=1e-12)


class TestStepLimits:
    def test_one_jump_on_a_constant_base(self, two_jump):
        assert pure_step(0.2, 0.5, LEFT1_RIGHT0, (0.0, 1.0)).step_limits == (1.0, 0.0)
        f = from_steps(ContinuousPart((2.5,)), [(0.3, -1.0, 0.0)], (0.0, 1.0))
        assert f.step_limits == (2.5, 1.5)
        assert two_jump.step_limits is None
        assert JumpFunction(ContinuousPart((1.0,)), (), (0.0, 1.0)).step_limits is None
        linear = ContinuousPart((0.0, 1.0))
        assert from_steps(linear, [(0.3, 1.0, 0.0)], (0.0, 1.0)).step_limits is None
        wave = ContinuousPart((1.0,), ((2.0, 0.1, 0.0),))
        assert from_steps(wave, [(0.3, 1.0, 0.0)], (0.0, 1.0)).step_limits is None

    def test_limits_are_the_values_at_the_nodes(self):
        # validation lets the declared left limit sit 5e-7 off base 1000;
        # the limits are what eval_many gives beside the jump
        f = from_descriptor_dict(
            {
                "domain": [-1.0, 1.0],
                "poly": [1000.0],
                "jumps": [{"x": 0.25, "left": 1000.0000005, "right": 1001.0, "value": 0.0}],
            }
        )
        assert f.step_limits == tuple(f.eval_many([0.2, 0.3]))
        assert f.step_limits == _beside(f, 0.25)
        assert f.step_limits[0] == 1000.0 != f.jumps[0].left


class TestValidation:
    def test_zero_jump_rejected(self):
        with pytest.raises(ValueError):
            JumpSpec(x=0.5, left=1.0, right=1.0, value=1.0)

    def test_unordered_jumps_rejected(self):
        with pytest.raises(ValueError):
            JumpFunction(
                ContinuousPart((0.0,)),
                (
                    JumpSpec(x=0.6, left=0.0, right=1.0, value=0.5),
                    JumpSpec(x=0.4, left=1.0, right=2.0, value=1.5),
                ),
                (0.0, 1.0),
            )

    def test_boundary_jump_rejected(self):
        with pytest.raises(ValueError):
            pure_step(0.0, 0.5, LEFT0_RIGHT1, (0.0, 1.0))

    def test_inconsistent_left_limit_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            JumpFunction(
                ContinuousPart((0.0,)),
                (JumpSpec(x=0.5, left=1.0, right=2.0, value=1.5),),
                (0.0, 1.0),
            )

    def test_step_orientation_validated(self):
        with pytest.raises(ValueError):
            pure_step(0.5, 0.5, "sideways", (0.0, 1.0))


class TestDescriptors:
    def test_round_trip_bit_exact(self, two_jump, tmp_path):
        path = tmp_path / "fn.json"
        save_descriptor(two_jump, path)
        loaded = load_descriptor(path)
        assert loaded == two_jump
        assert isinstance(loaded.jumps[0].x, Fraction)
        second = tmp_path / "fn2.json"
        save_descriptor(loaded, second)
        assert path.read_bytes() == second.read_bytes()

    def test_jump_table_outside_identity(self, two_jump, tmp_path):
        path = tmp_path / "fn.json"
        save_descriptor(two_jump, path)
        loaded = load_descriptor(path)
        assert hash(loaded) == hash(two_jump)
        assert "_locs" not in repr(two_jump) and "_offsets" not in repr(two_jump)

    def test_float_location_round_trip(self, tmp_path):
        f = from_steps(
            ContinuousPart((0.1, 0.2), ((3.0, 0.5, 0.0),)),
            [(0.123456789012345, 1.5, 0.7)],
            (0.0, 1.0),
        )
        path = tmp_path / "fn.json"
        save_descriptor(f, path)
        loaded = load_descriptor(path)
        assert loaded == f
        assert loaded.jumps[0].x == 0.123456789012345

    def test_descriptor_fields(self, two_jump):
        data = to_descriptor_dict(two_jump)
        assert set(data) == {"domain", "poly", "trig", "jumps"}
        assert data["jumps"][0]["x"] == {"num": 1, "den": 3}
        assert json.dumps(data)  # serializable


@st.composite
def unit_fractions(draw):
    """p/q in [0, 1] with q spread over every magnitude up to 10^18."""
    e = draw(st.integers(min_value=0, max_value=17))
    q = draw(st.integers(min_value=10**e, max_value=10 ** (e + 1)))
    p = draw(st.integers(min_value=0, max_value=q))
    return Fraction(q - p if draw(st.booleans()) else p, q)


class TestNodeOffsets:
    @settings(max_examples=300, deadline=None)
    @given(
        ratio=unit_fractions(),
        ns=st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=20),
        shift=st.sampled_from([0, 0.5]),
    )
    def test_exact_path_matches_definition(self, ratio, ns, shift):
        # large q take n*p past int64, onto the Python-int path
        k0, num, den, is_node = node_offsets(ratio, np.array(ns), shift)
        for i, n in enumerate(ns):
            t = n * ratio + Fraction(shift)
            floor = math.floor(t)
            expected = (floor, t - floor, t == floor)
            assert (k0[i], Fraction(num[i], den), is_node[i]) == expected
            k, r, d, node = node_offsets(ratio, n, shift)
            assert (k, Fraction(r, d), node) == expected

    @settings(max_examples=300, deadline=None)
    @given(
        q=st.integers(min_value=1, max_value=50),
        p_seed=st.integers(min_value=0, max_value=50),
        ns=st.lists(st.integers(min_value=1, max_value=3000), min_size=1, max_size=50),
        shift=st.sampled_from([0, 0.5]),
    )
    def test_float_path_agrees_with_exact(self, q, p_seed, ns, shift):
        p = p_seed % (q + 1)
        k0, _, _, is_node = node_offsets(Fraction(p, q), np.array(ns), shift)
        k0_f, _, _, is_node_f = node_offsets(p / q, np.array(ns), shift)
        assert is_node_f.tolist() == is_node.tolist()
        assert k0_f.tolist() == k0.tolist()

    def test_validation(self):
        with pytest.raises(ValueError):
            node_offsets(Fraction(4, 3), 5, 0)
        with pytest.raises(ValueError):
            node_offsets(-0.25, 5, 0.5)
        with pytest.raises(ValueError):
            node_offsets(0.25, 5, 0.25)
