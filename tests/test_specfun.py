import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpspectra.density import IntervalUnion
from jumpspectra.specfun import (
    LERCH_J_POLE_GAP,
    LimitProfile,
    ProfileMonotonicityError,
    g_lagrange,
    g_shepard,
    hurwitz_zeta,
    j_zeta_relation_residual,
    lagrange_profile,
    lerch_j,
    profile_preimage_measure,
    shepard_profile,
)

from oracles import g_lagrange_direct, grid_scan_preimage, lerch_j_direct, zeta_direct


class TestHurwitzZeta:
    def test_classical_values(self):
        assert hurwitz_zeta(2, 1).value == pytest.approx(math.pi**2 / 6, abs=1e-10)
        assert hurwitz_zeta(2, 0.5).value == pytest.approx(math.pi**2 / 2, abs=1e-10)

    def test_against_direct_summation(self):
        oracle, bound = zeta_direct(3, 0.25)
        assert abs(hurwitz_zeta(3, 0.25).value - oracle) <= bound + 1e-10

    def test_box_against_direct_summation(self):
        for s in (1.5, 2.0, 5.0, 10.0, 25.0, 50.0):
            for a in (0.1, 0.5, 1.0, 2.0):
                value = hurwitz_zeta(s, a).value
                oracle, bound = zeta_direct(s, a, terms=10**6)
                assert abs(value - oracle) <= bound + 1e-12 * max(1.0, abs(value))

    def test_decreasing_in_a(self):
        values = [hurwitz_zeta(2.5, a).value for a in np.linspace(0.1, 2.0, 12)]
        assert all(x > y > 0 for x, y in zip(values, values[1:]))

    @pytest.mark.parametrize("s,a", [(1.0, 1.0), (0.5, 1.0), (2.0, 0.0), (2.0, -1.0)])
    def test_domain_errors(self, s, a):
        with pytest.raises(ValueError):
            hurwitz_zeta(s, a)

    def test_box_refusal(self):
        with pytest.raises(ValueError):
            hurwitz_zeta(51.0, 1.0)
        with pytest.raises(ValueError):
            hurwitz_zeta(2.0, 2.5)


class TestLerchJ:
    def test_classical_values(self):
        assert lerch_j(1, 1).value == pytest.approx(math.log(2), abs=1e-10)
        assert lerch_j(1, 0.5).value == pytest.approx(math.pi / 2, abs=1e-10)
        assert lerch_j(2, 1).value == pytest.approx(math.pi**2 / 12, abs=1e-10)

    def test_against_direct_summation(self):
        for s, a in [(1.0, 1 / 6), (1.5, 0.25), (3.0, 0.5)]:
            oracle, bound = lerch_j_direct(s, a, pairs=10**6)
            assert abs(lerch_j(s, a).value - oracle) <= bound + 1e-10

    def test_box_against_direct_summation(self):
        for s in (1.0, 1.001, 1.5, 3.0, 10.0):
            for a in (1 / 6, 0.25, 0.5, 0.9, 1.0):
                value = lerch_j(s, a).value
                oracle, bound = lerch_j_direct(s, a, pairs=10**6)
                assert abs(value - oracle) <= bound + 1e-12 * max(1.0, abs(value))

    def test_pole_band_edge_against_direct_summation(self):
        # the smallest s > 1 that lerch_j accepts
        s = 1.0 + LERCH_J_POLE_GAP
        for a in (1 / 6, 0.25, 0.5, 0.9, 1.0):
            oracle, bound = lerch_j_direct(s, a, pairs=10**6)
            assert abs(lerch_j(s, a).value - oracle) <= bound + 1e-10

    @pytest.mark.parametrize(
        "s,a",
        [(0.5, 0.5), (2.0, 0.0), (2.0, 1.5), (2.0, -0.2), (1.0 + 1e-6, 0.5), (1.0 + 1e-9, 1.0)],
    )
    def test_domain_errors(self, s, a):
        with pytest.raises(ValueError):
            lerch_j(s, a)


class TestJZetaRelation:
    def test_closed_form_point(self):
        # pi^2/4 - pi^2/6 = pi^2/12
        assert j_zeta_relation_residual(2, 1) < 1e-10

    @pytest.mark.parametrize("s,a", [(3.0, 0.5), (1.5, 0.25)])
    def test_spot_points(self, s, a):
        assert j_zeta_relation_residual(s, a) < 1e-9

    def test_full_grid(self):
        worst = max(
            j_zeta_relation_residual(1 + 0.45 * i, j / 20)
            for i in range(1, 21)
            for j in range(1, 21)
        )
        assert worst < 1e-9


class TestLimitProfiles:
    def test_g_halfway(self):
        assert g_lagrange(0.5) == pytest.approx(0.5, abs=1e-12)

    def test_g_symmetry_pair(self):
        # partial-fraction identity J(1,x) + J(1,1-x) = pi/sin(pi x)
        assert g_lagrange(0.3) + g_lagrange(0.7) == pytest.approx(1.0, abs=1e-10)

    def test_g_sixth_against_oracle(self):
        oracle, bound = g_lagrange_direct(1 / 6)
        assert abs(g_lagrange(1 / 6) - oracle) <= bound + 1e-10

    def test_gs_halfway_and_symmetry(self):
        assert g_shepard(2, 0.5) == pytest.approx(0.5, abs=1e-12)
        x = 0.37
        assert g_shepard(2, x) + g_shepard(2, 1 - x) == pytest.approx(1.0, abs=1e-12)

    def test_gs_third_against_oracle(self):
        za, ba = zeta_direct(2, 1 / 3, terms=10**6)
        zb, bb = zeta_direct(2, 2 / 3, terms=10**6)
        expected = za / (za + zb)
        assert g_shepard(2, 1 / 3) == pytest.approx(expected, abs=(ba + bb) + 1e-9)

    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0, 5.0])
    def test_symmetry_grid(self, s):
        profile = shepard_profile(s)
        xs = np.arange(1, 1001) / 1001.0
        total = profile.eval_many(xs) + profile.eval_many(1.0 - xs)
        assert np.max(np.abs(total - 1.0)) < 1e-10

    def test_g_symmetry_grid(self):
        profile = lagrange_profile()
        xs = np.arange(1, 1001) / 1001.0
        total = profile.eval_many(xs) + profile.eval_many(1.0 - xs)
        assert np.max(np.abs(total - 1.0)) < 1e-10

    @pytest.mark.parametrize(
        "profile", [lagrange_profile(), shepard_profile(1.5), shepard_profile(5.0)]
    )
    def test_strictly_decreasing_gate(self, profile):
        xs, ys = profile.monotone_grid()
        assert xs.size == 10_000
        assert np.all(np.diff(ys) <= 0)
        interior = (ys[:-1] < 1 - 1e-9) & (ys[1:] > 1e-9)
        assert np.all(np.diff(ys)[interior] < 0)
        assert np.all((ys >= 0) & (ys <= 1))

    def test_endpoint_limits(self):
        assert 1 - 1e-3 < g_lagrange(1e-6) < 1
        assert 0 < g_lagrange(1 - 1e-6) < 1e-3
        assert 1 - 1e-3 < g_shepard(2, 1e-6) < 1
        assert 0 < g_shepard(2, 1 - 1e-6) < 1e-3

    @pytest.mark.parametrize("x", [0.0, 1.0, -0.5, 2.0])
    def test_domain_errors(self, x):
        with pytest.raises(ValueError):
            g_lagrange(x)
        with pytest.raises(ValueError):
            g_shepard(2, x)

    @given(
        s=st.floats(min_value=1.1, max_value=10.0),
        x=st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=25, deadline=None)
    def test_gs_symmetry_property(self, s, x):
        assert abs(g_shepard(s, x) + g_shepard(s, 1 - x) - 1.0) < 1e-10


class TestPreimageMeasure:
    def test_full_range(self):
        union = IntervalUnion(((0.0, 1.0),))
        assert profile_preimage_measure(lagrange_profile(), union) == pytest.approx(
            1.0, abs=1e-8
        )

    def test_upper_half_for_g(self):
        # g(1/2) = 1/2 and g is decreasing, so g >= 1/2 exactly on (0, 1/2]
        union = IntervalUnion(((0.5, 1.0),))
        measured = profile_preimage_measure(lagrange_profile(), union)
        assert measured == pytest.approx(0.5, abs=1e-8)
        profile = lagrange_profile()
        scan = grid_scan_preimage(profile.eval_many, [(0.5, 1.0)], du=1e-6)
        assert measured == pytest.approx(scan, abs=1e-5)

    def test_symmetric_band_for_gs(self):
        profile = shepard_profile(2.0)
        lo, hi = g_shepard(2, 0.75), g_shepard(2, 0.25)
        measured = profile_preimage_measure(profile, [(lo, hi)])
        assert measured == pytest.approx(0.5, abs=1e-8)
        scan = grid_scan_preimage(profile.eval_many, [(lo, hi)], du=1e-6)
        assert measured == pytest.approx(scan, abs=1e-5)

    def test_invert_round_trip(self):
        profile = shepard_profile(3.0)
        for y in (0.1, 0.4, 0.9):
            x = profile.invert(y)
            assert profile(x) == pytest.approx(y, abs=1e-8)

    def test_bad_profile_kind(self):
        with pytest.raises(ValueError):
            LimitProfile("unknown")
        with pytest.raises(ValueError):
            LimitProfile("shepard_gs", s=1.0)
        with pytest.raises(ValueError):
            LimitProfile("lagrange_g", s=2.0)

    def test_monotonicity_error_type(self):
        assert issubclass(ProfileMonotonicityError, RuntimeError)
