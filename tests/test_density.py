import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpspectra.density import (
    DEFAULT_EPS_GRID,
    DEFAULT_M_GRID,
    DEFAULT_STABILITY_TOL,
    IntervalUnion,
    SequencePrefix,
    complement_identity_check,
    detect_clusters,
    empirical_index,
    index_sum_audit,
    lower_density,
    set_index,
    tail_values,
    upper_density,
)
from jumpspectra.density import _plateau_estimate
from jumpspectra.piecewise import CHUNK

from oracles import (
    count_fraction,
    gap_groups,
    lower_density_whole,
    weyl_sequence,
    window_ratios_whole,
)

ALPHA = math.sqrt(2) - 1


def cos_prefix(n_terms=10_000):
    return SequencePrefix(np.cos(np.arange(1, n_terms + 1) * math.pi / 2))


class TestDensities:
    def test_full_set(self):
        assert lower_density([True] * 100) == 1.0
        assert upper_density([True] * 100) == 1.0

    def test_odd_progression(self):
        member = [(n % 2) == 1 for n in range(1, 1001)]
        assert abs(lower_density(member) - 0.5) <= 1 / 500
        assert abs(upper_density(member) - 0.5) <= 1 / 500

    def test_cos_zero_set(self):
        xs = np.cos(np.arange(1, 10_001) * math.pi / 2)
        member = np.abs(xs) < 1e-9
        assert abs(lower_density(member) - 0.5) <= 1e-3

    def test_empty_prefix_rejected(self):
        with pytest.raises(ValueError, match="empty prefix"):
            lower_density([])

    def test_complement_identity_examples(self):
        assert complement_identity_check([True, False] * 50)
        assert complement_identity_check(([True, False] * 500)[:999])
        assert complement_identity_check([True] + [False] * 49)

    @given(st.lists(st.booleans(), min_size=1, max_size=400))
    @settings(max_examples=100, deadline=None)
    def test_complement_identity_property(self, member):
        assert complement_identity_check(member)

    @given(st.lists(st.booleans(), min_size=1, max_size=400))
    @settings(max_examples=50, deadline=None)
    def test_density_ordering(self, member):
        assert 0.0 <= lower_density(member) <= upper_density(member) <= 1.0


class TestEmpiricalIndex:
    def test_constant_sequence(self):
        prefix = SequencePrefix(np.full(500, 3.7))
        grid = [10.0**-k for k in range(1, 7)]
        assert empirical_index(prefix, 3.7, grid).estimate == 1.0

    def test_cos_indices(self):
        prefix = cos_prefix()
        assert abs(empirical_index(prefix, 0.0).estimate - 0.5) <= 1e-3
        assert abs(empirical_index(prefix, 1.0).estimate - 0.25) <= 1e-3
        assert abs(empirical_index(prefix, -1.0).estimate - 0.25) <= 1e-3

    def test_off_target_index_vanishes(self):
        prefix = cos_prefix(4000)
        assert empirical_index(prefix, 0.37).estimate <= 1e-3

    def test_grid_validation(self):
        prefix = SequencePrefix(np.ones(10))
        with pytest.raises(ValueError):
            empirical_index(prefix, 1.0, [])
        with pytest.raises(ValueError):
            empirical_index(prefix, 1.0, [0.1, 0.1])
        with pytest.raises(ValueError):
            empirical_index(prefix, 1.0, [0.1, 0.2])

    def test_profile_monotone_and_bounded(self):
        prefix = cos_prefix(2000)
        est = empirical_index(prefix, 1.0)
        ratios = [r for _, r in est.eps_profile]
        assert all(0.0 <= r <= 1.0 for r in ratios)
        assert all(a >= b - 1e-15 for a, b in zip(ratios, ratios[1:]))
        assert 0.0 <= est.estimate <= 1.0

    def test_plus_infinity_target(self):
        n = np.arange(1, 20_001, dtype=float)
        values = np.where(n % 2 == 0, n, 0.0)
        est = empirical_index(SequencePrefix(values), math.inf)
        assert abs(est.estimate - 0.5) <= 0.02

    def test_infinity_on_bounded_sequence(self):
        prefix = SequencePrefix(np.sin(np.arange(1, 2001, dtype=float)))
        assert empirical_index(prefix, math.inf).estimate == 0.0
        assert empirical_index(prefix, -math.inf).estimate == 0.0

    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=8, max_size=200),
        st.floats(min_value=-100, max_value=100),
    )
    @settings(max_examples=50, deadline=None)
    def test_estimate_in_unit_interval(self, values, target):
        est = empirical_index(SequencePrefix(np.array(values)), target)
        assert 0.0 <= est.estimate <= 1.0


class TestSetIndex:
    def test_whole_range(self):
        prefix = cos_prefix(1000)
        union = IntervalUnion(((-10.0, 10.0),))
        assert set_index(prefix, union).estimate == 1.0

    def test_cos_upper_atom(self):
        prefix = cos_prefix()
        union = IntervalUnion(((0.5, 1.5),))
        assert abs(set_index(prefix, union).estimate - 0.25) <= 1e-3

    def test_weyl_interval(self):
        values = weyl_sequence(20_000, ALPHA)
        prefix = SequencePrefix(values)
        union = IntervalUnion(((0.2, 0.5),))
        est = set_index(prefix, union).estimate
        oracle = count_fraction((values >= 0.2) & (values <= 0.5))
        assert abs(est - 0.3) <= 0.02
        assert abs(est - oracle) <= 0.02

    def test_weyl_split_set(self):
        values = weyl_sequence(20_000, ALPHA)
        prefix = SequencePrefix(values)
        union = IntervalUnion(((0.0, 0.25), (0.75, 1.0)))
        est = set_index(prefix, union).estimate
        oracle = count_fraction(
            ((values >= 0.0) & (values <= 0.25)) | (values >= 0.75)
        )
        assert abs(est - 0.5) <= 0.02
        assert abs(est - oracle) <= 0.02

    def test_disjoint_sum_bounded(self):
        values = weyl_sequence(20_000, ALPHA)
        prefix = SequencePrefix(values)
        quarters = [IntervalUnion(((k / 4, (k + 1) / 4),)) for k in range(4)]
        total = sum(set_index(prefix, u).estimate for u in quarters)
        assert abs(total - 1.0) <= 0.02

    def test_separated_sets_sum_at_most_one(self):
        # unions stay disjoint after inflating by every grid eps <= 0.125
        prefix = cos_prefix()
        grid = [2.0**-j for j in range(3, 15)]
        unions = [
            IntervalUnion(((-1.2, -0.8),)),
            IntervalUnion(((-0.2, 0.2),)),
            IntervalUnion(((0.8, 1.2),)),
        ]
        total = sum(set_index(prefix, u, eps_grid=grid).estimate for u in unions)
        assert total <= 1.0 + 1e-12
        assert total == pytest.approx(1.0, abs=1e-3)


class TestIntervalUnion:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntervalUnion(())
        with pytest.raises(ValueError):
            IntervalUnion(((1.0, 0.0),))
        with pytest.raises(ValueError):
            IntervalUnion(((0.0, 1.0), (0.5, 2.0)))

    def test_inflate_merges(self):
        union = IntervalUnion(((0.0, 1.0), (1.5, 2.0)))
        fat = union.inflate(0.3)
        assert fat.intervals == ((-0.3, 2.3),)

    def test_contains_closed_endpoints(self):
        union = IntervalUnion(((0.0, 1.0), (2.0, 3.0)))
        inside = union.contains([0.0, 1.0, 1.5, 2.0, 3.0, 3.5])
        assert inside.tolist() == [True, True, False, True, True, False]

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-50, max_value=50),
                st.floats(min_value=0, max_value=10),
            ),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_from_pairs_canonical(self, raw):
        union = IntervalUnion.from_pairs((a, a + w) for a, w in raw)
        for a, b in union.intervals:
            assert a <= b
        for (_, b0), (a1, _) in zip(union.intervals, union.intervals[1:]):
            assert a1 > b0


class TestClusters:
    def test_cos_clusters(self):
        report = detect_clusters(cos_prefix(), gap=0.5)
        assert len(report.clusters) == 3
        centers = [c.center for c in report.clusters]
        assert np.allclose(centers, [-1.0, 0.0, 1.0], atol=1e-6)
        indices = [c.empirical_index for c in report.clusters]
        assert np.allclose(indices, [0.25, 0.5, 0.25], atol=1e-3)
        assert index_sum_audit(report)

    def test_constant_single_cluster(self):
        report = detect_clusters(SequencePrefix(np.full(300, 2.5)), gap=0.5)
        assert len(report.clusters) == 1
        assert report.clusters[0].center == 2.5
        assert report.clusters[0].empirical_index == 1.0
        assert report.unassigned_fraction == 0.0
        assert index_sum_audit(report)

    def test_alternating_with_decay(self):
        n = np.arange(1, 5001, dtype=float)
        prefix = SequencePrefix((-1.0) ** n + 1.0 / n)
        report = detect_clusters(prefix, gap=0.5)
        assert len(report.clusters) == 2
        assert abs(report.clusters[0].center - (-1.0)) <= 1e-3
        assert abs(report.clusters[1].center - 1.0) <= 1e-3
        for cluster, want in zip(report.clusters, (0.5, 0.5)):
            assert abs(cluster.empirical_index - want) <= 0.01
        assert index_sum_audit(report)

    def test_gap_validation(self):
        with pytest.raises(ValueError):
            detect_clusters(cos_prefix(100), gap=0.0)
        with pytest.raises(ValueError):
            detect_clusters(cos_prefix(100), tail_fraction=0.0)

    @pytest.mark.parametrize(
        "fraction, start", [(1.0, 0), (0.5, 300), (0.001, 599), (1e-17, 599)]
    )
    def test_tail_holds_at_least_one_value(self, fraction, start):
        values = np.arange(600.0)
        assert np.array_equal(tail_values(values, fraction), values[start:])

    def test_centers_separated_by_gap(self):
        rng = np.random.default_rng(7)
        centers = np.array([0.0, 1.0, 2.5])
        values = centers[np.arange(6000) % 3] + rng.uniform(-1, 1, 6000) / np.arange(
            1, 6001
        )
        report = detect_clusters(SequencePrefix(values), gap=0.25)
        got = [c.center for c in report.clusters]
        assert all(b - a > 0.25 for a, b in zip(got, got[1:]))

    def test_planted_densities_recovered(self):
        # finite form of the subsequence-density characterization
        rng = np.random.default_rng(11)
        assignment = np.array([0.0, 0.0, 4.0, 8.0])  # densities 1/2, 1/4, 1/4
        n = np.arange(1, 4001)
        values = assignment[n % 4] + 0.2 * rng.uniform(-1, 1, 4000) / n
        prefix = SequencePrefix(values)
        report = detect_clusters(prefix, gap=0.5)
        assert len(report.clusters) == 3
        for cluster, want in zip(report.clusters, (0.5, 0.25, 0.25)):
            assert abs(cluster.empirical_index - want) <= 0.02
        # detected indices are reproduced by a direct index query at the center
        for cluster in report.clusters:
            direct = empirical_index(prefix, cluster.center).estimate
            assert direct >= cluster.empirical_index - 0.02
        assert index_sum_audit(report)


def naive_extremes(member, window):
    """min and max of Fraction(c_n, n) over the tail window, by direct counting."""
    n_total = len(member)
    start = max(1, math.ceil(n_total * window))
    ratios = [Fraction(sum(member[:n]), n) for n in range(start, n_total + 1)]
    return min(ratios), max(ratios)


windows = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(min_value=0.0, max_value=1.0))


class TestWindow:
    BAD = [1.5, 2.0, -0.1, -1e-300, math.nan, math.inf, -math.inf]

    @pytest.mark.parametrize("window", BAD)
    def test_out_of_range_window_rejected(self, window):
        member = [True, False] * 5
        prefix = SequencePrefix(np.cos(np.arange(1, 41) * math.pi / 2))
        for call in (
            lambda: lower_density(member, window=window),
            lambda: upper_density(member, window=window),
            lambda: complement_identity_check(member, window=window),
            lambda: empirical_index(prefix, 0.0, window=window),
            lambda: empirical_index(prefix, math.inf, window=window),
            lambda: detect_clusters(prefix, gap=0.5, window=window),
        ):
            with pytest.raises(ValueError, match="window"):
                call()

    @given(st.lists(st.booleans(), min_size=1, max_size=60), windows)
    @settings(max_examples=200, deadline=None)
    def test_window_counts_match_naive(self, member, window):
        lo, hi = naive_extremes(member, window)
        assert lower_density(member, window) == float(lo)
        assert upper_density(member, window) == float(hi)
        lo_c, hi_c = naive_extremes([not m for m in member], window)
        assert lo == 1 - hi_c and lo_c == 1 - hi
        assert complement_identity_check(member, window)

    @pytest.mark.parametrize("member", [[True], [False], [True, False], [False, True],
                                        [True, True], [False, False]])
    @pytest.mark.parametrize("window", [0.0, 0.3, 0.5, 0.7, 1.0])
    def test_one_and_two_values(self, member, window):
        # N = 2: window <= 1/2 starts the window at n = 1, window > 1/2 at n = N
        lo, hi = naive_extremes(member, window)
        assert lower_density(member, window) == float(lo)
        assert upper_density(member, window) == float(hi)
        assert complement_identity_check(member, window)

    def test_window_edges(self):
        member = [False, True, True, False, True]
        # start = 1: the first ratio 0/1 is in the window
        assert lower_density(member, 0.0) == lower_density(member, 0.2) == 0.0
        # start = N: only the last ratio 3/5 is in the window
        assert lower_density(member, 1.0) == upper_density(member, 0.81) == 0.6


def _finite_profile(values, target, grid, window):
    """The index profile by its definition: one lower_density per eps."""
    return [(eps, lower_density(np.abs(values - target) < eps, window)) for eps in grid]


def _infinite_profile(values, sign, window):
    extreme = float(np.max(sign * values))
    ms = [m for m in DEFAULT_M_GRID if m < extreme]
    if not ms:
        return None
    return [(1.0 / m, lower_density(sign * values > m, window)) for m in ms]


def _assert_same(est, profile):
    ratios = [r for _, r in profile]
    assert est.eps_profile == tuple(profile)
    assert est.estimate == _plateau_estimate(ratios, DEFAULT_STABILITY_TOL)


@st.composite
def few_valued_prefixes(draw, pool):
    """Prefixes over a few distinct values, so memberships tie across eps."""
    distinct = draw(st.lists(pool, min_size=1, max_size=4, unique=True))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=80))
    return np.array([distinct[i] for i in picks]), distinct


class TestNestedProfiles:
    """empirical_index and set_index against one lower_density per eps or M."""

    @given(st.data(), windows)
    @settings(max_examples=200, deadline=None)
    def test_finite_target(self, data, window):
        values, distinct = data.draw(
            few_valued_prefixes(st.floats(min_value=-2.0, max_value=2.0, width=32))
        )
        target = data.draw(st.sampled_from(distinct) | st.floats(min_value=-2.0, max_value=2.0))
        # eps at exactly the distance of a value, where the strict < decides,
        # next to free draws
        exact = [abs(v - target) for v in distinct]
        free = data.draw(st.lists(st.floats(min_value=1e-6, max_value=4.0), max_size=6))
        grid = sorted({e for e in exact + free if e > 0}, reverse=True)
        if not grid:
            grid = [0.5]
        est = empirical_index(SequencePrefix(values), target, grid, window=window)
        _assert_same(est, _finite_profile(values, target, grid, window))

    @given(st.data(), windows, st.sampled_from([1.0, -1.0]))
    @settings(max_examples=100, deadline=None)
    def test_infinite_target(self, data, window, sign):
        # magnitudes on and between the M grid 10 .. 10^6, where the strict > decides
        pool = st.sampled_from([0.0, 5.0, 10.0, 50.0, 100.0, 1e3, 2e3, 1e4, 1e5, 5e5, 1e6, 3e6])
        values, _ = data.draw(few_valued_prefixes(pool))
        values = sign * values
        est = empirical_index(SequencePrefix(values), sign * math.inf, window=window)
        profile = _infinite_profile(values, sign, window)
        if profile is None:
            assert est.eps_profile == ((1.0 / DEFAULT_M_GRID[0], 0.0),)
            assert est.estimate == 0.0
        else:
            _assert_same(est, profile)

    @given(st.data(), windows)
    @settings(max_examples=100, deadline=None)
    def test_set_index(self, data, window):
        values, distinct = data.draw(
            few_valued_prefixes(st.floats(min_value=-2.0, max_value=2.0, width=32))
        )
        pairs = data.draw(
            st.lists(
                st.tuples(st.floats(min_value=-2.0, max_value=2.0, width=32),
                          st.floats(min_value=0.0, max_value=1.0, width=32)),
                min_size=1, max_size=3,
            )
        )
        targets = IntervalUnion.from_pairs((a, a + w) for a, w in pairs)
        # eps reaching a value exactly from an interval end, next to free draws
        ends = [e for iv in targets.intervals for e in iv]
        exact = [abs(v - e) for v in distinct for e in ends]
        free = data.draw(st.lists(st.floats(min_value=1e-6, max_value=4.0), max_size=6))
        grid = sorted({e for e in exact + free if e > 0}, reverse=True) or [0.5]
        est = set_index(SequencePrefix(values), targets, grid, window=window)
        profile = [
            (eps, lower_density(targets.inflate(eps).contains(values), window)) for eps in grid
        ]
        _assert_same(est, profile)

    @pytest.mark.parametrize("center", [1.0, 0.5, 0.25])
    def test_one_scan_per_distinct_set(self, monkeypatch, center):
        # values settling on two limits, over 2 CHUNK + 5 values: many eps of
        # the grid give one set, every set settles in the first block, which
        # lies ahead of the window, and the window spans blocks 1 and 2
        n = np.arange(1, 2 * CHUNK + 6, dtype=float)
        values = np.where(n % 2 == 0, 1.0 + 1e-5 / n, 0.5 + 0.3 / n)
        targets = IntervalUnion(((center, center),))
        members = [targets.inflate(e).contains(values) for e in DEFAULT_EPS_GRID]
        sets = {np.count_nonzero(member) for member in members}
        contains, cumsums = [], []
        real_contains, real_cumsum = IntervalUnion.contains, np.cumsum
        monkeypatch.setattr(
            IntervalUnion, "contains", lambda *args: contains.append(1) or real_contains(*args)
        )
        monkeypatch.setattr(
            np, "cumsum", lambda *args, **kwargs: cumsums.append(1) or real_cumsum(*args, **kwargs)
        )
        est = set_index(SequencePrefix(values), targets)
        monkeypatch.undo()
        # each set's membership once per block, and one cumulative sum per
        # distinct set and block of the window: a repeated set runs none
        assert len(contains) == 3 * len(DEFAULT_EPS_GRID)
        assert len(cumsums) == 2 * len(sets) < 2 * len(DEFAULT_EPS_GRID)
        assert est.eps_profile == tuple(
            (eps, lower_density_whole(member, 0.5)) for eps, member in zip(DEFAULT_EPS_GRID, members)
        )


def _long_prefix(seed):
    """3 CHUNK + 5 values over a few levels, with weights that drift along
    the prefix, so the running ratios peak and dip inside every block."""
    rng = np.random.default_rng(seed)
    levels = np.array([0.0, 0.25, 0.5, 0.5 + 2.0**-9, 1.0, 50.0, 2e3, 3e6, -40.0, -2e4])
    n = 3 * CHUNK + 5
    phase = np.sin(np.arange(n) * (7.0 / n)) ** 2
    weights = np.outer(1.0 - phase, np.linspace(1, 2, levels.size)) + np.outer(
        phase, np.linspace(2, 1, levels.size)
    )
    cumulative = weights.cumsum(axis=1) / weights.sum(axis=1)[:, None]
    picks = (cumulative < rng.random((n, 1))).sum(axis=1)
    return levels[picks] + rng.normal(0.0, 1e-4, n)


class TestChunkedScans:
    """The block-wise scans against one whole-array lower_density per set,
    on prefixes of 3 CHUNK + 5 values; at window 0.5 the window starts
    inside the second block, at 0.3 inside the first and at 0.9 in the last."""

    GRID = (0.5, 0.3, 0.25, 0.1, 2.0**-9, 1e-3, 2e-4, 1e-5)

    @pytest.mark.parametrize("window", [0.5, 0.3, 0.9])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_finite_target(self, window, seed):
        values = _long_prefix(seed)
        for target in (0.5, 0.25, 1.0):
            est = empirical_index(SequencePrefix(values), target, self.GRID, window=window)
            dist = np.abs(values - target)
            assert est.eps_profile == tuple(
                (eps, lower_density_whole(dist < eps, window)) for eps in self.GRID
            )

    @pytest.mark.parametrize("window", [0.5, 0.9])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_infinite_target(self, window, sign):
        values = _long_prefix(3)
        est = empirical_index(SequencePrefix(values), sign * math.inf, window=window)
        ms = [m for m in DEFAULT_M_GRID if m < np.max(sign * values)]
        assert len(ms) >= 2
        assert est.eps_profile == tuple(
            (1.0 / m, lower_density_whole(sign * values > m, window)) for m in ms
        )

    @pytest.mark.parametrize("window", [0.5, 0.3])
    def test_set_index(self, window):
        values = _long_prefix(4)
        targets = IntervalUnion(((0.2, 0.3), (0.9, 1.0), (45.0, 60.0)))
        est = set_index(SequencePrefix(values), targets, self.GRID, window=window)
        assert est.eps_profile == tuple(
            (eps, lower_density_whole(targets.inflate(eps).contains(values), window))
            for eps in self.GRID
        )

    @pytest.mark.parametrize("window", [0.5, 0.3, 0.9])
    def test_single_set_densities(self, window):
        member = np.abs(_long_prefix(5) - 0.5) < 0.1
        assert lower_density(member, window) == lower_density_whole(member, window)
        assert upper_density(member, window) == float(np.max(window_ratios_whole(member, window)))
        assert complement_identity_check(member, window)

    def test_gap_cuts_across_block_edges(self):
        # sorted tail: CHUNK values near 0, one at 0.5, then CHUNK + 3 near 1,
        # so the cuts fall on both sides of the first block edge
        rng = np.random.default_rng(6)
        tail = np.concatenate(
            (rng.uniform(0.0, 0.004, CHUNK), [0.5], rng.uniform(1.0, 1.004, CHUNK + 3))
        )
        values = np.concatenate((rng.uniform(-1.0, 2.0, tail.size), rng.permutation(tail)))
        report = detect_clusters(SequencePrefix(values), gap=0.1, index_floor=0.0)
        groups = gap_groups(np.sort(tail), 0.1)
        assert [g.size for g in groups] == [CHUNK, 1, CHUNK + 3]
        assert [(c.center, c.count) for c in report.clusters] == [
            (float(np.mean(g)), g.size) for g in groups
        ]

    @pytest.mark.parametrize("window", [0.5, 0.3])
    def test_ties_split_across_block_edges(self, window):
        # target 0, values 0 and 1 and planted distances that keep the sets
        # of two neighbouring eps equal up to a later split
        n = 3 * CHUNK + 5
        head = math.ceil(n * window) - 1
        values = np.where(np.arange(n) % 5 == 0, 1.0, 0.0)
        # 0.5 and 0.1: equal through the first block and into the window,
        # split in block 2
        values[2 * CHUNK + 100 : 2 * CHUNK + 400 : 3] = 0.2
        # 0.1 and 0.01: split only inside the window, in its first block
        values[head + 10 : head + 300 : 2] = 0.02
        # 0.01 and 1e-3: split in the last, 5-value block
        values[3 * CHUNK + 1] = 0.002
        # 1e-3 and 1e-4: never split; 1e-4 and 1e-5: split ahead of the window
        values[head - 300 : head - 100] = 5e-5
        grid = (0.5, 0.1, 0.01, 1e-3, 1e-4, 1e-5)
        est = empirical_index(SequencePrefix(values), 0.0, grid, window=window)
        dist = np.abs(values)
        assert len({np.count_nonzero(dist < eps) for eps in grid}) == len(grid) - 1
        assert est.eps_profile == tuple(
            (eps, lower_density_whole(dist < eps, window)) for eps in grid
        )

    def test_extremes_in_the_windows_first_block(self):
        # window 0.5 starts inside block 1; a run of members at its start
        # puts the lowest and the highest running ratio in that block
        n = 3 * CHUNK + 5
        head = math.ceil(n / 2) - 1
        member = np.arange(1, n + 1) % 3 == 0
        member[head : head + 5000] = True
        ratios = window_ratios_whole(member, 0.5)
        for extreme in (np.argmin(ratios), np.argmax(ratios)):
            assert CHUNK <= head + extreme < 2 * CHUNK
        assert lower_density(member) == float(np.min(ratios))
        assert upper_density(member) == float(np.max(ratios))
        assert complement_identity_check(member)
