import csv
import dataclasses
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from jumpspectra import harness, piecewise
from jumpspectra.cli import main
from jumpspectra.harness import (
    ConfigError,
    ExperimentConfig,
    compare,
    ks_uniform_distance,
    predict,
    run_sequence,
    write_comparison_json,
    write_run_csv,
    write_run_json,
)
from jumpspectra.density import (
    DEFAULT_STABILITY_TOL,
    Cluster,
    SequencePrefix,
    _plateau_estimate,
    empirical_index,
    tail_values,
)
from jumpspectra.lagrange import ChebyshevGrid, lagrange_at_jump
from jumpspectra.lagrange import sweep as lagrange_sweep
from jumpspectra.piecewise import ContinuousPart, from_steps, save_descriptor
from jumpspectra.shepard import ShepardConfig, shepard_at_jump
from jumpspectra.theory import Irrational

from oracles import gap_groups, lower_density_whole, run_rows, step_sweep_whole


def lagrange_cfg(**kw):
    base = dict(operator="lagrange", location=Fraction(1, 2), n_max=64, d=0.3)
    base.update(kw)
    return ExperimentConfig(**base)


def _two_jump_cfg(location, **kw):
    """Acceptance criterion 7's function, x^2 with jumps at x = 0 and
    x1 = cos(pi*ratio), at the jump x1; at ratio 1/2, at the jump 0, with
    x1 = cos(pi/3)."""
    ratio = location if isinstance(location, Fraction) else location.approx
    at_zero = ratio == Fraction(1, 2)
    x1 = 0.5 if at_zero else math.cos(math.pi * float(ratio))
    steps = [(0.0, 1.0, 0.3), (x1, -0.5, 0.6)]
    f = from_steps(ContinuousPart((0.0, 0.0, 1.0)), steps, (-1.0, 1.0))
    jump_index = [j.x_float for j in f.jumps].index(0.0 if at_zero else x1)
    return lagrange_cfg(location=location, fn=f, jump_index=jump_index, **kw)


def _matches_per_n(cfg):
    """run_sequence's Lagrange values equal sweep's one order at a time bit
    for bit, lagrange_at_jump's at the orders it leaves, and lagrange_at_jump's
    within rounding at every order."""
    f, i = cfg.resolved_fn()
    ratio = cfg.location_ratio()
    values = run_sequence(cfg).values
    for n, value in zip(cfg.ns(), values.tolist()):
        grid = ChebyshevGrid(n)
        per_n = lagrange_at_jump(grid, f, i, ratio)
        served, alone = lagrange_sweep(f, i, ratio, [n])
        assert value == (alone[0] if served[0] else per_n)
        assert abs(value - per_n) <= 1e-14 * (1 + np.abs(f.eval_many(grid.nodes)).max())


def shepard_cfg(**kw):
    base = dict(operator="shepard", location=Fraction(1, 2), s=2.0, n_max=64, d=0.3)
    base.update(kw)
    return ExperimentConfig(**base)


class TestRunSequence:
    def test_lagrange_node_parity(self):
        prefix = run_sequence(lagrange_cfg())
        values = prefix.values
        assert np.all(values[0::2] == 0.3)  # odd n: x0 = 0 is the middle node
        assert np.all((values[1::2] > 0.0) & (values[1::2] < 1.0))

    def test_shepard_node_parity(self):
        prefix = run_sequence(shepard_cfg(n_max=66))
        values = prefix.values
        assert np.all(values[1::2] == 0.3)  # even n: 1/2 is a grid node

    def test_deterministic(self):
        cfg = shepard_cfg(location=Fraction(1, 3), n_max=200)
        a = run_sequence(cfg).values
        b = run_sequence(cfg).values
        assert np.array_equal(a, b)

    def test_stride(self):
        cfg = lagrange_cfg(n_max=100, stride=3)
        prefix = run_sequence(cfg)
        assert len(prefix.values) == math.ceil(100 / 3)

    @pytest.mark.parametrize("location", [Fraction(2, 7), Irrational(math.sqrt(2) - 1)])
    def test_lagrange_step_sweep_matches_per_n(self, location):
        _matches_per_n(lagrange_cfg(location=location, n_max=300, stride=7))

    @pytest.mark.parametrize("location", [
        Fraction(1, 3), Fraction(1, 2), Irrational(math.sqrt(2) - 1),
    ])
    def test_lagrange_sweep_matches_per_n_on_two_jumps(self, location):
        _matches_per_n(_two_jump_cfg(location, n_max=700, stride=3))

    @pytest.mark.parametrize("location, unserved", [
        (Fraction(1, 3), [1, 2]), (Fraction(1, 2), [2]),
    ])
    def test_lagrange_per_n_calls_only_where_the_sweep_does_not_serve(
        self, location, unserved, monkeypatch
    ):
        # the x^2 base is reproduced from n = 3 on; at theta0/pi = 1/2,
        # n = 1 is a node
        grids, at_jump = [], []

        def grid(n):
            grids.append(n)
            return ChebyshevGrid(n)

        def per_n(g, *args):
            at_jump.append(g.n)
            return lagrange_at_jump(g, *args)

        monkeypatch.setattr(harness, "ChebyshevGrid", grid)
        monkeypatch.setattr(harness, "lagrange_at_jump", per_n)
        run_sequence(_two_jump_cfg(location, n_max=300))
        assert grids == at_jump == unserved

    @pytest.mark.parametrize("location", [Fraction(1, 3), Irrational(math.sqrt(2) / 2)])
    def test_shepard_descriptor_step_takes_the_step_sweep(self, location, monkeypatch):
        # the default step rebuilt as a descriptor gives the default's values,
        # within rounding of the per-order ones, with no per-order call
        default = shepard_cfg(location=location, n_max=400)
        cfg = shepard_cfg(location=location, n_max=400, fn=default.resolved_fn()[0])
        calls = []

        def per_n(*args, **kw):
            calls.append(args[0].n)
            return shepard_at_jump(*args, **kw)

        monkeypatch.setattr(harness, "shepard_at_jump", per_n)
        values = run_sequence(cfg).values
        assert not calls
        assert np.array_equal(values, run_sequence(default).values)
        f, ratio = cfg.resolved_fn()[0], cfg.location_ratio()
        expected = [shepard_at_jump(ShepardConfig(2.0, n), f, 0, x0=ratio) for n in cfg.ns()]
        assert np.max(np.abs(values - expected)) <= 1e-15
        # a linear base is not a step: one shepard_at_jump call per order
        linear = from_steps(ContinuousPart((0.0, 1.0)), [(ratio, 1.0, 0.8)], (0.0, 1.0))
        run_sequence(shepard_cfg(location=location, n_max=400, fn=linear))
        assert calls == list(cfg.ns())

    def test_user_descriptor(self, tmp_path):
        f = from_steps(ContinuousPart((0.0,)), [(0.5, 1.0, 0.25)], (0.0, 1.0))
        cfg = shepard_cfg(fn=f, jump_index=0)
        values = run_sequence(cfg).values
        assert np.all(values[1::2] == 0.25)


class TestValidation:
    def test_bad_operator(self):
        with pytest.raises(ConfigError, match="operator"):
            ExperimentConfig(operator="fourier", location=Fraction(1, 2)).validate()

    def test_small_n_max(self):
        with pytest.raises(ConfigError, match="n_max"):
            lagrange_cfg(n_max=10).validate()

    def test_bad_stride(self):
        with pytest.raises(ConfigError, match="stride"):
            lagrange_cfg(stride=0).validate()

    def test_bad_location_type(self):
        with pytest.raises(ConfigError, match="location"):
            ExperimentConfig(operator="lagrange", location=0.5).validate()

    def test_shepard_exponent(self):
        with pytest.raises(ConfigError, match="s"):
            shepard_cfg(s=0.2).validate()

    def test_descriptor_location_mismatch(self):
        f = from_steps(ContinuousPart((0.0,)), [(0.4, 1.0, 0.25)], (0.0, 1.0))
        with pytest.raises(ConfigError, match="jump_index"):
            shepard_cfg(fn=f).validate()

    @pytest.mark.parametrize(
        "field, value",
        [("gap", 0.0), ("gap", -1.0), ("tail_fraction", 0.0), ("tail_fraction", 1.5),
         ("eps_grid", ()), ("eps_grid", (0.1, 0.2)), ("eps_grid", (0.1, -0.05))],
    )
    def test_cluster_knobs_checked_at_construction(self, field, value):
        with pytest.raises(ConfigError, match=field):
            shepard_cfg(**{field: value})

    def test_descriptor_domain_must_cover_the_nodes(self):
        f = from_steps(ContinuousPart((0.0,)), [(0.5, 1.0, 0.25)], (0.0, 0.9))
        with pytest.raises(ConfigError, match="domain"):
            shepard_cfg(fn=f)
        with pytest.raises(ConfigError, match="domain"):
            lagrange_cfg(location=Fraction(1, 2), fn=from_steps(
                ContinuousPart((0.0,)), [(0.0, 1.0, 0.25)], (-1.0, 0.5)))

    def test_frozen(self):
        cfg = lagrange_cfg()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.n_max = 10


class TestCompare:
    def test_lagrange_even_case(self):
        report = compare(lagrange_cfg(n_max=600, d=-0.25))
        assert report.passed
        assert len(report.matching) == 2
        assert report.ks_distance is None

    def test_shepard_continuous_case(self):
        cfg = ExperimentConfig(
            operator="shepard",
            location=Irrational(math.sqrt(2) / 2),
            s=2.0,
            n_max=600,
            d=0.3,
        )
        report = compare(cfg)
        assert report.passed
        assert report.ks_distance is not None and report.ks_distance < 0.05
        assert report.matching == []

    def test_lagrange_continuous_case(self):
        cfg = ExperimentConfig(
            operator="lagrange",
            location=Irrational(math.sqrt(2) / 2),
            n_max=2000,
            d=0.3,
        )
        report = compare(cfg)
        assert report.passed
        assert report.ks_distance < 0.05

    @pytest.mark.parametrize("make_cfg", [lagrange_cfg, shepard_cfg])
    def test_report_carries_the_graded_prefix(self, make_cfg):
        cfg = make_cfg()
        report = compare(cfg)
        assert np.array_equal(report.prefix.values, run_sequence(cfg).values)
        assert "prefix" not in report.to_dict()

    def test_boundary_location_rejected(self):
        with pytest.raises(ConfigError, match="location"):
            shepard_cfg(location=Fraction(0, 1)).validate()

    def test_index_error_monotone_in_n_max(self):
        def worst_index_error(n_max):
            report = compare(
                shepard_cfg(location=Fraction(1, 3), n_max=n_max, d=-0.25)
            )
            assert report.matching
            return max(m.index_error for m in report.matching)

        assert worst_index_error(4000) <= worst_index_error(1000) + 0.005

    def test_failing_comparison_reported(self):
        # errors are compared with a strict <, so a zero tolerance is never met
        report = compare(lagrange_cfg(n_max=300, value_tol=0.0))
        assert not report.passed


    def test_small_tail_fraction_grades_the_last_value(self):
        # int(600 * 0.001) = 0: the KS tail and the clustering tail are both
        # the last value, not the whole prefix
        cfg = ExperimentConfig(
            "shepard", Irrational(math.sqrt(2) / 2), n_max=600, tail_fraction=0.001
        )
        report = compare(cfg)
        cont = report.predicted.continuous
        u = cont.profile.invert_many((report.prefix.values[-1:] - cont.alpha) / cont.beta)
        assert report.ks_distance == ks_uniform_distance(u) >= 0.5
        assert sum(c.count for c in report.empirical.clusters) <= 1


class TestKS:
    def test_uniform_sample_small_distance(self):
        u = (np.arange(2000) + 0.5) / 2000
        assert ks_uniform_distance(u) < 1e-3

    def test_point_mass_large_distance(self):
        assert ks_uniform_distance(np.full(100, 0.5)) > 0.45

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_uniform_distance([])


class TestOutputs:
    def test_csv_rational_schema(self, tmp_path):
        cfg = lagrange_cfg(n_max=90, stride=4)
        prefix = run_sequence(cfg)
        path = tmp_path / "run.csv"
        write_run_csv(cfg, prefix, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == math.ceil(90 / 4)
        assert set(rows[0]) == {"n", "sigma_num", "sigma_den", "is_node", "value"}
        assert rows[0]["n"] == "1"
        assert rows[0]["is_node"] == "1"  # n=1: middle node

    def test_csv_float_schema(self, tmp_path):
        cfg = ExperimentConfig(
            operator="shepard", location=Irrational(0.377), s=2.0, n_max=64
        )
        prefix = run_sequence(cfg)
        path = tmp_path / "run.csv"
        write_run_csv(cfg, prefix, path)
        with open(path) as fh:
            header = fh.readline().strip().split(",")
        assert header == ["n", "sigma_float", "is_node", "value"]

    def test_comparison_json_schema(self, tmp_path):
        cfg = lagrange_cfg(n_max=300, d=-0.25)
        report = compare(cfg)
        path = tmp_path / "report.json"
        write_comparison_json(cfg, report, path)
        data = json.loads(path.read_text())
        assert set(data) == {"config", "report"}
        assert set(data["report"]) == {
            "predicted",
            "empirical",
            "matching",
            "unmatched_atoms",
            "unmatched_clusters",
            "ks_distance",
            "pass",
            "tolerances",
        }
        assert data["config"]["location"] == {"num": 1, "den": 2}
        assert data["report"]["pass"] is True
        # the cluster knobs left at their defaults are written as those values
        config = dict(data["config"])
        assert config.pop("fn")["jumps"][0]["value"] == -0.25
        assert json.dumps(config, sort_keys=True) == (
            '{"gap": 0.01, "index_tol": 0.02, "jump_index": 0, "ks_tol": 0.05, '
            '"location": {"den": 2, "num": 1}, "n_max": 300, "operator": "lagrange", '
            '"stride": 1, "tail_fraction": 0.5, "value_tol": 0.002}'
        )

    @pytest.mark.parametrize(
        "location, expected",
        [
            (
                Fraction(1, 3),
                b"n,sigma_num,sigma_den,is_node,value\r\n"
                b"1,1,3,0,0.7500000000000001\r\n"
                b"21,0,1,1,0.3\r\n"
                b"41,2,3,0,0.6666666666666666\r\n"
                b"61,1,3,0,-1.5e-17\r\n",
            ),
            (
                Irrational(math.sqrt(2) / 2),
                b"n,sigma_float,is_node,value\r\n"
                b"1,0.7071067811865476,0,0.7500000000000001\r\n"
                b"21,0.8492424049174989,0,0.3\r\n"
                b"41,0.9913780286484517,0,0.6666666666666666\r\n"
                b"61,0.13351365237939916,0,-1.5e-17\r\n",
            ),
        ],
    )
    def test_csv_bytes(self, tmp_path, location, expected):
        # the values are given, so the bytes depend on the writer and the
        # node offsets alone
        cfg = shepard_cfg(location=location, n_max=64, stride=20)
        prefix = SequencePrefix(np.array([0.7500000000000001, 0.3, 2 / 3, -1.5e-17]))
        path = tmp_path / "run.csv"
        write_run_csv(cfg, prefix, path)
        assert path.read_bytes() == expected

    @pytest.mark.parametrize(
        "location, rows",
        [
            (
                Fraction(1, 3),
                '    {\n      "n": 1,\n      "sigma_num": 1,\n      "sigma_den": 3,\n'
                '      "is_node": 0,\n      "value": 0.7500000000000001\n    },\n'
                '    {\n      "n": 21,\n      "sigma_num": 0,\n      "sigma_den": 1,\n'
                '      "is_node": 1,\n      "value": 0.3\n    },\n'
                '    {\n      "n": 41,\n      "sigma_num": 2,\n      "sigma_den": 3,\n'
                '      "is_node": 0,\n      "value": 0.6666666666666666\n    },\n'
                '    {\n      "n": 61,\n      "sigma_num": 1,\n      "sigma_den": 3,\n'
                '      "is_node": 0,\n      "value": -1.5e-17\n    }\n',
            ),
            (
                Irrational(math.sqrt(2) / 2),
                '    {\n      "n": 1,\n      "sigma_float": 0.7071067811865476,\n'
                '      "is_node": 0,\n      "value": 0.7500000000000001\n    },\n'
                '    {\n      "n": 21,\n      "sigma_float": 0.8492424049174989,\n'
                '      "is_node": 0,\n      "value": 0.3\n    },\n'
                '    {\n      "n": 41,\n      "sigma_float": 0.9913780286484517,\n'
                '      "is_node": 0,\n      "value": 0.6666666666666666\n    },\n'
                '    {\n      "n": 61,\n      "sigma_float": 0.13351365237939916,\n'
                '      "is_node": 0,\n      "value": -1.5e-17\n    }\n',
            ),
        ],
        ids=["exact", "irrational"],
    )
    def test_json_bytes(self, tmp_path, location, rows):
        # the config as json.dump writes it, then the hand-written rows
        cfg = shepard_cfg(location=location, n_max=64, stride=20)
        prefix = SequencePrefix(np.array([0.7500000000000001, 0.3, 2 / 3, -1.5e-17]))
        path = tmp_path / "run.json"
        write_run_json(cfg, prefix, path)
        head = json.dumps({"config": cfg.to_dict()}, indent=2).removesuffix("\n}")
        assert path.read_bytes() == (head + ',\n  "rows": [\n' + rows + "  ]\n}\n").encode()

    def test_rerun_bit_identical(self, tmp_path):
        cfg = shepard_cfg(location=Fraction(1, 3), n_max=120)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_run_csv(cfg, run_sequence(cfg), a)
        write_run_csv(cfg, run_sequence(cfg), b)
        assert a.read_bytes() == b.read_bytes()


# the run exports: (flags, location, s, stride), s None for Lagrange (node
# offsets at shift 1/2); the last location's numerators pass int64 at
# n = 154, where node_offsets switches to object ints
EXPORT_CASES = [
    (["--operator", "shepard", "--x0-num", "1", "--x0-den", "3", "--s", "1"],
     Fraction(1, 3), 1.0, 1),
    (["--operator", "shepard", "--location", str(math.sqrt(2) / 2), "--irrational",
      "--s", "2", "--stride", "3"], Irrational(math.sqrt(2) / 2), 2.0, 3),
    (["--operator", "lagrange", "--theta-num", "1", "--theta-den", "3"], Fraction(1, 3), None, 1),
    (["--operator", "lagrange", "--theta-num", str(3 * 10**16 + 1),
      "--theta-den", str(9 * 10**16 + 7)], Fraction(3 * 10**16 + 1, 9 * 10**16 + 7), None, 1),
]


def _export(tmp_path, fmt, case, n_max):
    """The bytes the CLI's run export writes, the config and run_rows'
    rows of the same run."""
    flags, location, s, stride = case
    path = tmp_path / f"run.{fmt}"
    argv = ["run", "--n-max", str(n_max), "--d", "-0.25", *flags, "--format", fmt]
    assert main([*argv, "--out", str(path)]) == 0
    if s is None:
        cfg = lagrange_cfg(location=location, stride=stride, n_max=n_max, d=-0.25)
    else:
        cfg = shepard_cfg(location=location, s=s, stride=stride, n_max=n_max, d=-0.25)
    return path.read_bytes(), cfg, run_rows(cfg, run_sequence(cfg))


def _csv_bytes(rows) -> bytes:
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(rows[0])
    writer.writerows(row.values() for row in rows)
    return expected.getvalue().encode()


def _json_bytes(cfg, rows) -> bytes:
    return (json.dumps({"config": cfg.to_dict(), "rows": rows}, indent=2) + "\n").encode()


class TestLongPrefix:
    """The block-wise long-prefix paths against their whole-array definitions
    at N = 10^6 and through the CLI's CSV and JSON exports."""

    @pytest.mark.parametrize("x0", [Fraction(1, 3), Fraction(2, 5)])
    def test_compare_matches_whole_array_paths(self, x0):
        cfg = shepard_cfg(location=x0, s=1.0, n_max=10**6, d=-0.25, gap=0.15, value_tol=0.03)
        report = compare(cfg)
        values = report.prefix.values
        assert np.array_equal(values, step_sweep_whole(cfg.resolved_fn()[0], 1.0, cfg.ns()))
        # detect_clusters by its definition: gap groups of the sorted tail,
        # each indexed over an eps grid capped at half the distance to the
        # nearest other center, one whole-array lower_density per eps
        groups = gap_groups(np.sort(tail_values(values, cfg.tail_fraction)), cfg.gap)
        centers = [float(np.mean(g)) for g in groups]
        expected = []
        for i, (group, center) in enumerate(zip(groups, centers)):
            isolation = min(abs(center - c) for j, c in enumerate(centers) if j != i) / 2.0
            grid = [e for e in cfg.eps_grid if e <= isolation]
            profile = tuple(
                (eps, lower_density_whole(np.abs(values - center) < eps, 0.5)) for eps in grid
            )
            assert empirical_index(report.prefix, center, grid).eps_profile == profile
            index = _plateau_estimate([r for _, r in profile], DEFAULT_STABILITY_TOL)
            if index >= cfg.index_floor:
                expected.append(Cluster(center, index, int(group.size)))
        assert len(expected) >= 2
        assert report.empirical.clusters == tuple(expected)
        assert report.passed

    # each case on 300 orders in blocks of 1, 2 and 7 orders, so that block
    # edges fall everywhere; the CSV and JSON are written block by block,
    # and run_rows holds the whole run
    @pytest.mark.parametrize("flags, location, s, stride", EXPORT_CASES)
    def test_csv_bytes_match_run_rows(self, tmp_path, monkeypatch, flags, location, s, stride):
        for chunk in (1, 2, 7):
            monkeypatch.setattr(piecewise, "CHUNK", chunk)
            written, _, rows = _export(tmp_path, "csv", (flags, location, s, stride), 300)
            assert written == _csv_bytes(rows)

    @pytest.mark.parametrize("flags, location, s, stride", EXPORT_CASES)
    def test_json_bytes_match_run_rows(self, tmp_path, monkeypatch, flags, location, s, stride):
        for chunk in (1, 2, 7):
            monkeypatch.setattr(piecewise, "CHUNK", chunk)
            written, cfg, rows = _export(tmp_path, "json", (flags, location, s, stride), 300)
            assert written == _json_bytes(cfg, rows)

    # one case per format at N = 200000 > CHUNK, in the real blocks
    def test_full_size_csv_bytes_match_run_rows(self, tmp_path):
        written, _, rows = _export(tmp_path, "csv", EXPORT_CASES[0], 200_000)
        assert written == _csv_bytes(rows)

    def test_full_size_json_bytes_match_run_rows(self, tmp_path):
        written, cfg, rows = _export(tmp_path, "json", EXPORT_CASES[1], 200_000)
        assert written == _json_bytes(cfg, rows)


class TestRunRows:
    @pytest.mark.parametrize(
        "operator, location, n_max",
        [
            ("lagrange", Fraction(1, 2), 300),
            ("lagrange", Fraction(3, 8), 300),
            ("shepard", Fraction(2, 5), 300),
            ("shepard", Irrational(math.sqrt(2) / 2), 300),
            # float locations on a node of one grid: n = 101, k = 30 and
            # x0 = 50002/100003 at n = 100003
            ("lagrange", Irrational(59 / 202), 202),
            ("shepard", Irrational(50002 / 100003), 100003),
        ],
    )
    def test_rows_and_values_share_the_node_decision(self, tmp_path, operator, location, n_max):
        # the rows as the JSON export writes them
        cfg = ExperimentConfig(operator, location, d=0.3, n_max=n_max)
        path = tmp_path / "run.json"
        write_run_json(cfg, run_sequence(cfg), path)
        with open(path) as fh:
            rows = json.load(fh)["rows"]
        assert [r["is_node"] for r in rows] == [int(r["value"] == 0.3) for r in rows]
        if isinstance(location, Fraction):
            shift = Fraction(1, 2) if operator == "lagrange" else 0
            for r in rows:
                t = r["n"] * location + shift
                sigma = t - math.floor(t)
                assert (r["sigma_num"], r["sigma_den"]) == (sigma.numerator, sigma.denominator)
        else:
            assert sum(r["is_node"] for r in rows) == (n_max != 300)


class TestCli:
    def test_run_csv(self, tmp_path):
        out = tmp_path / "run.csv"
        code = main(
            [
                "run",
                "--operator", "lagrange",
                "--theta-num", "1",
                "--theta-den", "2",
                "--n-max", "80",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.exists()

    def test_run_json_format(self, tmp_path):
        out = tmp_path / "run.json"
        code = main(
            [
                "run",
                "--operator", "shepard",
                "--s", "2",
                "--x0-num", "1",
                "--x0-den", "2",
                "--n-max", "70",
                "--format", "json",
                "--out", str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["rows"]) == 70
        assert data["rows"][1] == {
            "n": 2,
            "sigma_num": 0,
            "sigma_den": 1,
            "is_node": 1,
            "value": 0.3,
        }

    def test_compare_pass_exit_zero(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "compare",
                "--operator", "shepard",
                "--s", "2",
                "--x0-num", "1",
                "--x0-den", "3",
                "--n-max", "600",
                "--d", "-0.25",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["report"]["pass"] is True

    def test_config_error_exit_two(self):
        assert main(["run", "--operator", "lagrange", "--n-max", "80"]) == 2
        assert main(
            ["run", "--operator", "lagrange", "--location", "0.3", "--n-max", "80"]
        ) == 2  # missing --irrational and --out

    @pytest.mark.parametrize(
        "descriptor",
        [
            {"poly": [0.0], "jumps": []},
            {"domain": [0.0, 1.0], "jumps": [{"x": 0.5, "left": 0.0, "right": 1.0}]},
            {"domain": [0.0, 1.0], "jumps": [{"x": 0.5, "left": 0.0, "right": 0.0,
                                             "value": 0.0}]},
            [1, 2],
        ],
    )
    def test_bad_descriptor_exit_two(self, tmp_path, descriptor):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(descriptor))
        argv = ["predict", "--operator", "shepard", "--x0-num", "1", "--x0-den", "2",
                "--fn", str(path)]
        assert main(argv) == 2

    @pytest.mark.parametrize(
        "config", [{"n_max": 100000}, "not an object", {"n-max": "many"}]
    )
    def test_bad_config_file_exit_two(self, tmp_path, capsys, config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "run.csv"
        argv = ["run", "--config", str(path), "--operator", "lagrange",
                "--theta-num", "1", "--theta-den", "3", "--out", str(out)]
        assert main(argv) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--gap", "-1"], ["--tail-fraction", "0"],
                                       ["--x0-den", "0"]])
    def test_bad_flag_value_exit_two(self, flags):
        argv = ["compare", "--operator", "shepard", "--x0-num", "1", "--x0-den", "3",
                "--n-max", "100", *flags]
        assert main(argv) == 2

    def test_internal_fault_propagates(self, monkeypatch, tmp_path):
        from jumpspectra import cli

        def boom(cfg):
            raise ValueError("internal fault")

        monkeypatch.setattr(cli, "run_sequence", boom)
        argv = ["run", "--operator", "lagrange", "--theta-num", "1", "--theta-den", "3",
                "--n-max", "80", "--out", str(tmp_path / "run.csv")]
        with pytest.raises(ValueError, match="internal fault"):
            main(argv)

    def test_selftest(self, capsys):
        assert main(["selftest"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 10
        assert all(line.startswith("[PASS]") for line in lines)

    def test_numeric_precondition_exit_three(self, monkeypatch):
        from jumpspectra import cli
        from jumpspectra.specfun import ProfileMonotonicityError

        def boom(cfg):
            raise ProfileMonotonicityError("gate tripped")

        monkeypatch.setattr(cli, "compare", boom)
        code = main(
            [
                "compare",
                "--operator", "shepard",
                "--s", "2",
                "--x0-num", "1",
                "--x0-den", "3",
                "--n-max", "100",
            ]
        )
        assert code == 3

    def test_predict_json(self, capsys):
        code = main(
            ["predict", "--operator", "lagrange", "--theta-num", "1", "--theta-den", "3"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["atoms"]) == 3

    def test_zeta_subcommand(self, capsys):
        assert main(["zeta", "--kind", "zeta", "--s", "2", "--a", "1"]) == 0
        value = json.loads(capsys.readouterr().out)["value"]
        assert value == pytest.approx(math.pi**2 / 6, abs=1e-10)

    def test_zeta_j_pole_band_is_config_error(self, capsys):
        assert main(["zeta", "--kind", "j", "--s", "1.000001", "--a", "0.5"]) == 2
        assert "near the pole" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = {
            "operator": "shepard",
            "s": 1.0,
            "x0-num": 1,
            "x0-den": 3,
            "n-max": 64,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code = main(["predict", "--config", str(path), "--s", "2"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["source"] == "shepard_rational"  # flag overrode s=1

    def test_fn_descriptor_flag(self, tmp_path, capsys):
        f = from_steps(ContinuousPart((0.0,)), [(0.5, 2.0, 1.3)], (0.0, 1.0))
        fn_path = tmp_path / "fn.json"
        save_descriptor(f, fn_path)
        code = main(
            [
                "predict",
                "--operator", "shepard",
                "--s", "2",
                "--x0-num", "1",
                "--x0-den", "2",
                "--fn", str(fn_path),
                "--jump", "0",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert 1.3 in {a["value"] for a in data["atoms"]}

    def test_predicted_spectrum_matches_api(self, capsys):
        cfg = shepard_cfg(location=Fraction(1, 3), s=1.0)
        spectrum = predict(cfg)
        assert [float(a.index) for a in spectrum.atoms] == [1 / 3, 2 / 3]
