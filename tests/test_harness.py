import csv
import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from jumpspectra.cli import main
from jumpspectra.harness import (
    ConfigError,
    ExperimentConfig,
    compare,
    ks_uniform_distance,
    predict,
    run_rows,
    run_sequence,
    write_comparison_json,
    write_run_csv,
)
from jumpspectra.density import SequencePrefix
from jumpspectra.lagrange import ChebyshevGrid, lagrange_at_jump
from jumpspectra.piecewise import ContinuousPart, from_steps, save_descriptor
from jumpspectra.theory import Irrational


def lagrange_cfg(**kw):
    base = dict(operator="lagrange", location=Fraction(1, 2), n_max=64, d=0.3)
    base.update(kw)
    return ExperimentConfig(**base)


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
        cfg = lagrange_cfg(location=location, n_max=300, stride=7)
        f, i = cfg.resolved_fn()
        ratio = cfg.location_ratio()
        angle = ratio if isinstance(ratio, Fraction) else math.pi * ratio
        expected = [lagrange_at_jump(ChebyshevGrid(n), f, i, angle) for n in cfg.ns()]
        assert run_sequence(cfg).values.tolist() == expected

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

    def test_rerun_bit_identical(self, tmp_path):
        cfg = shepard_cfg(location=Fraction(1, 3), n_max=120)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_run_csv(cfg, run_sequence(cfg), a)
        write_run_csv(cfg, run_sequence(cfg), b)
        assert a.read_bytes() == b.read_bytes()


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
    def test_rows_and_values_share_the_node_decision(self, operator, location, n_max):
        cfg = ExperimentConfig(operator, location, d=0.3, n_max=n_max)
        rows = run_rows(cfg, run_sequence(cfg))
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
