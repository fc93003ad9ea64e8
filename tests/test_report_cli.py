import json

import numpy as np
import pytest

from logchol import experiments as ex
from logchol.baselines import METRIC_NAMES, get_metric
from logchol.cli import main
from logchol.report import ExperimentReport, GlyphRecord, ResultRecord
from logchol.sampling import random_spd_with_condition, random_spd_wishart
from logchol.tri import NotSpdError, SpdMatrix, dump_matrices


class TestReport:
    def make_report(self):
        return ExperimentReport(
            experiment="demo",
            metrics=["log-cholesky"],
            inputs={"seed": 7},
            environment={"dim": 3},
            results=[
                ResultRecord(name="x", value=1.5, units="u", tolerance=1e-8),
                ResultRecord(name="seq", values=[1.0, 2.0], units="u"),
            ],
            timings={"x_ns": 123.0},
        )

    def test_json_roundtrip(self):
        rep = self.make_report()
        back = ExperimentReport.from_json(rep.to_json())
        assert back.to_json() == rep.to_json()
        assert back.result("x").value == 1.5
        assert back.result("seq").values == [1.0, 2.0]
        with pytest.raises(KeyError):
            back.result("nope")

    def test_nontiming_json_drops_timings(self):
        rep = self.make_report()
        d = json.loads(rep.nontiming_json())
        assert "timings" not in d
        assert d["schema_version"] == 1

    def test_csv(self):
        text = self.make_report().to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "name,index,value"
        assert lines[1].startswith("x,0,")
        assert lines[2].startswith("seq,0,") and lines[3].startswith("seq,1,")


class TestGlyph:
    def test_roundtrip_and_invariants(self, rng):
        a = rng.standard_normal((3, 3))
        p = a @ a.T + np.eye(3)
        g = GlyphRecord.from_spd_dense(p, 1, 2)
        assert g.eigenvalues == sorted(g.eigenvalues, reverse=True)
        assert all(w > 0 for w in g.eigenvalues)
        u = np.array(g.eigenvectors).reshape(3, 3)
        assert np.abs(u.T @ u - np.eye(3)).max() < 1e-10
        assert g.determinant == pytest.approx(np.linalg.det(p), rel=1e-10)
        back = GlyphRecord.from_json(g.to_json())
        assert back == g

    def test_rejects_non_spd(self):
        with pytest.raises(NotSpdError):
            GlyphRecord.from_spd_dense(np.diag([1.0, -1.0]), 0, 0)


class TestExperiments:
    def test_interpolate_constant_for_equal_endpoints(self, rng):
        a = rng.standard_normal((3, 3))
        p = SpdMatrix.from_dense(a @ a.T + np.eye(3))
        rep, glyphs = ex.run_interpolate("euclidean", 5, endpoints=(p, p))
        dets = rep.result("det_sequence").values
        assert np.allclose(dets, dets[0])
        assert len(glyphs) == 5

    def test_parameters_checked_by_the_experiments(self):
        for call in (
            lambda: ex.run_interpolate("log-cholesky", 1),
            lambda: ex.run_bench_transport(1, 100, 0),
            lambda: ex.run_bench_transport(2, 99, 0),
            lambda: ex.run_stability(0.5, 3, 0),
            lambda: ex.run_stability(float("nan"), 3, 0),
            lambda: ex.run_stability(float("inf"), 3, 0),
            lambda: ex.run_stability(1e5, 0, 0),
            lambda: ex.run_mean_gap(0, 3, 1, 0),
            lambda: ex.run_mean_gap(1, 0, 1, 0),
            lambda: ex.run_mean_gap(1, 3, 0, 0),
            lambda: ex.run_bench_transport(2, 100, -1),
            lambda: ex.run_stability(1e5, 3, -1),
            lambda: ex.run_mean_gap(1, 3, 1, -1),
        ):
            with pytest.raises(ex.ParameterError):
                call()

    def test_mean_gap_trivial_cases(self, rng):
        rep = ex.run_mean_gap(1, 3, 3, 0)
        assert rep.result("mean_gap").value == pytest.approx(0.0, abs=1e-12)
        a = rng.standard_normal((3, 3))
        p = SpdMatrix.from_dense(a @ a.T + np.eye(3))
        rep = ex.run_mean("log-cholesky", [p])
        assert rep.result("det_gap_rel").value == pytest.approx(0.0, abs=1e-12)

    def test_mean_determinants_are_the_per_matrix_values(self, rng):
        mats = [random_spd_wishart(rng, 5) for _ in range(200)]
        rep = ex.run_mean("log-cholesky", mats)
        dets = np.array([np.linalg.det(m.data) for m in mats])
        det_mean = rep.result("det_mean").value
        assert rep.result("det_geometric_mean").value == float(np.exp(np.mean(np.log(dets))))
        assert rep.result("det_within_bounds").value == bool(
            dets.min() * (1.0 - 1e-12) <= det_mean <= dets.max() * (1.0 + 1e-12)
        )

    @pytest.mark.parametrize("kappa", [1e5, 1e15])
    @pytest.mark.parametrize("name", METRIC_NAMES)
    def test_stability_roundtrip_is_the_registry_roundtrip(self, name, kappa):
        # Same draws, in the same order, as run_stability at seed 0.
        rng = np.random.default_rng(0)
        base = ex._stability_base(rng, 3)
        target = random_spd_with_condition(rng, 3, kappa)
        ops = get_metric(name)
        back = ops.exp(base, ops.log(base, target))
        err = np.linalg.norm(back.data - target.data) / np.linalg.norm(target.data)
        rep = ex.run_stability(kappa, 3, 0)
        assert rep.result(f"{name}.roundtrip_rel_error").value == float(err)

    def test_stability_well_conditioned(self):
        rep = ex.run_stability(1.0, 3, 0)
        for name in rep.metrics:
            err = rep.result(f"{name}.roundtrip_rel_error").value
            assert err is not None and err < 1e-12
            assert rep.result(f"{name}.mean_success").value is True


class TestCli:
    def test_interpolate_stdout_json(self, capsys):
        assert main(["interpolate", "--metric", "log-cholesky", "--steps", "3"]) == 0
        out = capsys.readouterr().out
        report_text, _, glyph_text = out.partition("\n{\"col\"")
        rep = ExperimentReport.from_json(report_text)
        assert rep.experiment == "interpolate"
        assert len(rep.result("det_sequence").values) == 3
        glyphs = [GlyphRecord.from_json(ln) for ln in ("{\"col\"" + glyph_text).splitlines() if ln]
        assert len(glyphs) == 3
        for g in glyphs:
            assert all(w > 0 for w in g.eigenvalues)

    def test_interpolate_out_files(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["interpolate", "--steps", "4", "--out", str(out)]) == 0
        rep = ExperimentReport.from_json(out.read_text())
        assert len(rep.result("t_grid").values) == 4
        lines = (tmp_path / "rep.json.glyphs.jsonl").read_text().splitlines()
        assert len(lines) == 4

    def test_interpolate_with_fixture(self, tmp_path, rng):
        fx = tmp_path / "endpoints.txt"
        a = rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2))
        dump_matrices([a @ a.T + np.eye(2), b @ b.T + np.eye(2)], fx)
        out = tmp_path / "rep.json"
        rc = main(["interpolate", "--input", str(fx), "--out", str(out)])
        assert rc == 0
        rep = ExperimentReport.from_json(out.read_text())
        assert rep.inputs["fixture"] == str(fx)

    def test_interpolate_fixture_needs_exactly_two_matrices(self, tmp_path):
        fx = tmp_path / "endpoints.txt"
        for count in (1, 3):
            dump_matrices([np.eye(2) * (k + 1) for k in range(count)], fx)
            with pytest.raises(SystemExit) as exc:
                main(["interpolate", "--input", str(fx)])
            assert exc.value.code == 2, count

    def test_mean_csv_format(self, capsys):
        assert main(["mean", "--n", "4", "--m", "2", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("name,index,value")

    def test_mean_with_fixture(self, tmp_path, capsys):
        fx = tmp_path / "mats.txt"
        dump_matrices([np.eye(2), np.diag([np.e**2, np.e**2])], fx)
        assert main(["mean", "--input", str(fx)]) == 0
        rep = ExperimentReport.from_json(capsys.readouterr().out)
        assert rep.result("det_mean").value == pytest.approx(np.e**2, rel=1e-10)

    def test_mean_of_one_matrix_is_within_bounds(self, capsys):
        # Determinants far from 1: the bound must scale with them.
        for seed in ("1", "2", "3"):
            assert main(["mean", "--n", "1", "--m", "8", "--seed", seed]) == 0
            rep = ExperimentReport.from_json(capsys.readouterr().out)
            assert rep.result("det_within_bounds").value is True, seed

    def test_mean_mixed_sizes_exit_3(self, tmp_path, capsys):
        fx = tmp_path / "mixed.txt"
        dump_matrices([np.eye(2), np.eye(3)], fx)
        for metric in METRIC_NAMES:
            assert main(["mean", "--metric", metric, "--input", str(fx)]) == 3, metric
            assert "numerical failure" in capsys.readouterr().err

    def test_usage_errors_exit_2(self):
        for argv in (
            ["interpolate", "--steps", "1"],
            ["interpolate", "--metric", "riemann"],
            ["bench-transport", "--reps", "0"],
            ["bench-transport", "--m", "1"],
            ["stability", "--kappa", "0.5"],
            ["mean-gap", "--trials", "0"],
            ["mean", "--n", "0"],
            ["mean", "--m", "-1"],
            ["mean", "--m", "0"],
            ["mean-gap", "--m", "-1"],
            ["mean-gap", "--n", "0"],
            ["stability", "--m", "-1"],
            ["stability", "--m", "0"],
            ["stability", "--kappa", "nan"],
            ["stability", "--kappa", "inf"],
            ["stability", "--seed", "-1"],
            ["mean-gap", "--seed", "-1", "--trials", "1"],
            ["bench-transport", "--seed", "-1"],
            ["mean", "--seed", "-1"],
            ["wat"],
            [],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv

    def test_numerical_failure_exit_3(self, tmp_path, capsys):
        fx = tmp_path / "bad.txt"
        fx.write_text("2\n1.0 2.0\n2.0 1.0\n")
        assert main(["mean", "--input", str(fx)]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_stability_cli(self, tmp_path):
        out = tmp_path / "stab.json"
        assert main(["stability", "--kappa", "1e10", "--m", "3", "--out", str(out)]) == 0
        rep = ExperimentReport.from_json(out.read_text())
        lc = rep.result("log-cholesky.roundtrip_rel_error").value
        assert lc is not None and lc < 1e-6

    def test_determinism_nontiming_bytes(self, tmp_path):
        outs = []
        for i in range(2):
            out = tmp_path / f"gap{i}.json"
            rc = main(
                ["mean-gap", "--n", "5", "--m", "2", "--trials", "3",
                 "--seed", "42", "--out", str(out)]
            )
            assert rc == 0
            outs.append(ExperimentReport.from_json(out.read_text()).nontiming_json())
        assert outs[0] == outs[1]
