import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from support import (
    dump_matrices,
    glyph_from_json,
    mean_gaps_per_trial,
    nontiming_json,
    random_spd_wishart,
    report_from_json,
    result,
    wishart_trials,
)

from logchol import cli
from logchol import experiments as ex
from logchol.baselines import METRIC_NAMES, get_metric
from logchol.cli import main
from logchol.report import ExperimentReport, GlyphRecord, ResultRecord
from logchol.sampling import random_spd_with_condition
from logchol.tri import NotSpdError, SpdMatrix, SymMatrix, _eigh


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
        back = report_from_json(rep.to_json())
        assert back.to_json() == rep.to_json()
        assert result(back, "x").value == 1.5
        assert result(back, "seq").values == [1.0, 2.0]
        with pytest.raises(KeyError):
            result(back, "nope")

    def test_nontiming_json_drops_timings(self):
        rep = self.make_report()
        d = json.loads(nontiming_json(rep))
        assert "timings" not in d
        assert d["schema_version"] == 1

    def test_csv(self):
        text = self.make_report().to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "name,index,value"
        assert lines[1].startswith("x,0,")
        assert lines[2].startswith("seq,0,") and lines[3].startswith("seq,1,")


def copied_json(report: ExperimentReport) -> str:
    """The report's JSON as encoded from a deep copy: ``to_json``'s reference."""
    return json.dumps(dataclasses.asdict(report), sort_keys=True, indent=2)


def experiment(name: str, tmp_path):
    """``(report, glyphs)`` of one experiment, run small."""
    command, _, metric = name.partition(":")
    if command == "interpolate":
        return ex.run_interpolate(metric, 11)
    if command == "mean":
        return ex.run_mean("log-cholesky", None, 4, 3, 0), []
    if command == "mean-input":
        mats = [random_spd_wishart(np.random.default_rng(k), 3).data for k in range(3)]
        dump_matrices(mats, tmp_path / "mats.txt")
        return ex.run_mean(metric, str(tmp_path / "mats.txt"), 3, 3, 0), []
    if command == "stability":
        return ex.run_stability(1e10, 3, 0), []
    if command == "mean-gap":
        return ex.run_mean_gap(4, 2, 3, 0), []
    return ex.run_bench_transport(2, 100, 0), []


EXPERIMENTS = [
    *(f"interpolate:{g}" for g in METRIC_NAMES),
    "mean",
    *(f"mean-input:{g}" for g in METRIC_NAMES),
    "stability",
    "mean-gap",
    "bench-transport",
]


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_to_json_is_the_copied_encoding(name, tmp_path):
    report, glyphs = experiment(name, tmp_path)
    assert bool(report.timings) == (name == "bench-transport")
    assert report.to_json() == copied_json(report)
    for g in glyphs:
        assert g.to_json() == json.dumps(vars(g), sort_keys=True)


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
        assert g.log_determinant == pytest.approx(np.log(np.linalg.det(p)), rel=1e-10)
        back = glyph_from_json(g.to_json())
        assert back == g

    def test_rejects_non_spd(self):
        with pytest.raises(NotSpdError):
            GlyphRecord.from_spd_dense(np.diag([1.0, -1.0]), 0, 0)

    def test_a_stack_has_each_matrix_s_own_glyph(self, rng):
        # The fields of each glyph of a stack, from one stacked eigh, have the
        # bits of the matrix's own dsyevd, its eigenvalues reversed, and the
        # sum of their logs.  The scales reach determinants past the float range.
        for m in (1, 2, 3, 5, 8):
            g = rng.standard_normal((300, m, m))
            a = g @ g.swapaxes(-1, -2) + 1e-3 * np.eye(m)
            a = (a + a.swapaxes(-1, -2)) / 2.0 * np.exp(rng.uniform(-300.0, 300.0, (300, 1, 1)))
            glyphs = GlyphRecord.from_spd_dense(a, 4, 7)
            assert [(g.row, g.col) for g in glyphs] == [(4, 7 + i) for i in range(300)]
            for x, glyph in zip(a, glyphs, strict=True):
                w, u = _eigh(x, "glyph")
                w, u = w[::-1], u[:, ::-1]
                log_det = float(np.log(w).sum())
                with np.errstate(over="ignore", under="ignore"):
                    det = float(np.exp(log_det))
                assert glyph.eigenvalues == w.tolist()
                assert glyph.eigenvectors == u.ravel().tolist()
                assert (glyph.determinant, glyph.log_determinant) == (det, log_det)

    def test_a_stack_names_its_first_matrix_that_is_not_spd(self):
        stack = np.array([np.diag(d) for d in ([1.0, 2.0], [-1.0, 1.0], [-3.0, 1.0])])
        with pytest.raises(NotSpdError, match=r"^glyph undefined: smallest eigenvalue -1\.0$"):
            GlyphRecord.from_spd_dense(stack, 0, 0)
        with pytest.raises(NotSpdError, match=r"smallest eigenvalue -3\.0$"):
            GlyphRecord.from_spd_dense(stack[::-1], 0, 0)

    def test_a_study_names_its_first_glyph_that_is_not_spd(self, monkeypatch, tmp_path):
        # An interpolant whose points are not all positive definite: the study
        # raises the smallest eigenvalue of the first, in grid order.
        points = [SymMatrix(np.diag(d)) for d in ([1.0, 2.0], [-1.0, 1.0], [-3.0, 1.0])]
        ops = get_metric("euclidean")
        monkeypatch.setitem(ex.bl._METRICS, "euclidean",
                            dataclasses.replace(ops, interpolate=lambda p, q, ts: points))
        dump_matrices([np.eye(2), 2.0 * np.eye(2)], tmp_path / "pair.txt")
        with pytest.raises(NotSpdError, match=r"smallest eigenvalue -1\.0$"):
            ex.run_interpolate("euclidean", 3, str(tmp_path / "pair.txt"))


class TestExperiments:
    def test_interpolate_constant_for_equal_endpoints(self, rng, tmp_path):
        a = rng.standard_normal((3, 3))
        p = SpdMatrix.from_dense(a @ a.T + np.eye(3))
        dump_matrices([p.data, p.data], tmp_path / "pair.txt")
        rep, glyphs = ex.run_interpolate("euclidean", 5, str(tmp_path / "pair.txt"))
        dets = result(rep, "det_sequence").values
        assert np.allclose(dets, dets[0])
        assert len(glyphs) == 5

    @pytest.mark.parametrize("name", METRIC_NAMES)
    def test_det_sequence_is_the_glyph_determinants(self, name):
        rep, glyphs = ex.run_interpolate(name, 101)
        assert result(rep, "det_sequence").values == [g.determinant for g in glyphs]

    @pytest.mark.parametrize("name", METRIC_NAMES)
    def test_glyph_eigenvectors_are_orthonormal(self, name):
        _, glyphs = ex.run_interpolate(name, 101)
        for g in glyphs:
            m = len(g.eigenvalues)
            u = np.array(g.eigenvectors).reshape(m, m)
            assert np.abs(u.T @ u - np.eye(m)).max() <= 1e-12

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

    def test_bench_transport_reports_per_call_medians(self):
        rep = ex.run_bench_transport(2, 100, 0)
        assert rep.environment == {"dim": 2, "reps": 100}
        assert set(rep.timings) == {f"{n}_ns" for n in ex.BENCH_METRICS} | {
            "ratio_le_lc", "ratio_ai_lc"}
        assert not hasattr(ex, "BENCH_WARMUP") and not hasattr(ex, "BENCH_BATCHES")

    def test_mean_gap_trivial_cases(self, rng, tmp_path):
        rep = ex.run_mean_gap(1, 3, 3, 0)
        assert result(rep, "mean_gap").value == pytest.approx(0.0, abs=1e-12)
        a = rng.standard_normal((3, 3))
        p = SpdMatrix.from_dense(a @ a.T + np.eye(3))
        dump_matrices([p.data], tmp_path / "one.txt")
        rep = ex.run_mean("log-cholesky", str(tmp_path / "one.txt"), 1, 3, 0)
        assert result(rep, "det_gap_rel").value == pytest.approx(0.0, abs=1e-12)

    def test_mean_determinants_are_the_per_matrix_values(self, rng, tmp_path):
        mats = [random_spd_wishart(rng, 5) for _ in range(200)]
        dump_matrices([m.data for m in mats], tmp_path / "mats.txt")
        rep = ex.run_mean("log-cholesky", str(tmp_path / "mats.txt"), 200, 5, 0)
        dets = np.array([np.linalg.det(m.data) for m in mats])
        det_mean = result(rep, "det_mean").value
        assert result(rep, "det_geometric_mean").value == float(np.exp(np.mean(np.log(dets))))
        assert result(rep, "det_within_bounds").value == bool(
            dets.min() * (1.0 - 1e-12) <= det_mean <= dets.max() * (1.0 + 1e-12)
        )

    def test_determinant_law_needs_positive_determinants(self):
        p = SpdMatrix.from_dense(np.eye(2))
        with pytest.raises(NotSpdError):
            ex._det_law(SymMatrix(np.diag([1.0, -1.0])), [p, p])

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
        assert result(rep, f"{name}.roundtrip_rel_error").value == float(err)

    def test_stability_well_conditioned(self):
        rep = ex.run_stability(1.0, 3, 0)
        for name in rep.metrics:
            err = result(rep, f"{name}.roundtrip_rel_error").value
            assert err is not None and err < 1e-12
            assert result(rep, f"{name}.mean_success").value is True


class TestCli:
    def test_module_runs_as_a_program(self, tmp_path):
        # The package's own source directory first, so the run imports this tree.
        path = [str(Path(ex.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}

        def run(*args):
            return subprocess.run([sys.executable, "-m", "logchol.cli", *args], env=env,
                                  capture_output=True, text=True, timeout=300)

        out = tmp_path / "stability.json"
        proc = run("stability", "--kappa", "1e5", "--m", "2", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert report_from_json(out.read_text()).experiment == "stability"
        bad = tmp_path / "not-spd.txt"
        bad.write_text("2\n1 2\n2 1\n")
        proc = run("mean", "--input", str(bad), "--out", str(tmp_path / "mean.json"))
        assert proc.returncode == 3 and "numerical failure" in proc.stderr

    def test_one_parser_serves_a_sequence_of_calls(self, tmp_path, monkeypatch, capsys):
        # main builds its parser once per process; each call of a sequence run
        # in one process prints, writes and exits as the same argv run as a
        # program does, usage and numerical failures included.
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to it
        path = [str(Path(ex.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        here, there = tmp_path / "here", tmp_path / "there"
        here.mkdir()
        there.mkdir()
        monkeypatch.chdir(here)
        build_parser, built = cli.build_parser, []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        cli._parser.cache_clear()
        codes = []
        for argv in (
            ["interpolate", "--format", "csv", "--out", "rep.csv"],
            ["mean", "--metric", "cholesky"],
            ["interpolate", "--metric", "riemann"],
            ["stability", "--kappa", "1e17"],
            ["interpolate"],
        ):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            proc = subprocess.run([sys.executable, "-m", "logchol.cli", *argv], cwd=there,
                                  env=env, capture_output=True, timeout=300)
            assert (code, out.encode(), err.encode()) == (
                proc.returncode, proc.stdout, proc.stderr), argv
            codes.append(code)
        assert codes == [0, 0, 2, 3, 0]
        assert len(built) == 1
        written = sorted(f.name for f in here.iterdir())
        assert written == ["rep.csv", "rep.csv.glyphs.jsonl"]
        assert written == sorted(f.name for f in there.iterdir())
        for name in written:
            assert (here / name).read_bytes() == (there / name).read_bytes(), name

    def test_interpolate_stdout_json(self, capsys):
        assert main(["interpolate", "--metric", "log-cholesky", "--steps", "3"]) == 0
        out = capsys.readouterr().out
        report_text, _, glyph_text = out.partition("\n{\"col\"")
        rep = report_from_json(report_text)
        assert rep.experiment == "interpolate"
        assert len(result(rep, "det_sequence").values) == 3
        glyphs = [glyph_from_json(ln) for ln in ("{\"col\"" + glyph_text).splitlines() if ln]
        assert len(glyphs) == 3
        for g in glyphs:
            assert all(w > 0 for w in g.eigenvalues)

    def test_interpolate_out_files(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["interpolate", "--steps", "4", "--out", str(out)]) == 0
        rep = report_from_json(out.read_text())
        assert len(result(rep, "t_grid").values) == 4
        lines = (tmp_path / "rep.json.glyphs.jsonl").read_text().splitlines()
        assert len(lines) == 4

    def test_interpolate_csv_out_files(self, tmp_path):
        out = tmp_path / "rep.csv"
        assert main(["interpolate", "--steps", "3", "--format", "csv", "--out", str(out)]) == 0
        assert out.read_text().startswith("name,index,value\nt_grid,0,")
        lines = (tmp_path / "rep.csv.glyphs.jsonl").read_text().splitlines()
        assert [glyph_from_json(ln).col for ln in lines] == [0, 1, 2]

    def test_interpolate_with_fixture(self, tmp_path, rng):
        fx = tmp_path / "endpoints.txt"
        a = rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2))
        dump_matrices([a @ a.T + np.eye(2), b @ b.T + np.eye(2)], fx)
        out = tmp_path / "rep.json"
        rc = main(["interpolate", "--input", str(fx), "--out", str(out)])
        assert rc == 0
        rep = report_from_json(out.read_text())
        assert rep.inputs["fixture"] == str(fx)

    def test_interpolate_log_determinants_beyond_the_float_range(self, tmp_path):
        # det(1e-70 I_5) = 1e-350 underflows and det(1e200 I_3) overflows; the
        # log-determinants, read from the glyph eigenvalues, hold in both.
        fx = tmp_path / "endpoints.txt"
        out = tmp_path / "rep.json"
        for c, m in ((1e-70, 5), (1e200, 3)):
            dump_matrices([c * np.eye(m), 2.0 * c * np.eye(m)], fx)
            argv = ["interpolate", "--metric", "log-cholesky", "--input", str(fx)]
            assert main([*argv, "--out", str(out)]) == 0, c
            rep = report_from_json(out.read_text())
            ts = np.array(result(rep, "t_grid").values)
            log_dets = result(rep, "log_det_sequence").values
            np.testing.assert_allclose(
                result(rep, "endpoint_log_dets").values,
                [m * np.log(c), m * np.log(2.0 * c)],
                rtol=1e-12,
            )
            np.testing.assert_allclose(log_dets, m * (np.log(c) + ts * np.log(2.0)), rtol=1e-12)
            lines = (tmp_path / "rep.json.glyphs.jsonl").read_text().splitlines()
            glyphs = [glyph_from_json(ln) for ln in lines]
            assert [g.log_determinant for g in glyphs] == log_dets
            assert [g.determinant for g in glyphs] == result(rep, "det_sequence").values

    def test_interpolate_fixture_needs_exactly_two_matrices(self, tmp_path):
        fx = tmp_path / "endpoints.txt"
        for count in (1, 3):
            dump_matrices([np.eye(2) * (k + 1) for k in range(count)], fx)
            with pytest.raises(SystemExit) as exc:
                main(["interpolate", "--input", str(fx)])
            assert exc.value.code == 2, count

    def test_mean_fixture_with_no_matrices_exits_2(self, tmp_path, capsys):
        fx = tmp_path / "empty.txt"
        for text in ("", "\n\n  \n"):
            fx.write_text(text)
            with pytest.raises(SystemExit) as exc:
                main(["mean", "--input", str(fx)])
            assert exc.value.code == 2, repr(text)
            assert "--input fixture contains no matrices" in capsys.readouterr().err

    def test_mean_csv_format(self, capsys):
        assert main(["mean", "--n", "4", "--m", "2", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("name,index,value")

    def test_mean_with_fixture(self, tmp_path, capsys):
        fx = tmp_path / "mats.txt"
        dump_matrices([np.eye(2), np.diag([np.e**2, np.e**2])], fx)
        assert main(["mean", "--input", str(fx)]) == 0
        rep = report_from_json(capsys.readouterr().out)
        assert result(rep, "det_mean").value == pytest.approx(np.e**2, rel=1e-10)

    def test_determinant_law_beyond_the_float_range(self, tmp_path, capsys):
        # det(1e-70 I_5) = 1e-350 underflows and det(1e70 I_5) overflows;
        # the law is worked in log-determinants, so neither breaks it.
        fx = tmp_path / "mats.txt"
        for scale in (1e-70, 1e70):
            dump_matrices([scale * np.eye(5), 2.0 * scale * np.eye(5)], fx)
            assert main(["mean", "--input", str(fx)]) == 0, scale
            rep = report_from_json(capsys.readouterr().out)
            assert result(rep, "det_gap_rel").value <= 1e-12, scale
            assert result(rep, "det_within_bounds").value is True, scale
        assert main(["stability", "--m", "50", "--kappa", "1e15"]) == 0
        rep = report_from_json(capsys.readouterr().out)
        assert result(rep, "log-cholesky.mean_success").value is True

    def test_mean_of_one_matrix_is_within_bounds(self, capsys):
        # Determinants far from 1: the bound must scale with them.
        for seed in ("1", "2", "3"):
            assert main(["mean", "--n", "1", "--m", "8", "--seed", seed]) == 0
            rep = report_from_json(capsys.readouterr().out)
            assert result(rep, "det_within_bounds").value is True, seed

    def test_mean_mixed_sizes_exit_3(self, tmp_path, capsys):
        fx = tmp_path / "mixed.txt"
        dump_matrices([np.eye(2), np.eye(3)], fx)
        for metric in METRIC_NAMES:
            assert main(["mean", "--metric", metric, "--input", str(fx)]) == 3, metric
            assert "numerical failure" in capsys.readouterr().err

    def test_usage_errors_exit_2(self, tmp_path):
        for argv in (
            ["mean", "--input", str(tmp_path / "missing.txt")],
            ["interpolate", "--input", str(tmp_path)],
            ["stability", "--out", str(tmp_path / "missing" / "rep.json")],
            ["interpolate", "--steps", "1"],
            ["interpolate", "--metric", "riemann"],
            ["interpolate", "--format", "csv"],
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
        for data in (
            b"2\n1.0 2.0\n2.0 1.0\n",  # not SPD
            b"2\n1.0 0.0\n0 x\n",  # not a number
            b"\xff\xfe2\n1.0 0.0\n0.0 1.0\n",  # not UTF-8
        ):
            fx.write_bytes(data)
            for command in ("mean", "interpolate"):
                assert main([command, "--input", str(fx)]) == 3, (command, data)
                assert "numerical failure" in capsys.readouterr().err

    def test_stability_samples_that_do_not_factor_exit_3(self, capsys):
        # At kappa 1e17 the computed R diag(d) R^T of most m = 3 draws is not
        # positive definite (5 of the 6 at seed 0): the sampler rejects it,
        # so no geometry is reported as failing on it.
        assert main(["stability", "--kappa", "1e17"]) == 3
        assert "Cholesky factorization failed" in capsys.readouterr().err

    def test_stability_cli(self, tmp_path):
        out = tmp_path / "stab.json"
        assert main(["stability", "--kappa", "1e10", "--m", "3", "--out", str(out)]) == 0
        rep = report_from_json(out.read_text())
        lc = result(rep, "log-cholesky.roundtrip_rel_error").value
        assert lc is not None and lc < 1e-6

    def test_mean_gap_counts_any_library_failure(self, tmp_path, monkeypatch):
        # With the Karcher budget cut, some trials' own means run out of steps
        # and raise: each counts in failed_trials, and the run keeps the other
        # trials' gaps, bit for bit.
        monkeypatch.setattr(ex.bl, "KARCHER_MAX_ITER", 12)
        gaps = mean_gaps_per_trial(wishart_trials(5, 3, 12, 0))
        failed = sum(g is None for g in gaps)
        assert 0 < failed < len(gaps)
        out = tmp_path / "gap.json"
        args = ["mean-gap", "--n", "5", "--m", "3", "--trials", "12", "--out", str(out)]
        assert main(args) == 0
        rep = report_from_json(out.read_text())
        assert result(rep, "failed_trials").value == failed
        assert result(rep, "per_trial_gap").values == [g for g in gaps if g is not None]

    def test_mean_gap_is_its_per_trial_composition(self):
        # The stacked draw and the stacked Karcher iteration give each trial
        # the bits of drawing it, and taking its means, on its own.
        rep = ex.run_mean_gap(20, 3, 100, 0)
        gaps = mean_gaps_per_trial(wishart_trials(20, 3, 100, 0))
        assert result(rep, "per_trial_gap").values == gaps
        assert result(rep, "failed_trials").value == 0.0
        assert result(rep, "mean_gap").value == float(np.mean(gaps))

    def test_determinism_nontiming_bytes(self, tmp_path):
        outs = []
        for i in range(2):
            out = tmp_path / f"gap{i}.json"
            rc = main(
                ["mean-gap", "--n", "5", "--m", "2", "--trials", "3",
                 "--seed", "42", "--out", str(out)]
            )
            assert rc == 0
            outs.append(nontiming_json(report_from_json(out.read_text())))
        assert outs[0] == outs[1]
