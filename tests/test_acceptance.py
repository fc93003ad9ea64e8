"""End-to-end acceptance checks.

Each test exercises one headline claim at its stated tolerance and prints a
single pass line (visible in the live pytest output); a failing assertion is
the corresponding fail line.
"""
import time

import numpy as np
import pytest

from oracles import central_difference_diff_S, descent_mean_spd
from support import nontiming_json, random_factor, random_tangent, report_from_json, result

from logchol import baselines as bl
from logchol import chol_manifold as cm
from logchol import experiments as ex
from logchol.chol_map import diff_S
from logchol.cli import main
from logchol.sampling import random_spd, random_sym
from logchol.spd_manifold import (
    dist_spd,
    log_cholesky_mean,
    metric_spd,
    transport_spd,
)
from logchol.tri import SpdMatrix

REFERENCE_DET_SEQUENCE = [
    5.40, 5.50, 5.60, 5.70, 5.80, 5.91, 6.01, 6.12, 6.23, 6.34, 6.46,
]


def report(capsys, line):
    with capsys.disabled():
        print(line)


def test_01_swelling_counterexample_golden(capsys):
    eps = 0.1
    p1 = SpdMatrix.from_dense(np.diag([eps**2, 1.0]))
    p2 = SpdMatrix.from_dense(np.diag([1.0, eps**2]))
    interpolate = bl.get_metric("cholesky").interpolate
    interpolate(p1, p2, [0.5])  # warm-up
    t0 = time.perf_counter()
    [mid] = interpolate(p1, p2, [0.5])
    det = np.linalg.det(mid.dense())
    elapsed = time.perf_counter() - t0
    expected = (1.0 + eps) ** 4 / 16.0
    assert abs(det - expected) <= 1e-12
    max_endpoint_det = max(np.linalg.det(p1.dense()), np.linalg.det(p2.dense()))
    assert max_endpoint_det == pytest.approx(0.01, rel=1e-12)
    assert det > max_endpoint_det
    assert elapsed < 1e-3
    report(capsys, f"acceptance 01 swelling counterexample: pass "
                   f"(det {det:.8f}, {elapsed * 1e6:.0f} us)")


def test_02_interpolation_det_sequence(capsys):
    for name in ("log-cholesky", "log-euclidean", "affine-invariant"):
        rep, _ = ex.run_interpolate(name, 11)
        dets = result(rep, "det_sequence").values
        dev = max(abs(d - r) for d, r in zip(dets, REFERENCE_DET_SEQUENCE))
        assert dev <= 0.005, (name, dev)
    # reference Euclidean/Cholesky sequences are not reproducible without the
    # original endpoints; the qualitative substitute is determinant swelling
    # of the Euclidean midpoint on the shipped fixture
    p, q = ex.interpolation_endpoints()
    [mid] = bl.get_metric("euclidean").interpolate(p, q, [0.5])
    dp, dq = np.linalg.det(p.dense()), np.linalg.det(q.dense())
    dm = np.linalg.det(mid.dense())
    assert dm > dp and dm > dq
    report(capsys, f"acceptance 02 interpolation determinant sequence: pass "
                   f"(euclidean midpoint det {dm:.2f} > {max(dp, dq):.2f})")


def test_03_mean_determinant_law(capsys):
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        m = int(rng.integers(2, 11))
        ps = [random_spd(rng, m) for _ in range(n)]
        mean = log_cholesky_mean(ps)
        dets = [np.linalg.det(p.dense()) for p in ps]
        geo = np.exp(np.mean(np.log(dets)))
        d = np.linalg.det(mean.dense())
        worst = max(worst, abs(d - geo) / geo)
        assert abs(d - geo) / geo <= 1e-10
        # range bounds, slack scaled by the determinant magnitude
        scale = max(1.0, geo)
        assert d - min(dets) >= -1e-12 * scale
        assert max(dets) - d >= -1e-12 * scale
    report(capsys, f"acceptance 03 mean determinant law: pass "
                   f"(worst relative gap {worst:.2e} over 1000 sets)")


def test_04_mean_optimality_oracle(capsys):
    rng = np.random.default_rng(4)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        m = int(rng.integers(2, 6))
        ps = [random_spd(rng, m) for _ in range(n)]
        gap = dist_spd(log_cholesky_mean(ps), descent_mean_spd(ps))
        worst = max(worst, gap)
        assert gap <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(capsys, f"acceptance 04 mean optimality oracle: pass "
                   f"(worst gap {worst:.2e}, {elapsed:.1f} s)")


def test_05_isometry_structure_suite(capsys):
    rng = np.random.default_rng(5)
    dims = [2, 3, 5, 10]
    t0 = time.perf_counter()
    for i in range(500):
        m = dims[i % 4]
        # Exp/Log inversion both ways (1e-12)
        l = random_factor(rng, m)
        k = random_factor(rng, m)
        x = random_tangent(rng, m)
        np.testing.assert_allclose(
            cm.exp_chol(l, cm.log_chol(l, k)).data, k.data, rtol=1e-12, atol=1e-12
        )
        np.testing.assert_allclose(
            cm.log_chol(l, cm.exp_chol(l, x)).data, x.data, rtol=1e-12, atol=1e-12
        )
        # constant-speed distance law (1e-10)
        speed = np.sqrt(cm.metric_chol(l, x, x))
        s, t = rng.uniform(-2, 2, 2)
        d = cm.dist_chol(cm.geodesic_chol(l, x, s), cm.geodesic_chol(l, x, t))
        assert d == pytest.approx(abs(t - s) * speed, rel=1e-10, abs=1e-12)
        # group axioms and bi-invariance (1e-12)
        a = random_factor(rng, m)
        np.testing.assert_allclose(
            cm.group_op(cm.group_op(a, l), k).data,
            cm.group_op(a, cm.group_op(l, k)).data,
            rtol=1e-12, atol=1e-12,
        )
        np.testing.assert_allclose(
            cm.group_op(l, cm.group_inv(l)).dense(), np.eye(m), atol=1e-12
        )
        assert cm.dist_chol(cm.group_op(a, l), cm.group_op(a, k)) == pytest.approx(
            cm.dist_chol(l, k), rel=1e-12
        )
        # transport metric preservation and path independence (1e-12)
        p, q, r = (random_spd(rng, m) for _ in range(3))
        w, v = random_sym(rng, m), random_sym(rng, m)
        assert metric_spd(
            q, transport_spd(p, q, w), transport_spd(p, q, v)
        ) == pytest.approx(metric_spd(p, w, v), rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(
            transport_spd(q, r, transport_spd(p, q, w)).dense(),
            transport_spd(p, r, w).dense(),
            rtol=1e-12, atol=1e-12,
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(capsys, f"acceptance 05 isometry/structure suite: pass "
                   f"(500 cases, {elapsed:.1f} s)")


def test_06_differential_finite_difference(capsys):
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 7))
        l = random_factor(rng, m)
        x = random_tangent(rng, m)
        fd = central_difference_diff_S(l, x, h=1e-6)
        exact = diff_S(l, x).dense()
        rel = np.linalg.norm(fd - exact) / max(1.0, np.linalg.norm(exact))
        worst = max(worst, rel)
        assert rel <= 1e-6
    report(capsys, f"acceptance 06 differential finite differences: pass "
                   f"(worst relative error {worst:.2e})")


def test_07_transport_timing_ordering(capsys):
    rep = ex.run_bench_transport(5, 1000, 0)
    lc = rep.timings["log-cholesky_ns"]
    ai = rep.timings["affine-invariant_ns"]
    le = rep.timings["log-euclidean_ns"]
    assert lc < ai < le
    assert rep.timings["ratio_le_lc"] > 5.0
    assert rep.timings["ratio_ai_lc"] > 1.0
    report(capsys, f"acceptance 07 transport timing ordering: pass "
                   f"(LE/LC {rep.timings['ratio_le_lc']:.1f}x, "
                   f"AI/LC {rep.timings['ratio_ai_lc']:.2f}x)")


def test_08_stability_under_ill_conditioning(capsys):
    rep10 = ex.run_stability(1e10, 3, 8)
    lc10 = result(rep10, "log-cholesky.roundtrip_rel_error").value
    assert lc10 is not None and lc10 < 1e-6
    rep15 = ex.run_stability(1e15, 3, 8)
    lc15 = result(rep15, "log-cholesky.roundtrip_rel_error").value
    assert lc15 is not None and lc15 < 1e-2
    # the Log-Euclidean behavior is recorded and reported, not asserted
    le15 = result(rep15, "log-euclidean.roundtrip_rel_error")
    le_desc = f"{le15.value:.2e}" if le15.value is not None else le15.note
    report(capsys, f"acceptance 08 ill-conditioning stability: pass "
                   f"(LC {lc10:.1e} at 1e10, {lc15:.1e} at 1e15; LE at 1e15: {le_desc})")


def test_09_mean_gap_statistic(capsys):
    rep = ex.run_mean_gap(20, 3, 100, 0)
    gap = result(rep, "mean_gap").value
    assert gap is not None
    assert 0.005 <= gap <= 0.2
    report(capsys, f"acceptance 09 mean gap statistic: pass (gap {gap:.4f})")


def test_10_cli_determinism(capsys, tmp_path):
    argvs = [
        ["interpolate", "--metric", "log-cholesky", "--steps", "11"],
        ["mean-gap", "--n", "5", "--m", "3", "--trials", "5", "--seed", "7"],
        ["stability", "--kappa", "1e10", "--m", "3", "--seed", "1"],
    ]
    for argv in argvs:
        texts = []
        for i in range(2):
            out = tmp_path / f"run{i}.json"
            assert main(argv + ["--out", str(out)]) == 0
            texts.append(nontiming_json(report_from_json(out.read_text())))
        assert texts[0] == texts[1], argv
    report(capsys, "acceptance 10 CLI determinism: pass "
                   "(byte-identical non-timing reports)")
