import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import karcher_mean_per_member

from logchol import baselines as bl
from logchol.sampling import random_spd, random_spd_wishart, random_sym
from logchol.spd_manifold import log_cholesky_mean
from logchol.tri import (
    DomainError,
    EmptyInputError,
    LowerTriangular,
    NoConvergenceError,
    NotSpdError,
    SpdMatrix,
    SymMatrix,
)


def spd(dense):
    return SpdMatrix.from_dense(np.asarray(dense, dtype=float))


def sym(dense):
    return SymMatrix.from_dense(np.asarray(dense, dtype=float))


EPS = 0.1
# swelling counterexample endpoints: factors diag(eps, 1) and diag(1, eps)
P1 = spd(np.diag([EPS**2, 1.0]))
P2 = spd(np.diag([1.0, EPS**2]))


class TestEuclidean:
    def test_interpolate_fixed_point(self, rng):
        p = random_spd(rng, 3)
        assert_allclose(
            bl.euclid_interpolate(p, p, 0.5).dense(), p.dense(), atol=0
        )

    def test_counterexample_midpoint(self):
        mid = bl.euclid_interpolate(P1, P2, 0.5)
        assert_allclose(mid.dense(), np.diag([0.505, 0.505]), atol=0)

    def test_mean_swells_on_interpolation_fixture(self):
        from logchol.experiments import interpolation_endpoints

        p, q = interpolation_endpoints()
        mean = bl.euclid_mean([p, q])
        dets = [np.linalg.det(p.dense()), np.linalg.det(q.dense())]
        assert np.linalg.det(mean.dense()) > max(dets)

    def test_dist_and_exp_log(self, rng):
        p = random_spd(rng, 3)
        q = random_spd(rng, 3)
        assert bl.euclid_dist(p, q) == pytest.approx(
            np.linalg.norm(p.dense() - q.dense()), abs=0
        )
        back = bl.euclid_exp(p, bl.euclid_log(p, q))
        assert_allclose(back.dense(), q.dense(), atol=1e-14)

    def test_empty_mean(self):
        with pytest.raises(EmptyInputError):
            bl.euclid_mean([])


class TestCholeskyDistance:
    def test_counterexample_midpoint_determinant(self):
        mid = bl.cholesky_interpolate(P1, P2, 0.5)
        expected = (1.0 + EPS) ** 4 / 16.0
        assert np.linalg.det(mid.dense()) == pytest.approx(expected, abs=1e-12)
        assert np.linalg.det(mid.dense()) > EPS**2  # exceeds both endpoint dets

    def test_endpoint_exact(self, rng):
        p = random_spd(rng, 3)
        q = random_spd(rng, 3)
        assert_allclose(bl.cholesky_interpolate(p, q, 0.0).dense(), p.dense(), rtol=1e-13)

    def test_distance_is_factor_gap(self):
        # factors diag(eps, 1) and diag(1, eps)
        expected = np.sqrt(2.0) * (1.0 - EPS)
        assert bl.cholesky_distance(P1, P2) == pytest.approx(expected, rel=1e-14)

    def test_exp_log_roundtrip(self, rng):
        p = random_spd(rng, 3)
        q = random_spd(rng, 3)
        gap = bl.cholesky_log(p, q)
        assert isinstance(gap, LowerTriangular)
        back = bl.cholesky_exp(p, gap)
        assert_allclose(back.dense(), q.dense(), rtol=1e-12)

    def test_mean_matches_two_point_interpolation(self, rng):
        p = random_spd(rng, 3)
        q = random_spd(rng, 3)
        assert_allclose(
            bl.cholesky_mean([p, q]).dense(),
            bl.cholesky_interpolate(p, q, 0.5).dense(),
            rtol=1e-13,
        )


class TestLogEuclidean:
    def test_dist_self_zero(self, rng):
        p = random_spd(rng, 3)
        assert bl.logeuclid_dist(p, p) == 0.0

    def test_mean_commuting_pair(self):
        e2 = np.e**2
        out = bl.logeuclid_mean([spd(np.eye(2)), spd(np.diag([e2, e2]))])
        assert_allclose(out.dense(), np.diag([np.e, np.e]), rtol=1e-14)

    def test_mean_det_matches_log_cholesky_mean_det(self, rng):
        for _ in range(10):
            ps = [random_spd(rng, 4) for _ in range(5)]
            le = np.linalg.det(bl.logeuclid_mean(ps).dense())
            lc = np.linalg.det(log_cholesky_mean(ps).dense())
            assert le == pytest.approx(lc, rel=1e-10)

    def test_interpolation_endpoints(self, rng):
        p = random_spd(rng, 3)
        q = random_spd(rng, 3)
        for t, ref in ((0.0, p), (1.0, q)):
            out = bl.logeuclid_interpolate(p, q, t)
            rel = np.linalg.norm(out.dense() - ref.dense()) / np.linalg.norm(ref.dense())
            assert rel < 1e-12

    def test_exp_log_inverse_pair(self, rng):
        # well-conditioned inputs so the series route reaches its tolerance
        for _ in range(5):
            p = random_spd(rng, 3, jitter=1.0)
            q = random_spd(rng, 3, jitter=1.0)
            back = bl.logeuclid_exp(p, bl.logeuclid_log(p, q))
            rel = np.linalg.norm(back.dense() - q.dense()) / np.linalg.norm(q.dense())
            assert rel < 1e-9

    def test_transport_preserves_log_euclidean_inner(self, rng):
        # inner product of the flattened tangents; use well-conditioned
        # inputs so the series route converges to its tolerance
        for _ in range(5):
            p = random_spd(rng, 3, jitter=1.0)
            q = random_spd(rng, 3, jitter=1.0)
            w = random_sym(rng, 3, scale=0.3)
            v = random_sym(rng, 3, scale=0.3)
            before = np.sum(
                bl.dlog_spd(p.dense(), w.dense()) * bl.dlog_spd(p.dense(), v.dense())
            )
            tw = bl.logeuclid_transport(p, q, w)
            tv = bl.logeuclid_transport(p, q, v)
            after = np.sum(
                bl.dlog_spd(q.dense(), tw.dense()) * bl.dlog_spd(q.dense(), tv.dense())
            )
            assert after == pytest.approx(before, rel=1e-8, abs=1e-10)

    def test_dexp_dlog_are_mutually_inverse(self, rng):
        p = random_spd(rng, 3, jitter=1.0)
        w = random_sym(rng, 3, scale=0.3)
        s = bl.spd_logm(p.dense())
        back = bl.dexp_sym(s, bl.dlog_spd(p.dense(), w.dense()))
        assert_allclose(back, w.dense(), rtol=1e-10, atol=1e-12)

    def test_dexp_finite_difference(self, rng):
        h = 1e-6
        s = random_sym(rng, 3, scale=0.5).dense()
        d = random_sym(rng, 3, scale=0.5).dense()
        fd = (bl.sym_expm(s + h * d) - bl.sym_expm(s - h * d)) / (2 * h)
        assert_allclose(bl.dexp_sym(s, d), fd, rtol=1e-6, atol=1e-8)

    def test_logm_expm_examples(self, rng):
        p = random_spd(rng, 4)
        assert_allclose(bl.sym_expm(bl.spd_logm(p.dense())), p.dense(), rtol=1e-12)
        with pytest.raises(NotSpdError):
            bl.spd_logm(np.diag([1.0, -1.0]))

    def test_matrix_functions_on_stacks(self, rng):
        ps = np.stack([random_spd(rng, 4).data for _ in range(6)])
        logs = bl.spd_logm(ps)
        for p, lg in zip(ps, logs):
            assert_allclose(lg, bl.spd_logm(p), rtol=1e-14, atol=1e-14 * np.abs(lg).max())
        exps = bl.sym_expm(logs)
        for lg, ex in zip(logs, exps):
            assert_allclose(ex, bl.sym_expm(lg), rtol=1e-14, atol=1e-14 * np.abs(ex).max())
        ps[3] = np.diag([1.0, 2.0, -1.0, 3.0])
        with pytest.raises(NotSpdError):
            bl.spd_logm(ps)


class TestAffineInvariant:
    def test_dist_self_zero(self, rng):
        p = random_spd(rng, 3)
        assert bl.affine_dist(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_mean_commuting_pair(self):
        e2 = np.e**2
        out = bl.affine_karcher_mean([spd(np.eye(2)), spd(np.diag([e2, e2]))])
        assert_allclose(out.dense(), np.diag([np.e, np.e]), rtol=1e-10)

    def test_mean_det_is_geometric_mean(self, rng):
        for _ in range(5):
            ps = [random_spd(rng, 3) for _ in range(5)]
            mean = bl.affine_karcher_mean(ps)
            geo = np.exp(np.mean([np.log(np.linalg.det(p.dense())) for p in ps]))
            assert np.linalg.det(mean.dense()) == pytest.approx(geo, rel=1e-8)

    def test_karcher_two_points_is_midpoint(self, rng):
        for _ in range(5):
            p = random_spd(rng, 3)
            q = random_spd(rng, 3)
            mean = bl.affine_karcher_mean([p, q])
            mid = bl.affine_interpolate(p, q, 0.5)
            assert_allclose(mean.dense(), mid.dense(), rtol=1e-10)

    def test_karcher_matches_per_member_reference(self):
        rng = np.random.default_rng(7)
        for n, m in ((2, 2), (3, 6), (5, 3), (7, 4), (10, 5), (4, 2), (10, 6), (6, 3)):
            ps = [random_spd_wishart(rng, m) for _ in range(n)]
            mean = bl.affine_karcher_mean(ps).data
            ref = karcher_mean_per_member(ps).data
            assert np.linalg.norm(mean - ref) <= 1e-10 * np.linalg.norm(ref), (n, m)

    def test_karcher_budget_exhausted_raises(self, rng, monkeypatch):
        monkeypatch.setattr(bl, "KARCHER_MAX_ITER", 1)
        with pytest.raises(NoConvergenceError):
            bl.affine_karcher_mean([random_spd(rng, 3), random_spd(rng, 3)])

    def test_interpolation_endpoints(self, rng):
        p = random_spd(rng, 3)
        q = random_spd(rng, 3)
        for t, ref in ((0.0, p), (1.0, q)):
            out = bl.affine_interpolate(p, q, t)
            rel = np.linalg.norm(out.dense() - ref.dense()) / np.linalg.norm(ref.dense())
            assert rel < 1e-12

    def test_exp_log_inverse_pair(self, rng):
        p = random_spd(rng, 4)
        q = random_spd(rng, 4)
        back = bl.affine_exp(p, bl.affine_log(p, q))
        rel = np.linalg.norm(back.dense() - q.dense()) / np.linalg.norm(q.dense())
        assert rel < 1e-11

    def test_transport_preserves_inner_product(self, rng):
        for _ in range(10):
            p = random_spd(rng, 3)
            q = random_spd(rng, 3)
            w = random_sym(rng, 3)
            v = random_sym(rng, 3)
            before = bl.affine_inner(p, w, v)
            after = bl.affine_inner(
                q, bl.affine_transport(p, q, w), bl.affine_transport(p, q, v)
            )
            assert after == pytest.approx(before, rel=1e-10, abs=1e-12)

    def test_dist_congruence_invariance(self, rng):
        # the defining property of this baseline metric
        p = random_spd(rng, 3)
        q = random_spd(rng, 3)
        a = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        pc = SpdMatrix.from_dense(a @ p.dense() @ a.T)
        qc = SpdMatrix.from_dense(a @ q.dense() @ a.T)
        assert bl.affine_dist(pc, qc) == pytest.approx(bl.affine_dist(p, q), rel=1e-9)


class TestSharedStructure:
    @pytest.mark.parametrize("name", bl.METRIC_NAMES)
    def test_mean_entry_checks(self, name):
        mean = bl.get_metric(name).mean
        with pytest.raises(DomainError):
            mean([spd(np.eye(2)), spd(np.eye(3))])
        with pytest.raises(EmptyInputError):
            mean([])

    def test_all_interpolations_endpoint_exact(self, rng):
        p = random_spd(rng, 3)
        q = random_spd(rng, 3)
        for name in bl.METRIC_NAMES:
            ops = bl.get_metric(name)
            for t, ref in ((0.0, p), (1.0, q)):
                out = ops.interpolate(p, q, t)
                rel = np.linalg.norm(out.dense() - ref.dense()) / np.linalg.norm(
                    ref.dense()
                )
                assert rel < 1e-12, name

    def test_riemannian_det_sequences_agree(self, rng):
        p = random_spd(rng, 3)
        q = random_spd(rng, 3)
        ts = np.linspace(0, 1, 6)
        seqs = {}
        for name in ("log-cholesky", "log-euclidean", "affine-invariant"):
            ops = bl.get_metric(name)
            seqs[name] = [
                np.linalg.det(ops.interpolate(p, q, float(t)).dense()) for t in ts
            ]
        ref = seqs["log-cholesky"]
        for name in ("log-euclidean", "affine-invariant"):
            assert_allclose(seqs[name], ref, rtol=1e-8)

    def test_registry(self):
        assert set(bl.METRIC_NAMES) == {
            "euclidean",
            "cholesky",
            "log-euclidean",
            "affine-invariant",
            "log-cholesky",
        }
        for name in bl.METRIC_NAMES:
            ops = bl.get_metric(name)
            assert ops.name == name
        with pytest.raises(DomainError):
            bl.get_metric("riemann")
        assert bl.get_metric("euclidean").transport is None
        assert bl.get_metric("log-cholesky").transport is not None


P3 = spd(2.0 * np.eye(3))
DIM_CASES = [
    (metric, op)
    for metric in bl.METRIC_NAMES
    for op in ("exp", "log", "transport_q", "transport_w")
    if not op.startswith("transport") or bl.get_metric(metric).transport is not None
]


@pytest.mark.parametrize("metric, op", DIM_CASES)
def test_ops_check_dimensions(metric, op):
    # A 3x3 base point with one 1x1 operand of the type the op expects.
    ops = bl.get_metric(metric)
    p1 = SpdMatrix(np.eye(1))
    w1 = LowerTriangular(np.eye(1)) if metric == "cholesky" else SymMatrix(np.full((1, 1), 0.5))
    calls = {
        "exp": lambda: ops.exp(P3, w1),
        "log": lambda: ops.log(P3, p1),
        "transport_q": lambda: ops.transport(P3, p1, SymMatrix(np.eye(3))),
        "transport_w": lambda: ops.transport(P3, P3, w1),
    }
    with pytest.raises(DomainError, match="dimension mismatch"):
        calls[op]()


def test_affine_inner_checks_dimensions():
    w3, w1 = SymMatrix(np.eye(3)), SymMatrix(np.eye(1))
    with pytest.raises(DomainError, match="dimension mismatch"):
        bl.affine_inner(P3, w3, w1)
    with pytest.raises(DomainError, match="dimension mismatch"):
        bl.affine_inner(P3, w1, w3)
