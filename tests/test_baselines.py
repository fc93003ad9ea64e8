import functools
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import expm_frechet

from oracles import (
    affine_exp_mp,
    affine_geodesic_mp,
    affine_inner,
    affine_mp,
    distances_mp,
    karcher_mean_per_member,
    logeuclid_mean_mp,
    logeuclid_mp,
)
from support import random_spd_wishart, rotated

from logchol import baselines as bl
from logchol import chol_manifold as cm
from logchol import spd_manifold as lc
from logchol import tri
from logchol.chol_map import cholesky_factor, reconstruct
from logchol.sampling import (
    random_spd,
    random_spd_with_condition,
    random_sym,
    random_wishart_stack,
)
from logchol.spd_manifold import log_cholesky_mean
from logchol.tri import (
    CholeskyFactor,
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


def expm(a):
    """``e^a`` of a symmetric matrix or stack, as the Gram product of the
    factor kernel ``U e^{Lambda/2}``."""
    k = bl._exp_factor(a)
    return k @ k.swapaxes(-1, -2)


EUCLID, CHOL, LOGEUCLID = map(bl.get_metric, ("euclidean", "cholesky", "log-euclidean"))


def well_conditioned_spd(rng, m):
    """``A A^T + I`` with ``A`` standard normal."""
    a = rng.standard_normal((m, m))
    return spd(a @ a.T + np.eye(m))


EPS = 0.1
# swelling counterexample endpoints: factors diag(eps, 1) and diag(1, eps)
P1 = spd(np.diag([EPS**2, 1.0]))
P2 = spd(np.diag([1.0, EPS**2]))


class TestEuclidean:
    def test_interpolate_fixed_point(self, rng):
        p = random_spd(rng, 3)
        [mid] = EUCLID.interpolate(p, p, [0.5])
        assert_allclose(mid.dense(), p.dense(), atol=0)

    def test_counterexample_midpoint(self):
        [mid] = EUCLID.interpolate(P1, P2, [0.5])
        assert_allclose(mid.dense(), np.diag([0.505, 0.505]), atol=0)

    def test_mean_swells_on_interpolation_fixture(self):
        from logchol.experiments import interpolation_endpoints

        p, q = interpolation_endpoints()
        mean = EUCLID.mean([p, q])
        dets = [np.linalg.det(p.dense()), np.linalg.det(q.dense())]
        assert np.linalg.det(mean.dense()) > max(dets)

    def test_dist_and_exp_log(self, rng):
        p = random_spd(rng, 3)
        q = random_spd(rng, 3)
        assert EUCLID.distance(p, q) == pytest.approx(
            np.linalg.norm(p.dense() - q.dense()), abs=0
        )
        back = EUCLID.exp(p, EUCLID.log(p, q))
        assert_allclose(back.dense(), q.dense(), atol=1e-14)

    def test_empty_mean(self):
        with pytest.raises(EmptyInputError):
            EUCLID.mean([])

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 1000])
    def test_mean_has_the_bits_of_numpy_mean(self, rng, n):
        ps = rng.standard_normal((n, 4, 4)) * 10.0 ** rng.integers(-300, 300, (n, 1, 1))
        assert_array_equal(tri._mean(ps), ps.mean(axis=0))
        # A stack of vectors too, such as the log-diagonals of a Log-Cholesky mean.
        assert_array_equal(tri._mean(ps[:, 0]), ps[:, 0].mean(axis=0))

    def test_mean_inside_the_float_range_past_an_overflowing_sum(self):
        # The sum of the members overflows; their mean does not.
        ps = [SpdMatrix(np.diag([1.79e308, 1.0])), SpdMatrix(rotated([1e308, 1e300]))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean = EUCLID.mean(ps)
            assert_array_equal(mean.data, ps[0].data / 2 + ps[1].data / 2)
            # The Karcher mean starts there; its whitening then loses
            # positivity (ROADMAP item 1), and says so by raising.
            with pytest.raises(tri.LogCholError):
                bl.affine_karcher_mean(ps)


class TestCholeskyDistance:
    def test_counterexample_midpoint_determinant(self):
        [mid] = CHOL.interpolate(P1, P2, [0.5])
        expected = (1.0 + EPS) ** 4 / 16.0
        assert np.linalg.det(mid.dense()) == pytest.approx(expected, abs=1e-12)
        assert np.linalg.det(mid.dense()) > EPS**2  # exceeds both endpoint dets

    def test_endpoint_exact(self, rng):
        p = random_spd(rng, 3)
        q = random_spd(rng, 3)
        [start] = CHOL.interpolate(p, q, [0.0])
        assert_allclose(start.dense(), p.dense(), rtol=1e-13)

    def test_distance_is_factor_gap(self):
        # factors diag(eps, 1) and diag(1, eps)
        expected = np.sqrt(2.0) * (1.0 - EPS)
        assert CHOL.distance(P1, P2) == pytest.approx(expected, rel=1e-14)

    def test_exp_log_roundtrip(self, rng):
        p = random_spd(rng, 3)
        q = random_spd(rng, 3)
        gap = CHOL.log(p, q)
        assert isinstance(gap, LowerTriangular)
        back = CHOL.exp(p, gap)
        assert_allclose(back.dense(), q.dense(), rtol=1e-12)

    def test_mean_matches_two_point_interpolation(self, rng):
        # In every flat geometry the midpoint c^-1(c(P)/2 + c(Q)/2) and the
        # mean c^-1((c(P) + c(Q))/2) have the same bits: halving is exact.
        for ops in (EUCLID, CHOL, LOGEUCLID):
            for m in (1, 2, 5, 8):
                for _ in range(50):
                    p = random_spd(rng, m)
                    q = random_spd(rng, m)
                    [mid] = ops.interpolate(p, q, [0.5])
                    assert_array_equal(mid.data, ops.mean([p, q]).data, err_msg=ops.name)


class TestLogEuclidean:
    def test_dist_self_zero(self, rng):
        p = random_spd(rng, 3)
        assert LOGEUCLID.distance(p, p) == 0.0

    def test_mean_commuting_pair(self):
        e2 = np.e**2
        out = LOGEUCLID.mean([spd(np.eye(2)), spd(np.diag([e2, e2]))])
        assert_allclose(out.dense(), np.diag([np.e, np.e]), rtol=1e-14)

    def test_mean_det_matches_log_cholesky_mean_det(self, rng):
        for _ in range(10):
            ps = [random_spd(rng, 4) for _ in range(5)]
            le = np.linalg.det(LOGEUCLID.mean(ps).dense())
            lc = np.linalg.det(log_cholesky_mean(ps).dense())
            assert le == pytest.approx(lc, rel=1e-10)

    def test_interpolation_endpoints(self, rng):
        p = random_spd(rng, 3)
        q = random_spd(rng, 3)
        for out, ref in zip(LOGEUCLID.interpolate(p, q, [0.0, 1.0]), (p, q), strict=True):
            rel = np.linalg.norm(out.dense() - ref.dense()) / np.linalg.norm(ref.dense())
            assert rel < 1e-12

    def test_exp_log_inverse_pair(self, rng):
        # well-conditioned inputs so the series route reaches its tolerance
        for _ in range(5):
            p = well_conditioned_spd(rng, 3)
            q = well_conditioned_spd(rng, 3)
            back = LOGEUCLID.exp(p, LOGEUCLID.log(p, q))
            rel = np.linalg.norm(back.dense() - q.dense()) / np.linalg.norm(q.dense())
            assert rel < 1e-9

    def test_transport_preserves_log_euclidean_inner(self, rng):
        # inner product of the flattened tangents; use well-conditioned
        # inputs so the series route converges to its tolerance
        for _ in range(5):
            p = well_conditioned_spd(rng, 3)
            q = well_conditioned_spd(rng, 3)
            w = sym(0.3 * random_sym(rng, 3).data)
            v = sym(0.3 * random_sym(rng, 3).data)
            before = np.sum(
                bl.dlog_spd(p.dense(), w.dense()) * bl.dlog_spd(p.dense(), v.dense())
            )
            tw = LOGEUCLID.transport(p, q, w)
            tv = LOGEUCLID.transport(p, q, v)
            after = np.sum(
                bl.dlog_spd(q.dense(), tw.dense()) * bl.dlog_spd(q.dense(), tv.dense())
            )
            assert after == pytest.approx(before, rel=1e-8, abs=1e-10)

    def test_dexp_dlog_are_mutually_inverse(self, rng):
        p = well_conditioned_spd(rng, 3)
        w = sym(0.3 * random_sym(rng, 3).data)
        s = bl.spd_logm(p.dense())
        back = bl.dexp_sym(s, bl.dlog_spd(p.dense(), w.dense()))
        assert_allclose(back, w.dense(), rtol=1e-10, atol=1e-12)

    def test_dexp_finite_difference(self, rng):
        h = 1e-6
        s = 0.5 * random_sym(rng, 3).dense()
        d = 0.5 * random_sym(rng, 3).dense()
        fd = (expm(s + h * d) - expm(s - h * d)) / (2 * h)
        assert_allclose(bl.dexp_sym(s, d), fd, rtol=1e-6, atol=1e-8)

    def test_logm_expm_examples(self, rng):
        p = random_spd(rng, 4)
        assert_allclose(expm(bl.spd_logm(p.dense())), p.dense(), rtol=1e-12)
        with pytest.raises(NotSpdError):
            bl.spd_logm(np.diag([1.0, -1.0]))

    def test_matrix_functions_on_stacks(self, rng):
        ps = np.stack([random_spd(rng, 4).data for _ in range(6)])
        logs = bl.spd_logm(ps)
        for p, lg in zip(ps, logs):
            assert_allclose(lg, bl.spd_logm(p), rtol=1e-14, atol=1e-14 * np.abs(lg).max())
        exps = expm(logs)
        for lg, ex in zip(logs, exps):
            assert_allclose(ex, expm(lg), rtol=1e-14, atol=1e-14 * np.abs(ex).max())
        ps[3] = np.diag([1.0, 2.0, -1.0, 3.0])
        with pytest.raises(NotSpdError):
            bl.spd_logm(ps)

    @pytest.mark.parametrize("kappa", [1e2, 1e4, 1e6])
    @pytest.mark.parametrize("m", [2, 5])
    def test_matches_extended_precision(self, rng, m, kappa):
        # The interpolant at t = 0.3 and the mean of P and Q, both
        # exp((1 - t) log P + t log Q), against 50-digit evaluations.
        eps = np.finfo(float).eps
        for _ in range(10):
            p = random_spd_with_condition(rng, m, kappa)
            q = random_spd_with_condition(rng, m, kappa)
            ref = logeuclid_mean_mp([p.data, q.data], (0.7, 0.3))
            [out] = LOGEUCLID.interpolate(p, q, [0.3])
            assert np.linalg.norm(out.data - ref) <= eps * kappa * np.linalg.norm(ref)
            ref = logeuclid_mean_mp([p.data, q.data])
            out = LOGEUCLID.mean([p, q]).data
            assert np.linalg.norm(out - ref) <= eps * kappa * np.linalg.norm(ref)

    @pytest.mark.parametrize("kappa, tol", [(1e2, 1e-14), (1e5, 1e-12), (1e10, 1e-7)])
    def test_log_matches_extended_precision(self, rng, kappa, tol):
        # The log pulls log Q - log P back through the derivative of exp at
        # log P, whose eigenvalues spread as log kappa; Q at condition 10.
        for _ in range(12):
            p = random_spd_with_condition(rng, 5, kappa)
            q = random_spd_with_condition(rng, 5, 10.0)
            _, log, _ = logeuclid_mp(p.data, q.data, random_sym(rng, 5).data)
            out = LOGEUCLID.log(p, q).data
            assert np.linalg.norm(out - log) <= tol * np.linalg.norm(log)

    @pytest.mark.parametrize("p, q", [((1e300, 1.0), (1e-300, 1.0)), ((1e-300, 1.0), (1.7e308, 1.0))])
    def test_log_of_diagonals_at_the_ends_of_the_float_range(self, p, q):
        # Commuting P and Q: log_P Q = diag(p_i (log q_i - log p_i)).  The
        # pull-back takes exp at log P, whose entry log p_i = -+690.8 carries a
        # rounding that its exponential turns into 690.8 eps, about 1.5e-13,
        # relative; and the norms of these entries overflow, so the error is
        # read entrywise.
        expected = np.diag([a * (math.log(b) - math.log(a)) for a, b in zip(p, q)])
        out = LOGEUCLID.log(spd(np.diag(p)), spd(np.diag(q))).data
        assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()


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
            [mid] = bl.affine_interpolate(p, q, [0.5])
            assert_allclose(mean.dense(), mid.dense(), rtol=1e-10)

    def test_karcher_matches_per_member_reference(self):
        rng = np.random.default_rng(7)
        for n, m in ((2, 2), (3, 6), (5, 3), (7, 4), (10, 5), (4, 2), (10, 6), (6, 3)):
            ps = [random_spd_wishart(rng, m) for _ in range(n)]
            mean = bl.affine_karcher_mean(ps).data
            ref = karcher_mean_per_member(ps).data
            assert np.linalg.norm(mean - ref) <= 1e-10 * np.linalg.norm(ref), (n, m)

    @pytest.mark.filterwarnings("error")
    def test_karcher_mean_near_the_float_max_raises_without_a_warning(self):
        # The true mean is inside the float range, but a step's
        # reconstruction overflows and the iterate is rejected (ROADMAP item 1).
        ps = [spd(rotated([1.7e308, 1e300])), spd(np.diag([1.7e308, 1.7e308]))]
        with pytest.raises(tri.LogCholError):
            bl.affine_karcher_mean(ps)

    def test_karcher_budget_exhausted_raises(self, rng, monkeypatch):
        monkeypatch.setattr(bl, "KARCHER_MAX_ITER", 1)
        with pytest.raises(NoConvergenceError):
            bl.affine_karcher_mean([random_spd(rng, 3), random_spd(rng, 3)])

    def test_interpolation_whitens_once(self, rng, monkeypatch):
        # One factorization of P and one eigendecomposition of the whitened
        # Q per call, however many points the grid holds.  P is built by the
        # constructor, so it keeps no factor: P._chol factors it through
        # tri._factor.
        calls = {"_factor": 0, "_eigh": 0}
        for owner, name in ((tri, "_factor"), (bl, "_eigh")):
            fn = getattr(owner, name)

            def counted(*args, _fn=fn, _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(owner, name, counted)
        p = random_spd(rng, 3)
        q = random_spd(rng, 3)
        for steps in (2, 11, 101):
            calls.update(_factor=0, _eigh=0)
            assert len(bl.affine_interpolate(p, q, np.linspace(0, 1, steps))) == steps
            assert calls == {"_factor": 1, "_eigh": 1}, steps

    def test_interpolation_endpoints(self, rng):
        p = random_spd(rng, 3)
        q = random_spd(rng, 3)
        for out, ref in zip(bl.affine_interpolate(p, q, [0.0, 1.0]), (p, q), strict=True):
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
            before = affine_inner(p, w, v)
            after = affine_inner(
                q, bl.affine_transport(p, q, w), bl.affine_transport(p, q, v)
            )
            assert after == pytest.approx(before, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("kappa", [1e2, 1e4, 1e6])
    @pytest.mark.parametrize("m", [2, 5])
    def test_matches_extended_precision(self, rng, m, kappa):
        # P and Q both at condition kappa: the whitened Q then has condition
        # up to kappa^2, which bounds how well its logarithm can be resolved;
        # the transport takes its square root.
        eps = np.finfo(float).eps
        for _ in range(10):
            p = random_spd_with_condition(rng, m, kappa)
            q = random_spd_with_condition(rng, m, kappa)
            w = random_sym(rng, m)
            dist, log, transport = affine_mp(p.data, q.data, w.data)
            assert abs(bl.affine_dist(p, q) - dist) <= eps * kappa**2 * dist
            out = bl.affine_log(p, q).data
            assert np.linalg.norm(out - log) <= eps * kappa**2 * np.linalg.norm(log)
            out = bl.affine_transport(p, q, w).data
            assert np.linalg.norm(out - transport) <= 10 * eps * kappa * np.linalg.norm(transport)
            # The exp of the logarithm, which keeps the exponential in range;
            # the geodesic point, a power of the same whitened Q as the log.
            tangent = SymMatrix.from_dense(log)
            ref = affine_exp_mp(p.data, tangent.data)
            out = bl.affine_exp(p, tangent).data
            assert np.linalg.norm(out - ref) <= 10 * eps * kappa * np.linalg.norm(ref)
            ref = affine_geodesic_mp(p.data, q.data, 0.3)
            [out] = bl.affine_interpolate(p, q, [0.3])
            assert np.linalg.norm(out.data - ref) <= eps * kappa**2 * np.linalg.norm(ref)

    def test_dist_congruence_invariance(self, rng):
        # the defining property of this baseline metric
        p = random_spd(rng, 3)
        q = random_spd(rng, 3)
        a = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        pc = SpdMatrix.from_dense(a @ p.dense() @ a.T)
        qc = SpdMatrix.from_dense(a @ q.dense() @ a.T)
        assert bl.affine_dist(pc, qc) == pytest.approx(bl.affine_dist(p, q), rel=1e-9)


class TestStackedKarcher:
    """``affine_karcher_mean`` on a ``(k, n, m, m)`` array of trials, such as
    ``mean-gap``'s checked draw, gives each trial the bits of its own call on
    the trial's members."""

    @staticmethod
    def _alone(ps, monkeypatch):
        """Each trial's mean on its own, and its steps: one ``_factor`` each."""
        calls = []
        factor = bl._factor
        monkeypatch.setattr(bl, "_factor", lambda a: calls.append(a) or factor(a))
        means, steps = [], []
        for trial in ps:
            before = len(calls)
            means.append(bl.affine_karcher_mean([SpdMatrix(p) for p in trial]).data)
            steps.append(len(calls) - before)
        monkeypatch.undo()
        return means, steps

    @staticmethod
    def _assert_bits(stacked, alone):
        assert len(stacked) == len(alone)
        for out, ref in zip(stacked, alone, strict=True):
            assert out.data.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_the_stacked_draw_is_the_per_matrix_draws(self, m):
        # One draw for the whole stack takes the generator's stream in the
        # order of one draw per matrix, and each A A^T is exactly symmetric.
        ps = random_wishart_stack(np.random.default_rng(5), (3, 4), m)
        rng = np.random.default_rng(5)
        for p in ps.reshape(-1, m, m):
            assert p.tobytes() == random_spd_wishart(rng, m).data.tobytes()
            assert (p == p.T).all()

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_trials_that_stop_at_different_steps(self, m, monkeypatch):
        ps = random_wishart_stack(np.random.default_rng(11), (9, 6), m)
        alone, steps = self._alone(ps, monkeypatch)
        if m > 1:
            assert len(set(steps)) > 1, steps
        self._assert_bits(bl.affine_karcher_mean(ps), alone)
        # A stack of one trial: the stacked iteration runs it to its last step.
        self._assert_bits(bl.affine_karcher_mean(ps[:1]), alone[:1])

    @pytest.mark.parametrize("m", [1, 3])
    def test_one_member_per_trial(self, m, monkeypatch):
        ps = random_wishart_stack(np.random.default_rng(12), (4, 1), m)
        alone, _ = self._alone(ps, monkeypatch)
        self._assert_bits(bl.affine_karcher_mean(ps), alone)

    def test_an_overflowing_start_beside_a_finite_one(self, monkeypatch):
        # The first trial's members sum past the float max, so its start is
        # the sum of P_i / n (tri._mean); the second's is np.mean's.
        ps = random_wishart_stack(np.random.default_rng(3), (2, 4), 3)
        ps[0] *= 5e307
        with np.errstate(over="ignore"):
            assert not np.isfinite(ps[0].sum(axis=0)).all()
        assert np.isfinite(ps[1].sum(axis=0)).all()
        alone, _ = self._alone(ps, monkeypatch)
        self._assert_bits(bl.affine_karcher_mean(ps), alone)
        self._assert_bits(bl.affine_karcher_mean(ps[::-1]), alone[::-1])

    def test_a_trial_out_of_budget_raises_from_the_stack(self, monkeypatch):
        ps = random_wishart_stack(np.random.default_rng(11), (9, 6), 3)
        _, steps = self._alone(ps, monkeypatch)
        monkeypatch.setattr(bl, "KARCHER_MAX_ITER", max(steps) - 1)
        with pytest.raises(NoConvergenceError):
            bl.affine_karcher_mean(ps)

    def test_an_array_that_is_not_a_stack_of_trials_is_rejected(self):
        # An array's trials have one size and one dimension: its shape is what is checked.
        ps = random_wishart_stack(np.random.default_rng(4), (2, 3), 2)
        for bad in (ps[0], ps[None], ps[..., :1]):
            with pytest.raises(DomainError, match="not a \\(k, n, m, m\\) stack of trials"):
                bl.affine_karcher_mean(bad)
        for empty in (ps[:0], ps[:, :0]):
            with pytest.raises(EmptyInputError):
                bl.affine_karcher_mean(empty)


SCALES = (1e-13, 1e-6, 1e6, 1e12)


class TestSharedStructure:
    @pytest.mark.parametrize("name", bl.METRIC_NAMES)
    def test_mean_entry_checks(self, name):
        mean = bl.get_metric(name).mean
        with pytest.raises(DomainError):
            mean([spd(np.eye(2)), spd(np.eye(3))])
        with pytest.raises(EmptyInputError):
            mean([])

    @pytest.mark.parametrize("name", bl.METRIC_NAMES)
    def test_mean_is_scale_equivariant(self, name):
        # The mean of c P_i is c times the mean of P_i, far from unit scale too.
        mean = bl.get_metric(name).mean
        rng = np.random.default_rng(21)
        for m in (2, 3, 5):
            ps = [random_spd_wishart(rng, m) for _ in range(5)]
            ref = mean(ps).data
            for c in SCALES:
                out = mean([spd(c * p.data) for p in ps]).data / c
                assert np.linalg.norm(out - ref) <= 1e-13 * np.linalg.norm(ref), (m, c)

    def test_factor_mean_and_distances_are_scale_equivariant(self):
        # The factors of c P_i are sqrt(c) L_i; the affine-invariant and
        # Log-Euclidean distances do not see c at all.
        rng = np.random.default_rng(21)
        for m in (2, 3, 5):
            ps = [random_spd_wishart(rng, m) for _ in range(5)]
            ls = [cholesky_factor(p) for p in ps]
            ref = cm.frechet_mean_chol(ls).data
            dists = {d: d(ps[0], ps[1]) for d in (bl.affine_dist, LOGEUCLID.distance)}
            for c in SCALES:
                out = cm.frechet_mean_chol([CholeskyFactor(np.sqrt(c) * l.data) for l in ls])
                rel = np.linalg.norm(out.data / np.sqrt(c) - ref) / np.linalg.norm(ref)
                assert rel <= 1e-13, (m, c)
                for dist, d0 in dists.items():
                    d = dist(spd(c * ps[0].data), spd(c * ps[1].data))
                    assert d == pytest.approx(d0, rel=1e-13), (dist.__name__, m, c)

    def test_all_interpolations_endpoint_exact(self, rng):
        p = random_spd(rng, 3)
        q = random_spd(rng, 3)
        for name in bl.METRIC_NAMES:
            ops = bl.get_metric(name)
            for out, ref in zip(ops.interpolate(p, q, [0.0, 1.0]), (p, q), strict=True):
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
            seqs[name] = [np.linalg.det(m.dense()) for m in ops.interpolate(p, q, ts)]
        ref = seqs["log-cholesky"]
        for name in ("log-euclidean", "affine-invariant"):
            assert_allclose(seqs[name], ref, rtol=1e-8)

    @pytest.mark.parametrize("name", bl.METRIC_NAMES)
    def test_interpolation_takes_the_grid(self, rng, name):
        p = random_spd(rng, 3)
        q = random_spd(rng, 3)
        interpolate = bl.get_metric(name).interpolate
        ts = [0.0, 0.3, 0.5, 0.5, 1.0]
        out = interpolate(p, q, ts)
        assert len(out) == len(ts)
        for t, m in zip(ts, out):
            assert_array_equal(m.data, interpolate(p, q, [t])[0].data)
        assert interpolate(p, q, []) == []

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



RIEMANNIAN = ("log-cholesky", "affine-invariant", "log-euclidean")
# (P, W, geometries) whose exact exp lies outside the float range.
EXP_OUT_OF_RANGE = {
    "full-underflow": ([[0.00105]], [[-1.066]], RIEMANNIAN),
    "overflow": ([[1.0]], [[800.0]], RIEMANNIAN),
    # Not Log-Euclidean: its d log series does not converge at this base.
    "overflow-by-the-base": (
        np.diag([1e308, 1.0]),
        np.diag([1.7e308, 0.0]),
        ("log-cholesky", "affine-invariant"),
    ),
    "partial-underflow": ([[1.0, 0.5], [0.5, 1.0]], np.diag([0.0, -2000.0]), RIEMANNIAN),
    "rotated-partial-underflow": (
        np.eye(2),
        rotated([-800.0, 0.0]),
        ("affine-invariant", "log-euclidean"),
    ),
    # The Log-Euclidean d log series overflows on the way.
    "overflow-in-the-series": (np.diag([1e-3, 1.0]), 1e306 * np.eye(2), RIEMANNIAN),
    "overflow-by-a-tiny-base": (np.diag([1e-300, 1e-299]), np.diag([1e10, 0.0]), RIEMANNIAN),
}


@pytest.mark.parametrize(
    "metric, case",
    [(m, c) for c, (_, _, ms) in EXP_OUT_OF_RANGE.items() for m in ms],
)
def test_exp_outside_the_float_range_raises_domain_error(metric, case):
    # One error class and no numpy warning (warnings are errors here),
    # never a singular matrix typed SPD.
    p, w, _ = EXP_OUT_OF_RANGE[case]
    with pytest.raises(DomainError):
        bl.get_metric(metric).exp(spd(p), sym(w))


def test_log_outside_the_float_range_raises_domain_error():
    # log_P Q = diag(1.7e308 (log 1e-300 - log 1.7e308), 0) = diag(-2.4e311, 0).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            LOGEUCLID.log(spd(np.diag([1.7e308, 1.0])), spd(np.diag([1e-300, 1.0])))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["overflow-in-the-series", "overflow-by-a-tiny-base"])
def test_transport_outside_the_float_range_raises_domain_error(case):
    # The d log series overflows on the way, with no numpy warning.
    p, w, _ = EXP_OUT_OF_RANGE[case]
    with pytest.raises(DomainError):
        LOGEUCLID.transport(spd(p), spd(np.eye(2)), sym(w))


@pytest.mark.filterwarnings("error")
def test_dlog_series_stops_at_its_first_non_finite_term(monkeypatch):
    # W / c overflows at this tiny base, so the first term of the series
    # (the sum's second) is NaN, and no later term could make the sum finite.
    norms = []
    monkeypatch.setattr(bl, "_norm", lambda a: norms.append(a) or tri._norm(a))
    p, w = spd(np.diag([1e-300, 1e-299])), sym(np.diag([1e10, 0.0]))
    with pytest.raises(DomainError, match=r"^matrix entries must be finite$"):
        LOGEUCLID.transport(p, p, w)
    assert len(norms) == 1


# Affine-invariant tangents whose entries overflow in a product.
AFFINE_TANGENT_OUT_OF_RANGE = {
    "log": lambda: bl.affine_log(spd(np.diag([1e308, 1.0])), spd(np.diag([1e307, 1.0]))),
    "transport": lambda: bl.affine_transport(
        spd(np.eye(2)), spd(np.diag([1e300, 1.0])), sym(np.diag([1e300, 0.0]))
    ),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", AFFINE_TANGENT_OUT_OF_RANGE)
def test_affine_tangent_outside_the_float_range_raises_domain_error(case):
    with pytest.raises(DomainError):
        AFFINE_TANGENT_OUT_OF_RANGE[case]()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dexp_sym_rejects_a_non_finite_direction(bad):
    with pytest.raises(DomainError):
        bl.dexp_sym(np.zeros((2, 2)), np.diag([bad, 0.0]))


# Transports whose answer is moderate while the direction d log_P W passed
# to the pull-back may not be: 1e300 W in the first, 1.7e308 W in the second.
MODERATE_TRANSPORTS = {
    "tiny-base": (1e-300 * np.eye(2), 1e-300 * np.eye(2), np.diag([1.0, 0.0]), np.diag([1.0, 0.0])),
    "float-max-tangent": (np.eye(2), np.eye(2), np.diag([1.7e308, 0.0]), np.diag([1.7e308, 0.0])),
    "huge-target": (np.eye(2), np.diag([1e300, 1.0]), np.diag([1.0, 0.0]), np.diag([1e300, 0.0])),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", MODERATE_TRANSPORTS)
def test_transport_past_an_overflowing_direction(case):
    p, q, w, want = MODERATE_TRANSPORTS[case]
    out = LOGEUCLID.transport(spd(p), spd(q), sym(w))
    assert_allclose(out.data, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_dexp_sym_has_the_bits_of_expm_frechet(rng):
    # The power-of-two scalings around SciPy's call are exact.
    for scale in (1e-200, 1e-3, 1.0, 3.0, 1e200):
        s = rng.standard_normal((4, 4))
        h = scale * rng.standard_normal((4, 4))
        s, h = s + s.T, h + h.T
        assert_array_equal(bl.dexp_sym(s, h), expm_frechet(s, h, compute_expm=False))


I2 = np.eye(2)
# Calls of every geometry whose exact result lies outside the float range:
# a pivot that is not a normal float, an overflowing entry, or an eigenvalue
# whose exponential is not a positive normal float.
RESULT_OUT_OF_RANGE = {
    "lc-interpolate-subnormal-pivot": lambda: lc.interpolate_spd(
        spd(I2), spd(np.diag([1e-4, 1.0])), [80.0]
    ),
    "lc-interpolate-zero-pivot": lambda: lc.interpolate_spd(
        spd(I2), spd(np.diag([1e-4, 1.0])), [100.0]
    ),
    "lc-interpolate-overflow": lambda: lc.interpolate_spd(
        spd(I2), spd(np.diag([1e4, 1.0])), [100.0]
    ),
    "lc-group-op-overflow": lambda: lc.group_op_spd(
        spd(np.diag([1e300, 1.0])), spd(np.diag([1e300, 1.0]))
    ),
    "lc-group-inv-subnormal-pivot": lambda: lc.group_inv_spd(spd(np.diag([1e308, 1.0]))),
    "reconstruct-subnormal-pivot": lambda: reconstruct(CholeskyFactor(np.diag([1e-160, 1.0]))),
    "ai-interpolate-underflow": lambda: bl.affine_interpolate(
        spd(I2), spd(np.diag([1e-4, 1.0])), [200.0]
    ),
    "ai-interpolate-overflow": lambda: bl.affine_interpolate(
        spd(I2), spd(np.diag([1e4, 1.0])), [100.0]
    ),
    "ai-interpolate-overflow-by-the-base": lambda: bl.affine_interpolate(
        spd(np.diag([1e308, 1.0])), spd(np.diag([1.7e308, 1.0])), [2.0]
    ),
    "le-interpolate-underflow": lambda: LOGEUCLID.interpolate(
        spd(I2), spd(np.diag([1e-4, 1.0])), [80.0]
    ),
    "le-interpolate-full-underflow": lambda: LOGEUCLID.interpolate(
        spd(I2), spd(np.diag([1e-4, 1.0])), [200.0]
    ),
    "chol-exp-subnormal-pivot": lambda: CHOL.exp(
        spd(np.diag([1e-300, 1.0])), LowerTriangular(np.diag([-1e-150 + 1e-155, 0.0]))
    ),
    "chol-exp-overflow": lambda: CHOL.exp(
        spd(I2), LowerTriangular(np.diag([1e200, 0.0]))
    ),
    "chol-interpolate-subnormal-pivot": lambda: CHOL.interpolate(
        spd(np.diag([1e-300, 1.0])), spd(np.diag([4e-300, 1.0])), [-0.99999]
    ),
    "chol-interpolate-overflow": lambda: CHOL.interpolate(
        spd(I2), spd(np.diag([4.0, 9.0])), [1e308]
    ),
    "geodesic-chol-overflow": lambda: cm.geodesic_chol(
        CholeskyFactor(I2), LowerTriangular(np.diag([1000.0, 0.0])), 1.0
    ),
    "exp-chol-overflow": lambda: cm.exp_chol(
        CholeskyFactor(I2), LowerTriangular(np.diag([1000.0, 0.0]))
    ),
}


@pytest.mark.parametrize("case", RESULT_OUT_OF_RANGE)
def test_results_outside_the_float_range_raise_domain_error(case):
    # As for the exps: one error class, no numpy warning, and never a
    # matrix typed SPD whose pivots are not normal floats.
    with pytest.raises(DomainError):
        RESULT_OUT_OF_RANGE[case]()


def _huge_draws(m, n=10):
    """``n`` triples ``(P, Q, W)`` at ``m``, with ``W`` scaled by 1e300."""
    rng = np.random.default_rng(18 + m)
    for _ in range(n):
        yield random_spd(rng, m), random_spd(rng, m), SymMatrix(1e300 * random_sym(rng, m).data)


def _base(m):
    """An SPD base whose diagonal spans 1e-150 to 1."""
    return SpdMatrix(np.diag(np.logspace(-150.0, 0.0, m)))


TINY, HUGE = spd(np.diag([1e-300, 1.0])), spd(np.diag([1e300, 1.0]))
# Calls whose eigensolver input leaves the float range, where LAPACK returns
# NaN (a silent NaN distance) or fails to converge.  Whitening HUGE by TINY
# reads 1e600; so do the Log-Euclidean points at t = 1e308, and the whitened
# tangents of 1e300 at a base with a pivot of 1e-150.
SPECTRAL_INPUT_OUT_OF_RANGE = {
    "ai-distance": [lambda: bl.affine_dist(TINY, HUGE)],
    "ai-log": [lambda: bl.affine_log(TINY, HUGE)],
    "ai-transport": [lambda: bl.affine_transport(TINY, HUGE, sym(I2))],
    "ai-interpolate": [lambda: bl.affine_interpolate(TINY, HUGE, [0.5])],
    **{
        f"le-interpolate-huge-step-m{m}": [
            lambda p=p, q=q: LOGEUCLID.interpolate(p, q, [1e308]) for p, q, _ in _huge_draws(m)
        ]
        for m in (5, 8)
    },
    **{
        f"ai-exp-huge-tangent-m{m}": [
            lambda b=_base(m), w=w: bl.affine_exp(b, w) for _, _, w in _huge_draws(m)
        ]
        for m in (5, 8)
    },
}


@pytest.mark.parametrize("case", SPECTRAL_INPUT_OUT_OF_RANGE)
def test_spectral_input_outside_the_float_range_raises_domain_error(case):
    # Not nan, not EigFailureError, and no numpy warning.
    for call in SPECTRAL_INPUT_OUT_OF_RANGE[case]:
        with pytest.raises(DomainError, match="eigendecomposition input"):
            call()


# Factor pairs L = [[a, 0], [b, d]] and K = [[a, 0], [-b, d]], each (a, b, d),
# with P = L L^T and Q = K K^T.  Each distance lies below the float max, but
# the sums of squares of the gaps 2b (factor and chart) and 2ab (P - Q) lie
# past it.
FLOAT_MAX_PAIRS = {
    "b-7e153": (1.0, 7e153, 1e153),
    "p-near-the-float-max": (8e153, 7e153, 1e153),
    "a-1e100": (1e100, 8e153, 3e153),
}


@functools.cache
def _float_max_pair(pair):
    a, b, d = FLOAT_MAX_PAIRS[pair]
    l, k = np.array([[a, 0.0], [b, d]]), np.array([[a, 0.0], [-b, d]])
    p, q = spd(l @ l.T), spd(k @ k.T)
    return l, k, p, q, distances_mp(p.data, q.data)


@pytest.mark.parametrize("name", [*bl.METRIC_NAMES, "dist_chol"])
@pytest.mark.parametrize("pair", FLOAT_MAX_PAIRS)
def test_distances_below_the_float_max_are_finite(pair, name):
    # Finite, with no numpy warning, and as accurate as the norm allows.  The
    # spectral distances take their norm of logarithms, far from overflow;
    # their eigensolvers and the whitening's cancellation cost up to 2.2e-14.
    l, k, p, q, ref = _float_max_pair(pair)
    if name == "dist_chol":
        got, expected = cm.dist_chol(CholeskyFactor(l), CholeskyFactor(k)), 2.0 * l[1, 0]
    else:
        got, expected = bl.get_metric(name).distance(p, q), ref[name]
    rtol = 1e-13 if name in ("log-euclidean", "affine-invariant") else 1e-15
    assert np.isfinite(got)
    assert_allclose(got, expected, rtol=rtol, atol=0)


NOT_SPD = SpdMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # passes the diagonal check alone
GOOD = spd(np.array([[2.0, 0.5], [0.5, 1.0]]))
TANGENT = sym(np.array([[0.1, 0.2], [0.2, -0.3]]))
SPD_GEOMETRIES = ("cholesky", "log-euclidean", "affine-invariant", "log-cholesky")


def _spd_argument_calls():
    """``(name, call)`` for every SPD argument of the SPD geometries' ops and
    of the Log-Cholesky functions outside the registry, given ``NOT_SPD``."""
    bad, p, w = NOT_SPD, GOOD, TANGENT
    for name in SPD_GEOMETRIES:
        ops = bl.get_metric(name)
        x = LowerTriangular(np.tril(w.data)) if name == "cholesky" else w
        yield f"{name}.distance-0", lambda ops=ops: ops.distance(bad, p)
        yield f"{name}.distance-1", lambda ops=ops: ops.distance(p, bad)
        yield f"{name}.interpolate-0", lambda ops=ops: ops.interpolate(bad, p, [0.5])
        yield f"{name}.interpolate-1", lambda ops=ops: ops.interpolate(p, bad, [0.5])
        yield f"{name}.mean", lambda ops=ops: ops.mean([p, bad])
        yield f"{name}.exp", lambda ops=ops, x=x: ops.exp(bad, x)
        yield f"{name}.log-0", lambda ops=ops: ops.log(bad, p)
        yield f"{name}.log-1", lambda ops=ops: ops.log(p, bad)
        if ops.transport is not None:
            yield f"{name}.transport-0", lambda ops=ops: ops.transport(bad, p, w)
            yield f"{name}.transport-1", lambda ops=ops: ops.transport(p, bad, w)
    yield "metric_spd", lambda: lc.metric_spd(bad, w, w)
    yield "geodesic_spd", lambda: lc.geodesic_spd(bad, w, 0.5)
    yield "group_op_spd-0", lambda: lc.group_op_spd(bad, p)
    yield "group_op_spd-1", lambda: lc.group_op_spd(p, bad)
    yield "group_inv_spd", lambda: lc.group_inv_spd(bad)
    yield "cholesky_factor", lambda: cholesky_factor(bad)


SPD_ARGUMENT_CALLS = dict(_spd_argument_calls())


@pytest.mark.parametrize("call", SPD_ARGUMENT_CALLS)
def test_every_spd_argument_is_checked(call):
    # The SpdMatrix constructor checks only the sign of the diagonal, so each
    # op must factor or decompose its SPD arguments.  The Euclidean geometry
    # works on symmetric matrices by design and is left out.
    with pytest.raises(NotSpdError):
        SPD_ARGUMENT_CALLS[call]()
