import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from oracles import descent_mean_spd, exp_spd_mp, frechet_functional_spd, log_cholesky_mp
from support import random_factor, random_tangent

from logchol import baselines as bl
from logchol import chol_manifold as cm
from logchol.chol_map import _diff_S, _diff_S_inv, cholesky_factor, diff_S, diff_S_inv, reconstruct
from logchol.sampling import random_spd, random_spd_with_condition, random_sym
from logchol.spd_manifold import (
    dist_spd,
    exp_spd,
    geodesic_spd,
    group_inv_spd,
    group_op_spd,
    interpolate_spd,
    log_cholesky_mean,
    log_spd,
    metric_spd,
    transport_spd,
)
from logchol.tri import (
    CholeskyFactor,
    DomainError,
    EmptyInputError,
    NotSpdError,
    SpdMatrix,
    SymMatrix,
)


def spd(dense):
    return SpdMatrix.from_dense(np.asarray(dense, dtype=float))


def sym(dense):
    return SymMatrix.from_dense(np.asarray(dense, dtype=float))


I2 = spd(np.eye(2))


class TestMetric:
    def test_identity_base(self):
        w = sym(np.eye(2))
        assert metric_spd(I2, w, w) == pytest.approx(0.5, abs=0)

    def test_zero_tangent(self, rng):
        p = random_spd(rng, 3)
        zero = SymMatrix(np.zeros((3, 3)))
        assert metric_spd(p, zero, zero) == 0.0

    def test_pullback_isometry(self, rng):
        for _ in range(25):
            l = random_factor(rng, 4)
            x = random_tangent(rng, 4)
            y = random_tangent(rng, 4)
            p = reconstruct(l)
            lhs = metric_spd(p, diff_S(l, x), diff_S(l, y))
            assert lhs == pytest.approx(cm.metric_chol(l, x, y), rel=1e-12, abs=1e-13)

    @pytest.mark.filterwarnings("error")
    def test_past_the_float_max_reads_inf_and_a_nan_raises(self):
        w = sym(np.diag([1e300, 0.0]))
        assert metric_spd(I2, w, w) == np.inf
        # The pull-back at a base with factor diag(1e-150, 1) overflows, and
        # inf * 0 would make the sum NaN.
        with pytest.raises(DomainError):
            metric_spd(spd(np.diag([1e-300, 1.0])), w, w)


class TestGeodesicExpLog:
    def test_geodesic_start(self, rng):
        p = random_spd(rng, 3)
        w = random_sym(rng, 3)
        assert_allclose(geodesic_spd(p, w, 0.0).dense(), p.dense(), rtol=1e-14)

    def test_geodesic_diagonal(self):
        out = geodesic_spd(I2, sym(2.0 * np.eye(2)), 1.0)
        assert_allclose(out.dense(), np.diag([np.e**2, np.e**2]), rtol=1e-14)

    def test_geodesic_hits_endpoint(self, rng):
        for _ in range(10):
            p = random_spd(rng, 4)
            q = random_spd(rng, 4)
            out = geodesic_spd(p, log_spd(p, q), 1.0)
            rel = np.linalg.norm(out.dense() - q.dense()) / np.linalg.norm(q.dense())
            assert rel < 1e-12

    def test_log_same_point(self, rng):
        p = random_spd(rng, 3)
        assert_allclose(log_spd(p, p).dense(), np.zeros((3, 3)), atol=1e-14)

    def test_exp_zero(self):
        assert_array_equal(exp_spd(I2, SymMatrix(np.zeros((2, 2)))).dense(), np.eye(2))

    def test_log_diagonal_chain(self):
        out = log_spd(I2, spd(np.diag([np.e**2, np.e**2])))
        assert_allclose(out.dense(), 2.0 * np.eye(2), rtol=1e-14)

    def test_exp_near_the_float_max_matches_the_closed_form(self):
        # A seeded draw (random_spd/random_sym, seed 12345) whose exp is
        # 1.73e308: within the float range, so it is returned.
        p = SpdMatrix(np.array([[0.1586142518182446, 0.34441158298033503],
                                [0.34441158298033503, 0.7626790854291682]]))
        w = SymMatrix(np.array([[1.4118034351580457, -0.5427671427957477],
                                [-0.5427671427957477, 1.5751705796894575]]))
        out = exp_spd(p, w).dense()
        assert out[1, 1] > 1.7e308
        # exp multiplies the relative error of X_jj / L_jj (about 354 here)
        # by that ratio; X itself carries the conditioning of P (about 400).
        assert_allclose(out, exp_spd_mp(p.data, w.data), rtol=1e-10, atol=0)

    @pytest.mark.parametrize("m", [2, 3, 5, 10])
    def test_inversion_both_ways(self, m, rng):
        # moderate conditioning: an extreme tangent at a near-singular base
        # walks the geodesic outside what float factorization can resolve
        for _ in range(15):
            a, b = rng.standard_normal((2, m, m))
            p = spd(a @ a.T + np.eye(m))
            q = spd(b @ b.T + np.eye(m))
            w = random_sym(rng, m)
            back = exp_spd(p, log_spd(p, q))
            rel = np.linalg.norm(back.dense() - q.dense()) / np.linalg.norm(q.dense())
            assert rel < 1e-12
            again = log_spd(p, exp_spd(p, w))
            assert_allclose(again.dense(), w.dense(), rtol=1e-11, atol=1e-11)


class TestDistance:
    def test_zero_on_diagonal_pair(self):
        assert dist_spd(I2, I2) == 0.0
        assert dist_spd(I2, spd(np.diag([np.e**2, np.e**2]))) == pytest.approx(
            np.sqrt(2.0), rel=1e-14
        )

    def test_equals_factor_distance(self, rng):
        for _ in range(20):
            p = random_spd(rng, 4)
            q = random_spd(rng, 4)
            assert dist_spd(p, q) == pytest.approx(
                cm.dist_chol(cholesky_factor(p), cholesky_factor(q)), abs=0
            )

    def test_invariance_under_group_translation(self, rng):
        for _ in range(25):
            a = random_spd(rng, 3)
            p = random_spd(rng, 3)
            q = random_spd(rng, 3)
            d0 = dist_spd(p, q)
            d1 = dist_spd(group_op_spd(a, p), group_op_spd(a, q))
            assert d1 == pytest.approx(d0, rel=1e-12)


class TestGroup:
    def test_identity(self, rng):
        p = random_spd(rng, 3)
        e = spd(np.eye(3))
        assert_allclose(group_op_spd(p, e).dense(), p.dense(), rtol=1e-13)

    def test_diagonal_squares(self):
        out = group_op_spd(spd(np.diag([4.0, 9.0])), spd(np.diag([4.0, 9.0])))
        assert_allclose(out.dense(), np.diag([16.0, 81.0]), rtol=1e-14)

    def test_inverse(self, rng):
        p = random_spd(rng, 3)
        out = group_op_spd(p, group_inv_spd(p))
        assert_allclose(out.dense(), np.eye(3), atol=1e-12)

    def test_factor_homomorphism(self, rng):
        for _ in range(10):
            p = random_spd(rng, 4)
            q = random_spd(rng, 4)
            lhs = cholesky_factor(group_op_spd(p, q))
            rhs = cm.group_op(cholesky_factor(p), cholesky_factor(q))
            assert_allclose(lhs.data, rhs.data, rtol=1e-11, atol=1e-12)


def test_results_up_to_the_float_max():
    # Nothing that is already symmetric is summed again, so no entry doubles
    # past the float max on the way out.
    p = spd(np.diag([1e308, 1.0]))
    zero = SymMatrix(np.zeros((2, 2)))
    outs = [
        exp_spd(p, zero),
        geodesic_spd(p, zero, 0.5),
        *interpolate_spd(p, p, [0.5]),
        *bl.get_metric("cholesky").interpolate(p, p, [0.5]),
        bl.get_metric("cholesky").mean([p, p]),
    ]
    for out in outs:
        assert_allclose(out.dense(), p.dense(), rtol=1e-15, atol=0)
    # The geometric mean of the factor diagonals goes through log and exp,
    # which multiply the rounding of log(1e154) = 354.6 by that value.
    assert_allclose(log_cholesky_mean([p, p]).dense(), p.dense(), rtol=1e-13, atol=0)
    tiny = 1e-308  # subnormal
    out = group_inv_spd(spd(np.diag([tiny, 1.0])))
    assert_allclose(out.dense(), np.diag([1.0 / tiny, 1.0]), rtol=1e-15, atol=0)


@pytest.mark.parametrize("kappa", [1e1, 1e2])
@pytest.mark.parametrize("m", [2, 5])
def test_extended_precision_oracle(rng, m, kappa):
    # The 60-digit reference of the sweep's accuracy table, held to the
    # library where the library is accurate, so that the reference is
    # checked too.
    for _ in range(10):
        p, q = (random_spd_with_condition(rng, m, kappa) for _ in range(2))
        w = random_sym(rng, m)
        dist, log, transport = log_cholesky_mp(p.data, q.data, w.data)
        assert dist_spd(p, q) == pytest.approx(dist, rel=1e-13, abs=0)
        for out, ref in ((log_spd(p, q), log), (transport_spd(p, q, w), transport)):
            assert np.linalg.norm(out.data - ref) <= 1e-13 * np.linalg.norm(ref)


class TestTransport:
    def test_identity_endpoint(self, rng):
        p = random_spd(rng, 3)
        w = random_sym(rng, 3)
        assert_allclose(transport_spd(p, p, w).dense(), w.dense(), rtol=1e-12, atol=1e-13)

    def test_diagonal_example(self):
        out = transport_spd(I2, spd(np.diag([9.0, 9.0])), sym(np.diag([2.0, 2.0])))
        assert_allclose(out.dense(), np.diag([18.0, 18.0]), rtol=1e-14)

    def test_matches_factor_space_route(self, rng):
        # dense fast path must agree with the composed route through the
        # factor-space transport
        for _ in range(25):
            p = random_spd(rng, 5)
            q = random_spd(rng, 5)
            w = random_sym(rng, 5)
            l = cholesky_factor(p)
            k = cholesky_factor(q)
            composed = diff_S(k, cm.transport_chol(l, k, diff_S_inv(l, w)))
            fast = transport_spd(p, q, w)
            assert_allclose(fast.dense(), composed.dense(), rtol=1e-12, atol=1e-12)

    def test_isometry(self, rng):
        for _ in range(50):
            p = random_spd(rng, 4)
            q = random_spd(rng, 4)
            w = random_sym(rng, 4)
            v = random_sym(rng, 4)
            before = metric_spd(p, w, v)
            after = metric_spd(q, transport_spd(p, q, w), transport_spd(p, q, v))
            assert after == pytest.approx(before, rel=1e-12, abs=1e-13)

    def test_path_independence(self, rng):
        for _ in range(50):
            p, q, r = (random_spd(rng, 4) for _ in range(3))
            w = random_sym(rng, 4)
            via_q = transport_spd(q, r, transport_spd(p, q, w))
            direct = transport_spd(p, r, w)
            assert_allclose(via_q.dense(), direct.dense(), rtol=1e-12, atol=1e-12)

    @staticmethod
    def _composed(p, q, w):
        # Pull back, transport in factor space, push forward: three kernels.
        l, k = p._chol, q._chol
        return _diff_S(k, cm._transport(l, k, _diff_S_inv(l, w.data)))

    @pytest.mark.parametrize("m", [1, 2, 5, 8])
    def test_folded_diagonal_agrees_with_the_composition(self, m):
        # The pullback writes the transported diagonal k_jj h_jj / 2 at
        # once, one rounding where the composition takes three.
        rng = np.random.default_rng(30 + m)
        for _ in range(50):
            p, q, w = random_spd(rng, m), random_spd(rng, m), random_sym(rng, m)
            composed = self._composed(p, q, w)
            gap = np.linalg.norm(transport_spd(p, q, w).data - composed)
            assert gap <= 4 * np.finfo(float).eps * np.linalg.norm(composed)

    @pytest.mark.parametrize("m", [65, 128])
    def test_blocked_transport_has_the_bits_of_the_composition(self, m):
        # Above chol_map._BLOCK the pullback's X21 step needs the
        # untransported X11, so the diagonal is rescaled last, as before.
        rng = np.random.default_rng(m)
        p, q, w = random_spd(rng, m), random_spd(rng, m), random_sym(rng, m)
        assert_array_equal(transport_spd(p, q, w).data, self._composed(p, q, w))

    @pytest.mark.parametrize("m", [1, 2, 5, 8, 65])
    def test_transport_to_its_own_base_is_the_round_trip(self, m):
        # k = l: k_jj h_jj / 2 is the pullback's own diagonal.
        rng = np.random.default_rng(40 + m)
        p, w = random_spd(rng, m), random_sym(rng, m)
        out = transport_spd(p, p, w).data
        l = cholesky_factor(p)
        assert_array_equal(out, diff_S(l, diff_S_inv(l, w)).data)
        assert_allclose(out, w.data, rtol=0, atol=1e-12 * np.abs(w.data).max())

    def test_rejects_indefinite_base(self):
        bad = SpdMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        w = sym(np.eye(2))
        with pytest.raises(NotSpdError):
            transport_spd(bad, I2, w)


class TestMean:
    def test_single_and_repeated(self, rng):
        p = random_spd(rng, 3)
        assert_allclose(log_cholesky_mean([p]).dense(), p.dense(), rtol=1e-13)
        assert_allclose(log_cholesky_mean([p, p, p]).dense(), p.dense(), rtol=1e-13)

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            log_cholesky_mean([])

    def test_diagonal_pair(self):
        out = log_cholesky_mean([I2, spd(np.diag([np.e**2, np.e**2]))])
        assert_allclose(out.dense(), np.diag([np.e, np.e]), rtol=1e-14)

    def test_matches_descent_oracle(self, rng):
        for _ in range(10):
            ps = [random_spd(rng, 4) for _ in range(6)]
            closed = log_cholesky_mean(ps)
            iterated = descent_mean_spd(ps)
            assert dist_spd(closed, iterated) < 1e-8
            assert frechet_functional_spd(closed, ps) <= frechet_functional_spd(
                iterated, ps
            ) + 1e-9

    def test_determinant_law_and_bounds(self, rng):
        for _ in range(20):
            ps = [random_spd(rng, 4) for _ in range(rng.integers(2, 9))]
            mean = log_cholesky_mean(ps)
            dets = [np.linalg.det(p.dense()) for p in ps]
            geo = np.exp(np.mean(np.log(dets)))
            d = np.linalg.det(mean.dense())
            assert d == pytest.approx(geo, rel=1e-10)
            assert min(dets) - 1e-12 <= d <= max(dets) + 1e-12

    def test_rejects_indefinite_member_and_mixed_sizes(self):
        bad = SpdMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NotSpdError):
            log_cholesky_mean([I2, bad, I2])
        with pytest.raises(DomainError):
            log_cholesky_mean([I2, spd(np.eye(3))])


class TestInterpolate:
    def test_endpoints_exact(self, rng):
        p = random_spd(rng, 3)
        q = random_spd(rng, 3)
        out = interpolate_spd(p, q, [0.0, 1.0])
        rel0 = np.linalg.norm(out[0].dense() - p.dense()) / np.linalg.norm(p.dense())
        rel1 = np.linalg.norm(out[1].dense() - q.dense()) / np.linalg.norm(q.dense())
        assert rel0 < 1e-12 and rel1 < 1e-12

    def test_midpoint_determinant(self, rng):
        p = random_spd(rng, 4)
        q = random_spd(rng, 4)
        [mid] = interpolate_spd(p, q, [0.5])
        expected = np.sqrt(np.linalg.det(p.dense()) * np.linalg.det(q.dense()))
        assert np.linalg.det(mid.dense()) == pytest.approx(expected, rel=1e-12)

    def test_determinant_geodesic_law(self, rng):
        for _ in range(10):
            p = random_spd(rng, 4)
            q = random_spd(rng, 4)
            dp = np.linalg.det(p.dense())
            dq = np.linalg.det(q.dense())
            for t in (0.2, 0.5, 0.9):
                [x] = interpolate_spd(p, q, [t])
                assert np.linalg.det(x.dense()) == pytest.approx(
                    dp ** (1 - t) * dq**t, rel=1e-10
                )

    def test_outputs_refactorize(self, rng):
        p = random_spd(rng, 5)
        q = random_spd(rng, 5)
        for x in interpolate_spd(p, q, np.linspace(0, 1, 7)):
            SpdMatrix.from_dense(x.dense())  # full SPD validation


def test_dim_mismatch():
    with pytest.raises(DomainError):
        dist_spd(I2, spd(np.eye(3)))


P3 = spd(np.eye(3))
W2, W3 = sym(np.eye(2)), sym(np.eye(3))


@pytest.mark.parametrize(
    "call",
    [
        lambda: metric_spd(I2, W2, W3),
        lambda: geodesic_spd(I2, W3, 0.5),
        lambda: exp_spd(I2, W3),
        lambda: log_spd(I2, P3),
        lambda: group_op_spd(I2, P3),
        lambda: transport_spd(I2, P3, W2),
        lambda: transport_spd(I2, I2, W3),
        lambda: interpolate_spd(I2, P3, [0.5]),
    ],
    ids=["metric", "geodesic", "exp", "log", "group_op", "transport_q", "transport_w",
         "interpolate"],
)
def test_every_operation_checks_dimensions(call):
    with pytest.raises(DomainError):
        call()


def test_inputs_left_unchanged(rng):
    values = [random_spd(rng, 4).data, random_spd(rng, 4).data, random_sym(rng, 4).data]
    values.append(cholesky_factor(SpdMatrix(values[0])).data)
    outputs = {}
    for order in ("C", "F"):
        a, b, c, f = (np.array(x, order=order) for x in values)
        p, q, w, l = SpdMatrix(a), SpdMatrix(b), SymMatrix(c), CholeskyFactor(f)
        outputs[order] = [transport_spd(p, q, w).data, exp_spd(p, w).data, diff_S_inv(l, w).data]
        for x, before in zip((a, b, c, f), values):
            assert_array_equal(x, before)
    for x, y in zip(outputs["C"], outputs["F"]):
        assert_allclose(x, y, rtol=1e-13, atol=1e-13 * np.abs(x).max())

