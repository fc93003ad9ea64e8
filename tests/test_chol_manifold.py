import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from oracles import descent_mean_chol, frechet_functional_chol
from support import random_factor, random_tangent

from logchol.chol_manifold import (
    _frechet_mean,
    dist_chol,
    exp_chol,
    frechet_mean_chol,
    geodesic_chol,
    group_identity,
    group_inv,
    group_op,
    log_chol,
    metric_chol,
    transport_chol,
)
from logchol.tri import (
    CholeskyFactor,
    DomainError,
    EmptyInputError,
    LowerTriangular,
)


def factor(dense):
    return CholeskyFactor(np.asarray(dense, dtype=float))


def tangent(dense):
    return LowerTriangular(np.asarray(dense, dtype=float))


I2 = factor(np.eye(2))


class TestMetric:
    def test_identity_base_is_frobenius(self):
        x = tangent([[1, 0], [2, 3]])
        assert metric_chol(I2, x, x) == pytest.approx(14.0, abs=0)

    def test_scaled_diagonal(self):
        l = factor(np.diag([2.0, 2.0]))
        x = tangent(np.eye(2))
        assert metric_chol(l, x, x) == pytest.approx(0.5, abs=0)

    def test_zero(self, rng):
        l = random_factor(rng, 3)
        zero = LowerTriangular(np.zeros((3, 3)))
        assert metric_chol(l, zero, zero) == 0.0

    def test_bilinear_symmetric_positive(self, rng):
        for _ in range(20):
            l = random_factor(rng, 4)
            x = random_tangent(rng, 4)
            y = random_tangent(rng, 4)
            assert metric_chol(l, x, y) == pytest.approx(metric_chol(l, y, x), rel=1e-14)
            assert metric_chol(l, x, x) > 0.0
            two_x = LowerTriangular(2.0 * x.data)
            assert metric_chol(l, two_x, y) == pytest.approx(
                2.0 * metric_chol(l, x, y), rel=1e-13
            )

    @pytest.mark.filterwarnings("error")
    def test_underflowing_weight_reads_inf(self):
        # L_00^2 = 1e-400 underflows to zero, so the weight L_00^-2 is inf.
        x = tangent(np.diag([1.0, 0.0]))
        assert metric_chol(factor(np.diag([1e-200, 1.0])), x, x) == np.inf


class TestGeodesic:
    def test_starts_at_base(self, rng):
        l = random_factor(rng, 3)
        x = random_tangent(rng, 3)
        assert_array_equal(geodesic_chol(l, x, 0.0).data, l.data)

    def test_diagonal_exponential(self):
        out = geodesic_chol(I2, tangent(np.eye(2)), 1.0)
        assert_allclose(out.dense(), np.diag([np.e, np.e]), rtol=1e-15)

    def test_strict_lower_linear(self):
        out = geodesic_chol(I2, tangent([[0, 0], [5, 0]]), 0.5)
        assert_allclose(out.dense(), [[1, 0], [2.5, 1]], atol=0)

    def test_initial_velocity_finite_difference(self, rng):
        h = 1e-6
        for _ in range(10):
            l = random_factor(rng, 4)
            x = random_tangent(rng, 4)
            fd = (geodesic_chol(l, x, h).data - geodesic_chol(l, x, -h).data) / (2 * h)
            assert_allclose(fd, x.data, rtol=1e-6, atol=1e-8)

    def test_constant_speed_distance_law(self, rng):
        for _ in range(20):
            l = random_factor(rng, 4)
            x = random_tangent(rng, 4)
            speed = np.sqrt(metric_chol(l, x, x))
            for s, t in [(-2.0, 1.3), (0.0, 2.0), (-1.1, -0.4), (0.25, 0.75)]:
                d = dist_chol(geodesic_chol(l, x, s), geodesic_chol(l, x, t))
                assert d == pytest.approx(abs(t - s) * speed, rel=1e-10)


class TestExpLog:
    def test_exp_zero(self, rng):
        l = random_factor(rng, 3)
        assert_array_equal(exp_chol(l, LowerTriangular(np.zeros((3, 3)))).data, l.data)

    def test_exp_diagonal(self):
        out = exp_chol(I2, tangent(np.diag([np.log(2.0), np.log(3.0)])))
        assert_allclose(out.dense(), np.diag([2.0, 3.0]), rtol=1e-15)

    def test_log_same_point(self, rng):
        l = random_factor(rng, 4)
        assert_array_equal(log_chol(l, l).data, np.zeros((4, 4)))

    def test_log_diagonal(self):
        out = log_chol(I2, factor(np.diag([2.0, 3.0])))
        assert_allclose(out.dense(), np.diag([np.log(2.0), np.log(3.0)]), atol=0)

    def test_log_strict_lower_only(self):
        out = log_chol(I2, factor([[1, 0], [7, 1]]))
        assert_array_equal(out.dense(), [[0, 0], [7, 0]])

    @pytest.mark.parametrize("m", [2, 3, 5, 10])
    def test_inversion_both_ways(self, m, rng):
        for _ in range(25):
            l = random_factor(rng, m)
            k = random_factor(rng, m)
            x = random_tangent(rng, m)
            assert_allclose(
                exp_chol(l, log_chol(l, k)).data, k.data, rtol=1e-12, atol=1e-13
            )
            assert_allclose(
                log_chol(l, exp_chol(l, x)).data, x.data, rtol=1e-12, atol=1e-12
            )


class TestDistance:
    def test_zero_iff_equal(self, rng):
        l = random_factor(rng, 3)
        assert dist_chol(l, l) == 0.0
        k = random_factor(rng, 3)
        if not np.array_equal(l.data, k.data):
            assert dist_chol(l, k) > 0.0

    def test_diagonal_example(self):
        assert dist_chol(I2, factor(np.diag([np.e, np.e]))) == pytest.approx(
            np.sqrt(2.0), rel=1e-15
        )

    def test_symmetry_and_norm_of_log(self, rng):
        for _ in range(20):
            l = random_factor(rng, 4)
            k = random_factor(rng, 4)
            d = dist_chol(l, k)
            assert d == pytest.approx(dist_chol(k, l), rel=1e-14)
            v = log_chol(l, k)
            assert d == pytest.approx(np.sqrt(metric_chol(l, v, v)), rel=1e-12)

    def test_triangle_inequality(self, rng):
        for _ in range(100):
            a, b, c = (random_factor(rng, 3) for _ in range(3))
            slack = dist_chol(a, b) + dist_chol(b, c) - dist_chol(a, c)
            assert slack >= -1e-12


class TestGroup:
    def test_identity_element(self, rng):
        l = random_factor(rng, 3)
        e = group_identity(3)
        assert_allclose(group_op(l, e).data, l.data, atol=0)
        assert_allclose(group_op(e, l).data, l.data, atol=0)

    @pytest.mark.parametrize("dim", [-1, 0, 2.5, True])
    def test_identity_rejects_a_bad_dimension(self, dim):
        with pytest.raises(DomainError, match="positive integer"):
            group_identity(dim)

    def test_diagonal_multiplication(self):
        out = group_op(factor(np.diag([2.0, 3.0])), factor(np.diag([5.0, 7.0])))
        assert_array_equal(out.dense(), np.diag([10.0, 21.0]))
        assert type(out) is CholeskyFactor

    def test_strict_lower_addition(self):
        out = group_op(factor([[1, 0], [4, 1]]), factor([[1, 0], [-4, 1]]))
        assert_array_equal(out.dense(), np.eye(2))

    def test_inverse_examples(self):
        assert_array_equal(group_inv(group_identity(3)).dense(), np.eye(3))
        assert_array_equal(
            group_inv(factor(np.diag([2.0, 4.0]))).dense(), np.diag([0.5, 0.25])
        )
        assert_array_equal(
            group_inv(factor([[2, 0], [3, 2]])).dense(), [[0.5, 0], [-3, 0.5]]
        )

    def test_axioms(self, rng):
        for _ in range(25):
            a, b, c = (random_factor(rng, 4) for _ in range(3))
            assert_allclose(
                group_op(group_op(a, b), c).data,
                group_op(a, group_op(b, c)).data,
                rtol=1e-13,
                atol=1e-13,
            )
            assert_allclose(group_op(a, b).data, group_op(b, a).data, atol=0)
            assert_allclose(
                group_op(a, group_inv(a)).dense(), np.eye(4), atol=1e-13
            )

    def test_bi_invariance(self, rng):
        for _ in range(25):
            a, l, k = (random_factor(rng, 4) for _ in range(3))
            d0 = dist_chol(l, k)
            d1 = dist_chol(group_op(a, l), group_op(a, k))
            assert d1 == pytest.approx(d0, rel=1e-12)

    def test_non_factor_result_raises(self):
        # The group lives on factors: a nonpositive product diagonal is no factor.
        x = tangent([[1, 0], [2, -3]])
        y = tangent([[2, 0], [1, 5]])
        with pytest.raises(DomainError):
            group_op(x, y)


class TestTransport:
    def test_identity_transport(self, rng):
        l = random_factor(rng, 3)
        x = random_tangent(rng, 3)
        assert_array_equal(transport_chol(l, l, x).data, x.data)

    def test_diagonal_rescaling(self):
        out = transport_chol(I2, factor(np.diag([3.0, 3.0])), tangent(np.diag([1.0, 2.0])))
        assert_array_equal(out.dense(), np.diag([3.0, 6.0]))

    def test_strict_lower_untouched(self, rng):
        for _ in range(10):
            l = random_factor(rng, 4)
            k = random_factor(rng, 4)
            x = random_tangent(rng, 4)
            out = transport_chol(l, k, x)
            assert_array_equal(np.tril(out.data, -1), np.tril(x.data, -1))

    def test_metric_preservation(self, rng):
        for _ in range(50):
            l = random_factor(rng, 4)
            k = random_factor(rng, 4)
            x = random_tangent(rng, 4)
            y = random_tangent(rng, 4)
            before = metric_chol(l, x, y)
            after = metric_chol(k, transport_chol(l, k, x), transport_chol(l, k, y))
            assert after == pytest.approx(before, rel=1e-12, abs=1e-14)

    def test_path_independence(self, rng):
        for _ in range(50):
            l, k, r = (random_factor(rng, 4) for _ in range(3))
            x = random_tangent(rng, 4)
            via_k = transport_chol(k, r, transport_chol(l, k, x))
            direct = transport_chol(l, r, x)
            assert_allclose(via_k.data, direct.data, rtol=1e-13, atol=1e-14)
            back = transport_chol(k, l, transport_chol(l, k, x))
            assert_allclose(back.data, x.data, rtol=1e-13, atol=1e-14)

    def test_matches_group_translation_differential(self, rng):
        # transport from L to K is the differential of left translation by
        # K . L^-1: strict lower part kept, diagonal scaled by D(K)/D(L)
        for _ in range(20):
            l = random_factor(rng, 4)
            k = random_factor(rng, 4)
            x = random_tangent(rng, 4)
            a = group_op(k, group_inv(l))
            expected = np.tril(x.data, -1) + np.diag(a.diag * x.diag)
            assert_allclose(transport_chol(l, k, x).data, expected, rtol=1e-13, atol=1e-14)


class TestMean:
    def test_single_and_repeated(self, rng):
        l = random_factor(rng, 3)
        assert_array_equal(frechet_mean_chol([l]).data, l.data)
        out = frechet_mean_chol([l, l, l])
        assert_allclose(out.data, l.data, rtol=1e-15)

    def test_empty_raises(self):
        with pytest.raises(EmptyInputError):
            frechet_mean_chol([])

    def test_mixed_sizes_raise(self):
        with pytest.raises(DomainError):
            frechet_mean_chol([I2, factor(np.eye(3))])

    def test_diagonal_geometric_mean(self):
        out = frechet_mean_chol([I2, factor(np.diag([np.e**2, np.e**2]))])
        assert_allclose(out.dense(), np.diag([np.e, np.e]), rtol=1e-15)

    def test_matches_descent_oracle(self, rng):
        for _ in range(10):
            ls = [random_factor(rng, 4) for _ in range(6)]
            closed = frechet_mean_chol(ls)
            iterated = descent_mean_chol(ls)
            assert dist_chol(closed, iterated) < 1e-8
            # and the closed form does not score worse on the functional
            assert frechet_functional_chol(closed, ls) <= frechet_functional_chol(
                iterated, ls
            ) + 1e-10

    def test_mean_at_the_float_max(self):
        # The members' strict parts sum past the float max; their mean does
        # not, so it is returned, with no warning.
        l = factor([[1.0, 0.0], [1.7e308, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_array_equal(frechet_mean_chol([l, l]).data, l.data)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_a_stack_of_trials_has_each_trials_bits(self, rng, n, m):
        # One call on a (k, n, m, m) stack gives each trial the bits of its own
        # call, a trial at the float max included: its strict parts sum past
        # it, so its mean is the sum of L_i / n, and the other trials' are not.
        trials = [[random_factor(rng, m).data for _ in range(n)] for _ in range(5)]
        if m > 1:
            l = np.eye(m)
            l[-1, 0] = 1.7e308
            trials[2] = [l] * n
        for layout in (np.stack, lambda ls: np.stack([x.T for x in ls]).swapaxes(-1, -2)):
            ls = np.stack([layout(t) for t in trials])
            out = _frechet_mean(ls)
            assert out.shape == (5, m, m)
            for got, members in zip(out, ls):
                assert got.tobytes() == _frechet_mean(members).tobytes()
        if m > 1:  # finite, and the members' mean within rounding
            assert_allclose(out[2], l, rtol=1e-15)

    def test_determinant_identity(self, rng):
        ls = [random_factor(rng, 4) for _ in range(7)]
        mean = frechet_mean_chol(ls)
        geo = np.exp(np.mean([np.log(np.prod(l.diag)) for l in ls]))
        assert np.prod(mean.diag) == pytest.approx(geo, rel=1e-12)
