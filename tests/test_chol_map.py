import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from oracles import central_difference_diff_S, cholesky_factor_recursive, diff_S_inv_mp

from logchol.chol_map import (
    _factor,
    cholesky_factor,
    diff_S,
    diff_S_inv,
    reconstruct,
)
from logchol.sampling import (
    random_factor,
    random_spd,
    random_spd_with_condition,
    random_sym,
    random_tangent,
)
from logchol.tri import (
    CholeskyFactor,
    DomainError,
    LowerTriangular,
    NotSpdError,
    SpdMatrix,
    SymMatrix,
)


def test_factor_2x2():
    p = SpdMatrix.from_dense(np.array([[4.0, 2.0], [2.0, 5.0]]))
    l = cholesky_factor(p)
    assert_allclose(l.dense(), [[2, 0], [1, 2]], atol=1e-15)
    assert_allclose(l.dense() @ l.dense().T, p.dense(), atol=1e-14)


def test_factor_identity():
    p = SpdMatrix.from_dense(np.eye(4))
    assert_array_equal(cholesky_factor(p).dense(), np.eye(4))


def test_factor_counterexample_endpoint():
    # diag(eps^2, 1) factors to diag(eps, 1)
    eps = 0.1
    p = SpdMatrix.from_dense(np.diag([eps**2, 1.0]))
    assert_allclose(cholesky_factor(p).dense(), np.diag([eps, 1.0]), atol=1e-16)


def test_factor_rejects_indefinite():
    # positive diagonal but indefinite: passes the cheap constructor check,
    # must fail at factorization
    p = SpdMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NotSpdError):
        cholesky_factor(p)
    with pytest.raises(NotSpdError):
        cholesky_factor_recursive(p)


def test_factor_matrix_and_stack_agree(rng):
    for m in (1, 2, 5, 12):
        stack = np.stack([random_spd(rng, m).data for _ in range(8)])
        ls = _factor(stack)
        for p, l in zip(stack, ls):
            one = _factor(p)
            assert_array_equal(np.triu(one, 1), 0.0)
            assert_allclose(one, l, rtol=1e-14, atol=1e-14 * np.abs(l).max())


@pytest.mark.parametrize(
    "bad",
    [
        [[-1.0]],
        [[0.0]],
        [[1.0, 2.0], [2.0, 1.0]],
        [[1.0, 1.0], [1.0, 1.0]],
        np.diag([1.0, 0.0, 2.0]),
    ],
    ids=["negative-1x1", "zero-1x1", "indefinite", "singular", "zero-pivot"],
)
def test_factor_rejects_non_spd_at_both_ranks(bad):
    a = np.asarray(bad, dtype=float)
    with pytest.raises(NotSpdError):
        _factor(a)
    with pytest.raises(NotSpdError):
        _factor(np.stack([np.eye(a.shape[0]), a]))


def test_recursive_matches_lapack(rng):
    for m in (2, 3, 5, 10):
        for _ in range(10):
            p = random_spd(rng, m)
            a = cholesky_factor(p)
            b = cholesky_factor_recursive(p)
            assert_allclose(a.data, b.data, rtol=1e-12, atol=1e-13)


def test_reconstruct_examples():
    l = CholeskyFactor.from_dense(np.array([[2.0, 0.0], [1.0, 2.0]]))
    assert_allclose(reconstruct(l).dense(), [[4, 2], [2, 5]], atol=0)
    assert_array_equal(reconstruct(CholeskyFactor.from_dense(np.eye(3))).dense(), np.eye(3))
    eps = 0.1
    l = CholeskyFactor.from_dense(np.diag([eps, 1.0]))
    assert_allclose(reconstruct(l).dense(), np.diag([eps**2, 1.0]), atol=0)


def test_bijection_both_ways(rng):
    for _ in range(25):
        l = random_factor(rng, 5)
        back = cholesky_factor(reconstruct(l))
        assert_allclose(back.data, l.data, rtol=1e-12, atol=1e-13)
        p = random_spd(rng, 5)
        again = reconstruct(cholesky_factor(p))
        rel = np.linalg.norm(again.dense() - p.dense()) / np.linalg.norm(p.dense())
        assert rel < 1e-12


def test_diff_S_examples():
    i2 = CholeskyFactor.from_dense(np.eye(2))
    x = LowerTriangular.from_dense(np.array([[1.0, 0.0], [2.0, 3.0]]))
    assert_allclose(diff_S(i2, x).dense(), [[2, 2], [2, 6]], atol=0)

    zero = LowerTriangular(np.zeros((2, 2)))
    l = CholeskyFactor.from_dense(np.array([[1.3, 0.0], [0.4, 2.0]]))
    assert_array_equal(diff_S(l, zero).dense(), np.zeros((2, 2)))

    l = CholeskyFactor.from_dense(np.diag([2.0, 2.0]))
    x = LowerTriangular.from_dense(np.eye(2))
    assert_allclose(diff_S(l, x).dense(), np.diag([4.0, 4.0]), atol=0)


def test_diff_S_matches_dense_matmul(rng):
    for _ in range(20):
        l = random_factor(rng, 4)
        x = random_tangent(rng, 4)
        expected = l.dense() @ x.dense().T + x.dense() @ l.dense().T
        assert_allclose(diff_S(l, x).dense(), expected, atol=1e-13)


def test_diff_S_linearity(rng):
    l = random_factor(rng, 5)
    x = random_tangent(rng, 5)
    y = random_tangent(rng, 5)
    a, b = 1.7, -0.3
    combo = LowerTriangular(a * x.data + b * y.data)
    lhs = diff_S(l, combo).dense()
    rhs = a * diff_S(l, x).dense() + b * diff_S(l, y).dense()
    assert_allclose(lhs, rhs, atol=1e-13)


def test_diff_S_inv_examples():
    i2 = CholeskyFactor.from_dense(np.eye(2))
    w = SymMatrix.from_dense(np.array([[2.0, 2.0], [2.0, 6.0]]))
    assert_allclose(diff_S_inv(i2, w).dense(), [[1, 0], [2, 3]], atol=0)

    zero = SymMatrix(np.zeros((2, 2)))
    l = CholeskyFactor.from_dense(np.array([[2.0, 0.0], [1.0, 2.0]]))
    assert_array_equal(diff_S_inv(l, zero).dense(), np.zeros((2, 2)))


@pytest.mark.parametrize("kappa", [1e2, 1e6, 1e10, 1e15])
@pytest.mark.parametrize("m", [1, 2, 5, 12])
def test_diff_S_inv_matches_extended_precision(rng, kappa, m):
    pytest.importorskip("mpmath")
    for _ in range(3):
        l = cholesky_factor(random_spd_with_condition(rng, m, kappa))
        w = random_sym(rng, m)
        ref = diff_S_inv_mp(l.data, w.data)
        err = np.linalg.norm(diff_S_inv(l, w).data - ref) / np.linalg.norm(ref)
        assert err <= 1e-12


def test_diff_roundtrips(rng):
    for _ in range(25):
        l = random_factor(rng, 5)
        x = random_tangent(rng, 5)
        back = diff_S_inv(l, diff_S(l, x))
        assert_allclose(back.data, x.data, rtol=1e-12, atol=1e-12)
        w = random_sym(rng, 5)
        again = diff_S(l, diff_S_inv(l, w))
        assert_allclose(again.dense(), w.dense(), rtol=1e-12, atol=1e-12)


def test_diff_S_finite_difference(rng):
    for _ in range(100):
        l = random_factor(rng, 4)
        x = random_tangent(rng, 4)
        fd = central_difference_diff_S(l, x, h=1e-6)
        exact = diff_S(l, x).dense()
        rel = np.linalg.norm(fd - exact) / max(1.0, np.linalg.norm(exact))
        assert rel < 1e-6


def test_dim_mismatch():
    l = CholeskyFactor.from_dense(np.eye(2))
    x = LowerTriangular.from_dense(np.eye(3))
    with pytest.raises(DomainError):
        diff_S(l, x)
