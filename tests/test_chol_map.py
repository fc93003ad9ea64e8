import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from oracles import central_difference_diff_S, cholesky_factor_recursive, diff_S_inv_mp
from support import random_factor, random_tangent

from logchol import baselines as bl
from logchol import chol_manifold as cm
from logchol import chol_map
from logchol.chol_map import (
    _congruence,
    _reconstruct,
    _spd_point,
    cholesky_factor,
    diff_S,
    diff_S_inv,
    reconstruct,
)
from logchol.sampling import random_spd, random_spd_with_condition, random_sym
from logchol.spd_manifold import exp_spd, log_cholesky_mean
from logchol.tri import (
    CholeskyFactor,
    DomainError,
    LowerTriangular,
    NotSpdError,
    SpdMatrix,
    SymMatrix,
    _eigh,
    _factor,
    _sym,
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


def test_a_mean_reads_its_members_factors(rng):
    # Bit for bit: a mean refactors no member by another routine.
    kernels = {log_cholesky_mean: cm._frechet_mean, bl.cholesky_mean: lambda ls: ls.mean(axis=0)}
    for m in (1, 2, 5, 12):
        for wrap in (SpdMatrix, SpdMatrix.from_dense):
            members = [wrap(random_spd(rng, m).data) for _ in range(8)]
            factors = np.stack([cholesky_factor(P).data for P in members])
            for mean, kernel in kernels.items():
                want = _spd_point(kernel(factors)).data
                assert mean(members).data.tobytes() == want.tobytes(), (m, wrap, mean)


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
    with pytest.raises(NotSpdError):
        _factor(np.asarray(bad, dtype=float))


def test_recursive_matches_lapack(rng):
    for m in (2, 3, 5, 10):
        for _ in range(10):
            p = random_spd(rng, m)
            a = cholesky_factor(p)
            b = cholesky_factor_recursive(p)
            assert_allclose(a.data, b.data, rtol=1e-12, atol=1e-13)


def test_reconstruct_examples():
    l = CholeskyFactor(np.array([[2.0, 0.0], [1.0, 2.0]]))
    assert_allclose(reconstruct(l).dense(), [[4, 2], [2, 5]], atol=0)
    assert_array_equal(reconstruct(CholeskyFactor(np.eye(3))).dense(), np.eye(3))
    eps = 0.1
    l = CholeskyFactor(np.diag([eps, 1.0]))
    assert_allclose(reconstruct(l).dense(), np.diag([eps**2, 1.0]), atol=0)
    # Up to the float max: the product is not symmetrized, so nothing doubles.
    big = reconstruct(CholeskyFactor(np.diag([1e154, 1.0]))).dense()
    assert_allclose(big, np.diag([1e308, 1.0]), rtol=1e-15, atol=0)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 33, 128])
def test_factor_products_are_exactly_symmetric(rng, m):
    # _reconstruct returns k @ k.T as computed: numpy forms it with one BLAS
    # syrk and mirrors the triangle, so it is symmetric bit for bit.  The
    # factors: Log-Cholesky ones, and the spectral baselines' U e^{Lambda/2},
    # L U e^{Lambda/2} and L U Lambda^{t/2}.
    l = _factor(random_spd(rng, m).data)
    x = diff_S_inv(CholeskyFactor(l), random_sym(rng, m)).data
    e = bl._exp_factor(0.3 * random_sym(rng, m).data)
    w, u = _eigh(_sym(_congruence(l, random_spd(rng, m).data)))
    factors = [
        l,
        cm._geodesic(l, x, 0.7),
        cm._group_inv(l),
        cm._frechet_mean(np.stack([l, cm._geodesic(l, x, 0.3)])),
        e,
        l @ e,
        (l @ u) * w**0.35,
    ]
    for k in factors:
        s = k @ k.T
        assert_array_equal(s, s.T)
        assert_array_equal(_reconstruct(k), s)


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
    i2 = CholeskyFactor(np.eye(2))
    x = LowerTriangular(np.array([[1.0, 0.0], [2.0, 3.0]]))
    assert_allclose(diff_S(i2, x).dense(), [[2, 2], [2, 6]], atol=0)

    zero = LowerTriangular(np.zeros((2, 2)))
    l = CholeskyFactor(np.array([[1.3, 0.0], [0.4, 2.0]]))
    assert_array_equal(diff_S(l, zero).dense(), np.zeros((2, 2)))

    l = CholeskyFactor(np.diag([2.0, 2.0]))
    x = LowerTriangular(np.eye(2))
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
    i2 = CholeskyFactor(np.eye(2))
    w = SymMatrix.from_dense(np.array([[2.0, 2.0], [2.0, 6.0]]))
    assert_allclose(diff_S_inv(i2, w).dense(), [[1, 0], [2, 3]], atol=0)

    zero = SymMatrix(np.zeros((2, 2)))
    l = CholeskyFactor(np.array([[2.0, 0.0], [1.0, 2.0]]))
    assert_array_equal(diff_S_inv(l, zero).dense(), np.zeros((2, 2)))


@pytest.mark.parametrize("kappa", [1e2, 1e6, 1e10, 1e15])
@pytest.mark.parametrize("m", [1, 2, 5, 12])
def test_diff_S_inv_matches_extended_precision(rng, kappa, m):
    for _ in range(3):
        l = cholesky_factor(random_spd_with_condition(rng, m, kappa))
        w = random_sym(rng, m)
        ref = diff_S_inv_mp(l.data, w.data)
        err = np.linalg.norm(diff_S_inv(l, w).data - ref) / np.linalg.norm(ref)
        assert err <= 1e-12


# A _BLOCK no pullback reaches: the leaf congruence at every m.
NO_SPLIT = 1 << 30


@pytest.mark.parametrize("kappa", [1e2, 1e8, 1e15])
@pytest.mark.parametrize("m", [9, 13, 16])
def test_blocked_diff_S_inv_matches_extended_precision(rng, monkeypatch, kappa, m):
    # Leaves of at most 4: m = 9 splits into 4 and 5, the 5 into 2 and 3.
    monkeypatch.setattr(chol_map, "_BLOCK", 4)
    for _ in range(3):
        l = cholesky_factor(random_spd_with_condition(rng, m, kappa))
        w = random_sym(rng, m)
        ref = diff_S_inv_mp(l.data, w.data)
        err = np.linalg.norm(diff_S_inv(l, w).data - ref) / np.linalg.norm(ref)
        assert err <= 1e-13


@pytest.mark.parametrize("m", [65, 97, 128])
def test_blocked_diff_S_inv_agrees_with_the_leaf(rng, monkeypatch, m):
    for p in (random_spd(rng, m), random_spd_with_condition(rng, m, 1e8)):
        l, w = cholesky_factor(p), random_sym(rng, m)
        blocked = diff_S_inv(l, w).data
        monkeypatch.setattr(chol_map, "_BLOCK", NO_SPLIT)
        leaf = diff_S_inv(l, w).data
        monkeypatch.undo()
        assert np.linalg.norm(blocked - leaf) <= 1e-13 * np.linalg.norm(leaf)
        assert not np.triu(blocked, 1).any()
        back = diff_S(l, LowerTriangular(blocked)).data
        assert np.linalg.norm(back - w.data) <= 1e-13 * np.linalg.norm(w.data)


def test_blocked_and_leaf_pullbacks_overflow_alike(rng, monkeypatch):
    # At m = 128: tangents from 1e-300 to 1e308, on which the pullback stays
    # finite up to 1e306 and the exp only up to 10; and factors whose
    # off-diagonal block is scaled up, on which the block recurrence's
    # product X21 L21^T overflows from 1e160 on.  Either form gives each
    # outcome, with no numpy warning.
    m = 128
    p = random_spd(rng, m)
    g = random_sym(rng, m).data
    ws = [SymMatrix(s * (g / np.abs(g).max()))
          for s in (1e-300, 1.0, 10.0, 1e3, 1e100, 1e300, 1e306, 1e307, 1e308)]
    l = cholesky_factor(p)
    ls = []
    for s in (1e100, 1e150, 1e160, 1e200):
        k = l.data.copy()
        k[m // 2:, : m // 2] *= s
        ls.append(CholeskyFactor(k))

    def outcomes():
        ops = [lambda w=w: diff_S_inv(l, w) for w in ws]
        ops += [lambda w=w: exp_spd(p, w) for w in ws]
        ops += [lambda k=k: diff_S_inv(k, ws[1]) for k in ls]
        seen = []
        for op in ops:
            try:
                seen.append(bool(np.isfinite(op().data).all()))
            except DomainError:
                seen.append("DomainError")
        return seen

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        blocked = outcomes()
        monkeypatch.setattr(chol_map, "_BLOCK", NO_SPLIT)
        leaf = outcomes()
    assert blocked == leaf
    assert blocked == ([True] * 7 + ["DomainError"] * 2 + [True] * 3 + ["DomainError"] * 6
                       + [True] * 2 + ["DomainError"] * 2)


@pytest.mark.parametrize("n", [1, 2, 20])
@pytest.mark.parametrize("m", [1, 2, 5, 12])
def test_congruence_of_a_stack_is_per_member(rng, m, n):
    l = cholesky_factor(random_spd_with_condition(rng, m, 1e6)).data
    ws = np.stack([random_sym(rng, m).data for _ in range(n)])
    out = _congruence(l, ws)
    assert out.shape == (n, m, m)
    for w, h in zip(ws, out, strict=True):
        ref = _congruence(l, w)
        assert np.linalg.norm(h - ref) <= 1e-15 * np.linalg.norm(ref)


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
    l = CholeskyFactor(np.eye(2))
    x = LowerTriangular(np.eye(3))
    with pytest.raises(DomainError):
        diff_S(l, x)
