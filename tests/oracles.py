"""Independent oracles used by the test suite.

These deliberately avoid the closed forms they are checking: means are
recomputed by Riemannian gradient descent on the Frechet functional,
differentials by central finite differences on dense arrays, the
Cholesky factor by its column recurrences, the Log-Cholesky exponential by
its closed form in extended precision, the affine-invariant Karcher
mean by per-member logarithms and exponentials, and the affine-invariant
inner product by an explicit inverse.  The affine-invariant and
Log-Euclidean matrix functions are evaluated in extended precision through
``mpmath.eigsy``, the Log-Euclidean differentials of ``log`` and ``exp`` by
the Daleckii-Krein formula, and so are the five distances, each the Frobenius
norm of its own difference summed entry by entry; the Log-Cholesky distance,
logarithm and transport also come from ``mpmath.cholesky`` alone.  The
extended-precision oracles take their float inputs exactly and round each
result once.
"""
from __future__ import annotations

import math

import mpmath
import numpy as np

from logchol import baselines as bl
from logchol import chol_manifold as cm
from logchol import spd_manifold as sm
from logchol.tri import (
    CholeskyFactor,
    LowerTriangular,
    NoConvergenceError,
    NotSpdError,
    SpdMatrix,
    SymMatrix,
)


def cholesky_factor_recursive(P: SpdMatrix) -> CholeskyFactor:
    """Column-oriented evaluation of the factorization recurrences.

    Reference route for :func:`logchol.cholesky_factor`, which delegates to
    LAPACK.
    """
    a = P.dense()
    m = P.dim
    f = np.zeros((m, m))
    for j in range(m):
        pivot = a[j, j] - f[j, :j] @ f[j, :j]
        if not np.isfinite(pivot) or pivot <= 0.0:
            raise NotSpdError(f"nonpositive pivot {pivot!r} at column {j}")
        f[j, j] = np.sqrt(pivot)
        f[j + 1 :, j] = (a[j + 1 :, j] - f[j + 1 :, :j] @ f[j, :j]) / f[j, j]
    return CholeskyFactor(f)


def descent_mean_spd(Ps, step=1.0, tol=1e-12, max_iter=200) -> SpdMatrix:
    """Frechet mean by gradient descent along the negative functional gradient."""
    s = Ps[0]
    for _ in range(max_iter):
        grad = np.mean([sm.log_spd(s, p).dense() for p in Ps], axis=0)
        if np.linalg.norm(grad) < tol:
            break
        w = SymMatrix((grad + grad.T) / 2.0)
        s = sm.exp_spd(s, SymMatrix(step * w.data))
    return s


def karcher_mean_per_member(Ps) -> SpdMatrix:
    """Affine-invariant Karcher mean composed from the typed maps.

    The same unit-step fixed point as :func:`logchol.affine_karcher_mean`
    from the same start, with the same stop: the gradient's affine-invariant
    norm at most ``KARCHER_TOL``.  But each step takes one ``affine_log`` per
    member and one ``affine_exp``, each of which whitens by the iterate
    afresh, and the norm comes from :func:`affine_inner`'s explicit inverse.
    """
    if len(Ps) == 1:
        return Ps[0]
    mean = SpdMatrix(bl.get_metric("euclidean").mean(Ps).data)
    for _ in range(bl.KARCHER_MAX_ITER):
        grad = np.mean([bl.affine_log(mean, P).data for P in Ps], axis=0)
        grad = SymMatrix((grad + grad.T) / 2.0)
        if math.sqrt(affine_inner(mean, grad, grad)) <= bl.KARCHER_TOL:
            return mean
        mean = bl.affine_exp(mean, grad)
    raise NoConvergenceError("reference Karcher iteration did not converge")


def affine_inner(P: SpdMatrix, W: SymMatrix, V: SymMatrix) -> float:
    """Affine-invariant inner product ``tr(P^-1 W P^-1 V)``.

    Formed with an explicit inverse, so that it shares nothing with the
    Cholesky whitening of the affine-invariant operations it checks.
    """
    pinv = np.linalg.inv(P.data)
    return float(np.trace(pinv @ W.data @ pinv @ V.data))


def descent_mean_chol(Ls, step=1.0, tol=1e-12, max_iter=200) -> CholeskyFactor:
    s = Ls[0]
    for _ in range(max_iter):
        grads = np.mean([cm.log_chol(s, l).data for l in Ls], axis=0)
        if np.linalg.norm(grads) < tol:
            break
        s = cm.exp_chol(s, LowerTriangular(step * grads))
    return s


def frechet_functional_chol(s, Ls) -> float:
    return sum(cm.dist_chol(s, l) ** 2 for l in Ls)


def frechet_functional_spd(s, Ps) -> float:
    return sum(sm.dist_spd(s, p) ** 2 for p in Ps)


def central_difference_diff_S(L, X, h=1e-6) -> np.ndarray:
    """Finite-difference directional derivative of ``L -> L L^T``."""
    ld = L.dense()
    xd = X.dense()
    fp = (ld + h * xd) @ (ld + h * xd).T
    fm = (ld - h * xd) @ (ld - h * xd).T
    return (fp - fm) / (2.0 * h)


def _diff_S_inv_mpf(L, W, m: int):
    """``diff_S_inv`` on ``m x m`` nested lists of ``mpf`` by the recurrences
    of the differentiated Cholesky factorization; no congruence is formed."""
    X = [[mpmath.mpf(0) for _ in range(m)] for _ in range(m)]
    for j in range(m):
        s = sum((L[j][k] * X[j][k] for k in range(j)), mpmath.mpf(0))
        X[j][j] = (W[j][j] / 2 - s) / L[j][j]
        for i in range(j + 1, m):
            s = sum((L[i][k] * X[j][k] + X[i][k] * L[j][k] for k in range(j)), mpmath.mpf(0))
            X[i][j] = (W[i][j] - L[i][j] * X[j][j] - s) / L[j][j]
    return X


def _mpf_rows(a: np.ndarray):
    return [[mpmath.mpf(float(x)) for x in row] for row in a]


def diff_S_inv_mp(l: np.ndarray, w: np.ndarray, dps: int = 50) -> np.ndarray:
    """The lower triangular ``X`` with ``L X^T + X L^T = W``, in extended precision.

    Solves the equation entry by entry, column by column.  The float inputs
    are taken exactly and the result is rounded once.
    """
    m = l.shape[0]
    with mpmath.workdps(dps):
        X = _diff_S_inv_mpf(_mpf_rows(l), _mpf_rows(w), m)
        return np.array([[float(X[i][j]) for j in range(m)] for i in range(m)])


def exp_spd_mp(p: np.ndarray, w: np.ndarray, dps: int = 50) -> np.ndarray:
    """The Log-Cholesky exponential ``K K^T`` of ``W`` at ``P``, in extended
    precision: with ``P = L L^T`` (``mpmath.cholesky``) and ``X`` the lower
    triangular solution of ``L X^T + X L^T = W``, ``K`` is ``L + X`` below
    the diagonal and ``L_jj exp(X_jj / L_jj)`` on it."""
    m = p.shape[0]
    with mpmath.workdps(dps):
        C = mpmath.cholesky(mpmath.matrix(p.tolist()))
        L = [[C[i, j] for j in range(m)] for i in range(m)]
        X = _diff_S_inv_mpf(L, _mpf_rows(w), m)
        K = mpmath.matrix(m, m)
        for i in range(m):
            for j in range(i):
                K[i, j] = L[i][j] + X[i][j]
            K[i, i] = L[i][i] * mpmath.exp(X[i][i] / L[i][i])
        return np.array((K * K.T).tolist(), dtype=float)


def _spectral_mp(a, f):
    """``U diag(f(lam)) U^T`` of a symmetric ``mpmath`` matrix ``a = U diag(lam) U^T``."""
    lam, U = mpmath.eigsy(a)
    return U * mpmath.diag([f(x) for x in lam]) * U.T


def _whitened_mp(p: np.ndarray, x: np.ndarray):
    """``L`` and ``L^{-1} X L^{-T}`` with ``P = L L^T`` (``mpmath.cholesky``)."""
    L = mpmath.cholesky(mpmath.matrix(p.tolist()))
    Li = L**-1
    return L, Li * mpmath.matrix(x.tolist()) * Li.T


def affine_exp_mp(p: np.ndarray, w: np.ndarray, dps: int = 50) -> np.ndarray:
    """The affine-invariant exponential ``L exp(L^{-1} W L^{-T}) L^T`` with
    ``P = L L^T``, in extended precision."""
    with mpmath.workdps(dps):
        L, c = _whitened_mp(p, w)
        return np.array((L * _spectral_mp(c, mpmath.exp) * L.T).tolist(), dtype=float)


def affine_geodesic_mp(p: np.ndarray, q: np.ndarray, t: float, dps: int = 50) -> np.ndarray:
    """The affine-invariant geodesic point ``L (L^{-1} Q L^{-T})^t L^T`` with
    ``P = L L^T``, in extended precision."""
    with mpmath.workdps(dps):
        L, c = _whitened_mp(p, q)
        s = _spectral_mp(c, lambda x: x ** mpmath.mpf(t))
        return np.array((L * s * L.T).tolist(), dtype=float)


def logeuclid_mean_mp(ps, weights=None, dps: int = 50) -> np.ndarray:
    """``exp(sum_i c_i log P_i)`` in extended precision, with the weights
    ``c_i`` equal by default: the Log-Euclidean mean, and with the weights
    ``(1 - t, t)`` its interpolant at ``t``."""
    n = len(ps)
    with mpmath.workdps(dps):
        cs = [mpmath.mpf(1) / n] * n if weights is None else [mpmath.mpf(c) for c in weights]
        s = sum(
            (c * _spectral_mp(mpmath.matrix(p.tolist()), mpmath.log) for c, p in zip(cs, ps)),
            mpmath.zeros(ps[0].shape[0]),
        )
        return np.array(_spectral_mp(s, mpmath.exp).tolist(), dtype=float)


def affine_mp(p: np.ndarray, q: np.ndarray, w: np.ndarray, dps: int = 50):
    """Affine-invariant distance, ``log_P Q`` and the transport of ``W`` from
    ``P`` to ``Q``, in extended precision.

    With ``P = L L^T`` (``mpmath.cholesky``) and ``L^{-1} Q L^{-T} = U diag(lam) U^T``
    (``mpmath.eigsy``): the distance is ``|log lam|``, the logarithm is
    ``L U diag(log lam) U^T L^T`` and the transport ``E W E^T`` with
    ``E = (Q P^{-1})^{1/2} = L U diag(sqrt lam) U^T L^{-1}``.
    """
    m = p.shape[0]
    with mpmath.workdps(dps):
        P, Q, W = (mpmath.matrix(a.tolist()) for a in (p, q, w))
        L = mpmath.cholesky(P)
        Li = L**-1
        lam, U = mpmath.eigsy(Li * Q * Li.T)

        def spectral(f):
            return U * mpmath.diag([f(lam[i]) for i in range(m)]) * U.T

        dist = mpmath.sqrt(sum(mpmath.log(lam[i]) ** 2 for i in range(m)))
        log = L * spectral(mpmath.log) * L.T
        e = L * spectral(mpmath.sqrt) * Li
        transport = e * W * e.T
        return (
            float(dist),
            np.array(log.tolist(), dtype=float),
            np.array(transport.tolist(), dtype=float),
        )


def _divided_differences(f, df, x):
    """The matrix of first divided differences of ``f`` at the nodes ``x``:
    ``(f(x_i) - f(x_j)) / (x_i - x_j)``, and ``df(x_i)`` where ``x_i = x_j``."""
    n = len(x)
    return mpmath.matrix([[df(x[i]) if x[i] == x[j] else (f(x[i]) - f(x[j])) / (x[i] - x[j])
                           for j in range(n)] for i in range(n)])


def _daleckii_krein(lam, U, f, df, h):
    """``Df(A)[H]`` of the symmetric ``A = U diag(lam) U^T``, ``lam`` a list,
    by the Daleckii-Krein formula ``U ((U^T H U) o F) U^T``, ``F`` the divided
    differences of ``f`` at ``lam`` and ``o`` the entrywise product."""
    F = _divided_differences(f, df, lam)
    H = U.T * h * U
    return U * mpmath.matrix([[H[i, j] * F[i, j] for j in range(H.cols)]
                              for i in range(H.rows)]) * U.T


def logeuclid_mp(p: np.ndarray, q: np.ndarray, w: np.ndarray, dps: int = 50):
    """Log-Euclidean distance, ``log_P Q`` and the transport of ``W`` from
    ``P`` to ``Q``, in extended precision.

    With ``P = U diag(lam) U^T`` and ``Q = V diag(mu) V^T`` (``mpmath.eigsy``):
    the distance is ``|log P - log Q|``; the logarithm is the derivative of
    ``exp`` at ``log P`` along ``log Q - log P``, and the transport that of
    ``exp`` at ``log Q`` along the derivative of ``log`` at ``P`` along ``W``,
    each by the Daleckii-Krein formula: the divided differences of ``exp`` at
    ``log lam`` (at ``log mu``) and of ``log`` at ``lam``.  No power series is
    summed.
    """
    m = p.shape[0]
    with mpmath.workdps(dps):
        P, Q, W = (mpmath.matrix(a.tolist()) for a in (p, q, w))
        (lam, U), (mu, V) = mpmath.eigsy(P), mpmath.eigsy(Q)
        lam = [lam[i] for i in range(m)]
        log_lam = [mpmath.log(x) for x in lam]
        log_mu = [mpmath.log(mu[i]) for i in range(m)]
        log_p = U * mpmath.diag(log_lam) * U.T
        gap = log_p - V * mpmath.diag(log_mu) * V.T
        dist = mpmath.sqrt(sum(x**2 for x in gap))
        log = _daleckii_krein(log_lam, U, mpmath.exp, mpmath.exp, -gap)
        dlog = _daleckii_krein(lam, U, mpmath.log, lambda x: 1 / x, W)
        transport = _daleckii_krein(log_mu, V, mpmath.exp, mpmath.exp, dlog)
        return (
            float(dist),
            np.array(log.tolist(), dtype=float),
            np.array(transport.tolist(), dtype=float),
        )


def log_cholesky_mp(p: np.ndarray, q: np.ndarray, w: np.ndarray, dps: int = 60):
    """Log-Cholesky distance, ``log_P Q`` and the transport of ``W`` from
    ``P`` to ``Q``, in extended precision.

    With ``P = L L^T`` and ``Q = K K^T`` (``mpmath.cholesky``): the distance
    is the Frobenius norm of the strict lower gap ``L - K`` and the diagonal
    gap ``log L_jj - log K_jj``; the logarithm is ``L X^T + X L^T`` with
    ``X = K - L`` below the diagonal and ``L_jj log(K_jj / L_jj)`` on it; the
    transport is ``K Y^T + Y K^T``, with ``Y`` the lower triangular solution
    of ``L Y^T + Y L^T = W`` (by substitution, column by column) and its
    diagonal rescaled by ``K_jj / L_jj``.  No eigensolver is involved.
    """
    m = p.shape[0]
    with mpmath.workdps(dps):
        L, K = (mpmath.cholesky(mpmath.matrix(a.tolist())) for a in (p, q))
        chart = L - K
        X = K - L
        for j in range(m):
            chart[j, j] = mpmath.log(L[j, j]) - mpmath.log(K[j, j])
            X[j, j] = L[j, j] * mpmath.log(K[j, j] / L[j, j])
        Y = mpmath.matrix(_diff_S_inv_mpf(L.tolist(), _mpf_rows(w), m))
        for j in range(m):
            Y[j, j] *= K[j, j] / L[j, j]
        dist = mpmath.sqrt(sum(x**2 for x in chart))
        log = L * X.T + X * L.T
        transport = K * Y.T + Y * K.T
        return (
            float(dist),
            np.array(log.tolist(), dtype=float),
            np.array(transport.tolist(), dtype=float),
        )


def distances_mp(p: np.ndarray, q: np.ndarray, dps: int = 400) -> dict[str, float]:
    """The five geometries' distances between SPD ``p`` and ``q``, in extended
    precision, keyed as in the registry: the Frobenius norms of ``P - Q``, of
    the factor gap ``L - K``, of the chart gap ``phi(L) - phi(K)`` (the log gap
    on the diagonal), of ``log P - log Q``, and of ``log lam`` with ``lam`` the
    eigenvalues of ``L^{-1} Q L^{-T}``.  The default precision resolves an
    eigenvector tilt of ``1e-154``, which the Log-Euclidean logarithms of
    matrices with entries near the float max can carry."""
    m = p.shape[0]
    with mpmath.workdps(dps):
        P, Q = mpmath.matrix(p.tolist()), mpmath.matrix(q.tolist())
        L, K = mpmath.cholesky(P), mpmath.cholesky(Q)
        # L^{-1} by forward substitution: mpmath's LU inverse calls a factor
        # with entries 1 and 1e154 numerically singular.
        Li = mpmath.zeros(m)
        for j in range(m):
            Li[j, j] = 1 / L[j, j]
            for i in range(j + 1, m):
                Li[i, j] = -sum(L[i, k] * Li[k, j] for k in range(j, i)) / L[i, i]
        chart = L - K
        for i in range(m):
            chart[i, i] = mpmath.log(L[i, i]) - mpmath.log(K[i, i])
        lam, _ = mpmath.eigsy(Li * Q * Li.T)
        gaps = {
            "euclidean": P - Q,
            "cholesky": L - K,
            "log-cholesky": chart,
            "log-euclidean": _spectral_mp(P, mpmath.log) - _spectral_mp(Q, mpmath.log),
            "affine-invariant": mpmath.matrix([mpmath.log(x) for x in lam]),
        }
        return {
            name: float(mpmath.sqrt(sum(x**2 for x in gap))) for name, gap in gaps.items()
        }
