"""Independent oracles used by the test suite.

These deliberately avoid the closed forms they are checking: means are
recomputed by Riemannian gradient descent on the Frechet functional,
differentials by central finite differences on dense arrays, the
Cholesky factor by its column recurrences, and the affine-invariant Karcher
mean by per-member logarithms and exponentials.
"""
from __future__ import annotations

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
    from the same start, but each step takes one ``affine_log`` per member
    and one ``affine_exp``, each of which whitens by the iterate afresh.
    """
    if len(Ps) == 1:
        return Ps[0]
    mean = SpdMatrix(bl.euclid_mean(Ps).data)
    for _ in range(bl.KARCHER_MAX_ITER):
        grad = np.mean([bl.affine_log(mean, P).data for P in Ps], axis=0)
        if np.linalg.norm(grad) <= bl.KARCHER_TOL * (1.0 + np.linalg.norm(mean.data)):
            return mean
        mean = bl.affine_exp(mean, SymMatrix((grad + grad.T) / 2.0))
    raise NoConvergenceError("reference Karcher iteration did not converge")


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


def diff_S_inv_mp(l: np.ndarray, w: np.ndarray, dps: int = 50) -> np.ndarray:
    """The lower triangular ``X`` with ``L X^T + X L^T = W``, in extended precision.

    Solves the equation entry by entry, column by column, by the recurrences
    of the differentiated Cholesky factorization; no congruence is formed.
    The float inputs are taken exactly and the result is rounded once.
    """
    import mpmath

    m = l.shape[0]
    with mpmath.workdps(dps):
        L = [[mpmath.mpf(float(l[i, j])) for j in range(m)] for i in range(m)]
        W = [[mpmath.mpf(float(w[i, j])) for j in range(m)] for i in range(m)]
        X = [[mpmath.mpf(0) for _ in range(m)] for _ in range(m)]
        for j in range(m):
            s = sum((L[j][k] * X[j][k] for k in range(j)), mpmath.mpf(0))
            X[j][j] = (W[j][j] / 2 - s) / L[j][j]
            for i in range(j + 1, m):
                s = sum((L[i][k] * X[j][k] + X[i][k] * L[j][k] for k in range(j)), mpmath.mpf(0))
                X[i][j] = (W[i][j] - L[i][j] * X[j][j] - s) / L[j][j]
        return np.array([[float(X[i][j]) for j in range(m)] for i in range(m)])
