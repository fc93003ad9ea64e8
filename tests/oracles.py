"""Independent oracles used by the test suite.

These deliberately avoid the closed forms they are checking: means are
recomputed by Riemannian gradient descent on the Frechet functional,
differentials by central finite differences on dense arrays, and the
Cholesky factor by its column recurrences.
"""
from __future__ import annotations

import numpy as np

from logchol import chol_manifold as cm
from logchol import spd_manifold as sm
from logchol.tri import CholeskyFactor, LowerTriangular, NotSpdError, SpdMatrix, SymMatrix


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
