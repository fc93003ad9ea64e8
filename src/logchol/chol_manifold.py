"""Riemannian manifold and abelian group structure on the Cholesky space.

The space of lower triangular matrices with positive diagonal carries a
metric that is Frobenius on the strict lower triangle and scaled by the
inverse squared diagonal on the diagonal.  All operations below are smooth
closed forms: the manifold is flat and complete, so geodesics, exponential
and logarithmic maps, parallel transport and Frechet means are globally
defined.  Each operation is a private kernel on dense arrays behind a typed
public function.
"""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .tri import CholeskyFactor, DomainError, LowerTriangular, _require_same_dim, _stack


def _metric(l: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    prod = x * y
    diag = prod.diagonal() / l.diagonal() ** 2
    np.fill_diagonal(prod, 0.0)  # zeroed, not subtracted: avoids cancellation for large diagonals
    return float(prod.sum() + diag.sum())


def metric_chol(L: CholeskyFactor, X: LowerTriangular, Y: LowerTriangular) -> float:
    """Inner product of tangent vectors ``X`` and ``Y`` at ``L``.

    Frobenius on the strict lower triangle plus diagonal products weighted
    by ``L_jj^-2``.
    """
    _require_same_dim(L, X, Y)
    return _metric(L.data, X.data, Y.data)


def norm_chol(L: CholeskyFactor, X: LowerTriangular) -> float:
    return float(np.sqrt(metric_chol(L, X, X)))


def _geodesic(l: np.ndarray, x: np.ndarray, t: float) -> np.ndarray:
    out = l + t * x
    d = l.diagonal()
    np.fill_diagonal(out, d * np.exp(t * x.diagonal() / d))
    return out


def geodesic_chol(L: CholeskyFactor, X: LowerTriangular, t: float) -> CholeskyFactor:
    """Geodesic through ``L`` with initial velocity ``X``, evaluated at ``t``.

    Linear in the strict lower triangle; exponential on the diagonal.
    Defined for all real ``t``.
    """
    _require_same_dim(L, X)
    return CholeskyFactor(_geodesic(L.data, X.data, t))


def exp_chol(L: CholeskyFactor, X: LowerTriangular) -> CholeskyFactor:
    """Riemannian exponential map at ``L``: the geodesic at ``t = 1``."""
    return geodesic_chol(L, X, 1.0)


def _log(l: np.ndarray, k: np.ndarray) -> np.ndarray:
    out = k - l
    d = l.diagonal()
    np.fill_diagonal(out, d * np.log(k.diagonal() / d))
    return out


def log_chol(L: CholeskyFactor, K: CholeskyFactor) -> LowerTriangular:
    """Riemannian logarithm: the tangent at ``L`` pointing to ``K``."""
    _require_same_dim(L, K)
    return LowerTriangular(_log(L.data, K.data))


def _dist(l: np.ndarray, k: np.ndarray) -> float:
    gap = l - k
    np.fill_diagonal(gap, 0.0)  # the diagonal enters through the log gap only
    dlog = np.log(l.diagonal()) - np.log(k.diagonal())
    return float(np.sqrt(np.vdot(gap, gap) + dlog @ dlog))


def dist_chol(L: CholeskyFactor, K: CholeskyFactor) -> float:
    """Geodesic distance between two factors."""
    _require_same_dim(L, K)
    return _dist(L.data, K.data)


def _group_op(l: np.ndarray, k: np.ndarray) -> np.ndarray:
    out = l + k
    np.fill_diagonal(out, l.diagonal() * k.diagonal())
    return out


def group_op(L: CholeskyFactor, K: CholeskyFactor) -> CholeskyFactor:
    """Commutative group operation: strict lower parts add, diagonals multiply.

    The group is the space of factors, so a result that is not a factor
    raises ``DomainError``.
    """
    _require_same_dim(L, K)
    return CholeskyFactor(_group_op(L.data, K.data))


def _group_inv(l: np.ndarray) -> np.ndarray:
    out = -l
    np.fill_diagonal(out, 1.0 / l.diagonal())
    return out


def group_inv(L: CholeskyFactor) -> CholeskyFactor:
    """Group inverse: negated strict lower part, reciprocal diagonal."""
    return CholeskyFactor(_group_inv(L.data))


def group_identity(dim: int) -> CholeskyFactor:
    """The group identity: the identity matrix."""
    return CholeskyFactor.from_dense(np.eye(dim))


def _transport(l: np.ndarray, k: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = x.copy()
    np.fill_diagonal(out, x.diagonal() * (k.diagonal() / l.diagonal()))
    return out


def transport_chol(
    L: CholeskyFactor, K: CholeskyFactor, X: LowerTriangular
) -> LowerTriangular:
    """Parallel transport of ``X`` from ``L`` to ``K``.

    The strict lower block is carried over untouched; diagonal entries are
    rescaled by ``K_jj / L_jj``.  Transport is path independent (the
    manifold is flat) and preserves the metric.
    """
    _require_same_dim(L, K, X)
    return LowerTriangular(_transport(L.data, K.data, X.data))


def _frechet_mean(ls: np.ndarray, w: np.ndarray) -> np.ndarray:
    # ls stacks n factors along its first axis; w holds n convex weights.
    out = np.tensordot(w, ls, axes=1)
    np.fill_diagonal(out, np.exp(w @ np.log(ls.diagonal(axis1=1, axis2=2))))
    return out


def frechet_mean_chol(
    Ls: Sequence[CholeskyFactor], weights: Sequence[float] | None = None
) -> CholeskyFactor:
    """Closed-form Frechet mean of factors.

    Arithmetic mean of the strict lower parts combined with the geometric
    mean of the diagonals.  Optional convex weights generalize the uniform
    average; unweighted input follows the uniform closed form.
    """
    ls = _stack(Ls)
    return CholeskyFactor(_frechet_mean(ls, _convex_weights(weights, len(ls))))


def _convex_weights(weights, n: int) -> np.ndarray:
    if weights is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise DomainError(f"expected {n} weights, got shape {w.shape}")
    if np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-10:
        raise DomainError("weights must be nonnegative and sum to one")
    return w
