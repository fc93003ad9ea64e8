"""Riemannian manifold and abelian group structure on the Cholesky space.

The space of lower triangular matrices with positive diagonal carries a
metric that is Frobenius on the strict lower triangle and scaled by the
inverse squared diagonal on the diagonal.  All operations below are smooth
closed forms: the manifold is flat and complete, so geodesics, exponential
and logarithmic maps, parallel transport and Frechet means are globally
defined.  Each operation is a private kernel on dense arrays behind a typed
public function, which types the kernel's result through ``_Square._of``.
Each kernel treats the strict lower part and the diagonal apart, and writes
the diagonal through ``tri._with_diag``.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from numbers import Integral

import numpy as np

from .tri import (CholeskyFactor, DomainError, LowerTriangular, _mean, _norm,
                  _require_same_dim, _stack, _step, _with_diag)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # past the float max reads inf
def _metric(l: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    diag = x.diagonal() * y.diagonal() / l.diagonal() ** 2
    # The diagonal is zeroed, not subtracted: no cancellation for large diagonals.
    if math.isnan(s := float(_with_diag(x * y, 0.0).sum() + diag.sum())):
        raise DomainError("inner product leaves the float range")
    return s


def metric_chol(L: CholeskyFactor, X: LowerTriangular, Y: LowerTriangular) -> float:
    """Inner product of tangent vectors ``X`` and ``Y`` at ``L``.

    Frobenius on the strict lower triangle plus diagonal products weighted
    by ``L_jj^-2``.
    """
    _require_same_dim(L, X, Y)
    return _metric(L.data, X.data, Y.data)


@np.errstate(over="ignore", invalid="ignore")  # overflow reads inf or nan: rejected
def _geodesic(l: np.ndarray, x: np.ndarray, t: float) -> np.ndarray:
    d = l.diagonal()
    return _with_diag(l + t * x, d * np.exp(t * x.diagonal() / d))


def geodesic_chol(L: CholeskyFactor, X: LowerTriangular, t: float) -> CholeskyFactor:
    """Geodesic through ``L`` with initial velocity ``X``, evaluated at ``t``.

    Linear in the strict lower triangle; exponential on the diagonal.
    Defined for every finite real ``t``; any other ``t``, an array
    included, raises ``DomainError``.
    """
    t = _step(t)
    _require_same_dim(L, X)
    return CholeskyFactor._of(_geodesic(L.data, X.data, t))


def exp_chol(L: CholeskyFactor, X: LowerTriangular) -> CholeskyFactor:
    """Riemannian exponential map at ``L``: the geodesic at ``t = 1``."""
    return geodesic_chol(L, X, 1.0)


def _log(l: np.ndarray, k: np.ndarray) -> np.ndarray:
    d = l.diagonal()
    return _with_diag(k - l, d * np.log(k.diagonal() / d))


def log_chol(L: CholeskyFactor, K: CholeskyFactor) -> LowerTriangular:
    """Riemannian logarithm: the tangent at ``L`` pointing to ``K``."""
    _require_same_dim(L, K)
    return LowerTriangular._of(_log(L.data, K.data))


def _dist(l: np.ndarray, k: np.ndarray) -> float:
    """``|phi(L) - phi(K)|_F``, ``phi`` the strict lower part plus the log diagonal."""
    return float(_norm(_with_diag(l - k, np.log(l.diagonal()) - np.log(k.diagonal()))))


def dist_chol(L: CholeskyFactor, K: CholeskyFactor) -> float:
    """Geodesic distance between two factors."""
    _require_same_dim(L, K)
    return _dist(L.data, K.data)


@np.errstate(over="ignore", invalid="ignore")  # overflow reads inf or nan: rejected
def _group_op(l: np.ndarray, k: np.ndarray) -> np.ndarray:
    return _with_diag(l + k, l.diagonal() * k.diagonal())


def group_op(L: CholeskyFactor, K: CholeskyFactor) -> CholeskyFactor:
    """Commutative group operation: strict lower parts add, diagonals multiply.

    The group is the space of factors, so a result that is not a factor
    raises ``DomainError``.
    """
    _require_same_dim(L, K)
    return CholeskyFactor._of(_group_op(L.data, K.data))


def _group_inv(l: np.ndarray) -> np.ndarray:
    return _with_diag(-l, 1.0 / l.diagonal())


def group_inv(L: CholeskyFactor) -> CholeskyFactor:
    """Group inverse: negated strict lower part, reciprocal diagonal."""
    return CholeskyFactor._of(_group_inv(L.data))


def group_identity(dim: int) -> CholeskyFactor:
    """The group identity: the identity matrix.  Raises ``DomainError``
    unless ``dim`` is a positive integer."""
    if isinstance(dim, bool) or not isinstance(dim, Integral) or dim < 1:
        raise DomainError(f"dimension must be a positive integer, got {dim!r}")
    return CholeskyFactor._of(np.eye(int(dim)))


@np.errstate(over="ignore", invalid="ignore")  # overflow reads inf or nan: rejected
def _transport(l: np.ndarray, k: np.ndarray, x: np.ndarray) -> np.ndarray:
    return _with_diag(x.copy(order="K"), x.diagonal() * (k.diagonal() / l.diagonal()))


def transport_chol(
    L: CholeskyFactor, K: CholeskyFactor, X: LowerTriangular
) -> LowerTriangular:
    """Parallel transport of ``X`` from ``L`` to ``K``.

    The strict lower block is carried over untouched; diagonal entries are
    rescaled by ``K_jj / L_jj``.  Transport is path independent (the
    manifold is flat) and preserves the metric.
    """
    _require_same_dim(L, K, X)
    return LowerTriangular._of(_transport(L.data, K.data, X.data))


def _frechet_mean(ls: np.ndarray) -> np.ndarray:
    # ls stacks n factors along its first axis.
    return _with_diag(_mean(ls), np.exp(_mean(np.log(ls.diagonal(axis1=1, axis2=2)))))


def frechet_mean_chol(Ls: Sequence[CholeskyFactor]) -> CholeskyFactor:
    """Closed-form Frechet mean of factors.

    Arithmetic mean of the strict lower parts combined with the geometric
    mean of the diagonals.
    """
    return CholeskyFactor._of(_frechet_mean(_stack(L.data for L in Ls)))
