"""Log-Cholesky geometry on SPD matrices.

Every operation is the push-forward of its Cholesky-space counterpart
through ``S(L) = L L^T``: factor the base points, work in factor space,
reconstruct.  The map is an isometry, so the SPD manifold inherits
flatness, completeness, closed-form geodesics and a closed-form Frechet
mean.  Each operation composes the array kernels of :mod:`.chol_map` and
:mod:`.chol_manifold` and wraps only its result in a typed value.
"""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import chol_manifold as cm
from .chol_map import _diff_S, _diff_S_inv, _factor, _reconstruct
from .tri import (
    EmptyInputError,
    SpdMatrix,
    SymMatrix,
    SymTangent,
    _require_same_dim,
)


def metric_spd(P: SpdMatrix, W: SymTangent, V: SymTangent) -> float:
    """Inner product of symmetric tangents at ``P``, pulled back to factor space."""
    _require_same_dim(P, W, V)
    l = _factor(P.data)
    return cm._metric(l, _diff_S_inv(l, W.data), _diff_S_inv(l, V.data))


def norm_spd(P: SpdMatrix, W: SymTangent) -> float:
    return float(np.sqrt(metric_spd(P, W, W)))


def geodesic_spd(P: SpdMatrix, W: SymTangent, t: float) -> SpdMatrix:
    """Geodesic through ``P`` with initial velocity ``W``, evaluated at ``t``."""
    _require_same_dim(P, W)
    l = _factor(P.data)
    return SpdMatrix(_reconstruct(cm._geodesic(l, _diff_S_inv(l, W.data), t)))


def exp_spd(P: SpdMatrix, W: SymTangent) -> SpdMatrix:
    """Riemannian exponential map at ``P``: the geodesic at ``t = 1``."""
    return geodesic_spd(P, W, 1.0)


def log_spd(P: SpdMatrix, Q: SpdMatrix) -> SymTangent:
    """Riemannian logarithm: the tangent at ``P`` pointing to ``Q``."""
    _require_same_dim(P, Q)
    l = _factor(P.data)
    return SymMatrix(_diff_S(l, cm._log(l, _factor(Q.data))))


def dist_spd(P: SpdMatrix, Q: SpdMatrix) -> float:
    """Geodesic distance: the factor-space distance of the Cholesky factors."""
    _require_same_dim(P, Q)
    return cm._dist(_factor(P.data), _factor(Q.data))


def group_op_spd(P: SpdMatrix, Q: SpdMatrix) -> SpdMatrix:
    """Abelian group operation, conjugated through the factorization."""
    _require_same_dim(P, Q)
    return SpdMatrix(_reconstruct(cm._group_op(_factor(P.data), _factor(Q.data))))


def group_inv_spd(P: SpdMatrix) -> SpdMatrix:
    """Group inverse under the factor-space group structure."""
    return SpdMatrix(_reconstruct(cm._group_inv(_factor(P.data))))


def transport_spd(P: SpdMatrix, Q: SpdMatrix, W: SymTangent) -> SymTangent:
    """Parallel transport of ``W`` along the geodesic from ``P`` to ``Q``.

    Factors both endpoints, pulls ``W`` back to factor space at ``P``,
    rescales the tangent diagonal, and pushes forward at ``Q``.
    """
    _require_same_dim(P, Q, W)
    l, k = _factor(P.data), _factor(Q.data)
    return SymMatrix(_diff_S(k, cm._transport(l, k, _diff_S_inv(l, W.data))))


def log_cholesky_mean(
    Ps: Sequence[SpdMatrix], weights: Sequence[float] | None = None
) -> SpdMatrix:
    """Closed-form Frechet mean of SPD matrices under this geometry.

    The stacked matrices are factored in one call, the factors averaged
    (arithmetic strict-lower mean, geometric diagonal mean) and the result
    reconstructed.  The mean's determinant equals the (weighted) geometric
    mean of the input determinants.
    """
    if len(Ps) == 0:
        raise EmptyInputError("log_cholesky_mean requires at least one matrix")
    _require_same_dim(*Ps)
    ls = _factor(np.stack([P.data for P in Ps]))
    return SpdMatrix(_reconstruct(cm._frechet_mean(ls, cm._convex_weights(weights, len(Ps)))))


def interpolate_spd(
    P: SpdMatrix, Q: SpdMatrix, ts: Sequence[float]
) -> list[SpdMatrix]:
    """Geodesic interpolation: points of the geodesic with endpoints ``P, Q``."""
    _require_same_dim(P, Q)
    l = _factor(P.data)
    x = cm._log(l, _factor(Q.data))
    return [SpdMatrix(_reconstruct(cm._geodesic(l, x, float(t)))) for t in ts]
