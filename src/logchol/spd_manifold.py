"""Log-Cholesky geometry on SPD matrices.

Every operation is the push-forward of its Cholesky-space counterpart
through ``S(L) = L L^T``: factor the base points (``SpdMatrix._chol``,
which reads the factor ``from_dense`` kept), work in factor space,
reconstruct; a mean stacks its members' factors, read the same way.
The map is an isometry, so the SPD manifold inherits flatness,
completeness, closed-form geodesics and a closed-form Frechet mean.  Each
operation composes the array kernels of :mod:`.chol_map` and
:mod:`.chol_manifold` and types only its result, through ``_Square._of``;
every SPD result comes from :func:`.chol_map._spd_point`, which raises
``DomainError`` when it leaves the float range.
"""
from __future__ import annotations

from collections.abc import Sequence

from . import chol_manifold as cm
from .chol_map import _diff_S, _diff_S_inv, _spd_point
from .tri import SpdMatrix, SymMatrix, _each, _grid, _require_same_dim, _stack, _step


def metric_spd(P: SpdMatrix, W: SymMatrix, V: SymMatrix) -> float:
    """Inner product of symmetric tangents at ``P``, pulled back to factor space."""
    _require_same_dim(P, W, V)
    l = P._chol
    return cm._metric(l, _diff_S_inv(l, W.data), _diff_S_inv(l, V.data))


def geodesic_spd(P: SpdMatrix, W: SymMatrix, t: float) -> SpdMatrix:
    """Geodesic through ``P`` with initial velocity ``W``, evaluated at ``t``.

    Defined for every finite real ``t``; any other ``t``, an array
    included, raises ``DomainError``.
    """
    t = _step(t)
    _require_same_dim(P, W)
    l = P._chol
    return _spd_point(cm._geodesic(l, _diff_S_inv(l, W.data), t))


def exp_spd(P: SpdMatrix, W: SymMatrix) -> SpdMatrix:
    """Riemannian exponential map at ``P``: the geodesic at ``t = 1``."""
    return geodesic_spd(P, W, 1.0)


def log_spd(P: SpdMatrix, Q: SpdMatrix) -> SymMatrix:
    """Riemannian logarithm: the tangent at ``P`` pointing to ``Q``."""
    _require_same_dim(P, Q)
    l = P._chol
    return SymMatrix._of(_diff_S(l, cm._log(l, Q._chol)))


def dist_spd(P: SpdMatrix, Q: SpdMatrix) -> float:
    """Geodesic distance: the factor-space distance of the Cholesky factors."""
    _require_same_dim(P, Q)
    return cm._dist(P._chol, Q._chol)


def group_op_spd(P: SpdMatrix, Q: SpdMatrix) -> SpdMatrix:
    """Abelian group operation, conjugated through the factorization."""
    _require_same_dim(P, Q)
    return _spd_point(cm._group_op(P._chol, Q._chol))


def group_inv_spd(P: SpdMatrix) -> SpdMatrix:
    """Group inverse under the factor-space group structure."""
    return _spd_point(cm._group_inv(P._chol))


def transport_spd(P: SpdMatrix, Q: SpdMatrix, W: SymMatrix) -> SymMatrix:
    """Parallel transport of ``W`` along the geodesic from ``P`` to ``Q``.

    Factors both endpoints, pulls ``W`` back to factor space at ``P`` with
    its diagonal transported to ``Q``'s factor, and pushes forward at ``Q``.
    """
    _require_same_dim(P, Q, W)
    l, k = P._chol, Q._chol
    return SymMatrix._of(_diff_S(k, _diff_S_inv(l, W.data, k)))


def log_cholesky_mean(Ps: Sequence[SpdMatrix]) -> SpdMatrix:
    """Closed-form Frechet mean of SPD matrices under this geometry.

    The members' factors (``SpdMatrix._chol``) are stacked and averaged
    (arithmetic strict-lower mean, geometric diagonal mean) and the result
    reconstructed.  The mean's determinant equals the geometric mean of the
    input determinants.
    """
    return _spd_point(cm._frechet_mean(_stack(P._chol for P in Ps)))


def interpolate_spd(
    P: SpdMatrix, Q: SpdMatrix, ts: Sequence[float]
) -> list[SpdMatrix]:
    """Geodesic interpolation: the points at ``ts`` of the geodesic from ``P``
    (``t = 0``) to ``Q`` (``t = 1``).  ``ts`` is a 1-D sequence or array of
    finite real numbers; anything else, a generator included, raises
    ``DomainError``.  The grid's factors are one ``(k, m, m)`` stack, and
    their ``K K^T`` one more, typed at once; the first point that leaves the
    float range raises its own error (``tri._each``)."""
    ts = _grid(ts)
    _require_same_dim(P, Q)
    l = P._chol
    x = cm._log(l, Q._chol)
    return _each(_spd_point, cm._geodesic(l, x, ts[:, None, None]))
