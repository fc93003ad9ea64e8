"""Cholesky factorization, reconstruction, and their differentials.

These maps form the bridge between the space of lower triangular matrices
with positive diagonal and the space of SPD matrices: factorization in one
direction, ``L L^T`` in the other, and the linearizations of both.  Each
map is an array kernel (``_factor``, ``_reconstruct``, ``_diff_S``,
``_diff_S_inv``) behind a typed public function; other modules compose the
kernels and wrap only their final result.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dtrtrs

from .tri import (
    CholeskyFactor,
    LowerTriangular,
    NotSpdError,
    SpdMatrix,
    SymMatrix,
    SymTangent,
    _require_same_dim,
)


def _factor(p: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(p)
    except np.linalg.LinAlgError as exc:
        raise NotSpdError("Cholesky factorization failed: nonpositive pivot") from exc


def cholesky_factor(P: SpdMatrix) -> CholeskyFactor:
    """Unique lower triangular factor with positive diagonal of ``P = L L^T``.

    Raises
    ------
    NotSpdError
        If the factorization encounters a nonpositive or non-finite pivot.
    """
    return CholeskyFactor(_factor(P.data))


def _reconstruct(l: np.ndarray) -> np.ndarray:
    a = l @ l.T
    return (a + a.T) / 2.0


def reconstruct(L: CholeskyFactor) -> SpdMatrix:
    """The SPD matrix ``L L^T``."""
    return SpdMatrix(_reconstruct(L.data))


def _diff_S(l: np.ndarray, x: np.ndarray) -> np.ndarray:
    a = l @ x.T
    return a + a.T


def diff_S(L: CholeskyFactor, X: LowerTriangular) -> SymTangent:
    """Differential of ``L -> L L^T`` at ``L`` applied to ``X``: ``L X^T + X L^T``."""
    _require_same_dim(L, X)
    return SymMatrix(_diff_S(L.data, X.data))


def _diff_S_inv(l: np.ndarray, w: np.ndarray) -> np.ndarray:
    # L^{-1} W L^{-T} by two solves, the second on the transpose of the
    # first; W is symmetric, so the first solve may take W^T as well.
    b = w
    for _ in range(2):
        b, info = dtrtrs(l, b.T, lower=1)
        if info != 0:
            raise NotSpdError("triangular solve failed")
    h = (b + b.T) / 2.0
    np.fill_diagonal(h, h.diagonal() / 2.0)
    # L @ tril(h): trmm reads only the lower triangle of h.
    return dtrmm(1.0, h, l, side=1, lower=1)


def diff_S_inv(L: CholeskyFactor, W: SymTangent) -> LowerTriangular:
    """Inverse differential: the lower triangular ``X`` with ``L X^T + X L^T = W``.

    Computed as ``L (L^{-1} W L^{-T})_half`` via two triangular solves; the
    inner product is symmetrized to absorb roundoff before halving the
    diagonal.
    """
    _require_same_dim(L, W)
    return LowerTriangular(_diff_S_inv(L.data, W.data))
