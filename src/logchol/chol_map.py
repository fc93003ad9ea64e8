"""Cholesky factorization, reconstruction, and their differentials.

These maps form the bridge between the space of lower triangular matrices
with positive diagonal and the space of SPD matrices: factorization in one
direction, ``L L^T`` in the other, and the linearizations of both.  Each
map is an array kernel (``_factor``, ``_reconstruct``, ``_diff_S``,
``_diff_S_inv``) behind a typed public function; other modules compose the
kernels and wrap only their final result.  ``_factor`` is defined in
:mod:`.tri`, whose ``SpdMatrix.from_dense`` runs it as its SPD test: one
LAPACK ``dpotrf`` call on a matrix, one batched ``np.linalg.cholesky`` call
on a stack.  ``_diff_S_inv`` forms ``L^{-1} W L^{-T}`` with two BLAS
``dtrsm`` calls.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dtrmm, dtrsm

from .tri import (
    CholeskyFactor,
    LowerTriangular,
    SpdMatrix,
    SymMatrix,
    SymTangent,
    _factor,
    _require_same_dim,
)


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
    # L^{-1} W L^{-T}: a solve from the left, then one from the right with
    # L^T.  Only the lower triangle of the result is read below, so it needs
    # no symmetrizing.
    h = dtrsm(1.0, l, dtrsm(1.0, l, w, lower=1), side=1, lower=1, trans_a=1)
    np.fill_diagonal(h, h.diagonal() / 2.0)
    # L @ tril(h): trmm reads only the lower triangle of h.
    return dtrmm(1.0, h, l, side=1, lower=1)


def diff_S_inv(L: CholeskyFactor, W: SymTangent) -> LowerTriangular:
    """Inverse differential: the lower triangular ``X`` with ``L X^T + X L^T = W``.

    Computed as ``L (L^{-1} W L^{-T})_half``: two triangular solves give
    the congruence, the diagonal of its lower triangle is halved, and one
    triangular product multiplies by ``L``.
    """
    _require_same_dim(L, W)
    return LowerTriangular(_diff_S_inv(L.data, W.data))
