"""Cholesky factorization, reconstruction, and their differentials.

These maps form the bridge between the space of lower triangular matrices
with positive diagonal and the space of SPD matrices: factorization in one
direction, ``L L^T`` in the other, and the linearizations of both.  Each
map is an array kernel (``_factor``, ``_reconstruct``, ``_diff_S``,
``_diff_S_inv``) behind a typed public function; other modules compose the
kernels and type only their final result, through ``_Square._of``: the
kernels make each result square, float and exactly symmetric or triangular,
so only finiteness and the type's own check are tested.  ``_factor`` (one
LAPACK ``dpotrf`` call on one matrix) is defined in :mod:`.tri`;
:func:`cholesky_factor` returns ``SpdMatrix._chol``, so a point from
``from_dense`` is not refactored.  The triangular BLAS calls live here:
``_congruence`` forms ``L^{-1} W L^{-T}`` of a matrix or a stack with two
``dtrsm`` calls; ``_diff_S_inv`` multiplies back with one ``dtrmm`` up to
m = ``_BLOCK`` and above it recurs on 2 x 2 blocks, with one ``dtrmm`` and
one ``dtrsm`` per split; ``_diff_S`` forms ``X L^T`` with one ``dtrmm``.
Given the factor ``K`` of a transport's target, ``_diff_S_inv`` returns the
tangent already transported to ``K``, so ``transport_spd`` is one pullback
and one push-forward.
The float-range rule for computed SPD matrices lives here alone, in
``_spd_point`` for results built from a triangular factor and
``_check_exponents`` for spectral exponents.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg.blas import dtrmm, dtrsm

from .tri import (
    TAU_POS,
    CholeskyFactor,
    DomainError,
    LowerTriangular,
    SpdMatrix,
    SymMatrix,
    _least_diagonal,
    _require_same_dim,
    _with_diag,
)


def cholesky_factor(P: SpdMatrix) -> CholeskyFactor:
    """Unique lower triangular factor with positive diagonal of ``P = L L^T``.

    Raises
    ------
    NotSpdError
        If the factorization encounters a nonpositive or non-finite pivot.
    """
    return CholeskyFactor._of(P._chol)


def _reconstruct(k: np.ndarray) -> np.ndarray:
    """``K K^T`` of a square ``K``, a Cholesky or a spectral factor such as
    ``L U e^{Lambda/2}``, or of each ``K`` of a stack, as computed: numpy
    forms a product with its own transpose by one BLAS ``syrk`` per matrix
    and mirrors the triangle, so it is exactly symmetric, with the same bits
    in a stack as alone, and entries up to the float max stay finite."""
    return k @ k.swapaxes(-1, -2)


# The least factor diagonal whose square, and the exponents whose e^x, are normal floats.
_PIVOT_ROOT_MIN = math.sqrt(TAU_POS)
_EXP_RANGE = (math.log(TAU_POS), math.log(np.finfo(float).max))


@np.errstate(over="ignore", invalid="ignore")  # overflow reads inf or nan: rejected
def _spd_point(k: np.ndarray) -> SpdMatrix | list[SpdMatrix]:
    """``K K^T`` of a lower triangular ``K``, typed; or of each ``K`` of a
    ``(k, m, m)`` stack, as a list, with one test of the stack (see
    ``tri._each``).  Raises ``DomainError`` unless each pivot ``K_jj^2`` is a
    normal float and no entry overflows."""
    if _least_diagonal(k) < _PIVOT_ROOT_MIN:
        raise DomainError("SPD result underflows: a pivot is not a normal float")
    return SpdMatrix._of(_reconstruct(k))


def _check_exponents(s: np.ndarray) -> None:
    """``DomainError`` unless ``e^x`` is a positive normal float for every ``x`` in ``s``."""
    x = s.ravel().tolist()
    if x and not _EXP_RANGE[0] <= min(x) <= max(x) <= _EXP_RANGE[1]:
        raise DomainError(f"exponents {min(x)} to {max(x)} leave the float range")


def reconstruct(L: CholeskyFactor) -> SpdMatrix:
    """The SPD matrix ``L L^T``; see :func:`_spd_point`."""
    return _spd_point(L.data)


def _diff_S(l: np.ndarray, x: np.ndarray) -> np.ndarray:
    # X L^T by one triangular product, m^3 flops where a matmul spends 2 m^3.
    a = dtrmm(1.0, l, x, side=1, lower=1, trans_a=1)
    return a + a.T


# At the public function, not in the kernel that log_spd and transport_spd
# share: an overflowing sum reads inf, which the typing rejects.
@np.errstate(over="ignore", invalid="ignore")
def diff_S(L: CholeskyFactor, X: LowerTriangular) -> SymMatrix:
    """Differential of ``L -> L L^T`` at ``L`` applied to ``X``: ``L X^T + X L^T``;
    a result past the float max raises ``DomainError``."""
    _require_same_dim(L, X)
    return SymMatrix._of(_diff_S(L.data, X.data))


def _congruence(l: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``L^{-1} W L^{-T}`` for one ``(m, m)`` matrix or an ``(n, m, m)`` stack:
    a solve from the left, then one from the right, a stack laid out as one
    ``(m, n m)`` block row, then one ``(n m, m)`` column.  Not symmetrized: its
    readers read one triangle (``_eigh``, ``dtrmm``) or symmetrize the whole
    result."""
    if w.ndim == 2:
        return dtrsm(1.0, l, dtrsm(1.0, l, w, lower=1), side=1, lower=1, trans_a=1)
    n, m, _ = w.shape
    row = dtrsm(1.0, l, w.transpose(1, 0, 2).reshape(m, n * m), lower=1)
    col = row.reshape(m, n, m).transpose(1, 0, 2).reshape(n * m, m)
    return dtrsm(1.0, l, col, side=1, lower=1, trans_a=1).reshape(n, m, m)


# The largest pullback solved as one congruence; above it _diff_S_inv splits
# (see diff_S_inv for why 64).
_BLOCK = 64


def _diff_S_inv(l: np.ndarray, w: np.ndarray, k: np.ndarray | None = None) -> np.ndarray:
    # With k given, the result is transported to k (see diff_S_inv).
    m = len(l)
    if m <= _BLOCK:
        # Only the lower triangle of the congruence is read below, so it needs
        # no symmetrizing.
        h = _congruence(l, w)
        hd = h.diagonal() / 2.0
        # L @ tril(h) with h's diagonal halved: trmm reads only the lower
        # triangle.  Its diagonal is l_jj hd_j; transported, k_jj hd_j.
        x = dtrmm(1.0, _with_diag(h, hd), l, side=1, lower=1)
        return x if k is None else _with_diag(x, k.diagonal() * hd)
    # The 2 x 2 block recurrence of L X^T + X L^T = W, split at n.  An
    # overflow reads inf or nan, which the caller's typing rejects.
    n = m // 2
    l11, l21, l22 = l[:n, :n], l[n:, :n], l[n:, n:]
    x = np.zeros((m, m), order="F")
    with np.errstate(over="ignore", invalid="ignore"):
        x11 = x[:n, :n] = _diff_S_inv(l11, w[:n, :n])
        # X21 = (W21 - L21 X11^T) L11^-T
        rhs = w[n:, :n] - dtrmm(1.0, x11, l21, side=1, lower=1, trans_a=1)
        x21 = x[n:, :n] = dtrsm(1.0, l11, rhs, side=1, lower=1, trans_a=1)
        s = x21 @ l21.T
        x[n:, n:] = _diff_S_inv(l22, w[n:, n:] - (s + s.T))
    # X21's step needs the untransported X11, so the transport comes last.
    return x if k is None else _with_diag(x, x.diagonal() * (k.diagonal() / l.diagonal()))


def diff_S_inv(L: CholeskyFactor, W: SymMatrix) -> LowerTriangular:
    """Inverse differential: the lower triangular ``X`` with ``L X^T + X L^T = W``.

    Up to m = 64 (``_BLOCK``) it is computed as ``L (L^{-1} W L^{-T})_half``:
    two triangular solves give the congruence, the diagonal of its lower
    triangle is halved, and one triangular product multiplies by ``L``.
    That is 3 m^3 flops, of which only the lower triangle of the congruence
    is used.  Above 64 the equation is split as ``L`` is, at ``n = m // 2``,
    into the block recurrence of the differentiated Cholesky factorization
    (Murray, arXiv:1602.07527)::

        X11 = diff_S_inv(L11, W11)
        X21 = (W21 - L21 X11^T) L11^-T            (one dtrmm, one dtrsm)
        X22 = diff_S_inv(L22, W22 - (S + S^T)),   S = X21 L21^T

    about 1.25 m^3 flops at one split.  At m = 64 and below, the calls and
    numpy steps of a split cost more than the flops it saves; at m = 65 it
    is already no slower, and at m = 128 it takes about 60% of the time.

    The kernel ``_diff_S_inv`` also takes the factor ``K`` a transport
    carries the tangent to.  The leaf then writes the transported diagonal
    ``K_jj H_jj / 2`` (``H`` the congruence) where the pullback's is
    ``L_jj H_jj / 2``: one rounding, where rescaling by ``K_jj / L_jj``
    takes three.  Above 64, ``X21`` reads the untransported ``X11``, so the
    finished result is rescaled.
    """
    _require_same_dim(L, W)
    return LowerTriangular._of(_diff_S_inv(L.data, W.data))
