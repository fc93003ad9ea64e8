"""Seeded random generators for matrices used by tests and experiments."""
from __future__ import annotations

import numpy as np

from .tri import CholeskyFactor, LowerTriangular, SpdMatrix, SymMatrix


def random_spd(rng: np.random.Generator, dim: int, jitter: float = 1e-3) -> SpdMatrix:
    """Random SPD matrix ``A A^T + jitter * I`` with ``A`` standard normal."""
    a = rng.standard_normal((dim, dim))
    p = a @ a.T + jitter * np.eye(dim)
    return SpdMatrix((p + p.T) / 2.0)


def random_spd_wishart(rng: np.random.Generator, dim: int) -> SpdMatrix:
    """Normalized Wishart-style SPD matrix ``A A^T / (2 dim) + 1e-3 I`` with
    ``A`` standard normal of shape ``(dim, 2 dim)``: a moderate spread."""
    n = 2 * dim
    a = rng.standard_normal((dim, n))
    p = a @ a.T / n + 1e-3 * np.eye(dim)
    return SpdMatrix((p + p.T) / 2.0)


def random_orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish random orthogonal matrix from a QR factorization."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diagonal(r))


def random_spd_with_condition(
    rng: np.random.Generator, dim: int, kappa: float
) -> SpdMatrix:
    """SPD matrix with eigenvalues log-spaced between 1 and ``1 / kappa``."""
    d = np.logspace(0.0, -np.log10(kappa), dim) if kappa > 1.0 else np.ones(dim)
    r = random_orthogonal(rng, dim)
    p = (r * d) @ r.T
    return SpdMatrix((p + p.T) / 2.0)


def random_sym(rng: np.random.Generator, dim: int, scale: float = 1.0) -> SymMatrix:
    """Random symmetric matrix with independent normal entries."""
    g = rng.standard_normal((dim, dim)) * scale
    return SymMatrix((g + g.T) / 2.0)


def random_factor(rng: np.random.Generator, dim: int) -> CholeskyFactor:
    """Random well-conditioned Cholesky factor: normal strict lower part,
    log-uniform diagonal in ``[e^-1, e]``."""
    f = np.tril(rng.standard_normal((dim, dim)), -1)
    np.fill_diagonal(f, np.exp(rng.uniform(-1.0, 1.0, dim)))
    return CholeskyFactor(f)


def random_tangent(rng: np.random.Generator, dim: int) -> LowerTriangular:
    """Random lower triangular tangent vector."""
    return LowerTriangular(np.tril(rng.standard_normal((dim, dim))))
