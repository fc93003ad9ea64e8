"""Seeded random generators for the matrices the experiments and the CLI draw.

Each returns one typed matrix, except :func:`random_wishart_stack`, which
draws the whole ``(trials, n, m, m)`` sample of ``mean-gap`` in one call and
returns it untyped, for the experiment to build its members from."""
from __future__ import annotations

import numpy as np

from .tri import SpdMatrix, SymMatrix, _sym


def random_spd(rng: np.random.Generator, dim: int) -> SpdMatrix:
    """Random SPD matrix ``A A^T + 1e-3 I`` with ``A`` standard normal."""
    a = rng.standard_normal((dim, dim))
    return SpdMatrix(a @ a.T + 1e-3 * np.eye(dim))


def random_wishart_stack(rng: np.random.Generator, shape: tuple[int, ...], dim: int) -> np.ndarray:
    """A ``shape`` stack of normalized Wishart-style SPD matrices
    ``A A^T / (2 dim) + 1e-3 I``, ``A`` standard normal of shape ``(dim, 2 dim)``:
    a moderate spread.  Every ``A`` comes from one draw, so the stack holds the
    matrices that one draw per matrix, in C order, would give, bit for bit:
    numpy forms each ``A A^T`` of the stack by BLAS ``syrk``, exactly symmetric.
    A plain array, for the caller to type; its memory grows with
    ``prod(shape) dim^2``."""
    n = 2 * dim
    a = rng.standard_normal((*shape, dim, n))
    return a @ a.swapaxes(-1, -2) / n + 1e-3 * np.eye(dim)


def random_orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish random orthogonal matrix from a QR factorization."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diagonal(r))


def random_spd_with_condition(
    rng: np.random.Generator, dim: int, kappa: float
) -> SpdMatrix:
    """SPD matrix with eigenvalues log-spaced between 1 and ``1 / kappa``;
    ``NotSpdError`` if it does not factor, as it can past ``kappa = 1 / eps``."""
    d = np.logspace(0.0, -np.log10(kappa), dim)
    r = random_orthogonal(rng, dim)
    p = (r * d) @ r.T
    return SpdMatrix.from_dense(p)


def random_sym(rng: np.random.Generator, dim: int) -> SymMatrix:
    """Random symmetric matrix with independent normal entries."""
    g = rng.standard_normal((dim, dim))
    return SymMatrix(_sym(g))

