"""Triangular and symmetric matrix types, the factor kernel and the fixture format.

Each type holds its matrix dense, as an ``(m, m)`` float array in ``data``,
and its constructor takes that array alone and checks the type's invariant:
square and finite; exact zeros above the diagonal for lower triangular
types and exact symmetry for symmetric ones; a positive diagonal for
Cholesky factors and SPD matrices.  ``from_dense`` is the entry point for
outside data: it symmetrizes input that is symmetric to a relative
tolerance, and ``SpdMatrix.from_dense`` also runs the factor kernel
``_factor`` on it, the one the Log-Cholesky operations use.  ``dense()``
returns a copy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dpotrf

# Positivity tolerance at type boundaries: any representable normal positive
# diagonal is admitted.  Numerical-quality checks live in the operations.
TAU_POS = 1e-300


class LogCholError(Exception):
    """Base class for errors raised by this package."""


class DomainError(LogCholError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class NotSpdError(LogCholError, ValueError):
    """Matrix is not symmetric positive definite."""


class EmptyInputError(LogCholError, ValueError):
    """An operation requiring at least one element received an empty input."""


class NoConvergenceError(LogCholError, RuntimeError):
    """An iterative routine did not converge within its iteration budget."""


class EigFailureError(LogCholError, RuntimeError):
    """Symmetric eigendecomposition failed to converge."""


def _square_dense(dense) -> np.ndarray:
    a = np.asarray(dense, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    return a


def _square_finite(data) -> np.ndarray:
    a = _square_dense(data)
    if not np.isfinite(a).all():
        raise DomainError("matrix entries must be finite")
    return a


def _symmetrized(dense, error: type[LogCholError]) -> np.ndarray:
    """``(a + a^T) / 2``, once ``a`` is finite and symmetric to within
    ``1e-8 max|a|``.

    The tolerance is relative at every scale, so tiny matrices are held to
    the same standard as unit-sized ones.  Raises ``DomainError`` on a
    non-finite entry and ``error`` on asymmetry.
    """
    a = _square_finite(dense)
    if np.abs(a - a.T).max() > 1e-8 * np.abs(a).max():
        raise error("matrix is not symmetric")
    return (a + a.T) / 2.0


@lru_cache(maxsize=None)
def _strict_upper(m: int) -> np.ndarray:
    """Read-only boolean mask of the entries above the diagonal, one per size."""
    mask = np.triu(np.ones((m, m), dtype=bool), 1)
    mask.flags.writeable = False
    return mask


def _factor(p: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of one ``(m, m)`` matrix or of an ``(n, m, m)`` stack.

    One matrix goes to LAPACK ``dpotrf`` directly; a stack goes to one
    batched ``np.linalg.cholesky`` call.  Raises ``NotSpdError`` on a
    nonpositive pivot, and on a non-finite last diagonal entry: neither
    routine flags a NaN pivot, and an overflowed entry of finite input makes
    its row's pivot NaN, which every later row inherits, down to
    ``L[-1, -1]``.
    """
    if p.ndim == 2:
        l, info = dpotrf(p, lower=1, clean=1)
        if info != 0:
            raise NotSpdError("Cholesky factorization failed: nonpositive pivot")
        if not math.isfinite(l[-1, -1]):
            raise NotSpdError("Cholesky factorization failed: non-finite pivot")
        return l
    try:
        l = np.linalg.cholesky(p)
    except np.linalg.LinAlgError as exc:
        raise NotSpdError("Cholesky factorization failed: nonpositive pivot") from exc
    if not np.isfinite(l[:, -1, -1]).all():
        raise NotSpdError("Cholesky factorization failed: non-finite pivot")
    return l


@dataclass(frozen=True, eq=False)
class _Square:
    """A square float matrix held dense in ``data``; ``dim`` is its size."""

    data: np.ndarray

    def _check(self) -> None:
        pass

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @property
    def diag(self) -> np.ndarray:
        """The diagonal entries, as a read-only length-``dim`` view."""
        return self.data.diagonal()


@dataclass(frozen=True, eq=False)
class LowerTriangular(_Square):
    """General lower triangular matrix: every entry above the diagonal is zero."""

    def __post_init__(self):
        a = _square_finite(self.data)
        if a[_strict_upper(a.shape[0])].any():
            raise DomainError("matrix has nonzero entries above the diagonal")
        object.__setattr__(self, "data", a)
        self._check()

    # Defined here and on SymMatrix rather than on _Square, so that the span
    # names perfbench traces (tri.LowerTriangular.dense, tri.SymMatrix.dense)
    # still resolve.
    def dense(self) -> np.ndarray:
        """A copy of the matrix."""
        return self.data.copy()

    @classmethod
    def from_dense(cls, dense) -> "LowerTriangular":
        return cls(dense)


@dataclass(frozen=True, eq=False)
class CholeskyFactor(LowerTriangular):
    """Lower triangular matrix with strictly positive diagonal."""

    def _check(self) -> None:
        if np.any(self.diag < TAU_POS):
            raise DomainError("Cholesky factor diagonal must be strictly positive")


@dataclass(frozen=True, eq=False)
class SymMatrix(_Square):
    """Symmetric matrix; the constructor requires exact symmetry and
    :meth:`from_dense` symmetrizes input that is symmetric to tolerance."""

    def __post_init__(self):
        a = _square_finite(self.data)
        if not (a == a.T).all():
            raise DomainError("matrix is not exactly symmetric")
        object.__setattr__(self, "data", a)
        self._check()

    def dense(self) -> np.ndarray:
        """A copy of the matrix."""
        return self.data.copy()

    @classmethod
    def from_dense(cls, dense) -> "SymMatrix":
        return cls(_symmetrized(dense, DomainError))


# Tangent vectors at an SPD point are symmetric matrices.
SymTangent = SymMatrix


@dataclass(frozen=True, eq=False)
class SpdMatrix(SymMatrix):
    """Symmetric positive definite matrix.

    The operational SPD test (a Cholesky factorization with positive pivots)
    runs in :meth:`from_dense` and in every downstream factorization; the
    constructor itself performs only cheap checks, so internal code that
    produces values of the form ``L L^T`` can wrap them without re-factorizing.
    """

    def _check(self) -> None:
        if np.any(self.diag <= 0.0):
            raise NotSpdError("SPD matrix must have strictly positive diagonal")

    @classmethod
    def from_dense(cls, dense) -> "SpdMatrix":
        a = _symmetrized(dense, NotSpdError)
        _factor(a)
        return cls(a)


def _require_same_dim(a, *others) -> None:
    m = a.data.shape[0]
    for b in others:
        if b.data.shape[0] != m:
            raise DomainError(f"dimension mismatch: {m} vs {b.data.shape[0]}")


def _stack(mats) -> np.ndarray:
    """The members as one ``(n, m, m)`` array: the entry check of every mean."""
    if len(mats) == 0:
        raise EmptyInputError("a mean requires at least one matrix")
    try:
        return np.stack([a.data for a in mats])
    except ValueError:
        raise DomainError(f"dimension mismatch: sizes {sorted({a.dim for a in mats})}") from None


# ---------------------------------------------------------------------------
# Matrix text format: one matrix per block, first line the dimension m, then
# m whitespace-separated rows of the full dense matrix.  Blocks are separated
# by blank lines.
# ---------------------------------------------------------------------------


def parse_matrix_text(text: str) -> list[np.ndarray]:
    """Parse dense matrices from the block text format."""
    lines = [ln.strip() for ln in text.splitlines()]
    mats: list[np.ndarray] = []
    i = 0
    while i < len(lines):
        if not lines[i]:
            i += 1
            continue
        try:
            m = int(lines[i])
        except ValueError as exc:
            raise DomainError(f"expected a dimension, got {lines[i]!r}") from exc
        if m < 1:
            raise DomainError(f"dimension must be positive, got {m}")
        rows = []
        for k in range(m):
            if i + 1 + k >= len(lines) or not lines[i + 1 + k]:
                raise DomainError(f"matrix block truncated after {k} rows")
            row = [float(tok) for tok in lines[i + 1 + k].split()]
            if len(row) != m:
                raise DomainError(f"expected {m} entries per row, got {len(row)}")
            rows.append(row)
        mats.append(np.array(rows))
        i += 1 + m
    return mats


def format_matrix_text(mats) -> str:
    """Render dense matrices in the block text format."""
    blocks = []
    for a in mats:
        a = _square_dense(a)
        rows = [" ".join(repr(float(x)) for x in row) for row in a]
        blocks.append("\n".join([str(a.shape[0])] + rows))
    return "\n\n".join(blocks) + "\n"


def load_matrices(path) -> list[SpdMatrix]:
    """Load the SPD matrices of a fixture file, each through ``SpdMatrix.from_dense``."""
    with open(path, "r", encoding="utf-8") as fh:
        dense = parse_matrix_text(fh.read())
    return [SpdMatrix.from_dense(a) for a in dense]


def dump_matrices(mats, path) -> None:
    """Write matrices (wrapped or dense) to a fixture file."""
    dense = [a.data if isinstance(a, _Square) else a for a in mats]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_matrix_text(dense))
