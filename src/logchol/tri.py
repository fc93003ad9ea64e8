"""Triangular and symmetric matrix types and elementwise operators.

Each type holds its matrix dense, as an ``(m, m)`` float array in ``data``,
and its constructor takes that array alone and checks the type's invariant:
square and finite; exact zeros above the diagonal for lower triangular
types and exact symmetry for symmetric ones; a positive diagonal for
Cholesky factors and SPD matrices.  ``from_dense`` is the entry point for
outside data: it symmetrizes input that is symmetric to a relative
tolerance, and ``SpdMatrix.from_dense`` also factors it.  ``dense()``
returns a copy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """``(a + a^T) / 2``, once ``a`` is symmetric to within ``1e-8 max|a|``.

    The tolerance is relative at every scale, so tiny matrices are held to
    the same standard as unit-sized ones.  Raises ``error`` otherwise.
    """
    a = _square_dense(dense)
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-8 * np.abs(a).max()):
        raise error("matrix is not symmetric")
    return (a + a.T) / 2.0


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
        if np.triu(a, 1).any():
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
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError as exc:
            raise NotSpdError("matrix is not positive definite") from exc
        return cls(a)


def _require_same_dim(a, *others) -> None:
    for b in others:
        if a.dim != b.dim:
            raise DomainError(f"dimension mismatch: {a.dim} vs {b.dim}")


def _stack(mats) -> np.ndarray:
    """The members as one ``(n, m, m)`` array: the entry check of every mean."""
    if len(mats) == 0:
        raise EmptyInputError("a mean requires at least one matrix")
    try:
        return np.stack([a.data for a in mats])
    except ValueError:
        raise DomainError(f"dimension mismatch: sizes {sorted({a.dim for a in mats})}") from None


def strict_lower(a: LowerTriangular | SymMatrix) -> LowerTriangular:
    """Strictly lower triangular part: sub-diagonal entries, zero diagonal."""
    return LowerTriangular(np.tril(a.data, -1))


def diag_part(a: LowerTriangular | SymMatrix) -> LowerTriangular:
    """Diagonal part, as a (diagonal) lower triangular matrix."""
    return LowerTriangular(np.diag(a.diag))


def half_lower(s: SymMatrix) -> LowerTriangular:
    """Lower triangular part of a symmetric matrix with the diagonal halved."""
    out = np.tril(s.data)
    np.fill_diagonal(out, s.diag * 0.5)
    return LowerTriangular(out)


def _require_diagonal(d: LowerTriangular) -> None:
    if np.tril(d.data, -1).any():
        raise DomainError("expected a diagonal matrix")


def diag_exp(d: LowerTriangular) -> LowerTriangular:
    """Elementwise exponential of a diagonal matrix."""
    _require_diagonal(d)
    return LowerTriangular(np.diag(np.exp(d.diag)))


def diag_log(d: LowerTriangular) -> LowerTriangular:
    """Elementwise logarithm of a diagonal matrix with positive diagonal."""
    _require_diagonal(d)
    if np.any(d.diag <= 0.0):
        raise DomainError("diag_log requires a strictly positive diagonal")
    return LowerTriangular(np.diag(np.log(d.diag)))


def tri_det(l: LowerTriangular) -> float:
    """Determinant of a triangular matrix: the product of its diagonal."""
    return float(np.prod(l.diag))


# ---------------------------------------------------------------------------
# Matrix text format: one matrix per block, first line the dimension m, then
# m whitespace-separated rows of the full dense matrix.  Blocks are separated
# by blank lines.
# ---------------------------------------------------------------------------

_KINDS = {
    "lower": LowerTriangular,
    "cholesky": CholeskyFactor,
    "sym": SymMatrix,
    "spd": SpdMatrix,
}


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


def load_matrices(path, kind: str = "spd") -> list:
    """Load and validate matrices of the declared kind from a fixture file."""
    if kind not in _KINDS:
        raise DomainError(f"unknown matrix kind {kind!r}; expected one of {sorted(_KINDS)}")
    cls = _KINDS[kind]
    with open(path, "r", encoding="utf-8") as fh:
        dense = parse_matrix_text(fh.read())
    return [cls.from_dense(a) for a in dense]


def dump_matrices(mats, path) -> None:
    """Write matrices (wrapped or dense) to a fixture file."""
    dense = [a.data if isinstance(a, _Square) else a for a in mats]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_matrix_text(dense))
