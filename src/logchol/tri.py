"""Matrix types, the shared matrix kernels and the fixture format.

Each type holds its matrix dense, as an ``(m, m)`` float array in ``data``,
and its constructor takes that array alone and checks the type's invariant:
a square matrix of finite real numbers; exact zeros above the diagonal for
lower triangular types and exact symmetry for symmetric ones; a positive
diagonal for Cholesky factors and SPD matrices.  The constructors and
``from_dense`` are for outside data, and a constructor stores a copy of it.
``from_dense`` checks its input once, in ``_symmetrized``, which accepts
asymmetry up to a relative tolerance and returns a fresh, exactly symmetric
array; ``SpdMatrix.from_dense`` factors it by ``_factor`` (LAPACK
``dpotrf`` on one matrix) and keeps the factor, read-only with ``data``.
``_symmetrized`` takes an ``(n, m, m)`` stack too, each matrix held to its
own tolerance, and ``_factors`` checks a stack so and factors each of its
matrices by ``_factor`` into one factor stack: the array half of
``SpdMatrix._from_stack``, which then types the stack at once and keeps
each matrix's factor, with ``from_dense``'s bits.  A fixture of one
dimension and ``mean``'s drawn members take ``_from_stack``; ``mean-gap``
takes the two arrays alone.
A result of the package's kernels is typed by ``_Square._of``: a square
float array with the type's shape of zeros by construction, so only
finiteness and the type's ``_check`` hook are tested; the symmetrizer's
array, already proved finite, by ``_Square._typed``, the hook alone.  Both
take one matrix or a stack, whose matrices they test once, as one array.
``_each`` types each point of a stack from one call on the whole stack,
and names the first faulty point as a loop over the stack would.
Finiteness (``_finite``) is one BLAS ``ddot``, the sum of squares, with the
entrywise test only when that sum is not finite.
Every operation that needs a point's factor, a mean included, reads it
through ``SpdMatrix._chol``: the kept one, or ``_factor(data)`` for a point
built any other way.  ``_sym``, ``_factor``, the checked eigendecomposition
``_eigh``, ``_norm``, every Frobenius norm of the package, ``_mean``, every
average of a mean's members, and ``_with_diag``, every diagonal write of a
kernel, live here alone, and so does the step rule: every geodesic reads its
``t`` through ``_step`` and every interpolant its grid ``ts`` through
``_grid``, before any arithmetic.  ``_mean`` and ``_with_diag`` take a
stack of trials too, each trial with its own members and diagonals, so that
one call serves every trial of ``mean-gap``.  ``_sym`` is needed only where
a result can come out asymmetric: outside data, and tangents such as
``L f(.) L^T`` whose two triangles are computed apart; it sums halves, so
entries up to the float max stay finite.  ``_eigh`` reads the lower triangle
alone; it sends one matrix to LAPACK ``dsyevd`` and a stack to numpy's
batched ``eigh``, which runs ``dsyevd`` too, with the same bits.
``dense()`` returns a copy.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dsyevd

# Positivity tolerance at type boundaries: any representable normal positive
# diagonal is admitted.  Numerical-quality checks live in the operations.
TAU_POS = np.finfo(float).tiny


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


def _real(data) -> np.ndarray:
    """Outside data as a float array, if it is a regular array of real numbers."""
    try:
        a = np.asarray(data)
        if a.dtype.kind in "biuf" or all(isinstance(x, numbers.Real) for x in a.flat):
            return a.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError("matrix entries must be real numbers, in rows of one length")


def _finite(a: np.ndarray, message: str = "matrix entries must be finite") -> np.ndarray:
    """``a``, or ``DomainError(message)`` if an entry is not finite.  A NaN or inf entry
    makes the sum of squares, one BLAS ``ddot``, non-finite; only then does
    the entrywise test run, since finite entries can sum to inf.  ``ddot``
    never warns, where numpy's ``add.reduce`` warns on such a sum, and
    ``ravel(order="K")`` is a view of a C- or F-ordered array, where
    ``np.vdot`` would copy an F-ordered one."""
    v = a.ravel(order="K")
    if not math.isfinite(np.vdot(v, v)) and not np.isfinite(a).all():
        raise DomainError(message)
    return a


def _square(data) -> np.ndarray:
    a = _real(data)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    return a


# The step rule, for every geodesic and interpolant.
_STEP_RULE = "a step must be a finite real number, and a grid a 1-D sequence of them"


def _step(t) -> float:
    """The step ``t`` of a geodesic, as a float: one finite real number, a
    0-d array included, or ``DomainError``.  Its finiteness is read from the
    float: ``np.isfinite`` on a 0-d array costs microseconds, on the path of
    every exp."""
    try:
        a = _real(t)
        if a.ndim == 0 and math.isfinite(s := float(a)):
            return s
    except DomainError:
        pass
    raise DomainError(f"{_STEP_RULE}, got {t!r}")


def _grid(ts) -> np.ndarray:
    """The grid ``ts`` of an interpolant, as a float array: a 1-D sequence or
    array of finite real numbers, or ``DomainError``.  A generator is not one."""
    try:
        a = _real(ts)
        if a.ndim == 1:
            return _finite(a)
    except DomainError:
        pass
    raise DomainError(_STEP_RULE)


def _symmetrized(a: np.ndarray, error: type[LogCholError]) -> np.ndarray:
    """``(a + a^T) / 2`` of a square float matrix, or of each matrix of a
    stack, such as ``(n, m, m)``, once ``a`` is finite and each matrix is
    symmetric to within ``1e-8`` of its own largest entry, ``max|a|``.

    The tolerance is relative at every scale, so tiny matrices are held to
    the same standard as unit-sized ones, in a stack too.  The test reads how
    far the symmetrizer moves ``a``, ``|a - a^T| / 2``, so that entries up to
    the float max cannot overflow it.  Raises ``DomainError`` on a non-finite
    entry and ``error`` on asymmetry, anywhere in a stack: which matrix is at
    fault is the caller's to find.  The maxima are ``np.maximum.reduce``
    calls, past ``ndarray.max``'s Python wrapper, and one matrix's test is a
    numpy bool, not reduced again, so that one matrix costs no more than a
    rank-2 test would.
    """
    s = _sym(_finite(a))
    top = np.maximum.reduce
    far = top(np.abs(a - s), (-2, -1)) > 5e-9 * top(np.abs(a), (-2, -1))
    if far.any() if a.ndim > 2 else far:
        raise error("matrix is not symmetric")
    return s


def _sym(a: np.ndarray) -> np.ndarray:
    """``(a + a^T) / 2`` of one matrix or of each matrix of a stack, as
    ``a/2 + a^T/2`` so that entries up to the float max stay finite: the
    same bits wherever ``a + a^T`` does not overflow."""
    h = a / 2.0
    return h + h.swapaxes(-1, -2)


def _with_diag(a: np.ndarray, d) -> np.ndarray:
    """``a`` with its diagonal set to ``d``, or each matrix of a stack with
    its own row of ``d``, in place; returns ``a``.  One matrix is written
    through the flat stride ``a.flat[::m + 1]``, which reaches the diagonal
    of a square array of any memory layout; a stack, through the writeable
    view of its diagonals that ``einsum`` returns, for any layout too (the
    flat stride alone reaches no more than the first matrix's)."""
    # One matrix keeps the flat stride: the einsum view costs about three
    # times as much on a small matrix, and most kernels write one per call.
    if a.ndim == 2:
        a.flat[:: len(a) + 1] = d
    else:
        np.einsum("...ii->...i", a)[...] = d
    return a


def _factor(p: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Lower Cholesky factor of one ``(m, m)`` matrix, by LAPACK ``dpotrf``;
    with ``overwrite``, written over ``p``, if it is a Fortran-ordered float
    array, in place of a new array.

    Raises ``NotSpdError`` on a nonpositive pivot, and on a non-finite last
    diagonal entry: ``dpotrf`` does not flag a NaN pivot, and an overflowed
    entry of finite input makes its row's pivot NaN, which every later row
    inherits, down to ``L[-1, -1]``.
    """
    # lower, clean, overwrite_a: positional, since f2py's keyword parsing
    # costs about a third of a call at m = 5.
    l, info = dpotrf(p, 1, 1, overwrite)
    if info != 0:
        raise NotSpdError("Cholesky factorization failed: nonpositive pivot")
    if not math.isfinite(l[-1, -1]):
        raise NotSpdError("Cholesky factorization failed: non-finite pivot")
    return l


def _factors(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An ``(n, m, m)`` float stack checked by ``_symmetrized``, and the
    factor ``_factor`` gives each of its matrices, as one ``(n, m, m)``
    stack: ``(s, ls)``, the arrays ``SpdMatrix._from_stack`` types.  Each
    factor keeps ``dpotrf``'s Fortran layout, so that a kernel that reads
    memory in order, such as ``_norm``, gets the bits of the factor
    ``from_dense`` keeps.  A faulty matrix raises its own class of error."""
    s = _symmetrized(stack, NotSpdError)
    # Each matrix is exactly symmetric, so the transposed copy holds it in
    # Fortran order, for dpotrf to factor in place; the write back is a
    # no-op then, and keeps the factor should dpotrf ever work on a copy.
    ls = s.copy().swapaxes(-1, -2)
    for l in ls:
        l[...] = _factor(l, overwrite=True)
    return s, ls


def _eigh(a: np.ndarray, domain: str | None = None, vectors: bool = True):
    """Eigendecomposition ``(w, u)`` of a symmetric matrix or stack, or if not
    ``vectors`` its eigenvalues ``w`` alone; with ``domain`` (a function of
    positive eigenvalues) given, all must be positive.  Only the lower
    triangle is read (numpy's ``UPLO="L"``), so an input whose two
    triangles were computed apart needs no symmetrizing.  Input
    that has left the float range raises ``DomainError`` by ``_finite``'s
    test, with this function's own text, before LAPACK, which
    may return NaN eigenvalues for it; ``EigFailureError`` means LAPACK did
    not converge on finite input.

    Both ranks reach LAPACK ``dsyevd``.  One matrix calls it directly, which
    skips ``numpy.linalg``'s type dispatch and gufunc setup (about half the
    call at m = 5); a stack takes numpy's batched ``eigh``, one call for all
    its members (every values-only caller passes one matrix).  The workspace
    ``1 + 6m + 2m^2`` is passed for values alone too: scipy's default there,
    ``2m + 1``, forces the unblocked tridiagonal reduction, whose eigenvalues
    differ in bits from the blocked one that numpy's solvers use."""
    _finite(a, "eigendecomposition input leaves the float range")
    if a.ndim == 2:
        m = len(a)
        w, u, info = dsyevd(a, compute_v=int(vectors), lower=1, lwork=1 + 6 * m + 2 * m * m)
        if info != 0:
            raise EigFailureError("symmetric eigendecomposition failed")
    else:
        try:
            w, u = np.linalg.eigh(a)
        except np.linalg.LinAlgError as exc:
            raise EigFailureError("symmetric eigendecomposition failed") from exc
    if domain is not None and (lo := min(w[..., 0].flat)) <= 0.0:
        raise NotSpdError(f"{domain} undefined: smallest eigenvalue {lo}")
    return (w, u) if vectors else w


def _norm(a: np.ndarray):
    """Frobenius norm: ``np.linalg.norm``'s bits and numpy float while the sum of squares is
    finite, else rescaled by ``max|a|``: a norm below the float max is finite, with no warning."""
    v = a.ravel(order="K")
    s = np.sqrt(np.vdot(v, v))
    if s == np.inf and (c := np.abs(v).max()) < np.inf:
        with np.errstate(over="ignore"):  # a norm past the float max reads inf
            return c * _norm(v / c)
    return s


def _least_diagonal(a: np.ndarray) -> float:
    """The least diagonal entry of one matrix, or of all the matrices of a
    stack (inf for an empty one): one ``min`` of a list for one matrix, one
    ``np.minimum.reduce`` for a stack."""
    if a.ndim == 2:
        return min(a.diagonal().tolist())
    return float(np.minimum.reduce(a.diagonal(0, -2, -1), None, initial=np.inf))


def _each(point, stack: np.ndarray) -> list:
    """``point`` of each matrix of a ``(k, m, m)`` stack, in order, where
    ``point`` takes one matrix or a whole stack, which it tests as one
    array: one call on the stack; or, if that raises a library error, one
    call per matrix, so that the first faulty matrix raises its own class
    and text, as a loop over the stack would."""
    try:
        return point(stack)
    except LogCholError:
        return [point(a) for a in stack]


@dataclass(frozen=True, eq=False)
class _Square:
    """A square float matrix held dense in ``data``; ``dim`` is its size."""

    data: np.ndarray

    @staticmethod
    def _check(a: np.ndarray) -> None:
        """The type's own test of one matrix ``a`` or of each matrix of a stack."""

    @classmethod
    def _of(cls, a: np.ndarray):
        """A kernel's result ``a`` typed: one ``(m, m)`` matrix, or each
        matrix of a ``(k, m, m)`` stack, as a list in order.  A kernel
        guarantees what the constructor would test first: a square float
        array, exactly symmetric or exactly zero above the diagonal once it
        is finite.  So only finiteness, by ``_finite``'s one ``ddot`` on a
        view of any layout, and the type's ``_check`` are tested.  A stack
        is typed by ``_typed``; one matrix here, one call fewer, since most
        kernels type one matrix per call."""
        if a.ndim > 2:
            return cls._typed(_finite(a))
        out = object.__new__(cls)
        object.__setattr__(out, "data", _finite(a))
        cls._check(a)
        return out

    @classmethod
    def _typed(cls, a: np.ndarray):
        """``_of`` of an array already proved finite, such as
        ``_symmetrized``'s: only the type's ``_check`` is tested, once for a
        whole stack, so that a fault anywhere in it raises; which matrix is
        at fault is the caller's to find (``_each``).  Each point of a stack
        holds a view of it."""
        cls._check(a)
        if a.ndim == 2:
            out = object.__new__(cls)
            object.__setattr__(out, "data", a)
            return out
        points = [object.__new__(cls) for _ in range(len(a))]
        for out, x in zip(points, a):
            object.__setattr__(out, "data", x)
        return points

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @property
    def diag(self) -> np.ndarray:
        """The diagonal entries, as a read-only length-``dim`` view."""
        return self.data.diagonal()

    def dense(self) -> np.ndarray:
        """A copy of the matrix."""
        return self.data.copy()


@dataclass(frozen=True, eq=False)
class LowerTriangular(_Square):
    """General lower triangular matrix: every entry above the diagonal is zero."""

    def __post_init__(self):
        a = _finite(_square(self.data)).copy()  # the caller keeps its array
        if np.triu(a, 1).any():
            raise DomainError("matrix has nonzero entries above the diagonal")
        object.__setattr__(self, "data", a)
        self._check(a)

    dense = _Square.dense  # anchors perfbench's span tri.LowerTriangular.dense


@dataclass(frozen=True, eq=False)
class CholeskyFactor(LowerTriangular):
    """Lower triangular matrix with strictly positive diagonal."""

    @staticmethod
    def _check(a: np.ndarray) -> None:
        if _least_diagonal(a) < TAU_POS:
            raise DomainError("Cholesky factor diagonal must be strictly positive")


@dataclass(frozen=True, eq=False)
class SymMatrix(_Square):
    """Symmetric matrix; the constructor requires exact symmetry and
    :meth:`from_dense` symmetrizes input that is symmetric to tolerance."""

    def __post_init__(self):
        a = _finite(_square(self.data)).copy()  # the caller keeps its array
        if not (a == a.T).all():
            raise DomainError("matrix is not exactly symmetric")
        object.__setattr__(self, "data", a)
        self._check(a)

    dense = _Square.dense  # anchors perfbench's span tri.SymMatrix.dense

    @classmethod
    def from_dense(cls, dense) -> "SymMatrix":
        return cls._typed(_symmetrized(_square(dense), DomainError))


@dataclass(frozen=True, eq=False)
class SpdMatrix(SymMatrix):
    """Symmetric positive definite matrix.

    The operational SPD test (a Cholesky factorization with positive pivots)
    runs in :meth:`from_dense`, which keeps the factor, and in every
    downstream factorization; the constructor itself performs only cheap
    checks and does not factor.  The package's own results, all of the form
    ``K K^T``, are typed through ``_of``, which keeps the finiteness and
    positive-diagonal checks; ``from_dense``'s symmetrized array, through
    ``_typed``, which keeps the positive-diagonal check.
    """

    _kept = None  # the factor from_dense computed; not a field

    @staticmethod
    def _check(a: np.ndarray) -> None:
        if _least_diagonal(a) <= 0.0:
            raise NotSpdError("SPD matrix must have strictly positive diagonal")

    @classmethod
    def from_dense(cls, dense) -> "SpdMatrix":
        a = _symmetrized(_square(dense), NotSpdError)
        l = _factor(a)
        return cls._typed(a)._keep(l)

    @classmethod
    def _from_stack(cls, stack: np.ndarray) -> list["SpdMatrix"]:
        """``from_dense`` of each matrix of an ``(n, m, m)`` float stack, in
        order, with the same bits: the stack checked and factored by
        ``_factors``, with one finiteness test and one symmetrizer for the
        whole stack, then typed by one ``_typed``, one positive-diagonal
        test.  Each point's ``data`` is a view of the symmetrized stack, and
        its kept factor one of the factor stack, which no caller holds.  A
        faulty matrix raises its own class of error, but a later one's fault
        can be raised before an earlier one's factor is tried: a caller that
        must name the first faulty matrix retries its matrices one at a time
        through ``from_dense``."""
        s, ls = _factors(stack)
        points = cls._typed(s)
        for p, l in zip(points, ls):
            p._keep(l)
        return points

    def _keep(self, l: np.ndarray) -> "SpdMatrix":
        """This point, keeping ``l``, its factor by ``_factor``; returns it.
        No caller holds the symmetrizer's array; read-only, neither it nor
        the factor can change, so the kept factor cannot go stale."""
        self.data.setflags(write=False)
        l.setflags(write=False)
        object.__setattr__(self, "_kept", l)
        return self

    @property
    def _chol(self) -> np.ndarray:
        """The lower Cholesky factor of ``data``: the one ``from_dense`` kept
        (the same routine on the same bits), or else ``_factor(data)``."""
        return _factor(self.data) if self._kept is None else self._kept

    def __getstate__(self):
        # A copy or an unpickled point keeps no factor: its ``data`` may be a
        # new, writeable array.
        return {"data": self.data}


def _require_same_dim(a, *others) -> None:
    m = a.data.shape[0]
    for b in others:
        if b.data.shape[0] != m:
            raise DomainError(f"dimension mismatch: {m} vs {b.data.shape[0]}")


def _stack(arrays) -> np.ndarray:
    """The members' ``(m, m)`` arrays, such as ``P.data`` or ``P._chol`` of
    each member, as one ``(n, m, m)`` array: the entry check of every mean."""
    mats = list(arrays)
    if not mats:
        raise EmptyInputError("a mean requires at least one matrix")
    try:
        return np.stack(mats)
    except ValueError:
        raise DomainError(f"dimension mismatch: sizes {sorted({len(a) for a in mats})}") from None


@np.errstate(over="ignore")  # an overflowing sum is redone on ps / n
def _mean(ps: np.ndarray, axis: int = 0) -> np.ndarray:
    """Mean along the members' axis ``axis``, the first of one sample's
    stack, the second of a stack of trials: ``np.mean``'s bits while a
    trial's sum is finite, else the sum of its ``ps / n``, so that a mean
    inside the float range is finite, with no warning.  Each trial takes its
    own branch, so that one trial's overflow moves no other trial's bits."""
    n = ps.shape[axis]
    s = ps.sum(axis=axis)
    out = s / n
    if not np.isfinite(s).all():
        # One flag per trial; indexing by it puts the trials first, the members second.
        over = ~np.isfinite(s).all(axis=tuple(range(axis, s.ndim)))
        out[over] = (ps[over] / n).sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# Matrix text format: one matrix per block, first line the dimension m, then
# m whitespace-separated rows of the full dense matrix.  Blank lines between
# blocks are allowed, not required.
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
            try:
                row = list(map(float, lines[i + 1 + k].split()))
            except ValueError as exc:
                raise DomainError(f"expected numbers, got {lines[i + 1 + k]!r}") from exc
            if len(row) != m:
                raise DomainError(f"expected {m} entries per row, got {len(row)}")
            rows.append(row)
        mats.append(np.array(rows))
        i += 1 + m
    return mats


def load_matrices(path) -> list[SpdMatrix]:
    """Load the SPD matrices of a fixture file, UTF-8 text with or without a
    byte-order mark: ``SpdMatrix.from_dense`` of each block, in file order,
    with the same bits and the same errors.

    The blocks are checked and factored as one stack, by
    ``SpdMatrix._from_stack``.  If that fails (an empty fixture, blocks of
    different dimensions or a faulty block), the blocks are read again one
    at a time through ``from_dense``, so that the first faulty block in
    file order raises its own error."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DomainError(f"fixture is not UTF-8 text: {exc}") from None
    blocks = parse_matrix_text(text)
    try:
        return SpdMatrix._from_stack(_stack(blocks))
    except LogCholError:
        return [SpdMatrix.from_dense(a) for a in blocks]
