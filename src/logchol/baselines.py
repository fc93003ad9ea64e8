"""Baseline SPD geometries: Euclidean, Cholesky distance, Log-Euclidean,
affine-invariant.

All four expose distance, interpolation and a mean; the two Riemannian
baselines add exp/log maps and parallel transport so they can be timed and
stress-tested against the Log-Cholesky geometry.  Every affine-invariant
operation whitens by the Cholesky factor of its base point ``P = L L^T``,
``SpdMatrix._chol`` (the factor ``from_dense`` kept, as for the Cholesky
baseline's single-point operations), forming ``L^-1 X L^-T = U Lambda U^T``
with :func:`.chol_map._congruence`, and maps back by
``(L U) f(Lambda) (L U)^T`` (the distance needs ``Lambda`` alone); since
``L = P^{1/2} V`` with ``V`` orthogonal, that is
``P^{1/2} f(P^{-1/2} X P^{-1/2}) P^{1/2}``.  Every interpolation, like
:func:`.spd_manifold.interpolate_spd`, takes the grid ``ts`` and works its
endpoints once per call.  Every mean works on an ``(n, m, m)`` stack from
:func:`.tri._stack`, and types its result once: the Cholesky baseline's
mean stacks its members' factors, ``SpdMatrix._chol`` as for its
single-point operations; the others stack the matrices and take one
batched matrix function per step.  ``_factor`` (of the Karcher iterate),
``_eigh`` and ``_sym`` come from :mod:`.tri`.  Every
non-Euclidean SPD result is ``K K^T``, exactly symmetric as computed, and
leaves the float range only by raising ``DomainError``: the Cholesky
baseline's ``K``, a combination of factors, goes through
``chol_map._spd_point``; the spectral ``K`` (``U e^{Lambda/2}``,
``L U e^{Lambda/2}``, ``L U Lambda^{t/2}``) has its exponents checked by
``chol_map._check_exponents``.  Only the spectral logarithms and transports
are symmetrized, as ``_sym(.)``; a whitened matrix is not, since its one
reader, ``_eigh``, reads its lower triangle alone.  Every result is typed through
``_Square._of``, which tests finiteness and the type's own check alone, and
every interpolant reads its grid through :func:`.tri._grid`, the step rule,
before any arithmetic.  A registry keys each geometry by name.
"""
from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from . import spd_manifold as spd
from .chol_map import _check_exponents, _congruence, _reconstruct, _spd_point
from .tri import (
    DomainError,
    LowerTriangular,
    NoConvergenceError,
    SpdMatrix,
    SymMatrix,
    _eigh,
    _factor,
    _grid,
    _norm,
    _require_same_dim,
    _stack,
    _sym,
)

# ---------------------------------------------------------------------------
# Matrix functions of symmetric matrices via eigendecomposition
# ---------------------------------------------------------------------------


def _exp_factor(a: np.ndarray) -> np.ndarray:
    """``U e^{Lambda/2}`` for symmetric ``a = U Lambda U^T``, a matrix or a stack:
    the square factor ``K`` with ``K K^T = e^a``, once ``_check_exponents``
    passes ``Lambda``."""
    w, u = _eigh(a)
    _check_exponents(w)
    return u * np.exp(w / 2.0)[..., None, :]


def spd_logm(a: np.ndarray) -> np.ndarray:
    """Matrix logarithm ``U log(Lambda) U^T`` of an SPD matrix or stack."""
    w, u = _eigh(a, "matrix logarithm")
    return (u * np.log(w)[..., None, :]) @ u.swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# Euclidean
# ---------------------------------------------------------------------------


def euclid_dist(P: SymMatrix, Q: SymMatrix) -> float:
    _require_same_dim(P, Q)
    return float(_norm(P.data - Q.data))


def euclid_interpolate(
    P: SymMatrix, Q: SymMatrix, ts: Sequence[float]
) -> list[SymMatrix]:
    """Linear interpolation ``(1 - t) P + t Q``; exhibits determinant swelling."""
    ts = _grid(ts)
    _require_same_dim(P, Q)
    return [SymMatrix._of((1.0 - t) * P.data + t * Q.data) for t in ts]


@np.errstate(over="ignore")  # an overflowing sum is redone on ps / n
def _mean(ps: np.ndarray) -> np.ndarray:
    """Entrywise mean of an ``(n, m, m)`` stack: ``np.mean``'s bits while the
    sum is finite, else the sum of ``ps / n``, so that a mean inside the float
    range is finite, with no warning."""
    s = ps.sum(axis=0)
    return s / len(ps) if np.isfinite(s).all() else (ps / len(ps)).sum(axis=0)


def euclid_mean(Ps: Sequence[SymMatrix]) -> SymMatrix:
    return SymMatrix._of(_mean(_stack(P.data for P in Ps)))


def euclid_exp(P: SymMatrix, W: SymMatrix) -> SymMatrix:
    _require_same_dim(P, W)
    return SymMatrix._of(P.data + W.data)


def euclid_log(P: SymMatrix, Q: SymMatrix) -> SymMatrix:
    _require_same_dim(P, Q)
    return SymMatrix._of(Q.data - P.data)


# ---------------------------------------------------------------------------
# Cholesky distance (Frobenius gap of factors)
# ---------------------------------------------------------------------------


def cholesky_distance(P: SpdMatrix, Q: SpdMatrix) -> float:
    _require_same_dim(P, Q)
    return float(_norm(P._chol - Q._chol))


@np.errstate(over="ignore", invalid="ignore")  # overflow reads inf or nan: rejected
def cholesky_interpolate(P: SpdMatrix, Q: SpdMatrix, ts: Sequence[float]) -> list[SpdMatrix]:
    """Convex combination of the factors, reconstructed; each factored once."""
    ts = _grid(ts)
    _require_same_dim(P, Q)
    l, k = P._chol, Q._chol
    return [_spd_point((1.0 - t) * l + t * k) for t in ts]


def cholesky_mean(Ps: Sequence[SpdMatrix]) -> SpdMatrix:
    return _spd_point(_stack(P._chol for P in Ps).mean(axis=0))


def cholesky_exp(P: SpdMatrix, X: LowerTriangular) -> SpdMatrix:
    """Factor-space translation: the factor of ``P`` plus the factor gap ``X``."""
    _require_same_dim(P, X)
    return _spd_point(P._chol + X.data)


def cholesky_log(P: SpdMatrix, Q: SpdMatrix) -> LowerTriangular:
    """The factor gap ``chol(Q) - chol(P)``."""
    _require_same_dim(P, Q)
    return LowerTriangular._of(Q._chol - P._chol)


# ---------------------------------------------------------------------------
# Log-Euclidean
# ---------------------------------------------------------------------------

DLOG_SERIES_TOL = 1e-12
DLOG_SERIES_MAX_TERMS = 500


def dexp_sym(s: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Directional derivative of the matrix exponential at ``s`` along ``h``.

    Evaluated from the power series of ``exp``; each term is accumulated
    with its factorial folded in to avoid overflow.  The series stops once
    a term's norm drops below ``DLOG_SERIES_TOL`` or after
    ``DLOG_SERIES_MAX_TERMS`` terms.
    """
    # term_k = (1/k!) sum_{i+j=k-1} s^i h s^j, via the recurrence
    # term_{k+1} = (s term_k + h s^k/k!) / (k+1).
    term = h.copy()
    out = h.copy()
    pk = np.eye(s.shape[0])  # s^k / k!
    for k in range(1, DLOG_SERIES_MAX_TERMS):
        pk = pk @ s / k
        term = (s @ term + h @ pk) / (k + 1)
        out += term
        if _norm(term) < DLOG_SERIES_TOL:
            break
    return out


def dlog_spd(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Directional derivative of the matrix logarithm at SPD ``p`` along ``w``.

    Uses the alternating series of ``log(I + E)`` after the exact scalar
    rescaling ``log(p) = log(c) I + log(p / c)`` with ``c`` the midpoint of
    the spectrum, which keeps the spectral radius of ``E`` below one.  The
    series stops once a term's norm drops below ``DLOG_SERIES_TOL`` or
    after ``DLOG_SERIES_MAX_TERMS`` terms.
    """
    lam = _eigh(p, "matrix logarithm differential", vectors=False)
    c = (lam[0] + lam[-1]) / 2.0
    e = p / c - np.eye(p.shape[0])
    v = w / c
    term = v.copy()  # sum_{i+j=k-1} e^i v e^j
    ek = e.copy()
    out = v.copy()
    sign = 1.0
    for k in range(2, DLOG_SERIES_MAX_TERMS + 1):
        term = e @ term + v @ ek
        ek = ek @ e
        sign = -sign
        contrib = sign * term / k
        out += contrib
        if _norm(contrib) < DLOG_SERIES_TOL:
            break
    return out


def logeuclid_dist(P: SpdMatrix, Q: SpdMatrix) -> float:
    _require_same_dim(P, Q)
    return float(_norm(spd_logm(P.data) - spd_logm(Q.data)))


@np.errstate(over="ignore", invalid="ignore")  # overflow reads inf or nan: rejected
def logeuclid_interpolate(P: SpdMatrix, Q: SpdMatrix, ts: Sequence[float]) -> list[SpdMatrix]:
    """``exp((1 - t) log P + t log Q)``; each logarithm taken once."""
    ts = _grid(ts)
    _require_same_dim(P, Q)
    lp, lq = spd_logm(P.data), spd_logm(Q.data)
    return [SpdMatrix._of(_reconstruct(_exp_factor((1.0 - t) * lp + t * lq))) for t in ts]


def logeuclid_mean(Ps: Sequence[SpdMatrix]) -> SpdMatrix:
    logs = spd_logm(_stack(P.data for P in Ps))
    return SpdMatrix._of(_reconstruct(_exp_factor(logs.mean(axis=0))))


@np.errstate(over="ignore", invalid="ignore")  # overflow reads inf or nan: rejected
def logeuclid_exp(P: SpdMatrix, W: SymMatrix) -> SpdMatrix:
    """Riemannian exponential: push the tangent into log space and exponentiate."""
    _require_same_dim(P, W)
    p = P.data
    return SpdMatrix._of(_reconstruct(_exp_factor(spd_logm(p) + dlog_spd(p, W.data))))


def logeuclid_log(P: SpdMatrix, Q: SpdMatrix) -> SymMatrix:
    """Riemannian logarithm: log-space difference pulled back to the tangent at P."""
    _require_same_dim(P, Q)
    lp = spd_logm(P.data)
    lq = spd_logm(Q.data)
    return SymMatrix._of(_sym(dexp_sym(lp, lq - lp)))


def logeuclid_transport(P: SpdMatrix, Q: SpdMatrix, W: SymMatrix) -> SymMatrix:
    """Parallel transport: flatten at ``P`` via d(log), restore at ``Q`` via d(exp)."""
    _require_same_dim(P, Q, W)
    flat = dlog_spd(P.data, W.data)
    return SymMatrix._of(_sym(dexp_sym(spd_logm(Q.data), flat)))


# ---------------------------------------------------------------------------
# Affine-invariant
# ---------------------------------------------------------------------------

KARCHER_TOL = 1e-12
KARCHER_MAX_ITER = 200


def affine_dist(P: SpdMatrix, Q: SpdMatrix) -> float:
    """``|log(L^-1 Q L^-T)|_F = |log(Lambda)|_F`` with ``P = L L^T``."""
    _require_same_dim(P, Q)
    w = _eigh(_congruence(P._chol, Q.data), "matrix logarithm", vectors=False)
    return float(_norm(np.log(w)))


@np.errstate(over="ignore", invalid="ignore")  # overflow reads inf or nan: rejected
def affine_interpolate(P: SpdMatrix, Q: SpdMatrix, ts: Sequence[float]) -> list[SpdMatrix]:
    """``L (L^-1 Q L^-T)^t L^T``; ``Q`` whitened by ``P`` and decomposed once, and
    the exponents ``t log Lambda`` checked once for the grid, as in :func:`affine_exp`."""
    ts = _grid(ts)
    _require_same_dim(P, Q)
    l = P._chol
    w, u = _eigh(_congruence(l, Q.data), "matrix power")
    _check_exponents(np.multiply.outer(ts, np.log(w)))
    lu = l @ u
    return [SpdMatrix._of(_reconstruct(lu * w ** (t / 2.0))) for t in ts]


@np.errstate(over="ignore", invalid="ignore")  # overflow reads inf or nan: rejected
def affine_exp(P: SpdMatrix, W: SymMatrix) -> SpdMatrix:
    """``L exp(L^-1 W L^-T) L^T = K K^T`` with ``P = L L^T``, ``K = L U e^{Lambda/2}``;
    ``DomainError`` when the exponents or an entry of ``K K^T`` leave the float range."""
    _require_same_dim(P, W)
    l = P._chol
    return SpdMatrix._of(_reconstruct(l @ _exp_factor(_congruence(l, W.data))))


def affine_log(P: SpdMatrix, Q: SpdMatrix) -> SymMatrix:
    """``L log(L^-1 Q L^-T) L^T = (L U) log(Lambda) (L U)^T`` with ``P = L L^T``."""
    _require_same_dim(P, Q)
    l = P._chol
    w, u = _eigh(_congruence(l, Q.data), "matrix logarithm")
    lu = l @ u
    return SymMatrix._of(_sym((lu * np.log(w)) @ lu.T))


def affine_transport(P: SpdMatrix, Q: SpdMatrix, W: SymMatrix) -> SymMatrix:
    """Closed-form transport ``E W E^T`` with ``E = (Q P^-1)^(1/2) = L S L^-1``,
    where ``S = (L^-1 Q L^-T)^(1/2)``: so ``(L S) (L^-1 W L^-T) (L S)^T``."""
    _require_same_dim(P, Q, W)
    l = P._chol
    w, u = _eigh(_congruence(l, Q.data), "matrix square root")
    ls = l @ ((u * np.sqrt(w)) @ u.T)
    return SymMatrix._of(_sym(ls @ _congruence(l, W.data) @ ls.T))


def affine_karcher_mean(Ps: Sequence[SpdMatrix]) -> SpdMatrix:
    """Frechet mean by fixed-point iteration with unit step.

    From the Euclidean mean, each step factors the iterate ``P = L L^T``
    and whitens the whole stack in one congruence: with ``g`` the mean of
    ``log(L^-1 P_i L^-T)``, the Riemannian gradient is ``L g L^T`` and the
    step ``L e^g L^T``, formed as ``K K^T`` with ``K = L U e^{Lambda/2}``.
    Since ``L = P^{1/2} V`` with ``V`` orthogonal, ``|g|_F`` is the gradient's
    affine-invariant norm at ``P``; the iteration stops on it, a test blind to
    the scale ``c``, so the mean of ``c P_i`` is ``c`` times that of ``P_i``.

    Raises
    ------
    NoConvergenceError
        If ``|g|_F`` has not dropped to ``KARCHER_TOL`` within
        ``KARCHER_MAX_ITER`` iterations; the message gives its last value.
    """
    ps = _stack(P.data for P in Ps)
    mean = _mean(ps)
    for _ in range(KARCHER_MAX_ITER):
        l = _factor(mean)
        g = spd_logm(_congruence(l, ps)).mean(axis=0)
        if (gnorm := _norm(g)) <= KARCHER_TOL:
            return SpdMatrix._of(mean)
        mean = _reconstruct(l @ _exp_factor(g))
    raise NoConvergenceError(f"Karcher iteration did not converge in {KARCHER_MAX_ITER} "
                             f"iterations; gradient norm {gnorm:.3g} at the last step")


# ---------------------------------------------------------------------------
# Registry keyed by metric selector string
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricOps:
    """Uniform interface over the five geometries."""

    name: str
    distance: Callable[[SpdMatrix, SpdMatrix], float]
    interpolate: Callable[[SpdMatrix, SpdMatrix, Sequence[float]], list[SymMatrix]]
    mean: Callable[[Sequence[SpdMatrix]], SymMatrix]
    exp: Callable[[SpdMatrix, SymMatrix | LowerTriangular], SymMatrix]
    log: Callable[[SpdMatrix, SpdMatrix], SymMatrix | LowerTriangular]
    transport: Callable[[SpdMatrix, SpdMatrix, SymMatrix], SymMatrix] | None = None


_METRICS = {ops.name: ops for ops in (
    MetricOps(
        name="euclidean",
        distance=euclid_dist,
        interpolate=euclid_interpolate,
        mean=euclid_mean,
        exp=euclid_exp,
        log=euclid_log,
    ),
    MetricOps(
        name="cholesky",
        distance=cholesky_distance,
        interpolate=cholesky_interpolate,
        mean=cholesky_mean,
        exp=cholesky_exp,
        log=cholesky_log,
    ),
    MetricOps(
        name="log-euclidean",
        distance=logeuclid_dist,
        interpolate=logeuclid_interpolate,
        mean=logeuclid_mean,
        exp=logeuclid_exp,
        log=logeuclid_log,
        transport=logeuclid_transport,
    ),
    MetricOps(
        name="affine-invariant",
        distance=affine_dist,
        interpolate=affine_interpolate,
        mean=affine_karcher_mean,
        exp=affine_exp,
        log=affine_log,
        transport=affine_transport,
    ),
    MetricOps(
        name="log-cholesky",
        distance=spd.dist_spd,
        interpolate=spd.interpolate_spd,
        mean=spd.log_cholesky_mean,
        exp=spd.exp_spd,
        log=spd.log_spd,
        transport=spd.transport_spd,
    ),
)}

METRIC_NAMES = tuple(_METRICS)


def get_metric(name: str) -> MetricOps:
    """Look up a geometry by its selector string."""
    try:
        return _METRICS[name]
    except KeyError:
        raise DomainError(
            f"unknown metric {name!r}; expected one of {sorted(_METRICS)}"
        ) from None
