"""Baseline SPD geometries: Euclidean, Cholesky distance, Log-Euclidean,
affine-invariant.

All four expose distance, geodesic interpolation and a mean; the two
Riemannian baselines additionally expose exponential/logarithmic maps and
parallel transport so they can be timed and stress-tested against the
Log-Cholesky geometry.  Every mean works on the ``(n, m, m)`` stack of its
members from :func:`.tri._stack`: one batched factorization or matrix
function per step, one typed wrap of the result.  A small registry keys
every geometry (including Log-Cholesky) by its selector string for uniform
iteration from the CLI and tests.
"""
from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from . import spd_manifold as spd
from .chol_map import _factor, _reconstruct, reconstruct
from .tri import (
    CholeskyFactor,
    DomainError,
    EigFailureError,
    LowerTriangular,
    NoConvergenceError,
    NotSpdError,
    SpdMatrix,
    SymMatrix,
    SymTangent,
    _require_same_dim,
    _stack,
)

# ---------------------------------------------------------------------------
# Matrix functions of symmetric matrices via eigendecomposition
# ---------------------------------------------------------------------------


def _eigh(a: np.ndarray, domain: str | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix or stack; with ``domain``
    (a function of positive eigenvalues) given, all must be positive."""
    try:
        w, u = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigFailureError("symmetric eigendecomposition failed") from exc
    if domain is not None and (lo := min(w[..., 0].flat)) <= 0.0:
        raise NotSpdError(f"{domain} undefined: smallest eigenvalue {lo}")
    return w, u


def _spectral(a: np.ndarray, f, domain: str | None = None) -> np.ndarray:
    """``U f(Lambda) U^T`` for symmetric ``a = U Lambda U^T``, a matrix or a stack."""
    w, u = _eigh(a, domain)
    return (u * f(w)[..., None, :]) @ u.swapaxes(-1, -2)


def sym_expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a symmetric matrix or stack."""
    return _spectral(a, np.exp)


def spd_logm(a: np.ndarray) -> np.ndarray:
    """Matrix logarithm of an SPD matrix or stack."""
    return _spectral(a, np.log, "matrix logarithm")


def spd_powm(a: np.ndarray, t: float) -> np.ndarray:
    """Real matrix power of an SPD matrix or stack."""
    return _spectral(a, lambda w: w**t, "matrix power")


def _sym(a: np.ndarray) -> np.ndarray:
    return (a + a.swapaxes(-1, -2)) / 2.0


def _wrap_spd(a: np.ndarray) -> SpdMatrix:
    return SpdMatrix(_sym(a))


def _wrap_sym(a: np.ndarray) -> SymMatrix:
    return SymMatrix(_sym(a))


# ---------------------------------------------------------------------------
# Euclidean
# ---------------------------------------------------------------------------


def euclid_dist(P: SymMatrix, Q: SymMatrix) -> float:
    _require_same_dim(P, Q)
    return float(np.linalg.norm(P.data - Q.data))


def euclid_interpolate(P: SymMatrix, Q: SymMatrix, t: float) -> SymMatrix:
    """Linear interpolation ``(1 - t) P + t Q``; exhibits determinant swelling."""
    _require_same_dim(P, Q)
    return _wrap_sym((1.0 - t) * P.data + t * Q.data)


def euclid_mean(Ps: Sequence[SymMatrix]) -> SymMatrix:
    return _wrap_sym(_stack(Ps).mean(axis=0))


def euclid_exp(P: SymMatrix, W: SymTangent) -> SymMatrix:
    _require_same_dim(P, W)
    return _wrap_sym(P.data + W.data)


def euclid_log(P: SymMatrix, Q: SymMatrix) -> SymTangent:
    _require_same_dim(P, Q)
    return _wrap_sym(Q.data - P.data)


# ---------------------------------------------------------------------------
# Cholesky distance (Frobenius gap of factors)
# ---------------------------------------------------------------------------


def cholesky_distance(P: SpdMatrix, Q: SpdMatrix) -> float:
    _require_same_dim(P, Q)
    return float(np.linalg.norm(_factor(P.data) - _factor(Q.data)))


def cholesky_interpolate(P: SpdMatrix, Q: SpdMatrix, t: float) -> SpdMatrix:
    """Convex combination of the factors, reconstructed."""
    _require_same_dim(P, Q)
    f = (1.0 - t) * _factor(P.data) + t * _factor(Q.data)
    return reconstruct(CholeskyFactor(f))


def cholesky_mean(Ps: Sequence[SpdMatrix]) -> SpdMatrix:
    return SpdMatrix(_reconstruct(_factor(_stack(Ps)).mean(axis=0)))


def cholesky_exp(P: SpdMatrix, X: LowerTriangular) -> SpdMatrix:
    """Factor-space translation: the factor of ``P`` plus the factor gap ``X``."""
    _require_same_dim(P, X)
    return reconstruct(CholeskyFactor(_factor(P.data) + X.data))


def cholesky_log(P: SpdMatrix, Q: SpdMatrix) -> LowerTriangular:
    """The factor gap ``chol(Q) - chol(P)``."""
    _require_same_dim(P, Q)
    return LowerTriangular(_factor(Q.data) - _factor(P.data))


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
        if np.linalg.norm(term) < DLOG_SERIES_TOL:
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
    lam = np.linalg.eigvalsh(p)
    if lam[0] <= 0.0:
        raise NotSpdError("matrix logarithm differential undefined off the SPD cone")
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
        if np.linalg.norm(contrib) < DLOG_SERIES_TOL:
            break
    return out


def logeuclid_dist(P: SpdMatrix, Q: SpdMatrix) -> float:
    _require_same_dim(P, Q)
    return float(np.linalg.norm(spd_logm(P.data) - spd_logm(Q.data)))


def logeuclid_interpolate(P: SpdMatrix, Q: SpdMatrix, t: float) -> SpdMatrix:
    _require_same_dim(P, Q)
    lp = spd_logm(P.data)
    lq = spd_logm(Q.data)
    return _wrap_spd(sym_expm((1.0 - t) * lp + t * lq))


def logeuclid_mean(Ps: Sequence[SpdMatrix]) -> SpdMatrix:
    return _wrap_spd(sym_expm(spd_logm(_stack(Ps)).mean(axis=0)))


def logeuclid_exp(P: SpdMatrix, W: SymTangent) -> SpdMatrix:
    """Riemannian exponential: push the tangent into log space and exponentiate."""
    _require_same_dim(P, W)
    p = P.data
    return _wrap_spd(sym_expm(spd_logm(p) + dlog_spd(p, W.data)))


def logeuclid_log(P: SpdMatrix, Q: SpdMatrix) -> SymTangent:
    """Riemannian logarithm: log-space difference pulled back to the tangent at P."""
    _require_same_dim(P, Q)
    lp = spd_logm(P.data)
    lq = spd_logm(Q.data)
    return _wrap_sym(dexp_sym(lp, lq - lp))


def logeuclid_transport(P: SpdMatrix, Q: SpdMatrix, W: SymTangent) -> SymTangent:
    """Parallel transport: flatten at ``P`` via d(log), restore at ``Q`` via d(exp)."""
    _require_same_dim(P, Q, W)
    flat = dlog_spd(P.data, W.data)
    return _wrap_sym(dexp_sym(spd_logm(Q.data), flat))


# ---------------------------------------------------------------------------
# Affine-invariant
# ---------------------------------------------------------------------------

KARCHER_TOL = 1e-12
KARCHER_MAX_ITER = 200


def _sqrt_pair(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(P^{1/2}, P^{-1/2})`` from one eigendecomposition of SPD ``p``."""
    w, u = _eigh(p, "matrix square root")
    sq = np.sqrt(w)
    return (u * sq) @ u.T, (u / sq) @ u.T


def affine_dist(P: SpdMatrix, Q: SpdMatrix) -> float:
    _require_same_dim(P, Q)
    _, pis = _sqrt_pair(P.data)
    return float(np.linalg.norm(spd_logm(_sym(pis @ Q.data @ pis))))


def affine_interpolate(P: SpdMatrix, Q: SpdMatrix, t: float) -> SpdMatrix:
    _require_same_dim(P, Q)
    ps, pis = _sqrt_pair(P.data)
    mid = spd_powm(_sym(pis @ Q.data @ pis), t)
    return _wrap_spd(ps @ mid @ ps)


def affine_exp(P: SpdMatrix, W: SymTangent) -> SpdMatrix:
    _require_same_dim(P, W)
    ps, pis = _sqrt_pair(P.data)
    return _wrap_spd(ps @ sym_expm(_sym(pis @ W.data @ pis)) @ ps)


def affine_log(P: SpdMatrix, Q: SpdMatrix) -> SymTangent:
    _require_same_dim(P, Q)
    ps, pis = _sqrt_pair(P.data)
    return _wrap_sym(ps @ spd_logm(_sym(pis @ Q.data @ pis)) @ ps)


def affine_transport(P: SpdMatrix, Q: SpdMatrix, W: SymTangent) -> SymTangent:
    """Closed-form transport ``E W E^T`` with ``E = (Q P^-1)^(1/2)``."""
    _require_same_dim(P, Q, W)
    ps, pis = _sqrt_pair(P.data)
    inner = spd_powm(_sym(pis @ Q.data @ pis), 0.5)
    e = ps @ inner @ pis
    return _wrap_sym(e @ W.data @ e.T)


def affine_inner(P: SpdMatrix, W: SymTangent, V: SymTangent) -> float:
    """Affine-invariant inner product ``tr(P^-1 W P^-1 V)``."""
    _require_same_dim(P, W, V)
    pinv = np.linalg.inv(P.data)
    return float(np.trace(pinv @ W.data @ pinv @ V.data))


def affine_karcher_mean(Ps: Sequence[SpdMatrix]) -> SpdMatrix:
    """Frechet mean by fixed-point iteration with unit step.

    From the Euclidean mean, each step whitens the stack once by the
    iterate ``P``: with ``g`` the mean of ``log(P^{-1/2} P_i P^{-1/2})``,
    the gradient is ``P^{1/2} g P^{1/2}`` and the step ``P^{1/2} e^g P^{1/2}``.

    Raises
    ------
    NoConvergenceError
        If the gradient has not dropped below ``KARCHER_TOL`` (relative to
        the iterate's norm) within ``KARCHER_MAX_ITER`` iterations.
    """
    ps = _stack(Ps)
    if len(ps) == 1:
        return Ps[0]
    mean = _wrap_spd(ps.mean(axis=0))
    for _ in range(KARCHER_MAX_ITER):
        half, ihalf = _sqrt_pair(mean.data)
        g = spd_logm(_sym(ihalf @ ps @ ihalf)).mean(axis=0)
        if np.linalg.norm(half @ g @ half) <= KARCHER_TOL * (1.0 + np.linalg.norm(mean.data)):
            return mean
        mean = _wrap_spd(half @ sym_expm(_sym(g)) @ half)
    raise NoConvergenceError(
        f"Karcher iteration did not converge in {KARCHER_MAX_ITER} iterations"
    )


# ---------------------------------------------------------------------------
# Registry keyed by metric selector string
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricOps:
    """Uniform interface over the five geometries."""

    name: str
    distance: Callable[[SpdMatrix, SpdMatrix], float]
    interpolate: Callable[[SpdMatrix, SpdMatrix, float], SymMatrix]
    mean: Callable[[Sequence[SpdMatrix]], SymMatrix]
    exp: Callable[[SpdMatrix, SymTangent | LowerTriangular], SymMatrix]
    log: Callable[[SpdMatrix, SpdMatrix], SymTangent | LowerTriangular]
    transport: Callable[[SpdMatrix, SpdMatrix, SymTangent], SymTangent] | None = None


def _lc_interpolate(P: SpdMatrix, Q: SpdMatrix, t: float) -> SpdMatrix:
    return spd.interpolate_spd(P, Q, [t])[0]


_METRICS = {
    "euclidean": MetricOps(
        name="euclidean",
        distance=euclid_dist,
        interpolate=euclid_interpolate,
        mean=euclid_mean,
        exp=euclid_exp,
        log=euclid_log,
    ),
    "cholesky": MetricOps(
        name="cholesky",
        distance=cholesky_distance,
        interpolate=cholesky_interpolate,
        mean=cholesky_mean,
        exp=cholesky_exp,
        log=cholesky_log,
    ),
    "log-euclidean": MetricOps(
        name="log-euclidean",
        distance=logeuclid_dist,
        interpolate=logeuclid_interpolate,
        mean=logeuclid_mean,
        exp=logeuclid_exp,
        log=logeuclid_log,
        transport=logeuclid_transport,
    ),
    "affine-invariant": MetricOps(
        name="affine-invariant",
        distance=affine_dist,
        interpolate=affine_interpolate,
        mean=affine_karcher_mean,
        exp=affine_exp,
        log=affine_log,
        transport=affine_transport,
    ),
    "log-cholesky": MetricOps(
        name="log-cholesky",
        distance=spd.dist_spd,
        interpolate=_lc_interpolate,
        mean=spd.log_cholesky_mean,
        exp=spd.exp_spd,
        log=spd.log_spd,
        transport=spd.transport_spd,
    ),
}

METRIC_NAMES = tuple(_METRICS)


def get_metric(name: str) -> MetricOps:
    """Look up a geometry by its selector string."""
    try:
        return _METRICS[name]
    except KeyError:
        raise DomainError(
            f"unknown metric {name!r}; expected one of {sorted(_METRICS)}"
        ) from None
