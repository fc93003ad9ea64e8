"""Baseline SPD geometries: Euclidean, Cholesky distance, Log-Euclidean,
affine-invariant.

Each has a distance, an interpolant, a mean and exp/log maps; the
Log-Euclidean and affine-invariant geometries add parallel transport, so
that they can be timed and stress-tested against the Log-Cholesky one.  A
registry keys each geometry by name.

The first three are one construction, the Frobenius metric pulled back
through a chart (``P`` itself, its Cholesky factor, ``log P``), and
:func:`_flat` writes each of their operations once; the differential of
``log`` is a series, :func:`dlog_spd`, and its inverse, :func:`dexp_sym`,
the Daleckii-Krein form of the differential of ``exp``.  Only the
affine-invariant geometry is curved.  Each of its operations whitens by the
factor of its base point ``P = L L^T``, ``SpdMatrix._chol``, forming
``L^-1 X L^-T = U Lambda U^T`` with :func:`.chol_map._congruence`, and maps
back by ``(L U) f(Lambda) (L U)^T``; since ``L = P^{1/2} V`` with ``V``
orthogonal, that is ``P^{1/2} f(P^{-1/2} X P^{-1/2}) P^{1/2}``.

Every interpolant reads its grid ``ts`` through :func:`.tri._grid`, the
step rule, before any arithmetic, and works its endpoints once per call;
every mean works on one ``(n, m, m)`` stack from :func:`.tri._stack`, and
the affine-invariant mean of a ``(k, n, m, m)`` array of trials steps them
together, :func:`_karcher_means`.  Every non-Euclidean SPD result is
``K K^T``, exactly symmetric as computed, and leaves the float range only
by raising ``DomainError``: a triangular ``K`` goes through
``chol_map._spd_point``, and the exponents of a spectral ``K``
(``U e^{Lambda/2}``, ``L U e^{Lambda/2}``, ``L U Lambda^{t/2}``) through
``chol_map._check_exponents``.  Only the spectral logarithms and transports
are symmetrized, as ``_sym(.)``; a whitened matrix is not, since its one
reader, ``_eigh``, reads its lower triangle alone.  Every result is typed
through ``_Square._of``, which tests finiteness and the type's own check
alone.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from . import spd_manifold as spd
from .chol_map import _check_exponents, _congruence, _reconstruct, _spd_point
from .tri import (
    DomainError,
    EmptyInputError,
    LowerTriangular,
    NoConvergenceError,
    NotSpdError,
    SpdMatrix,
    SymMatrix,
    _eigh,
    _factor,
    _finite,
    _grid,
    _mean,
    _norm,
    _real,
    _require_same_dim,
    _stack,
    _sym,
    _symmetrized,
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
# Log-Euclidean differentials
# ---------------------------------------------------------------------------

# dlog_spd's stop: a term's norm below the tolerance, or the cap on terms.
DLOG_SERIES_TOL = 1e-12
DLOG_SERIES_MAX_TERMS = 500


@np.errstate(over="ignore", invalid="ignore")  # overflow reads inf or nan: rejected
def dexp_sym(s: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Derivative of ``exp`` at symmetric ``s = U diag(a) U^T`` along ``h`` (Daleckii-Krein):
    ``U (F o U^T h U) U^T``, ``o`` entrywise, with ``F_ij = e^max(a_i, a_j) (1 - e^-d) / d``
    by ``expm1``, ``d = |a_i - a_j|``, and ``e^a_i`` where ``d = 0``; ``h`` must be finite."""
    a, u = _eigh(s)
    e, d = np.exp(a), np.abs(np.subtract.outer(a, a))
    f = np.maximum.outer(e, e) * np.where(d > 0.0, -np.expm1(-d) / d, 1.0)
    return u @ (f * (u.T @ _finite(h) @ u)) @ u.T


@np.errstate(over="ignore", invalid="ignore")  # overflow reads inf or nan: rejected
def dlog_spd(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Directional derivative of the matrix logarithm at SPD ``p`` along ``w``:
    the alternating series of ``log(I + E)`` after the exact rescaling
    ``log(p) = log(c) I + log(p / c)``, ``c`` the midpoint of the spectrum, so
    that ``E`` has spectral radius ``1 - 2/(kappa + 1)`` at condition ``kappa``.
    It stops on a term's norm below ``DLOG_SERIES_TOL`` or after
    ``DLOG_SERIES_MAX_TERMS`` terms, so past ``kappa`` of about 40 it is cut
    short, and its result is off with no error.  It stops too once the sum
    holds an inf or NaN, which no later term makes finite again: the caller
    rejects the result."""
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
        s = _norm(contrib)
        if s < DLOG_SERIES_TOL or (not math.isfinite(s) and not np.isfinite(out).all()):
            break
    return out


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


@np.errstate(over="ignore", invalid="ignore")  # overflow reads inf or nan: rejected
def affine_log(P: SpdMatrix, Q: SpdMatrix) -> SymMatrix:
    """``L log(L^-1 Q L^-T) L^T = (L U) log(Lambda) (L U)^T`` with ``P = L L^T``."""
    _require_same_dim(P, Q)
    l = P._chol
    w, u = _eigh(_congruence(l, Q.data), "matrix logarithm")
    lu = l @ u
    return SymMatrix._of(_sym((lu * np.log(w)) @ lu.T))


@np.errstate(over="ignore", invalid="ignore")  # overflow reads inf or nan: rejected
def affine_transport(P: SpdMatrix, Q: SpdMatrix, W: SymMatrix) -> SymMatrix:
    """Closed-form transport ``E W E^T`` with ``E = (Q P^-1)^(1/2) = L S L^-1``,
    where ``S = (L^-1 Q L^-T)^(1/2)``: so ``(L S) (L^-1 W L^-T) (L S)^T``."""
    _require_same_dim(P, Q, W)
    l = P._chol
    w, u = _eigh(_congruence(l, Q.data), "matrix square root")
    ls = l @ ((u * np.sqrt(w)) @ u.T)
    return SymMatrix._of(_sym(ls @ _congruence(l, W.data) @ ls.T))


def affine_karcher_mean(
    Ps: Sequence[SpdMatrix] | np.ndarray,
) -> SpdMatrix | list[SpdMatrix]:
    """Frechet mean by fixed-point iteration with unit step, of one sample's
    members ``Ps`` (:func:`_karcher_alone` on their stack); or the list of
    each trial's mean of a ``(k, n, m, m)`` array of SPD members, checked as
    outside data by ``tri._symmetrized``, from one stacked iteration
    (:func:`_karcher_means`): of exactly symmetric members, each with the bits
    of its one-sample call.

    Raises
    ------
    NoConvergenceError
        If a trial's ``|g|_F`` has not dropped to ``KARCHER_TOL`` within
        ``KARCHER_MAX_ITER`` iterations; the message gives the largest last value.
    DomainError
        If the members differ in dimension, or the array is not a stack of
        trials of square matrices of finite real numbers.
    NotSpdError
        If a member of the array is not symmetric, or not positive definite.
    EmptyInputError
        If there is no member, or no trial.
    """
    if not isinstance(Ps, np.ndarray):
        return _karcher_alone(_stack(P.data for P in Ps))
    ps = _real(Ps)
    if ps.ndim != 4 or ps.shape[2] != ps.shape[3] or not ps.shape[2]:
        raise DomainError(f"not a (k, n, m, m) stack of trials: shape {ps.shape}")
    if not ps.shape[0] * ps.shape[1]:
        raise EmptyInputError("a mean requires at least one matrix")
    return _karcher_means(_symmetrized(ps, NotSpdError))


@np.errstate(over="ignore", invalid="ignore")  # overflow reads inf or nan: rejected
def _karcher_alone(ps: np.ndarray) -> SpdMatrix:
    """The Karcher mean of an ``(n, m, m)`` stack of SPD members, from their
    Euclidean mean, ``_mean``.  Each step factors the iterate ``P = L L^T``
    and whitens the members in one congruence; with ``g`` the mean of their
    logarithms ``log(L^-1 P_i L^-T)``, the Riemannian gradient is ``L g L^T``
    and the step ``L e^g L^T = K K^T``, ``K = L U e^{Lambda/2}``.  Since
    ``L = P^{1/2} V`` with ``V`` orthogonal, ``|g|_F`` is the gradient's
    affine-invariant norm at ``P``: the stop is blind to the scale ``c``, so
    the mean of ``c P_i`` is ``c`` times that of ``P_i``.  The exponential of
    one matrix takes ``tri._eigh``'s ``dsyevd``, at a few rows about half the
    cost of the batched call: so one sample does not run :func:`_karcher_means`.
    It raises as :func:`affine_karcher_mean` does."""
    n = len(ps)
    mean = _mean(ps)
    for _ in range(KARCHER_MAX_ITER):
        l = _factor(mean)
        g = np.add.reduce(spd_logm(_congruence(l, ps)), axis=0) / n  # np.mean's bits
        if (gnorm := _norm(g)) <= KARCHER_TOL:
            return SpdMatrix._of(mean)
        mean = _reconstruct(l @ _exp_factor(g))
    raise NoConvergenceError(f"Karcher iteration did not converge in {KARCHER_MAX_ITER} "
                             f"iterations; gradient norm {gnorm:.3g} at the last step")


@np.errstate(over="ignore", invalid="ignore")  # overflow reads inf or nan: rejected
def _karcher_means(ps: np.ndarray) -> list[SpdMatrix]:
    """The Karcher mean of each trial of a ``(k, n, m, m)`` stack of SPD
    members: the steps of :func:`_karcher_alone`, each trial to its own stop.
    Every trial starts from one ``_mean`` along the members' axis; each step
    takes the logarithms of the unconverged trials' members in one stacked
    call, their gradients in one ``_mean`` along the members' axis, and the
    exponentials of the trials that step on in one more stacked call.
    Each trial's mean has the bits :func:`_karcher_alone` gives it; the work
    grows with the slowest trial's steps, the memory with ``k n m^2``.  A
    trial that has not stopped within ``KARCHER_MAX_ITER`` steps raises
    ``NoConvergenceError`` with the largest last gradient norm."""
    n, m = ps.shape[1:3]
    going = list(range(len(ps)))  # the unconverged trials, in order
    iterates = _mean(ps, 1)  # theirs, in the same order
    means = [None] * len(ps)
    for _ in range(KARCHER_MAX_ITER):
        ls = [_factor(mean) for mean in iterates]
        logs = spd_logm(np.concatenate([_congruence(l, ps[i]) for l, i in zip(ls, going)]))
        gs = _mean(logs.reshape(-1, n, m, m), 1)
        gnorms = [_norm(g) for g in gs]
        on = []
        for j, (i, mean, gnorm) in enumerate(zip(going, iterates, gnorms)):
            if gnorm <= KARCHER_TOL:
                means[i] = SpdMatrix._of(mean)
            else:
                on.append(j)
        if not on:
            return means
        iterates = [_reconstruct(ls[j] @ k) for j, k in zip(on, _exp_factor(gs[on]))]
        going = [going[j] for j in on]
    raise NoConvergenceError(f"Karcher iteration did not converge in {KARCHER_MAX_ITER} "
                             f"iterations; gradient norm {max(gnorms):.3g} at the last step")


# ---------------------------------------------------------------------------
# Registry keyed by metric selector string
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricOps:
    """Uniform interface over the five geometries: :func:`_flat` builds the
    Euclidean, Cholesky and Log-Euclidean entries, and the affine-invariant
    and Log-Cholesky entries name their module's functions."""

    name: str
    distance: Callable[[SpdMatrix, SpdMatrix], float]
    interpolate: Callable[[SpdMatrix, SpdMatrix, Sequence[float]], list[SymMatrix]]
    mean: Callable[[Sequence[SpdMatrix]], SymMatrix]
    exp: Callable[[SpdMatrix, SymMatrix | LowerTriangular], SymMatrix]
    log: Callable[[SpdMatrix, SpdMatrix], SymMatrix | LowerTriangular]
    transport: Callable[[SpdMatrix, SpdMatrix, SymMatrix], SymMatrix] | None = None


def _flat(name: str, base, chart, point, tangent, push=None, pull=None) -> MetricOps:
    """The registry entry of the flat geometry with chart ``c(P) = chart(base(P))``:
    distance ``|c(P) - c(Q)|_F``, interpolant ``c^-1((1 - t) c(P) + t c(Q))``,
    mean ``c^-1`` of the members' mean chart value, exp ``c^-1(c(P) + dc_P W)``,
    log ``dc_P^-1 (c(Q) - c(P))`` and transport ``dc_Q^-1 dc_P W``.

    ``base(P)`` is ``P.data`` or ``P._chol``; ``chart`` maps one array or a
    stack, ``None`` being the identity; ``point(a)`` types ``c^-1(a)``; and
    ``tangent`` is the tangent type.  ``push(base(P), W)`` is ``dc_P W`` and
    ``pull(c(P), v)`` its inverse.  Without them ``dc_P`` is the identity and
    the entry has no transport; a pulled tangent is symmetrized, since
    ``pull`` is not symmetric as computed."""
    c = base if chart is None else lambda P: chart(base(P))

    def distance(P, Q):
        _require_same_dim(P, Q)
        return float(_norm(c(P) - c(Q)))

    @np.errstate(over="ignore", invalid="ignore")  # overflow reads inf or nan: rejected
    def interpolate(P, Q, ts):
        ts = _grid(ts)
        _require_same_dim(P, Q)
        a, b = c(P), c(Q)
        return [point((1.0 - t) * a + t * b) for t in ts]

    def mean(Ps):
        a = _stack(base(P) for P in Ps)
        return point(_mean(a if chart is None else chart(a)))

    @np.errstate(over="ignore", invalid="ignore")  # overflow reads inf or nan: rejected
    def exp(P, W):
        _require_same_dim(P, W)
        return point(c(P) + (W.data if push is None else push(base(P), W.data)))

    def pulled(a, v):
        """The chart vector ``v`` at ``a = c(P)`` as a tangent at ``P``."""
        if pull is None:
            return tangent._of(v)
        return tangent._of(_sym(pull(a, v)))

    def log(P, Q):
        _require_same_dim(P, Q)
        a = c(P)
        return pulled(a, c(Q) - a)

    def transport(P, Q, W):
        _require_same_dim(P, Q, W)
        v = push(base(P), W.data)
        return pulled(c(Q), v)

    return MetricOps(name, distance, interpolate, mean, exp, log,
                     None if push is None else transport)


_METRICS = {ops.name: ops for ops in (
    _flat("euclidean", attrgetter("data"), None, SymMatrix._of, SymMatrix),
    _flat("cholesky", attrgetter("_chol"), None, _spd_point, LowerTriangular),
    _flat("log-euclidean", attrgetter("data"), spd_logm,
          lambda a: SpdMatrix._of(_reconstruct(_exp_factor(a))), SymMatrix,
          # The differentials are called by name, where perfbench's tracer rebinds
          # them to time its le_series group; a reference held here would escape it.
          push=lambda p, w: dlog_spd(p, w), pull=lambda s, h: dexp_sym(s, h)),
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
