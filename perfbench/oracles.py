"""Reference computations for checking logchol outputs.

Everything here works on dense ``numpy`` arrays and shares no code with the
package: Log-Cholesky results come from dense closed forms around
``np.linalg.cholesky``, affine-invariant ones from the generalized
eigenproblem ``scipy.linalg.eigh(Q, P)``, and Log-Euclidean ones from the
Daleckii-Krein eigenbasis form of the derivatives of ``log`` and ``exp``.

The LAPACK entry points are bound at import time, so that the tracer,
which rebinds the public ``numpy.linalg`` and ``scipy.linalg`` names, never
records oracle work.
"""
from __future__ import annotations

import numpy as np
from numpy.linalg import cholesky as _cholesky
from numpy.linalg import eigh as _eigh
from numpy.linalg import slogdet as _slogdet
from numpy.linalg import solve as _solve
from scipy.linalg import eigh as _geigh

# An output is accepted when its relative Frobenius error against the
# reference is at most this.  Every geometry but Log-Euclidean stays below
# 1e-9 on the benchmark's input laws.
RTOL = 1e-6


def rel_err(out, ref) -> float:
    """Relative error of ``out`` against ``ref``; ``inf`` on shape mismatch
    or a non-finite output."""
    out = np.asarray(out, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if out.shape != ref.shape or not np.all(np.isfinite(out)):
        return float("inf")
    scale = float(np.linalg.norm(ref))
    return float(np.linalg.norm(out - ref)) / (scale if scale > 0.0 else 1.0)


def close(out, ref, rtol: float = RTOL) -> bool:
    return rel_err(out, ref) <= rtol


def sym(a: np.ndarray) -> np.ndarray:
    return (a + a.T) / 2.0


# ---------------------------------------------------------------------------
# Input laws
# ---------------------------------------------------------------------------


def spd_law(rng: np.random.Generator, m: int) -> np.ndarray:
    """``A A^T + 1e-3 I`` with ``A`` standard normal of shape ``(m, m)``."""
    a = rng.standard_normal((m, m))
    return sym(a @ a.T + 1e-3 * np.eye(m))


def tangent_law(rng: np.random.Generator, m: int) -> np.ndarray:
    """``(G + G^T) / 2`` with ``G`` standard normal of shape ``(m, m)``."""
    return sym(rng.standard_normal((m, m)))


def wishart_law(rng: np.random.Generator, m: int) -> np.ndarray:
    """``A A^T / (2m) + 1e-3 I`` with ``A`` standard normal of shape ``(m, 2m)``."""
    a = rng.standard_normal((m, 2 * m))
    return sym(a @ a.T / (2 * m) + 1e-3 * np.eye(m))


# ---------------------------------------------------------------------------
# Log-Cholesky: dense closed forms
# ---------------------------------------------------------------------------


def _split(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Strictly lower part and diagonal of a lower triangular matrix."""
    return np.tril(f, -1), np.diagonal(f).copy()


def lc_pullback(l: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The lower triangular ``X`` with ``L X^T + X L^T = W``."""
    linv_w = _solve(l, w)
    b = sym(_solve(l, linv_w.T))
    h = np.tril(b, -1) + np.diag(np.diagonal(b) / 2.0)
    return l @ h


def lc_dist(p: np.ndarray, q: np.ndarray) -> float:
    sl, dl = _split(_cholesky(p))
    sk, dk = _split(_cholesky(q))
    return float(np.sqrt(np.sum((sl - sk) ** 2) + np.sum((np.log(dl) - np.log(dk)) ** 2)))


def lc_log(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    l = _cholesky(p)
    sl, dl = _split(l)
    sk, dk = _split(_cholesky(q))
    x = sk - sl + np.diag(dl * np.log(dk / dl))
    return l @ x.T + x @ l.T


def lc_exp(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    l = _cholesky(p)
    sl, dl = _split(l)
    sx, dx = _split(lc_pullback(l, w))
    k = sl + sx + np.diag(dl * np.exp(dx / dl))
    return k @ k.T


def lc_transport(p: np.ndarray, q: np.ndarray, w: np.ndarray) -> np.ndarray:
    l = _cholesky(p)
    k = _cholesky(q)
    sx, dx = _split(lc_pullback(l, w))
    y = sx + np.diag(dx * np.diagonal(k) / np.diagonal(l))
    return k @ y.T + y @ k.T


def lc_mean(ps: np.ndarray) -> np.ndarray:
    """Closed-form Log-Cholesky mean of a stack ``(n, m, m)``."""
    ls = _cholesky(ps)
    strict = np.tril(ls.mean(axis=0), -1)
    diag = np.exp(np.log(np.diagonal(ls, axis1=1, axis2=2)).mean(axis=0))
    f = strict + np.diag(diag)
    return f @ f.T


def lc_geodesic(p: np.ndarray, q: np.ndarray, t: float) -> np.ndarray:
    sl, dl = _split(_cholesky(p))
    sk, dk = _split(_cholesky(q))
    f = (1.0 - t) * sl + t * sk + np.diag(dl ** (1.0 - t) * dk**t)
    return f @ f.T


# ---------------------------------------------------------------------------
# Affine-invariant: generalized eigenproblem Q v = lambda P v, V^T P V = I
# ---------------------------------------------------------------------------


def ai_dist(p: np.ndarray, q: np.ndarray) -> float:
    lam = _geigh(q, p, eigvals_only=True)
    return float(np.linalg.norm(np.log(lam)))


def ai_log(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # log_P(Q) = P log(P^-1 Q) = P V diag(log lambda) V^T P
    lam, v = _geigh(q, p)
    pv = p @ v
    return sym((pv * np.log(lam)) @ pv.T)


def ai_exp(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    # exp_P(W) = P exp(P^-1 W) = P V diag(e^mu) V^T P with W v = mu P v
    mu, v = _geigh(w, p)
    pv = p @ v
    return sym((pv * np.exp(mu)) @ pv.T)


def ai_transport(p: np.ndarray, q: np.ndarray, w: np.ndarray) -> np.ndarray:
    # E = (Q P^-1)^(1/2) = P V diag(sqrt(lambda)) V^T
    lam, v = _geigh(q, p)
    e = ((p @ v) * np.sqrt(lam)) @ v.T
    return sym(e @ w @ e.T)


def ai_geodesic(p: np.ndarray, q: np.ndarray, t: float) -> np.ndarray:
    lam, v = _geigh(q, p)
    pv = p @ v
    return sym((pv * lam**t) @ pv.T)


def ai_karcher_mean(ps: np.ndarray, tol: float = 1e-13, max_iter: int = 1000) -> np.ndarray:
    """Affine-invariant mean of a stack by the unit-step fixed point, run
    on whole stacks through batched symmetric eigendecompositions."""
    mean = sym(ps.mean(axis=0))
    for _ in range(max_iter):
        w, u = _eigh(mean)
        half = (u * np.sqrt(w)) @ u.T
        ihalf = (u / np.sqrt(w)) @ u.T
        inner = ihalf @ ps @ ihalf
        lw, lu = _eigh((inner + np.swapaxes(inner, -1, -2)) / 2.0)
        grad = ((lu * np.log(lw)[..., None, :]) @ np.swapaxes(lu, -1, -2)).mean(axis=0)
        gw, gu = _eigh(sym(grad))
        mean = sym(half @ ((gu * np.exp(gw)) @ gu.T) @ half)
        if np.linalg.norm(grad) <= tol * (1.0 + np.linalg.norm(mean)):
            return mean
    raise RuntimeError("reference Karcher iteration did not converge")


# ---------------------------------------------------------------------------
# Log-Euclidean: Daleckii-Krein derivatives in the eigenbasis
# ---------------------------------------------------------------------------


def _fun_sym(a: np.ndarray, f) -> np.ndarray:
    w, u = _eigh(a)
    return (u * f(w)) @ u.T


def logm(p: np.ndarray) -> np.ndarray:
    return _fun_sym(p, np.log)


def expm(s: np.ndarray) -> np.ndarray:
    return _fun_sym(s, np.exp)


def _dd_log(a: np.ndarray) -> np.ndarray:
    """Divided differences ``(log a_i - log a_j) / (a_i - a_j)``, guarded."""
    ai, aj = a[:, None], a[None, :]
    z = (ai - aj) / (ai + aj)
    small = np.abs(z) < 1e-6
    zs = np.where(small, 0.5, z)
    exact = 2.0 * np.arctanh(zs) / (zs * (ai + aj))
    return np.where(small, 2.0 / (ai + aj) * (1.0 + z * z / 3.0), exact)


def _dd_exp(a: np.ndarray) -> np.ndarray:
    """Divided differences ``(e^a_i - e^a_j) / (a_i - a_j)``, guarded."""
    ai, aj = a[:, None], a[None, :]
    d = ai - aj
    small = np.abs(d) < 1e-8
    ds = np.where(small, 1.0, d)
    lo = np.minimum(ai, aj)
    return np.where(small, np.exp((ai + aj) / 2.0), np.exp(lo) * np.expm1(np.abs(ds)) / np.abs(ds))


def dlog(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Derivative of the matrix logarithm at SPD ``p`` along ``w``."""
    lam, u = _eigh(p)
    return sym(u @ (_dd_log(lam) * (u.T @ w @ u)) @ u.T)


def dexp(s: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Derivative of the matrix exponential at symmetric ``s`` along ``h``."""
    lam, u = _eigh(s)
    return sym(u @ (_dd_exp(lam) * (u.T @ h @ u)) @ u.T)


def le_dist(p: np.ndarray, q: np.ndarray) -> float:
    return float(np.linalg.norm(logm(p) - logm(q)))


def le_log(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    lp = logm(p)
    return dexp(lp, logm(q) - lp)


def le_exp(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    return expm(logm(p) + dlog(p, w))


def le_transport(p: np.ndarray, q: np.ndarray, w: np.ndarray) -> np.ndarray:
    return dexp(logm(q), dlog(p, w))


def le_geodesic(p: np.ndarray, q: np.ndarray, t: float) -> np.ndarray:
    return expm((1.0 - t) * logm(p) + t * logm(q))


# ---------------------------------------------------------------------------
# Euclidean and Cholesky-distance baselines
# ---------------------------------------------------------------------------


def euclid_dist(p: np.ndarray, q: np.ndarray) -> float:
    return float(np.linalg.norm(p - q))


def euclid_log(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return q - p


def euclid_exp(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    return p + w


def chol_dist(p: np.ndarray, q: np.ndarray) -> float:
    return float(np.linalg.norm(_cholesky(p) - _cholesky(q)))


def chol_geodesic(p: np.ndarray, q: np.ndarray, t: float) -> np.ndarray:
    f = (1.0 - t) * _cholesky(p) + t * _cholesky(q)
    return f @ f.T


def logdet(p: np.ndarray) -> float:
    sign, val = _slogdet(p)
    if sign <= 0:
        raise ValueError("expected a positive determinant")
    return float(val)


# Per geometry selector: the references that exist for each operation.
# ``None`` means the output is checked only through the round trip and
# distance symmetry.
REFERENCES = {
    "euclidean": {"distance": euclid_dist, "log": euclid_log, "exp": euclid_exp,
                  "transport": None, "geodesic": lambda p, q, t: (1.0 - t) * p + t * q},
    "cholesky": {"distance": chol_dist, "log": None, "exp": None,
                 "transport": None, "geodesic": chol_geodesic},
    "log-euclidean": {"distance": le_dist, "log": le_log, "exp": le_exp,
                      "transport": le_transport, "geodesic": le_geodesic},
    "affine-invariant": {"distance": ai_dist, "log": ai_log, "exp": ai_exp,
                         "transport": ai_transport, "geodesic": ai_geodesic},
    "log-cholesky": {"distance": lc_dist, "log": lc_log, "exp": lc_exp,
                     "transport": lc_transport, "geodesic": lc_geodesic},
}
