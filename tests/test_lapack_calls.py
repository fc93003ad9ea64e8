"""The LAPACK and BLAS work of each operation, counted.

Each routine is counted where its home module (``test_surface.HOMES``)
reaches it: ``dpotrf`` in ``tri``, ``dtrsm`` and ``dtrmm`` in ``chol_map``,
and ``eigh`` and ``eigvalsh`` through ``numpy.linalg``, which ``tri._eigh``
calls.  The table holds the calls of ``from_dense`` and of every
operation of the registry at m = 5 on ``from_dense`` points, which keep
their factors; an interpolation takes a grid of three steps.  The Karcher
mean is left out: its count grows with its iterations.  A call added to or
dropped from any operation changes the table."""
from collections import Counter

import numpy as np
import pytest

from logchol import chol_map, tri
from logchol.baselines import METRIC_NAMES, get_metric
from logchol.tri import LowerTriangular, SpdMatrix, SymMatrix

M = 5
TS = (0.0, 0.5, 1.0)
ROUTINES = {"dpotrf": tri, "dtrsm": chol_map, "dtrmm": chol_map,
            "eigh": np.linalg, "eigvalsh": np.linalg}

CALLS = {
    "SpdMatrix.from_dense": {"dpotrf": 1},
    "SymMatrix.from_dense": {},
    **{f"{g}.{op}": {} for g in ("euclidean", "cholesky")
       for op in ("distance", "interpolate", "mean", "exp", "log")},
    "log-euclidean.distance": {"eigh": 2},
    "log-euclidean.interpolate": {"eigh": 5},
    "log-euclidean.mean": {"eigh": 2},
    "log-euclidean.exp": {"eigh": 2, "eigvalsh": 1},
    "log-euclidean.log": {"eigh": 2},
    "log-euclidean.transport": {"eigh": 1, "eigvalsh": 1},
    "affine-invariant.distance": {"dtrsm": 2, "eigvalsh": 1},
    "affine-invariant.interpolate": {"dtrsm": 2, "eigh": 1},
    "affine-invariant.exp": {"dtrsm": 2, "eigh": 1},
    "affine-invariant.log": {"dtrsm": 2, "eigh": 1},
    "affine-invariant.transport": {"dtrsm": 4, "eigh": 1},
    "log-cholesky.distance": {},
    "log-cholesky.interpolate": {},
    "log-cholesky.mean": {},
    "log-cholesky.exp": {"dtrsm": 2, "dtrmm": 1},
    "log-cholesky.log": {},
    "log-cholesky.transport": {"dtrsm": 2, "dtrmm": 1},
}


@pytest.fixture
def calls(monkeypatch):
    """A counter of each routine's calls, by name."""
    seen = Counter()
    for name, module in ROUTINES.items():
        def counted(*args, real=getattr(module, name), name=name, **kwargs):
            seen[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return seen


def test_each_operation_makes_its_lapack_calls(rng, calls):
    p, q, g = (rng.standard_normal((M, M)) for _ in range(3))
    p, q, w = p @ p.T + np.eye(M), q @ q.T + np.eye(M), g + g.T
    work = {"SpdMatrix.from_dense": lambda: SpdMatrix.from_dense(p),
            "SymMatrix.from_dense": lambda: SymMatrix.from_dense(w)}
    P, Q, W = SpdMatrix.from_dense(p), SpdMatrix.from_dense(q), SymMatrix.from_dense(w)
    X = LowerTriangular(np.tril(w))
    for g in METRIC_NAMES:
        ops, t = get_metric(g), X if g == "cholesky" else W
        work.update({
            f"{g}.distance": lambda ops=ops: ops.distance(P, Q),
            f"{g}.interpolate": lambda ops=ops: ops.interpolate(P, Q, TS),
            f"{g}.exp": lambda ops=ops, t=t: ops.exp(P, t),
            f"{g}.log": lambda ops=ops: ops.log(P, Q),
        })
        if g != "affine-invariant":
            work[f"{g}.mean"] = lambda ops=ops: ops.mean([P, Q])
        if ops.transport is not None:
            work[f"{g}.transport"] = lambda ops=ops: ops.transport(P, Q, W)
    table = {}
    for key, fn in work.items():
        calls.clear()
        fn()
        table[key] = dict(calls)
    assert table == CALLS
