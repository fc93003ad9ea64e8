"""The LAPACK and BLAS work of each operation, counted.

Each routine is counted where its home module (``test_surface.HOMES``)
reaches it: ``dpotrf`` and ``dsyevd`` in ``tri``, ``dtrsm`` and ``dtrmm``
in ``chol_map``, and ``eigh`` through ``numpy.linalg``.  ``tri._eigh``
sends one matrix to ``dsyevd`` and a stack to numpy's batched ``eigh``; a
values-only ``dsyevd`` is counted as ``dsyevd/N``.
The table holds the calls of ``from_dense`` and of every operation of the
registry at m = 5 on ``from_dense`` points, which keep their factors; an
interpolation takes a grid of three steps.  The Karcher mean's count grows
with its iterations, so it is pinned per iteration instead, and a mean-gap
run, whose trials share one stacked iteration, per step of its slowest
trial.  A fixture's load, and the draw of ``mean --n N --m M``, factor each
member once and call nothing else, so a mean of its points makes no call.
A second table holds the Log-Cholesky operations and the ``chol_map``
differentials at m = 128, where the pullback splits once into two m = 64
congruences (``chol_map._BLOCK``).  A call added to or dropped from any
operation changes a table."""
import dataclasses
from collections import Counter

import numpy as np
import pytest

from support import dump_matrices, wishart_trials

from logchol import baselines as bl
from logchol import chol_map, tri
from logchol import experiments as ex
from logchol.baselines import METRIC_NAMES, get_metric
from logchol.tri import CholeskyFactor, LowerTriangular, SpdMatrix, SymMatrix

M = 5
TS = (0.0, 0.5, 1.0)
ROUTINES = {"dpotrf": tri, "dsyevd": tri, "dtrsm": chol_map, "dtrmm": chol_map,
            "eigh": np.linalg}

CALLS = {
    "SpdMatrix.from_dense": {"dpotrf": 1},
    "SymMatrix.from_dense": {},
    **{f"{g}.{op}": {} for g in ("euclidean", "cholesky")
       for op in ("distance", "interpolate", "mean", "exp", "log")},
    "log-euclidean.distance": {"dsyevd": 2},
    "log-euclidean.interpolate": {"dsyevd": 5},
    "log-euclidean.mean": {"eigh": 1, "dsyevd": 1},
    "log-euclidean.exp": {"dsyevd": 2, "dsyevd/N": 1},
    "log-euclidean.log": {"dsyevd": 3},
    "log-euclidean.transport": {"dsyevd": 2, "dsyevd/N": 1},
    "affine-invariant.distance": {"dtrsm": 2, "dsyevd/N": 1},
    "affine-invariant.interpolate": {"dtrsm": 2, "dsyevd": 1},
    "affine-invariant.exp": {"dtrsm": 2, "dsyevd": 1},
    "affine-invariant.log": {"dtrsm": 2, "dsyevd": 1},
    "affine-invariant.transport": {"dtrsm": 4, "dsyevd": 1},
    "log-cholesky.distance": {},
    "log-cholesky.interpolate": {},
    "log-cholesky.mean": {},
    "log-cholesky.exp": {"dtrsm": 2, "dtrmm": 1},
    "log-cholesky.log": {"dtrmm": 1},
    "log-cholesky.transport": {"dtrsm": 2, "dtrmm": 2},
}

# One split: two leaf congruences (two dtrsm and one dtrmm each), and the
# off-diagonal block's dtrmm and dtrsm.
BLOCKED_M = 128
BLOCKED_CALLS = {
    "log-cholesky.distance": {},
    "log-cholesky.interpolate": {},
    "log-cholesky.mean": {},
    "log-cholesky.exp": {"dtrsm": 5, "dtrmm": 3},
    "log-cholesky.log": {"dtrmm": 1},
    "log-cholesky.transport": {"dtrsm": 5, "dtrmm": 4},
    "chol_map.diff_S_inv": {"dtrsm": 5, "dtrmm": 3},
    "chol_map.diff_S": {"dtrmm": 1},
}


@pytest.fixture
def calls(monkeypatch):
    """A counter of each routine's calls, by name."""
    seen = Counter()
    for name, module in ROUTINES.items():
        def counted(*args, real=getattr(module, name), name=name, **kwargs):
            seen[name + ("/N" if kwargs.get("compute_v") == 0 else "")] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return seen


def _inputs(rng, m):
    p, q, g = (rng.standard_normal((m, m)) for _ in range(3))
    p, q, w = p @ p.T + np.eye(m), q @ q.T + np.eye(m), g + g.T
    return p, q, w


def _counted(calls, work):
    table = {}
    for key, fn in work.items():
        calls.clear()
        fn()
        table[key] = dict(calls)
    return table


def test_each_operation_makes_its_lapack_calls(rng, calls):
    p, q, w = _inputs(rng, M)
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
    assert _counted(calls, work) == CALLS


def test_the_blocked_pullback_makes_its_lapack_calls(rng, calls):
    p, q, w = _inputs(rng, BLOCKED_M)
    P, Q, W = SpdMatrix.from_dense(p), SpdMatrix.from_dense(q), SymMatrix.from_dense(w)
    L, X = CholeskyFactor(P._chol), LowerTriangular(np.tril(w))
    ops = get_metric("log-cholesky")
    work = {
        "log-cholesky.distance": lambda: ops.distance(P, Q),
        "log-cholesky.interpolate": lambda: ops.interpolate(P, Q, TS),
        "log-cholesky.mean": lambda: ops.mean([P, Q]),
        "log-cholesky.exp": lambda: ops.exp(P, W),
        "log-cholesky.log": lambda: ops.log(P, Q),
        "log-cholesky.transport": lambda: ops.transport(P, Q, W),
        "chol_map.diff_S_inv": lambda: chol_map.diff_S_inv(L, W),
        "chol_map.diff_S": lambda: chol_map.diff_S(L, X),
    }
    assert _counted(calls, work) == BLOCKED_CALLS


def test_each_karcher_step_makes_its_lapack_calls(rng, calls):
    # Each step factors the iterate (dpotrf), whitens the stack in one
    # congruence (two dtrsm) and takes its logarithm in one stacked eigh;
    # every step but the last, which stops on the gradient, also takes the
    # exp of the mean log on one matrix (dsyevd).
    Ps = [SpdMatrix(p) for p in (_inputs(rng, M)[0] for _ in range(6))]
    get_metric("affine-invariant").mean(Ps)
    k = calls["dpotrf"]
    assert k > 2
    assert dict(calls) == {"dpotrf": k, "dtrsm": 2 * k, "eigh": k, "dsyevd": k - 1}


def test_a_mean_gap_run_steps_its_trials_together(calls):
    # The affine-invariant means of a mean-gap run are one stacked Karcher
    # iteration.  Each step takes one stacked eigh for the logarithms of the
    # members of the trials still stepping and, at every step but the last,
    # one for the exps of the trials that step on, the last trial left
    # included: no dsyevd.  So the eigh calls grow with the slowest trial's
    # steps, not with their sum; the factorizations and congruences stay one
    # per trial and step.  Each member is factored once, into the factor
    # stack that the Log-Cholesky means read.
    n, m, trials, seed = 6, 3, 8, 0
    steps = []
    for sample in wishart_trials(n, m, trials, seed):
        calls.clear()
        get_metric("affine-invariant").mean(sample)
        steps.append(calls["dpotrf"])
    k = max(steps)
    assert steps.count(k) == 1  # the slowest trial steps alone at the end
    calls.clear()
    ex.run_mean_gap(n, m, trials, seed)
    assert dict(calls) == {
        "dpotrf": sum(steps) + n * trials,
        "dtrsm": 2 * sum(steps),
        "eigh": 2 * k - 1,
    }


@pytest.mark.parametrize("dims", [[M] * 7, [1, 3, 2, 3, 1]], ids=["one-dimension", "mixed"])
def test_a_fixture_load_factors_each_block_once(tmp_path, rng, calls, dims):
    path = tmp_path / "fixture.txt"
    dump_matrices([_inputs(rng, m)[0] for m in dims], path)
    calls.clear()
    loaded = tri.load_matrices(path)
    assert dict(calls) == {"dpotrf": len(dims)}
    if len(set(dims)) == 1:
        calls.clear()
        get_metric("log-cholesky").mean(loaded)
        assert dict(calls) == {}


@pytest.mark.parametrize("n, m", [(7, M), (3, 1)])
def test_a_drawn_mean_factors_each_member_once(monkeypatch, calls, n, m):
    # mean --n N --m M draws its members as one stack and checks and factors
    # them as one: n dpotrf calls, none of them inside the mean.
    ops = get_metric("log-cholesky")
    in_mean = []

    def mean(members):
        before = dict(calls)
        out = ops.mean(members)
        in_mean.append(dict(calls) == before)
        return out

    monkeypatch.setitem(bl._METRICS, "log-cholesky", dataclasses.replace(ops, mean=mean))
    calls.clear()
    ex.run_mean("log-cholesky", None, n, m, 0)
    assert dict(calls) == {"dpotrf": n}
    assert in_mean == [True]
