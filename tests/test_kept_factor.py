"""The Cholesky factor an ``SpdMatrix`` from ``from_dense`` keeps.

``from_dense`` keeps the factor its SPD test computes, and every
single-point operation reads it: ``tri._factor`` never runs again on such a
point.  A point built any other way keeps nothing and is factored on each
use, by the Log-Cholesky and Cholesky means too, which stack their
members' factors.  The kept factor cannot go stale: ``from_dense`` stores
the constructor's copy, which no caller holds, and makes it and the factor
read-only."""
import copy
import pickle
import sys

import numpy as np
import pytest

import sweep
from support import rotated
from logchol import baselines as bl
from logchol import spd_manifold as lc
from logchol import tri
from logchol.chol_map import cholesky_factor
from logchol.sampling import random_spd, random_sym
from logchol.tri import NotSpdError, SpdMatrix, SymMatrix

TS = (0.0, 0.3, 1.0)


def op_mix(P, Q, W):
    """The Log-Cholesky, affine-invariant and Cholesky-baseline operations
    that read a point's factor, on ``P``, ``Q`` and ``W``: their results."""
    X = bl.cholesky_log(P, Q)
    return [
        lc.transport_spd(P, Q, W), lc.dist_spd(P, Q), lc.log_spd(P, Q), lc.exp_spd(P, W),
        lc.geodesic_spd(P, W, 0.7), lc.metric_spd(P, W, W), lc.group_op_spd(P, Q),
        lc.group_inv_spd(P), lc.interpolate_spd(P, Q, TS), cholesky_factor(P),
        bl.affine_transport(P, Q, W), bl.affine_dist(P, Q), bl.affine_log(P, Q),
        bl.affine_exp(P, W), bl.affine_interpolate(P, Q, TS),
        bl.cholesky_distance(P, Q), X, bl.cholesky_exp(P, X), bl.cholesky_interpolate(P, Q, TS),
    ]


@pytest.fixture
def factored(monkeypatch):
    """The ``ndim`` of every array ``tri._factor`` is called on, in order,
    wherever the package binds it."""
    seen = []
    real = tri._factor

    def counted(p):
        seen.append(p.ndim)
        return real(p)

    for name, mod in list(sys.modules.items()):
        if name.startswith("logchol") and getattr(mod, "_factor", None) is real:
            monkeypatch.setattr(mod, "_factor", counted)
    return seen


def test_from_dense_points_are_not_refactored(rng, factored):
    P, Q = (SpdMatrix.from_dense(random_spd(rng, 4).data) for _ in range(2))
    assert factored == [2, 2]
    for _ in range(3):
        op_mix(P, Q, random_sym(rng, 4))
    assert factored == [2, 2]


def test_other_points_keep_nothing_and_give_the_same_bits(rng, factored):
    P, Q = random_spd(rng, 4), random_spd(rng, 4)
    W = random_sym(rng, 4)
    want = sweep.outcome(lambda: op_mix(P, Q, W))
    once = len(factored)
    assert once > 0 and set(factored) == {2}
    # Each use factors again: nothing is kept.
    assert sweep.outcome(lambda: op_mix(P, Q, W)) == want
    assert len(factored) == 2 * once
    # The factor from_dense keeps is the one each use would compute.
    kept = SpdMatrix.from_dense(P.data), SpdMatrix.from_dense(Q.data)
    assert sweep.outcome(lambda: op_mix(*kept, W)) == want
    assert len(factored) == 2 * once + 2


@pytest.mark.parametrize("wrap", [SpdMatrix, SpdMatrix.from_dense])
@pytest.mark.parametrize("mean", [lc.log_cholesky_mean, bl.cholesky_mean])
def test_each_mean_factors_only_members_that_keep_no_factor(rng, factored, mean, wrap):
    members = [wrap(random_spd(rng, 3).data) for _ in range(5)]
    for _ in range(2):
        factored.clear()
        mean(members)
        # A from_dense member is not factored again; any other member is,
        # once, by the routine of every single-point operation.
        assert factored == ([2] * 5 if wrap is SpdMatrix else [])


def test_from_dense_does_not_follow_the_callers_array(rng):
    a, b = random_spd(rng, 4).dense(), random_spd(rng, 4).dense()
    W = random_sym(rng, 4)
    want = sweep.outcome(lambda: op_mix(SpdMatrix(a.copy()), SpdMatrix(b.copy()), W))
    P, Q = SpdMatrix.from_dense(a), SpdMatrix.from_dense(b)
    a[:] = b[:] = np.eye(4)
    assert a.flags.writeable and sweep.outcome(lambda: op_mix(P, Q, W)) == want


def test_a_kept_factor_and_its_point_are_read_only(rng):
    P = SpdMatrix.from_dense(random_spd(rng, 3).data)
    with pytest.raises(ValueError, match="read-only"):
        P.data[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        cholesky_factor(P).data[0, 0] = 1.0
    assert cholesky_factor(P).data is cholesky_factor(P).data
    # A point that keeps no factor keeps its writeable data.
    assert random_spd(rng, 3).data.flags.writeable


@pytest.mark.parametrize("copied", [copy.copy, copy.deepcopy, lambda P: pickle.loads(pickle.dumps(P))])
def test_a_copied_point_keeps_no_stale_factor(rng, copied):
    P, Q = SpdMatrix.from_dense(random_spd(rng, 3).data), random_spd(rng, 3)
    R = copied(P)
    if R.data.flags.writeable:
        R.data[:] = 2.0 * np.eye(3)
    assert lc.dist_spd(R, Q) == lc.dist_spd(SpdMatrix(R.data.copy()), Q)


def test_a_point_that_does_not_factor_raises_on_every_use():
    not_spd = SpdMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # the constructor does not factor
    # A Log-Cholesky exp inside the float range whose result does not refactor:
    # its second pivot, about 6e-145, is lost against the entry 1.55e5.
    lost_pivot = lc.exp_spd(SpdMatrix(np.eye(2)), SymMatrix(rotated([-800.0, 0.0])))
    for P in (not_spd, lost_pivot):
        for _ in range(3):
            with pytest.raises(NotSpdError):
                cholesky_factor(P)
            with pytest.raises(NotSpdError):
                lc.dist_spd(P, P)
            with pytest.raises(NotSpdError):
                bl.affine_exp(P, SymMatrix(np.zeros((2, 2))))
            for mean in (lc.log_cholesky_mean, bl.cholesky_mean):
                with pytest.raises(NotSpdError):
                    mean([P])
