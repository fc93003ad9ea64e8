"""The step rule: every geodesic reads its ``t``, and every interpolant its
grid ``ts``, through one rule in ``tri``.  A step is one finite real number,
a 0-d array included, and a grid a 1-D sequence or array of them.  Anything
else raises ``DomainError`` before any arithmetic, with no numpy warning;
an accepted step gives the same bits as ``float(t)``."""
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import sweep

import logchol as lc
from logchol import CholeskyFactor, DomainError, LowerTriangular, SpdMatrix, SymMatrix

P = SpdMatrix(np.array([[2.0, 0.5], [0.5, 1.0]]))
Q = SpdMatrix(np.array([[1.0, 0.2], [0.2, 3.0]]))
W = SymMatrix(np.array([[0.3, 0.1], [0.1, -0.2]]))
L = CholeskyFactor(np.linalg.cholesky(P.data))
X = LowerTriangular(np.tril(W.data))

# The geodesics take one step; the interpolants take a grid, as the registry calls them.
GEODESICS = {
    "geodesic_chol": lambda t: lc.geodesic_chol(L, X, t),
    "geodesic_spd": lambda t: lc.geodesic_spd(P, W, t),
}
INTERPOLANTS = {
    g: lambda ts, r=lc.get_metric(g): r.interpolate(P, Q, ts) for g in lc.METRIC_NAMES
}

# Malformed steps, each made fresh.  An array of steps at m = 2 broadcasts
# against the columns of a 2 x 2 tangent, so it must be rejected, not read.
BAD_STEPS = {
    "array": lambda: np.array([0.5, 2.0]),
    "complex": lambda: 1j,
    "str": lambda: "0.5",
    "decimal": lambda: Decimal("0.5"),
    "none": lambda: None,
    "nan": lambda: float("nan"),
    "inf": lambda: float("inf"),
    "-inf": lambda: float("-inf"),
}
# Malformed grids, beyond a grid holding one malformed step.
BAD_GRIDS = {
    "scalar": lambda: 0.5,
    "2-d": lambda: np.array([[0.0, 0.5, 1.0]]),
    "nested list": lambda: [[0.0, 0.5]],
    "generator": lambda: (t for t in (0.0, 0.5)),
}
# Steps read as float(t).
ODD_STEPS = {
    "int": lambda: 1,
    "float32": lambda: np.float32(0.7),
    "fraction": lambda: Fraction(1, 3),
    "0-d array": lambda: np.array(0.3),
}


def _bits(out) -> list[bytes]:
    return [r.data.tobytes() for r in (out if isinstance(out, list) else [out])]


def _raises_domain_error_quietly(call) -> None:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DomainError):
            call()
    assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize("step", BAD_STEPS)
@pytest.mark.parametrize("fn", GEODESICS)
def test_a_geodesic_rejects_a_malformed_step(fn, step):
    _raises_domain_error_quietly(lambda: GEODESICS[fn](BAD_STEPS[step]()))


@pytest.mark.parametrize("step", BAD_STEPS)
@pytest.mark.parametrize("fn", INTERPOLANTS)
def test_an_interpolant_rejects_a_grid_with_a_malformed_step(fn, step):
    _raises_domain_error_quietly(lambda: INTERPOLANTS[fn]([0.0, BAD_STEPS[step](), 1.0]))


@pytest.mark.parametrize("grid", BAD_GRIDS)
@pytest.mark.parametrize("fn", INTERPOLANTS)
def test_an_interpolant_rejects_a_malformed_grid(fn, grid):
    _raises_domain_error_quietly(lambda: INTERPOLANTS[fn](BAD_GRIDS[grid]()))


@pytest.mark.parametrize("step", ODD_STEPS)
def test_an_odd_real_step_gives_the_bits_of_its_float(step):
    t = ODD_STEPS[step]()
    for name, fn in GEODESICS.items():
        assert _bits(fn(t)) == _bits(fn(float(t))), name
    for name, fn in INTERPOLANTS.items():
        assert _bits(fn([t])) == _bits(fn([float(t)])), name
        assert _bits(fn(np.array([t, 0.5]))) == _bits(fn((float(t), 0.5))), name


def test_an_empty_grid_gives_no_points():
    for name, fn in INTERPOLANTS.items():
        assert fn([]) == [], name


@pytest.mark.parametrize("t", [1e308, -1e308])
def test_a_finite_step_past_the_float_range_raises_domain_error_quietly(t):
    # Every result leaves the float range here, the Euclidean interpolant's
    # SymMatrix results included.
    for fn in GEODESICS.values():
        _raises_domain_error_quietly(lambda: fn(t))
    for fn in INTERPOLANTS.values():
        _raises_domain_error_quietly(lambda: fn([t]))


def test_the_sweep_records_a_rejected_generator_reproducibly():
    # The rule's message carries repr(t), and a generator's repr its address.
    one, two = (t for t in (0.5,)), (t for t in (0.5,))
    for fn in GEODESICS.values():
        assert sweep.outcome(lambda: fn(one)) == sweep.outcome(lambda: fn(two))
