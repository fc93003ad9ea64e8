"""Results typed by construction.

The package types its kernels' results through ``_Square._of``, which tests
finiteness and the type's ``_check`` hook only: the kernels make the rest of
each invariant hold.  These tests hold every result of every public
operation to its full constructor, and check that no result depends on the
memory layout of the inputs, since the kernels write diagonals through the
flat stride ``a.flat[::m + 1]``.  The operations and the draws are those of
the bitwise sweep, ``tests/sweep.py``."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

import sweep
from logchol import LogCholError

OPS = sweep.operations()
SCALAR_OPS = (".distance", ".metric_spd", ".metric_chol", ".dist_chol")


def test_every_result_passes_its_full_constructor():
    rng = np.random.default_rng(16)
    checked = set()
    for m in [m for m in sweep.DIMS for _ in range(4)]:
        args = sweep.typed(sweep.draw(rng, m))
        for key, op in OPS.items():
            try:
                out = op(args)
            except LogCholError:
                continue
            for r in sweep.results(out):
                assert r.data.dtype == np.float64 and r.data.shape == (m, m), key
                again = type(r)(r.data.copy())
                assert again.data.tobytes() == r.data.tobytes(), key
                checked.add(key)
    # Every operation with a typed result returned one at least once.
    assert checked == {key for key in OPS if not key.endswith(SCALAR_OPS)}


def _same(a, b, key):
    """``b`` has the bits of ``a``; a scalar, whose sums run in memory order,
    only to rounding."""
    if isinstance(a, list):
        assert len(a) == len(b), key
        for x, y in zip(a, b):
            _same(x, y, key)
    elif hasattr(a, "data"):
        assert type(a) is type(b) and a.data.tobytes() == b.data.tobytes(), key
    else:
        assert_allclose(b, a, rtol=1e-14, err_msg=key)


@pytest.mark.parametrize("m", sweep.DIMS)
def test_results_do_not_depend_on_the_input_layout(m):
    # Every even-indexed principal submatrix of an SPD, symmetric or lower
    # triangular matrix with positive diagonal is one too.
    big = sweep.draw(np.random.default_rng(100 + m), 2 * m)
    views = {name: a[::2, ::2] for name, a in big.items()}
    contiguous = sweep.typed({name: a.copy() for name, a in views.items()})

    def as_results(arrays):
        # A constructor stores a C-ordered copy; a kernel result, such as
        # dpotrf's Fortran-ordered factor, keeps its layout through _of.
        return {key: type(v)._of(arrays[key.lower()]) for key, v in contiguous.items()}

    strided = as_results(views)
    fortran = as_results({name: np.asfortranarray(a) for name, a in views.items()})
    assert m == 1 or not strided["P"].data.flags.contiguous
    assert m == 1 or not fortran["P"].data.flags.c_contiguous
    for key, op in OPS.items():
        want = sweep.outcome(lambda: op(contiguous))
        assert sweep.outcome(lambda: op(strided)) == want, key
        try:
            expected = op(contiguous)
        except LogCholError:
            with pytest.raises(LogCholError):
                op(fortran)
            continue
        _same(expected, op(fortran), key)
