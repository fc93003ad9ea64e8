import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg.lapack import dsyevd, dsyevd_lwork

from support import dump_matrices, format_matrix_text

from logchol.baselines import get_metric
from logchol.chol_manifold import exp_chol, log_chol
from logchol.chol_map import cholesky_factor, diff_S, diff_S_inv, reconstruct
from logchol import tri
from logchol.spd_manifold import dist_spd, log_cholesky_mean, transport_spd
from logchol.tri import (
    CholeskyFactor,
    DomainError,
    EigFailureError,
    LowerTriangular,
    NotSpdError,
    SpdMatrix,
    SymMatrix,
    _eigh,
    _factor,
    _norm,
    _with_diag,
    load_matrices,
    parse_matrix_text,
)


def lower(dense):
    return LowerTriangular(np.asarray(dense, dtype=float))


def test_half_lower_examples():
    # At the identity factor the pullback is the paper's halved lower part:
    # the lower triangle with the diagonal halved.
    i2 = CholeskyFactor(np.eye(2))
    s = SymMatrix.from_dense(np.array([[2.0, 4.0], [4.0, 6.0]]))
    assert_array_equal(diff_S_inv(i2, s).dense(), [[1, 0], [4, 3]])
    assert_array_equal(
        diff_S_inv(i2, SymMatrix.from_dense(np.eye(2))).dense(), np.diag([0.5, 0.5])
    )
    assert_array_equal(
        diff_S_inv(i2, SymMatrix.from_dense(np.zeros((2, 2)))).dense(), np.zeros((2, 2))
    )


def test_half_lower_reconstructs(rng):
    g = rng.standard_normal((5, 5))
    s = SymMatrix.from_dense((g + g.T) / 2)
    h = diff_S_inv(CholeskyFactor(np.eye(5)), s).dense()
    assert_array_equal(h + h.T, s.dense())


def test_diag_exp_log_examples():
    # At the identity factor, exp and log act on the diagonal as the
    # elementwise exponential and logarithm.
    i2 = CholeskyFactor(np.eye(2))
    assert_array_equal(exp_chol(i2, lower(np.zeros((2, 2)))).dense(), np.eye(2))
    assert_allclose(
        log_chol(i2, CholeskyFactor(np.diag([np.e, np.e**2]))).dense(),
        np.diag([1.0, 2.0]),
        atol=1e-15,
    )


def test_diag_exp_log_roundtrip():
    i2 = CholeskyFactor(np.eye(2))
    d = lower(np.diag([-3.7, 0.2]))
    back = log_chol(i2, exp_chol(i2, d))
    assert_allclose(back.dense(), d.dense(), atol=1e-14)


def test_diag_multiplicative(rng):
    # D(X Y) == D(X) D(Y) for lower triangular X, Y
    x = np.tril(rng.standard_normal((5, 5)))
    y = np.tril(rng.standard_normal((5, 5)))
    prod = lower(x @ y)
    expected = np.diagonal(x) * np.diagonal(y)
    assert_allclose(prod.diag, expected, atol=1e-14)


def test_diag_of_inverse(rng):
    for _ in range(20):
        f = np.tril(rng.standard_normal((5, 5)))
        np.fill_diagonal(f, np.exp(rng.uniform(-1, 1, 5)))
        inv_diag = np.diagonal(np.linalg.inv(f))
        assert_allclose(inv_diag, 1.0 / np.diagonal(f), rtol=1e-12)


def test_lower_triangular_validation():
    with pytest.raises(DomainError):
        LowerTriangular(np.zeros(4))
    with pytest.raises(DomainError):
        LowerTriangular(np.array([[1.0, 0.0], [np.nan, 2.0]]))
    with pytest.raises(DomainError):
        LowerTriangular(np.zeros((0, 0)))
    with pytest.raises(DomainError):
        LowerTriangular(np.array([[1.0, 5.0], [0.0, 1.0]]))


def test_cholesky_factor_validation():
    CholeskyFactor(np.diag([1e-200, 1.0]))
    # Every normal positive diagonal is admitted, a subnormal one is not.
    CholeskyFactor(np.diag([1e-305, 1.0]))
    i2 = CholeskyFactor(np.eye(2))
    exp_chol(i2, LowerTriangular(np.diag([np.log(1e-301), 0.0])))
    with pytest.raises(DomainError):
        CholeskyFactor(np.diag([5e-324, 1.0]))
    with pytest.raises(DomainError):
        CholeskyFactor(np.diag([0.0, 1.0]))
    with pytest.raises(DomainError):
        CholeskyFactor(np.diag([-2.0, 1.0]))


def test_sym_matrix_validation():
    with pytest.raises(DomainError):
        SymMatrix.from_dense(np.array([[1.0, 2.0], [3.0, 1.0]]))
    with pytest.raises(DomainError):  # asymmetric at every scale, not rounded to zero
        SymMatrix.from_dense(1e-9 * np.array([[0.0, 0.5], [-0.5, 0.0]]))
    with pytest.raises(DomainError):  # and up to the float max, with no overflow
        SymMatrix.from_dense(np.array([[0.0, 1e308], [-1e308, 0.0]]))
    s = SymMatrix.from_dense(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert_array_equal(s.dense(), s.dense().T)


def test_spd_matrix_validation():
    with pytest.raises(NotSpdError):
        SpdMatrix.from_dense(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    with pytest.raises(NotSpdError):
        SpdMatrix.from_dense(np.array([[1.0, 2.0], [3.0, 1.0]]))  # asymmetric
    with pytest.raises(NotSpdError):  # asymmetric, on a tiny scale
        SpdMatrix.from_dense(np.array([[2e-150, 1e-150], [0.0, 2e-150]]))
    with pytest.raises(NotSpdError):
        SpdMatrix(np.diag([1.0, -1.0]))  # nonpositive diagonal
    p = SpdMatrix.from_dense(np.array([[4.0, 2.0], [2.0, 5.0]]))
    assert p.dim == 2


def test_from_dense_symmetry_tolerance_is_relative():
    # Roundoff-sized asymmetry is accepted and averaged away at any scale.
    for scale in (1e-200, 1.0, 1e200):
        a = scale * np.array([[2.0, 1.0], [1.0 + 1e-12, 2.0]])
        s = SymMatrix.from_dense(a)
        assert_array_equal(s.data, s.data.T)
        assert_array_equal(SpdMatrix.from_dense(a).data, s.data)


@pytest.mark.parametrize("cls", [SymMatrix, SpdMatrix])
@pytest.mark.parametrize(
    "a", [np.diag([1e308, 1.0]), np.array([[1e308, 1e307], [1e307, 1e308]])]
)
def test_from_dense_accepts_entries_up_to_the_float_max(cls, a):
    assert_array_equal(cls.from_dense(a).data, a)


CONSTRUCTORS = [LowerTriangular, CholeskyFactor, SymMatrix, SpdMatrix]


@pytest.mark.parametrize("cls", CONSTRUCTORS)
@pytest.mark.parametrize(
    "data",
    [
        np.eye(2)[:, :1],
        np.ones((2, 3)),
        np.ones(4),
        np.ones((1, 2, 2)),
        np.zeros((0, 0)),
        [[1, 2], [3]],
        [["1", "0"], ["0", "1"]],
        np.array([["1", "0"], ["0", "1"]], dtype=object),
        [["a", "0"], ["0", "b"]],
        [[1j, 0], [0, 1]],
        np.eye(2, dtype=complex),
        [[10**400]],
    ],
    ids=["column", "wide", "vector", "stack", "empty", "ragged", "numeric-strings",
         "numeric-string-objects", "strings", "complex-list", "complex-array", "huge-int"],
)
def test_constructors_reject_non_square(cls, data):
    # Nor anything that is not a regular array of real numbers, through the
    # constructor or through from_dense.
    with pytest.raises(DomainError):
        cls(data)
    if hasattr(cls, "from_dense"):
        with pytest.raises(DomainError):
            cls.from_dense(data)


@pytest.mark.parametrize("cls", CONSTRUCTORS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_constructors_reject_non_finite(cls, bad):
    a = np.eye(3)
    a[2, 0] = bad
    a[0, 2] = 0.0 if cls in (LowerTriangular, CholeskyFactor) else bad
    with pytest.raises(DomainError):
        cls(a)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cls", [SymMatrix, SpdMatrix])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_from_dense_rejects_non_finite(cls, bad):
    a = np.eye(3)
    a[2, 0] = a[0, 2] = bad
    with pytest.raises(DomainError, match="must be finite"):
        cls.from_dense(a)


@pytest.mark.parametrize("cls", [LowerTriangular, CholeskyFactor])
def test_lower_constructors_reject_entries_above_diagonal(cls):
    for value in (1.0, 1e-300, -5e-324):
        big = np.eye(6)
        big[0, 4] = value
        a = big[::2, ::2].copy()
        # Contiguous, strided and Fortran-ordered, each with a[0, 2] = value.
        for layout in (a, big[::2, ::2], np.asfortranarray(a)):
            with pytest.raises(DomainError):
                cls(layout)
    cls(np.array([[1.0, -0.0], [2.0, 1.0]]))  # a signed zero is zero
    lower = np.tril(np.ones((6, 6)))
    cls(lower[::2, ::2])
    cls(np.asfortranarray(lower))


_A = np.random.default_rng(19).standard_normal((6, 6))
NORM_LAYOUTS = {
    "c": _A,
    "f": np.asfortranarray(_A),
    "strided": _A[::2, 1::2],
    "reversed": _A[::-1, ::-1],
    "transposed-strided": _A.T[::3],
    "1-d": _A[2],
    "1-d-strided": _A.diagonal(),
    "factor-gap": np.asfortranarray(np.tril(_A)) - np.asfortranarray(np.tril(_A.T)),
    "empty": np.zeros((0, 0)),
}


@pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
@pytest.mark.parametrize("layout", NORM_LAYOUTS)
def test_norm_has_the_bits_of_numpy_norm(layout, scale):
    a = NORM_LAYOUTS[layout] * scale
    got, ref = _norm(a), np.linalg.norm(a)
    assert got == ref and type(got) is type(ref)


@pytest.mark.parametrize(
    "a, expected",
    [
        ([3e200, 4e200], 5e200),
        ([[1e154, 0.0], [-1e154, 1.0]], 2.0**0.5 * 1e154),
        ([1.0, np.inf], np.inf),
        ([1.0, -np.inf, 1e300], np.inf),
        ([1.0, np.nan], np.nan),
        ([1e300, np.nan], np.nan),
        ([np.inf, np.nan], np.nan),
        ([1.7e308, 1.7e308], np.inf),  # the norm itself is past the float max
    ],
)
def test_norm_past_an_overflowing_sum_of_squares(a, expected):
    # Finite below the float max, inf or nan as the entries say, no warning.
    assert_allclose(_norm(np.array(a)), expected, rtol=1e-15)


_G = np.random.default_rng(21).standard_normal((5, 5))
DIAG_LAYOUTS = {
    "c": lambda: _G.copy(),
    "dpotrf-factor": lambda: _factor(_G @ _G.T + np.eye(5)),  # Fortran order
    "transposed-view": lambda: _G.copy().T,
}


@pytest.mark.parametrize("layout", DIAG_LAYOUTS)
def test_with_diag_writes_the_bits_of_the_flat_stride(layout):
    a, ref = DIAG_LAYOUTS[layout](), DIAG_LAYOUTS[layout]()
    d = np.random.default_rng(22).standard_normal(5)
    ref.flat[::6] = d
    assert _with_diag(a, d) is a
    assert_array_equal(a, ref)
    assert_array_equal(a.diagonal(), d)


def _strided(g):
    """``g`` as a view that skips every other matrix, row and column of its owner."""
    owner = np.zeros((2 * len(g), *(2 * n for n in g.shape[1:])))
    view = owner[::2, ::2, ::2]
    view[...] = g
    return view


STACK_LAYOUTS = {
    "c": np.copy,
    # Each matrix in Fortran order, as tri._factors lays out a factor stack.
    "fortran-per-matrix": lambda g: g.swapaxes(-1, -2).copy().swapaxes(-1, -2),
    "strided": _strided,
}


@pytest.mark.parametrize("m", [1, 4])
@pytest.mark.parametrize("layout", STACK_LAYOUTS)
def test_with_diag_writes_each_matrix_of_a_stack_its_own_diagonal(layout, m):
    g = np.random.default_rng(23).standard_normal((3, m, m))
    d = np.random.default_rng(24).standard_normal((3, m))
    a, ref = STACK_LAYOUTS[layout](g), STACK_LAYOUTS[layout](g)
    for r, e in zip(ref, d):
        r.flat[:: m + 1] = e
    assert _with_diag(a, d) is a
    assert_array_equal(a, ref)
    assert_array_equal(a.diagonal(axis1=-2, axis2=-1), d)
    # Nothing else of the array that owns the stack moved.
    if a.base is not None:
        assert a.base.tobytes() == ref.base.tobytes()


@pytest.mark.parametrize("layout", DIAG_LAYOUTS)
def test_finite_returns_a_finite_array_of_any_layout(layout):
    a = DIAG_LAYOUTS[layout]()
    assert tri._finite(a) is a


@pytest.mark.parametrize(
    "entries", [[[1e200, 0.0], [0.0, 1e200]], [[1.7e308, 1.7e308], [1.7e308, 1.7e308]]]
)
def test_finite_accepts_entries_whose_sum_of_squares_overflows(entries):
    # The one-ddot sum reads inf here; the entrywise test decides, and
    # neither warns (numpy's add.reduce would, on the second).
    a = np.array(entries)
    for layout in (a, np.asfortranarray(a), a.T):
        assert tri._finite(layout) is layout
    assert_array_equal(SymMatrix(a).data, a)
    assert_array_equal(SymMatrix._of(a).data, a)


NON_FINITE = {"+inf": [np.inf], "-inf": [-np.inf], "inf/-inf": [np.inf, -np.inf], "nan": [np.nan]}


@pytest.mark.parametrize("layout", DIAG_LAYOUTS)
@pytest.mark.parametrize("bad", NON_FINITE)
def test_finite_rejects_non_finite_entries(layout, bad):
    a = DIAG_LAYOUTS[layout]()
    for j, x in enumerate(NON_FINITE[bad]):
        a[3 + j, 1] = x
    with pytest.raises(DomainError, match=r"^matrix entries must be finite$"):
        tri._finite(a)


def test_an_empty_grid_is_finite():
    assert tri._grid([]).shape == (0,)


@pytest.mark.parametrize("shape", [(5, 5), (7, 4, 4), (128, 128)])
def test_eigh_reads_the_lower_triangle_alone(shape):
    # The whitened inputs of the affine-invariant geometry are not
    # symmetrized: their two triangles, computed apart, may differ.
    rng = np.random.default_rng(20)
    g = rng.standard_normal(shape)
    a = g + g.swapaxes(-1, -2)
    b = a.copy()
    upper = np.triu(np.ones(shape[-2:], dtype=bool), 1)
    b[..., upper] = 1e3 * rng.standard_normal(b[..., upper].shape)
    (w, u), (wb, ub) = _eigh(a), _eigh(b)
    assert_array_equal(wb, w)
    assert_array_equal(ub, u)
    assert_array_equal(_eigh(b, vectors=False), _eigh(a, vectors=False))


@pytest.mark.parametrize("m", [1, 2, 3, 5, 31, 32, 33, 64, 65, 128])
def test_one_matrix_eigh_is_dsyevd_at_its_optimal_workspace(m):
    # One matrix goes to dsyevd with the workspace passed: below LAPACK's
    # optimum, values alone would take the unblocked tridiagonal reduction
    # and move in bits.  Across numpy's and scipy's LAPACK builds (the stack
    # path and numpy.linalg) only closeness is asserted.
    g = np.random.default_rng(m).standard_normal((m, m))
    a = g + g.T
    w_np, u_np = np.linalg.eigh(a)
    for vectors in (True, False):
        lwork = int(dsyevd_lwork(m, compute_v=int(vectors), lower=1)[0])
        w_opt, u_opt, info = dsyevd(a, compute_v=int(vectors), lower=1, lwork=lwork)
        assert info == 0
        (w, u), (w_s, u_s) = (
            _eigh(x, vectors=True) if vectors else (_eigh(x, vectors=False), None) for x in (a, a[None])
        )
        assert_array_equal(w, w_opt)
        for w_ref in (w_np, w_s[0]):
            assert_allclose(w, w_ref, rtol=0, atol=1e-13 * np.abs(w).max())
        if vectors:
            assert_array_equal(u, u_opt)
            for u_ref in (u_np, u_s[0]):
                # Each column up to sign: |u_j . u_ref_j| = 1.
                assert_allclose(np.abs((u * u_ref).sum(axis=0)), 1.0, atol=1e-9)


def test_eigh_reports_lapack_failure(monkeypatch):
    # A matrix: dsyevd's info; a stack: numpy's LinAlgError.
    a = np.diag([1.0, 2.0])
    monkeypatch.setattr(tri, "dsyevd", lambda a, **kwargs: (np.diag(a), a, 1))
    for vectors in (True, False):
        with pytest.raises(EigFailureError):
            _eigh(a, vectors=vectors)

    def fails(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fails)
    for vectors in (True, False):
        with pytest.raises(EigFailureError):
            _eigh(a[None], vectors=vectors)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eigh_rejects_non_finite_input_before_lapack(monkeypatch, bad):
    # With its own text, not _finite's, and with no warning (warnings are
    # errors in the test suite).
    def unreached(*args, **kwargs):
        raise AssertionError("LAPACK called on non-finite input")

    for owner, name in ((tri, "dsyevd"), (np.linalg, "eigh")):
        monkeypatch.setattr(owner, name, unreached)
    a = np.eye(3)
    a[2, 1] = bad
    for x in (a, np.asfortranarray(a), np.stack([np.eye(3), a])):
        for vectors in (True, False):
            with pytest.raises(DomainError, match=r"^eigendecomposition input leaves the float range$"):
                _eigh(x, vectors=vectors)


def test_eigh_accepts_entries_whose_sum_of_squares_overflows():
    # The one-ddot finiteness sum reads inf at 1e200; the entrywise test decides.
    a = np.diag([2e200, 1e200])
    for x in (a, np.asfortranarray(a), np.stack([a, a])):
        w, u = _eigh(x, "test")
        assert_array_equal(w, np.broadcast_to([1e200, 2e200], w.shape))
        assert_array_equal(np.abs(u), np.broadcast_to([[0.0, 1.0], [1.0, 0.0]], u.shape))
        assert_array_equal(_eigh(x, vectors=False), w)


@pytest.mark.parametrize("cls", [SymMatrix, SpdMatrix])
def test_sym_constructors_require_exact_symmetry(cls):
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    a[1, 0] = np.nextafter(1.0, 2.0)
    with pytest.raises(DomainError):
        cls(a)


@pytest.mark.parametrize("cls", CONSTRUCTORS)
def test_dense_returns_a_copy(cls):
    x = cls(np.array([[2.0, 0.0], [0.0, 3.0]]))
    before = x.dense()
    d = x.dense()
    d[:] = 7.0
    assert_array_equal(x.data, before)
    assert_array_equal(x.dense(), before)
    assert x.dim == 2


I2 = SpdMatrix(np.eye(2))
Q2 = SpdMatrix(np.array([[2.0, 0.5], [0.5, 1.0]]))
L2 = CholeskyFactor(np.array([[1.0, 0.0], [0.3, 2.0]]))


@pytest.mark.parametrize(
    "cls, entries, result",
    [
        (SymMatrix, [[1.0, 0.5], [0.5, 2.0]], lambda W: transport_spd(I2, Q2, W).data),
        (SpdMatrix, [[2.0, 0.5], [0.5, 3.0]], lambda P: dist_spd(P, Q2)),
        (CholeskyFactor, [[1.5, 0.0], [0.5, 2.0]], lambda L: dist_spd(reconstruct(L), Q2)),
        (LowerTriangular, [[1.0, 0.0], [-0.5, 2.0]],
         lambda X: transport_spd(I2, Q2, diff_S(L2, X)).data),
    ],
    ids=["SymMatrix", "SpdMatrix", "CholeskyFactor", "LowerTriangular"],
)
def test_a_constructor_keeps_a_copy_of_the_callers_array(cls, entries, result):
    a = np.array(entries)
    x = cls(a)
    before, want = x.dense(), result(x)
    a[1, 0] = 7.0  # every kernel reads the lower triangle
    assert_array_equal(x.data, before)
    assert np.array_equal(result(x), want)


@pytest.mark.parametrize("cls", [SymMatrix, SpdMatrix])
def test_from_dense_types_its_symmetrized_array_without_a_constructor(cls, monkeypatch):
    # Outside data is checked once, by _symmetrized; from_dense keeps the
    # array it returned, which no caller holds, and runs no constructor.
    def constructor(*args, **kwargs):
        raise AssertionError("from_dense ran a constructor")

    for c in (SymMatrix, SpdMatrix):
        monkeypatch.setattr(c, "__init__", constructor)
        monkeypatch.setattr(c, "__post_init__", constructor)
    built, symmetrized = [], tri._symmetrized
    monkeypatch.setattr(tri, "_symmetrized", lambda *a: built.append(symmetrized(*a)) or built[-1])
    a = np.array([[4.0, 2.0], [2.0 + 1e-12, 5.0]])
    x = cls.from_dense(a)
    assert len(built) == 1 and x.data is built[0] and not np.shares_memory(x.data, a)
    assert x.data.flags.writeable is (cls is SymMatrix)
    if cls is SpdMatrix:
        assert not cholesky_factor(x).data.flags.writeable


def test_immutability():
    x = lower(np.eye(2))
    with pytest.raises(AttributeError):
        x.dim = 3


@given(
    dim=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=50, deadline=None)
def test_pack_roundtrip_property(dim, seed):
    rng = np.random.default_rng(seed)
    a = np.tril(rng.standard_normal((dim, dim)))
    x = LowerTriangular(a)
    assert_array_equal(x.dense(), a)
    assert_array_equal(np.tril(a, -1) + np.diag(np.diag(a)), x.data)


def test_parse_format_roundtrip(rng):
    mats = [rng.standard_normal((m, m)) for m in (1, 2, 4)]
    text = format_matrix_text(mats)
    back = parse_matrix_text(text)
    assert len(back) == 3
    for a, b in zip(mats, back):
        assert_array_equal(a, b)


PARSE_ERRORS = [
    ("x\n1.0\n", "expected a dimension, got 'x'"),
    ("2\n1.0 0.0\n", "matrix block truncated after 1 rows"),
    ("2\n1.0 0.0\n\n0.0 1.0\n", "matrix block truncated after 1 rows"),
    ("2\n1.0 0.0 3.0\n0.0 1.0 3.0\n", "expected 2 entries per row, got 3"),
    ("0\n", "dimension must be positive, got 0"),
    ("2\n1.0 0.0\n0 x\n", "expected numbers, got '0 x'"),
    # A bad token is reported before its row's length, and rows in file order.
    ("2\n1.0 x 3.0\n0.0 1.0\n", "expected numbers, got '1.0 x 3.0'"),
    ("2\n1.0 0.0 3.0\n0 x\n", "expected 2 entries per row, got 3"),
    ("1\n1.0\n\n2\n1.0 0.0\n", "matrix block truncated after 1 rows"),
]


def test_parse_errors():
    for text, message in PARSE_ERRORS:
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            parse_matrix_text(text)


def test_parse_keeps_every_bit():
    # Each entry is Python's float() of its token, the odd ones included.
    text = "2\n1e-320 -0.0\n  inf 0.1   \n\n1\n-1.7976931348623157e308\n"
    a, b = parse_matrix_text(text)
    assert a.dtype == b.dtype == np.float64 and a.flags.c_contiguous
    assert a.tobytes() == np.array([[1e-320, -0.0], [np.inf, 0.1]]).tobytes()
    assert b.tobytes() == np.array([[-1.7976931348623157e308]]).tobytes()


def test_load_matrices_kinds(tmp_path):
    # Fixtures hold SPD matrices: a triangular or indefinite one is rejected.
    path = tmp_path / "fixture.txt"
    dump_matrices([np.array([[4.0, 2.0], [2.0, 5.0]]), np.eye(2)], path)
    spds = load_matrices(path)
    assert len(spds) == 2 and all(type(p) is SpdMatrix for p in spds)
    assert_array_equal(spds[0].data, [[4.0, 2.0], [2.0, 5.0]])

    for bad in ([[2.0, 0.0], [1.0, 2.0]], [[1.0, 2.0], [2.0, 1.0]]):
        dump_matrices([np.array(bad)], path)
        with pytest.raises(NotSpdError):
            load_matrices(path)


def _fixture_points(rng, dims):
    """SPD blocks of the given dimensions, some asymmetric by roundoff, as
    outside data that ``from_dense`` accepts."""
    blocks = []
    for m in dims:
        a = rng.standard_normal((m, 2 * m))
        p = a @ a.T / (2 * m) + 1e-3 * np.eye(m)
        if m > 1 and rng.random() < 0.5:
            p[-1, 0] *= 1 + 1e-12
        blocks.append(p)
    return blocks


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dims", [[5] * 40, [1, 2, 3, 3, 1, 2, 2, 3, 1, 1, 3]],
                         ids=["one-dimension", "mixed"])
def test_load_matrices_has_the_bits_of_from_dense(tmp_path, rng, dims):
    # A fixture of one dimension is checked and factored as one stack, a
    # mixed one block by block; every point is the one from_dense builds from
    # its block, kept factor included, in the same memory layout: _norm sums
    # a factor in memory order.
    path = tmp_path / "fixture.txt"
    dump_matrices(_fixture_points(rng, dims), path)
    loaded = load_matrices(path)
    expected = [SpdMatrix.from_dense(a) for a in parse_matrix_text(path.read_text())]
    assert len(loaded) == len(expected) == len(dims)
    for P, R in zip(loaded, expected):
        assert type(P) is SpdMatrix and P.dim == R.dim
        for a, b in ((P.data, R.data), (P._kept, R._kept)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert a.strides == b.strides
            assert a.flags.writeable is b.flags.writeable is False


@pytest.mark.filterwarnings("error")
def test_load_matrices_accepts_a_byte_order_mark(tmp_path, rng):
    # A UTF-8 byte-order mark is no part of the first block's dimension.
    text = format_matrix_text(_fixture_points(rng, [3] * 4)).encode()
    for body in (b"1\n1\n\n1\n2\n", text):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(body)
        marked.write_bytes(b"\xef\xbb\xbf" + body)
        loaded, expected = load_matrices(marked), load_matrices(plain)
        assert len(loaded) == len(expected) == len(parse_matrix_text(body.decode()))
        for P, R in zip(loaded, expected):
            for a, b in ((P.data, R.data), (P._kept, R._kept)):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.filterwarnings("error")
def test_load_matrices_holds_each_block_to_its_own_tolerance(tmp_path):
    # A stack's largest entry does not widen the tolerance of its other blocks.
    path = tmp_path / "fixture.txt"
    dump_matrices([1e300 * np.eye(2), np.array([[1.0, 0.5], [0.51, 1.0]])], path)
    with pytest.raises(NotSpdError, match="^matrix is not symmetric$"):
        load_matrices(path)


# One block of each kind of fault, each with the error from_dense raises on it.
FAULTS = {
    "non-finite": (lambda m: np.diag([np.nan] + [1.0] * (m - 1)),
                   DomainError, "matrix entries must be finite"),
    "asymmetric": (lambda m: np.eye(m) + np.diag([0.5] * (m - 1), -1),
                   NotSpdError, "matrix is not symmetric"),
    "indefinite": (lambda m: np.diag([1.0] * (m - 1) + [-1.0]),
                   NotSpdError, "Cholesky factorization failed: nonpositive pivot"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dims", [(3, 3), (2, 3), (3, 2)], ids=["same-dimension", "2-then-3",
                                                                  "3-then-2"])
@pytest.mark.parametrize("first, later", [(a, b) for a in FAULTS for b in FAULTS if a != b])
def test_load_matrices_raises_the_first_faulty_block(tmp_path, rng, dims, first, later):
    # Good blocks around two faulty ones, in different blocks: the first in
    # file order raises what from_dense raises on it, whether the fixture is
    # of one dimension, and so stacked, or mixed, and whichever fault the
    # stacked check meets first.
    d1, d2 = dims
    good = _fixture_points(rng, [d1, d1, d2, d2])
    blocks = good[:2] + [FAULTS[first][0](d1)] + good[2:] + [FAULTS[later][0](d2)] + good[:1]
    path = tmp_path / "fixture.txt"
    dump_matrices(blocks, path)
    _, cls, message = FAULTS[first]
    with pytest.raises(cls, match=f"^{re.escape(message)}$") as got:
        load_matrices(path)
    assert type(got.value) is cls
    with pytest.raises(cls, match=f"^{re.escape(message)}$"):
        SpdMatrix.from_dense(blocks[2])


@pytest.mark.parametrize("dims, fault, stacked, one_by_one", [
    ([3] * 6, None, 1, 0),
    ([1, 2, 3, 2], None, 0, 4),
    ([3] * 6, 3, 1, 4),
    ([], None, 0, 0),
], ids=["one-dimension", "mixed", "faulty", "empty"])
def test_load_matrices_stacks_only_a_sound_fixture_of_one_dimension(
        tmp_path, rng, monkeypatch, dims, fault, stacked, one_by_one):
    # One _from_stack call types a fixture of one dimension; a mixed, empty or
    # faulty one goes through from_dense block by block, up to the first fault.
    blocks = _fixture_points(rng, dims)
    if fault is not None:
        blocks[fault] = FAULTS["indefinite"][0](dims[fault])
    path = tmp_path / "fixture.txt"
    dump_matrices(blocks, path)
    calls = []
    from_stack, from_dense = SpdMatrix._from_stack, SpdMatrix.from_dense

    def counted(name, f):
        return classmethod(lambda cls, a: calls.append(name) or f(a))

    monkeypatch.setattr(SpdMatrix, "_from_stack", counted("stack", from_stack))
    monkeypatch.setattr(SpdMatrix, "from_dense", counted("dense", from_dense))
    if fault is None:
        assert len(load_matrices(path)) == len(dims)
    else:
        with pytest.raises(NotSpdError):
            load_matrices(path)
    assert calls == ["stack"] * stacked + ["dense"] * one_by_one


def test_dense_is_defined_once():
    # Each alias is a class attribute of its own, which perfbench traces as
    # tri.LowerTriangular.dense and tri.SymMatrix.dense.
    assert LowerTriangular.__dict__["dense"] is SymMatrix.__dict__["dense"] is tri._Square.dense
    for P in (lower([[1.0, 0.0], [2.0, 3.0]]), SpdMatrix(np.eye(2))):
        a = P.dense()
        assert_array_equal(a, P.data)
        assert a is not P.data


# An indefinite matrix (eigenvalues about -6.2e299, 0, 1.6e300) whose factor
# overflows: row 2 comes out [inf, nan, nan] without a flagged pivot.
OVERFLOWING = np.array([[1e-300, 0.0, 1e300], [0.0, 1.0, 0.0], [1e300, 0.0, 1e300]])


@pytest.mark.filterwarnings("error")
def test_factor_rejects_non_finite_pivot():
    with pytest.raises(NotSpdError):
        _factor(OVERFLOWING)
    with pytest.raises(NotSpdError):
        SpdMatrix.from_dense(OVERFLOWING)


def test_overflowing_factor_rejected_downstream():
    p = SpdMatrix(OVERFLOWING.copy())  # the cheap constructor does not factor
    with pytest.raises(NotSpdError):
        cholesky_factor(p)
    for mean in (log_cholesky_mean, get_metric("cholesky").mean):
        with pytest.raises(NotSpdError):
            mean([p])
        with pytest.raises(NotSpdError):
            mean([SpdMatrix(np.eye(3)), p])
    with pytest.raises(NotSpdError):
        dist_spd(p, p)
