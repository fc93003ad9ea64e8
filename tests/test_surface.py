"""Surface guards.

Every public function and method defined in a ``logchol`` module has a
caller outside the tests: it is named in ``logchol.__all__``, referenced from
the package's own code outside its definition, or referenced from the code
of the benchmark in ``perfbench/`` (a name in one of its strings, such as a
span name, does not count).  Helpers that only the tests need live in
``tests/support.py`` and ``tests/oracles.py``.

Each matrix step has one home: the Cholesky factorizations, the eigenvalue
solvers, the symmetrizer and the Frobenius norm (``np.linalg.norm`` and
``np.vdot``, behind ``tri._norm``) are called or defined only in ``tri``, the
triangular BLAS calls only in ``chol_map``, the QR factorization of the
orthogonal sampler only in ``sampling`` and the LU of ``slogdet`` only in
``experiments``.  Every name the package reaches through ``numpy.linalg``,
``scipy.linalg``, ``lapack`` or ``blas`` has its home listed, so a new LAPACK
call cannot land unhomed.  So does the float-range rule for computed SPD
matrices: its bounds and its two checks are defined only in ``chol_map``.

A kernel module symmetrizes only a result it is typing, as
``SymMatrix._of(_sym(...))``: an eigensolver's input is not symmetrized,
since ``tri._eigh`` reads one triangle.

Outside data takes every check: where it enters (``from_dense``, the fixture
reader, ``sampling``, ``experiments``, ``report`` and ``cli``) nothing types a
value through ``_Square._of``, the path for kernel results, which checks
finiteness and the type's hook alone.  The kernel modules (``chol_map``,
``chol_manifold``, ``spd_manifold`` and ``baselines``) take only that path:
none of them calls a public constructor.  Kernels write diagonals through
the flat stride, never ``np.fill_diagonal``.

A step has one rule, in ``tri``: every public function with a step ``t`` or
a grid ``ts`` passes it through ``_step`` or ``_grid`` first."""
import ast
from pathlib import Path

import numpy as np
import pytest

import logchol
from logchol import CholeskyFactor, DomainError, LowerTriangular, SpdMatrix, SymMatrix

ROOT = Path(__file__).resolve().parents[1]
SRC = {p: ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "logchol").glob("*.py"))}

# Routine name -> the one module that may reference it.
HOMES = {
    "eigh": "tri.py",
    "eigvalsh": "tri.py",
    "cholesky": "tri.py",
    "dpotrf": "tri.py",
    "norm": "tri.py",
    "vdot": "tri.py",
    "LinAlgError": "tri.py",
    "dtrsm": "chol_map.py",
    "dtrmm": "chol_map.py",
    "qr": "sampling.py",
    "slogdet": "experiments.py",
}

# The modules whose names are LAPACK and BLAS routines.
LINALG_MODULES = ("linalg", "lapack", "blas")

# The float-range rule: its bounds and its two checks, defined in chol_map alone.
FLOAT_RANGE_RULE = ("_PIVOT_ROOT_MIN", "_EXP_RANGE", "_spd_point", "_check_exponents")

# The modules whose results are kernel results, and the constructors they must not call.
KERNEL_MODULES = ("chol_map.py", "chol_manifold.py", "spd_manifold.py", "baselines.py")
CONSTRUCTORS = ("SymMatrix", "SpdMatrix", "LowerTriangular", "CholeskyFactor")

# The parameters that hold a step or a grid, and the rule in tri that reads each.
STEP_RULES = {"t": "_step", "ts": "_grid"}
STEP_TAKERS = (
    "geodesic_chol", "geodesic_spd", "interpolate_spd", "euclid_interpolate",
    "cholesky_interpolate", "logeuclid_interpolate", "affine_interpolate",
)

# Where outside data enters: whole modules (None), or the named functions of one.
OUTSIDE_DATA = {
    "tri.py": ("from_dense", "parse_matrix_text", "load_matrices"),
    "sampling.py": None,
    "experiments.py": None,
    "report.py": None,
    "cli.py": None,
}


def _public_definitions(tree: ast.Module):
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        for fn in body:
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                yield fn


def _references(tree: ast.Module):
    """``(line, name)`` of every name, attribute and import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.alias):
            yield node.lineno, node.name


def _transposed(node: ast.expr, of: ast.expr) -> bool:
    """Whether ``node`` is ``of.T``, ``of.swapaxes(...)`` or ``of.transpose(...)``."""
    if isinstance(node, ast.Call):
        node = node.func
        if not (isinstance(node, ast.Attribute) and node.attr in ("swapaxes", "transpose")):
            return False
    elif not (isinstance(node, ast.Attribute) and node.attr == "T"):
        return False
    return ast.dump(node.value) == ast.dump(of)


def _halved(node: ast.expr):
    """The ``x`` of ``x / 2`` or ``0.5 * x``, else None."""
    if not isinstance(node, ast.BinOp):
        return None
    if isinstance(node.op, ast.Div):
        whole, half = node.left, node.right
    elif isinstance(node.op, ast.Mult):
        half, whole = node.left, node.right
    else:
        return None
    if isinstance(half, ast.Constant) and half.value in (2, 0.5):
        return whole
    return None


def _is_transpose_sum(a: ast.expr, b: ast.expr) -> bool:
    return _transposed(b, a) or _transposed(a, b)


def _symmetrizers(tree: ast.Module):
    """Lines of every ``(a + a^T) / 2``, ``0.5 * (a + a^T)``, ``a / 2 + a^T / 2``
    or ``0.5 * a + 0.5 * a^T`` in ``tree``, and of every ``h + h^T`` where
    ``h`` is a name the module assigns a halved value."""
    halves = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and _halved(node.value) is not None
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    for node in ast.walk(tree):
        total = _halved(node)
        if (
            isinstance(total, ast.BinOp)
            and isinstance(total.op, ast.Add)
            and _is_transpose_sum(total.left, total.right)
        ):
            yield node.lineno
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            left, right = _halved(node.left), _halved(node.right)
            if left is not None and right is not None and _is_transpose_sum(left, right):
                yield node.lineno
            elif any(
                isinstance(x, ast.Name) and x.id in halves for x in (node.left, node.right)
            ) and _is_transpose_sum(node.left, node.right):
                yield node.lineno


def test_every_public_function_and_method_has_a_caller():
    bench = {
        name
        for p in (ROOT / "perfbench").glob("*.py")
        for _, name in _references(ast.parse(p.read_text()))
    }
    uses = [(p, line, name) for p, tree in SRC.items() for line, name in _references(tree)]
    unused = []
    for path, tree in SRC.items():
        for fn in _public_definitions(tree):
            if fn.name in logchol.__all__ or fn.name in bench:
                continue
            outside = (
                name == fn.name and not (p == path and fn.lineno <= line <= fn.end_lineno)
                for p, line, name in uses
            )
            if not any(outside):
                unused.append(f"{path.name}:{fn.lineno} {fn.name}")
    assert not unused, f"public but called only from tests: {unused}"


def test_each_matrix_step_has_one_home():
    strays = [
        f"{path.name}:{line} {name}"
        for path, tree in SRC.items()
        for line, name in _references(tree)
        if HOMES.get(name, path.name) != path.name
    ]
    strays += [
        f"{path.name}:{line} symmetrizer"
        for path, tree in SRC.items()
        if path.name != "tri.py"
        for line in _symmetrizers(tree)
    ]
    assert not strays, f"matrix steps outside their home module: {strays}"
    # The guard sees the one symmetrizer it allows.
    assert list(_symmetrizers(SRC[ROOT / "src" / "logchol" / "tri.py"]))


def _linalg_names(tree: ast.Module):
    """``(line, name)`` of every name ``tree`` reaches through ``numpy.linalg``,
    ``scipy.linalg``, ``lapack`` or ``blas``: imported from one, or read as an
    attribute of one (``np.linalg.qr``, or of a name such a module is bound to)."""
    def last(dotted: str) -> str:
        return dotted.rsplit(".", 1)[-1]

    bound = set(LINALG_MODULES)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {a.asname for a in node.names if a.asname and last(a.name) in LINALG_MODULES}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and last(node.module or "") in LINALG_MODULES:
            names = [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, ast.Attribute) and (
            (isinstance(node.value, ast.Name) and node.value.id in bound)
            or (isinstance(node.value, ast.Attribute) and node.value.attr in LINALG_MODULES)
        ):
            names = [(node.lineno, node.attr)]
        else:
            continue
        yield from ((line, name) for line, name in names if name not in LINALG_MODULES)


def test_every_lapack_routine_has_a_home():
    reached = [(path.name, line, name) for path, tree in SRC.items()
               for line, name in _linalg_names(tree)]
    strays = [f"{p}:{line} {name}" for p, line, name in reached if name not in HOMES]
    assert not strays, f"LAPACK or BLAS routines with no home: {strays}"
    # The guard sees both forms: an attribute of np.linalg, and an import from scipy.linalg.
    assert {"eigh", "qr", "slogdet", "dpotrf", "dtrsm"} <= {name for _, _, name in reached}


def test_kernels_symmetrize_only_a_result_they_type():
    strays, typed = [], 0
    for path, tree in SRC.items():
        if path.name not in KERNEL_MODULES:
            continue
        typing = {
            id(arg)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_of"
            for arg in node.args
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "_sym" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                typed += id(node) in typing
                if id(node) not in typing:
                    strays.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert not strays, f"_sym outside a typed result: {strays}"
    # The guard sees the four spectral logarithms and transports.
    assert typed == 4


def _definitions(tree: ast.Module):
    """Names bound anywhere in ``tree`` by an assignment or a function definition."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id


def test_float_range_rule_has_one_home():
    homes = {
        name: [path.name for path, tree in SRC.items() for d in _definitions(tree) if d == name]
        for name in FLOAT_RANGE_RULE
    }
    assert homes == {name: ["chol_map.py"] for name in FLOAT_RANGE_RULE}


def test_outside_data_is_never_typed_as_a_kernel_result():
    scopes = {}
    for path, tree in SRC.items():
        if path.name in OUTSIDE_DATA:
            names = OUTSIDE_DATA[path.name]
            scopes[path.name] = [tree] if names is None else [
                node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name in names
            ]
    strays = [
        f"{name}:{line}"
        for name, nodes in scopes.items()
        for node in nodes
        for line, ref in _references(node)
        if ref == "_of"
    ]
    assert not strays, f"outside data typed through _Square._of: {strays}"
    # The guard sees every scope it polices (two from_dense), and the path it bans.
    assert sorted(OUTSIDE_DATA) == sorted(scopes) and len(scopes["tri.py"]) == 4
    assert any(ref == "_of" for _, ref in _references(SRC[ROOT / "src" / "logchol" / "chol_map.py"]))


def _called(tree: ast.AST):
    """``(line, name)`` of every call in ``tree`` to a name or an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, (ast.Name, ast.Attribute)):
                yield node.lineno, f.id if isinstance(f, ast.Name) else f.attr


def test_kernel_results_are_typed_by_construction():
    kernels = {path.name: tree for path, tree in SRC.items() if path.name in KERNEL_MODULES}
    strays = [
        f"{name}:{line} {called}"
        for name, tree in kernels.items()
        for line, called in _called(tree)
        if called in CONSTRUCTORS
    ]
    assert not strays, f"kernel results through a public constructor: {strays}"
    # The guard sees every kernel module, each typing results through _of.
    assert sorted(kernels) == sorted(KERNEL_MODULES)
    assert all(any(c == "_of" for _, c in _called(tree)) for tree in kernels.values())


def test_every_step_passes_through_the_step_rule():
    seen, strays = [], []
    for path, tree in SRC.items():
        for fn in _public_definitions(tree):
            for arg in fn.args.args:
                if arg.arg not in STEP_RULES:
                    continue
                seen.append(fn.name)
                body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
                first = ast.unparse(body[0]) if body else ""
                if first != f"{arg.arg} = {STEP_RULES[arg.arg]}({arg.arg})":
                    strays.append(f"{path.name}:{fn.lineno} {fn.name} starts with {first!r}")
    assert not strays, f"steps not read through the step rule first: {strays}"
    assert sorted(seen) == sorted(STEP_TAKERS)
    homes = {
        rule: [path.name for path, tree in SRC.items() for d in _definitions(tree) if d == rule]
        for rule in STEP_RULES.values()
    }
    assert homes == {rule: ["tri.py"] for rule in STEP_RULES.values()}


def test_no_kernel_writes_a_diagonal_with_fill_diagonal():
    strays = [
        f"{path.name}:{line}"
        for path, tree in SRC.items()
        for line, name in _references(tree)
        if name == "fill_diagonal"
    ]
    assert not strays, f"np.fill_diagonal in the package: {strays}"


# Kernel results of finite inputs whose entries overflow; each is typed by
# _Square._of, whose finiteness check must still reject it.
OVERFLOWING_RESULTS = {
    "transport_spd": lambda: logchol.transport_spd(
        SpdMatrix(np.eye(2)), SpdMatrix(np.diag([1e300, 1.0])), SymMatrix(np.diag([1e300, 0.0]))
    ),
    "log_spd": lambda: logchol.log_spd(
        SpdMatrix(np.diag([1.7e308, 1.0])), SpdMatrix(np.diag([1e-300, 1.0]))
    ),
    "diff_S": lambda: logchol.diff_S(
        CholeskyFactor(np.diag([1e200, 1.0])), LowerTriangular(np.diag([1e200, 0.0]))
    ),
}


@pytest.mark.parametrize("case", OVERFLOWING_RESULTS)
def test_overflowing_kernel_results_raise_domain_error(case):
    # Tangent results are outside the no-warning rule of computed SPD
    # matrices: numpy's overflow warnings are silenced here, not asserted.
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DomainError):
        OVERFLOWING_RESULTS[case]()
