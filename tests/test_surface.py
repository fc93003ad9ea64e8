"""Surface guards.

Every public function and method defined in a ``logchol`` module has a
caller outside the tests: it is named in ``logchol.__all__``, referenced from
the package's own code outside its definition, or referenced from the code
of the benchmark in ``perfbench/`` (a name in one of its strings, such as a
span name, does not count).  Helpers that only the tests need live in
``tests/support.py`` and ``tests/oracles.py``.

Each matrix step has one home: the Cholesky factorization (LAPACK
``dpotrf``; numpy's ``cholesky`` has no home, so no module may call it),
the eigenvalue solvers, the symmetrizer and the Frobenius norm
(``np.linalg.norm`` and ``np.vdot``, behind ``tri._norm``) are called or
defined only in ``tri``, the triangular BLAS calls only in ``chol_map``,
the QR factorization of the orthogonal sampler only in ``sampling``, the
LU of ``slogdet`` only in ``experiments`` and the Frechet derivative of the
matrix exponential (``expm_frechet``) only in ``baselines``.  Every name the package reaches through ``numpy.linalg``,
``scipy.linalg``, ``lapack`` or ``blas`` has its home listed, so a new LAPACK
call cannot land unhomed.  So does the float-range rule for computed SPD
matrices: its bounds and its two checks are defined only in ``chol_map``.

A kernel module symmetrizes only a result it is typing, as
``SymMatrix._of(_sym(...))``: an eigensolver's input is not symmetrized,
since ``tri._eigh`` reads one triangle.

Outside data takes every check once.  Where it enters (``from_dense``, its
stacked twin ``SpdMatrix._from_stack``, the fixture reader, ``sampling``,
``experiments``, ``report`` and ``cli``), ``_Square._of``, the path for
kernel results, which checks finiteness and the type's hook alone, types
only the array that ``_symmetrized`` returned in the same function, itself
or as the first of ``tri._factors``' pair, or one matrix of that stack,
taken by a ``for`` loop over it: that array has passed every check of the
constructors, and no caller holds it.  Any other value there goes through a
constructor or ``from_dense``.  The kernel modules (``chol_map``,
``chol_manifold``, ``spd_manifold`` and ``baselines``) take only ``_of``:
none of them calls a public constructor.  Kernels write diagonals through
``tri._with_diag``, the one home of the flat stride ``a.flat[::m + 1]``, and
never through ``np.fill_diagonal``.

A step has one rule, in ``tri``: every public function with a step ``t`` or
a grid ``ts``, a nested one included, passes it through ``_step`` or
``_grid`` first.

One SPD point is factored in ``tri`` alone, by ``SpdMatrix._chol``, which
reads the factor ``from_dense`` kept; the means stack their members'
``_chol``.  Outside ``tri`` the kernel modules call ``_factor`` only on the
Karcher iterate, never on a point's ``data`` or on a stack of members."""
import ast
import warnings
from contextlib import nullcontext
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
    "dpotrf": "tri.py",
    "dsyevd": "tri.py",
    "norm": "tri.py",
    "vdot": "tri.py",
    "LinAlgError": "tri.py",
    "dtrsm": "chol_map.py",
    "dtrmm": "chol_map.py",
    "expm_frechet": "baselines.py",
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

# The kernels that write a diagonal, each through tri._with_diag.
DIAG_WRITERS = {
    "chol_manifold.py": {"_metric", "_geodesic", "_log", "_dist", "_group_op", "_group_inv",
                         "_transport", "_frechet_mean"},
    "chol_map.py": {"_diff_S_inv"},
}

# The parameters that hold a step or a grid, and the rule in tri that reads each.
STEP_RULES = {"t": "_step", "ts": "_grid"}
# A nested function is one too: "interpolate" is the flat core's, which
# serves the Euclidean, Cholesky and Log-Euclidean geometries.
STEP_TAKERS = ("geodesic_chol", "geodesic_spd", "interpolate_spd", "interpolate", "affine_interpolate")

# The functions that may call _factor outside tri, and on what: the Karcher
# iterate (the name mean), in the loop of one sample and in the stacked loop
# of an array of trials.
FACTOR_ARGS = {"_karcher_means": "mean", "_karcher_alone": "mean"}

# Where outside data enters: whole modules (None), or the named functions of one.
OUTSIDE_DATA = {
    "tri.py": ("from_dense", "_from_stack", "parse_matrix_text", "load_matrices"),
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


def _named(tree: ast.AST):
    """``(node, name)`` of every name, attribute and import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node, node.id
        elif isinstance(node, ast.Attribute):
            yield node, node.attr
        elif isinstance(node, ast.alias):
            yield node, node.name


def _references(tree: ast.AST):
    """``(line, name)`` of every name, attribute and import in ``tree``."""
    for node, name in _named(tree):
        yield node.lineno, name


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
    assert {"eigh", "qr", "slogdet", "dpotrf", "dsyevd", "dtrsm"} <= {name for _, _, name in reached}


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
    # The guard sees the spectral logarithms and transports: the two
    # affine-invariant ones, and the flat core's pulled tangent, which the
    # Log-Euclidean log and transport share.
    assert typed == 3


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


def _calls(node: ast.expr, name: str) -> bool:
    return isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)
    )


def _is_symmetrized(node: ast.expr) -> bool:
    return _calls(node, "_symmetrized")


def _bound_to_symmetrized(fn: ast.FunctionDef) -> set[str]:
    """The names ``fn`` binds, every time, by a plain assignment of
    ``_symmetrized(...)``, as the first name of a tuple assignment of
    ``tri._factors(...)``, which returns ``_symmetrized``'s stack first and
    its factors second, or as the target of a ``for`` loop over a name bound
    so: one matrix of the stack it returned."""
    def bound(ok: dict[int, bool]) -> set[str]:
        binds = [(n.id, ok.get(id(n), False)) for n in ast.walk(fn)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        binds += [(a.arg, False) for a in ast.walk(fn.args) if isinstance(a, ast.arg)]
        return {name for name, _ in binds} - {name for name, good in binds if not good}

    ok = {id(n.targets[0]): _is_symmetrized(n.value) for n in ast.walk(fn)
          if isinstance(n, ast.Assign) and len(n.targets) == 1}
    ok.update((id(name), i == 0 and _calls(n.value, "_factors")) for n in ast.walk(fn)
              if isinstance(n, ast.Assign) and len(n.targets) == 1
              and isinstance(n.targets[0], ast.Tuple)
              for i, name in enumerate(n.targets[0].elts))
    stacks = bound(ok)
    ok.update((id(n.target), isinstance(n.iter, ast.Name) and n.iter.id in stacks)
              for n in ast.walk(fn) if isinstance(n, ast.For))
    return bound(ok)


def _of_symmetrized(scope: ast.AST) -> set[int]:
    """``id`` of each ``_of`` in ``scope`` called on one argument: ``_symmetrized(...)``,
    or a name that the innermost function around the call binds to it alone."""
    home = {}
    for fn in ast.walk(scope):  # breadth first: an inner function overwrites its outer one
        if isinstance(fn, ast.FunctionDef):
            home.update((id(node), fn) for node in ast.walk(fn))
    typed = set()
    for call in ast.walk(scope):
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and call.func.attr == "_of" and len(call.args) == 1 and not call.keywords
                and id(call) in home):
            continue
        arg = call.args[0]
        if _is_symmetrized(arg) or (
            isinstance(arg, ast.Name) and arg.id in _bound_to_symmetrized(home[id(call)])
        ):
            typed.add(id(call.func))
    return typed


def test_outside_data_is_never_typed_as_a_kernel_result():
    """Where outside data enters, ``_of`` takes only the array ``_symmetrized``
    built, a result of the package that has passed every constructor check."""
    scopes = {}
    for path, tree in SRC.items():
        if path.name in OUTSIDE_DATA:
            names = OUTSIDE_DATA[path.name]
            scopes[path.name] = [tree] if names is None else [
                node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name in names
            ]
    typed, strays = [], []
    for name, nodes in scopes.items():
        for scope in nodes:
            allowed = _of_symmetrized(scope)
            for node, ref in _named(scope):
                if ref == "_of":
                    (typed if id(node) in allowed else strays).append(f"{name}:{node.lineno}")
    assert not strays, f"outside data typed through _Square._of unsymmetrized: {strays}"
    # The guard sees every scope it polices, and each from_dense and the
    # stacked one typing their symmetrized arrays, and the kernels' use of the
    # path it restricts.
    assert sorted(OUTSIDE_DATA) == sorted(scopes) and len(scopes["tri.py"]) == 5
    assert len(typed) == 3 and all(t.startswith("tri.py:") for t in typed)
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


def test_kernels_factor_only_stacks_and_the_karcher_iterate():
    seen, strays = [], []
    for path, tree in SRC.items():
        if path.name == "tri.py":
            continue
        for top in tree.body:
            for node in ast.walk(top):
                if not (isinstance(node, ast.Call) and "_factor" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)
                )):
                    continue
                arg = node.args[0] if node.args else None
                read = arg.func if isinstance(arg, ast.Call) else arg
                name = getattr(top, "name", None)
                if name in FACTOR_ARGS and getattr(read, "id", None) == FACTOR_ARGS[name]:
                    seen.append(name)
                else:
                    strays.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert not strays, f"_factor outside tri on other than the Karcher iterate: {strays}"
    # The guard sees each call it allows.
    assert sorted(seen) == sorted(FACTOR_ARGS)


def test_every_step_passes_through_the_step_rule():
    seen, strays = [], []
    for path, tree in SRC.items():
        nested = (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef))
        for fn in (fn for fn in nested if not fn.name.startswith("_")):
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


def test_diagonals_are_written_through_with_diag_alone():
    strays, flat, writers = [], [], {}
    for path, tree in SRC.items():
        for top in tree.body:
            name = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Subscript) and getattr(node.value, "attr", None) == "flat":
                    where = f"{path.name}:{node.lineno}"
                    (flat if (path.name, name) == ("tri.py", "_with_diag") else strays).append(where)
                elif isinstance(node, ast.Call) and "_with_diag" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)
                ):
                    writers.setdefault(path.name, set()).add(name)
    assert not strays, f".flat subscripted outside tri._with_diag: {strays}"
    # The guard sees the one flat stride it allows, and every kernel's call.
    assert len(flat) == 1
    assert writers == DIAG_WRITERS


# Kernel results of finite inputs whose entries overflow; each is typed by
# _Square._of, whose finiteness check must still reject it.
HUGE_SYM = SymMatrix(np.diag([1.7e308, 1.0]))
# Two factors whose strict parts are the float max apart, twice over.
STRICT_PAIR = tuple(CholeskyFactor(np.array([[1.0, 0.0], [x, 1.0]])) for x in (1.7e308, -1.7e308))
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
    # The factor-space log and diff_S, whose strict-part difference and
    # X L^T + L X^T overflow in numpy, with warnings off at the public function.
    "log_chol": lambda: logchol.log_chol(*STRICT_PAIR),
    "diff_S.sum": lambda: logchol.diff_S(
        CholeskyFactor(np.diag([1e154, 1.0])), LowerTriangular(np.diag([0.9e154, 0.0]))
    ),
    # The factor-space transport and group operation, their diagonal and
    # strict parts formed with numpy's warnings off.
    "transport_chol": lambda: logchol.transport_chol(
        CholeskyFactor(np.diag([1e-300, 1.0])), CholeskyFactor(np.diag([1e300, 1.0])),
        LowerTriangular(np.diag([1e300, 0.0]))
    ),
    "group_op.diagonal": lambda: logchol.group_op(*[CholeskyFactor(np.diag([1e200, 1.0]))] * 2),
    "group_op.strict": lambda: logchol.group_op(
        *[CholeskyFactor(np.array([[1.0, 0.0], [1.7e308, 1.0]]))] * 2
    ),
    # The flat core forms exp and interpolant results with numpy's warnings off.
    "euclidean.exp": lambda: logchol.get_metric("euclidean").exp(HUGE_SYM, HUGE_SYM),
    "euclidean.interpolate": lambda: logchol.get_metric("euclidean").interpolate(
        HUGE_SYM, SymMatrix(-HUGE_SYM.data), [3.0]
    ),
}


# transport_spd's transported diagonal K_jj H_jj / 2, written by the
# pullback, can overflow in numpy, which warns before the check rejects the
# result; here that warning is silenced, not asserted.
# log_spd and diff_S overflow in their BLAS product, which emits no warning.
WARNS_FIRST = {"transport_spd"}


@pytest.mark.parametrize("case", OVERFLOWING_RESULTS)
def test_overflowing_kernel_results_raise_domain_error(case):
    quiet = np.errstate(over="ignore", invalid="ignore") if case in WARNS_FIRST else nullcontext()
    with quiet, warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            OVERFLOWING_RESULTS[case]()


def test_a_factor_distance_past_the_float_max_reads_inf():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert logchol.dist_chol(*STRICT_PAIR) == np.inf
