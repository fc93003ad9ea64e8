"""Surface guard: every public function and method defined in a ``logchol``
module has a caller outside the tests.  It is named in ``logchol.__all__``,
referenced from the package's own code outside its definition, or referenced
from the benchmark in ``perfbench/`` (as code or as a dotted span name such
as ``"report.ExperimentReport.nontiming_json"``).  Helpers that only the
tests need live in ``tests/support.py`` and ``tests/oracles.py``."""
import ast
import re
from pathlib import Path

import logchol

ROOT = Path(__file__).resolve().parents[1]


def _public_definitions(tree: ast.Module):
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        for fn in body:
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                yield fn


def _references(tree: ast.Module, strings: bool = False):
    """``(line, name)`` of every name, attribute and import in ``tree``; with
    ``strings``, also of each part of a string that is a dotted name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.alias):
            yield node.lineno, node.name
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[\w.]+", node.value):
                yield from ((node.lineno, part) for part in node.value.split("."))


def test_every_public_function_and_method_has_a_caller():
    src = {p: ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "logchol").glob("*.py"))}
    bench = {
        name
        for p in (ROOT / "perfbench").glob("*.py")
        for _, name in _references(ast.parse(p.read_text()), strings=True)
    }
    uses = [(p, line, name) for p, tree in src.items() for line, name in _references(tree)]
    unused = []
    for path, tree in src.items():
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
