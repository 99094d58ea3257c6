"""Every name a module under src/torusppc imports is used in that module.

An import left behind when the code that used it is deleted still costs a
load at start-up and misleads a reader about what the module depends on.
__init__.py (whose imports are the package's re-exports) and ``from
__future__`` imports are exempt.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "torusppc"


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None:
                    yield arg.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.AST) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


def _unused(tree: ast.AST):
    used = _used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    yield node.lineno, name


def test_no_unused_imports_in_package():
    files = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
    assert files
    found = [f"{path.relative_to(PACKAGE)}:{line}: {name}"
             for path in files
             for line, name in _unused(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def test_detector_sees_unused_imports():
    src = ("from __future__ import annotations\n"
           "import os.path\nimport numpy as np\nfrom typing import Iterable, Sequence\n"
           "def f(x: 'Sequence[int]') -> int:\n    return np.sum(x)\n")
    assert [name for _, name in _unused(ast.parse(src))] == ["os", "Iterable"]
