"""A failed invariant in the package raises errors.InternalError (exit 5).

A bare ``assert`` vanishes under ``python -O`` and an AssertionError exits 1
like any crash, so neither may appear under src/torusppc.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "torusppc"


def _offences(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno, "raise AssertionError"


def test_no_bare_assert_in_package():
    files = sorted(PACKAGE.rglob("*.py"))
    assert files
    found = [f"{path.relative_to(PACKAGE)}:{line}: {what}"
             for path in files
             for line, what in _offences(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def test_detector_sees_both_forms():
    src = "assert x\nraise AssertionError('a')\nraise AssertionError\nraise ValueError\n"
    assert [what for _, what in _offences(ast.parse(src))] == [
        "assert statement", "raise AssertionError", "raise AssertionError"]
