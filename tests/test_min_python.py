"""Every module under src/torusppc parses as the oldest Python that
pyproject.toml's requires-python declares.

A test run checks the code only under the Python it runs on, so syntax of a
newer version (``except*``, PEP 695 ``type`` aliases and generics) would
otherwise slip past it.  ast.parse's feature_version refuses such grammar;
it does not see a call into a newer standard library.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "torusppc"


def _oldest_python() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    m = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.MULTILINE)
    assert m, "pyproject.toml declares no requires-python lower bound"
    return int(m[1]), int(m[2])


def test_every_module_parses_as_the_oldest_declared_python():
    version = _oldest_python()
    refused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)
        except SyntaxError as exc:
            refused.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert refused == []


def test_newer_syntax_is_refused():
    snippet = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    if sys.version_info >= (3, 11):
        ast.parse(snippet)          # this Python reads it; the check must not
    with pytest.raises(SyntaxError):
        ast.parse(snippet, feature_version=_oldest_python())
