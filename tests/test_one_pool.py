"""Threads are started in one module: src/torusppc/_parallel.py.

The counting kernels share its core count and its ordered map, so a second
pool idiom, or a second place deciding how many threads to start, may not
appear anywhere else under src/torusppc.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "torusppc"
POOL_MODULE = "_parallel.py"
THREAD_MODULES = ("concurrent.futures", "threading")


def _is_thread_module(name: str) -> bool:
    return any(name == m or name.startswith(m + ".") for m in THREAD_MODULES)


def _offences(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_thread_module(alias.name):
                    yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if _is_thread_module(node.module):
                yield node.lineno, node.module
            else:
                for alias in node.names:
                    if _is_thread_module(f"{node.module}.{alias.name}"):
                        yield node.lineno, f"{node.module}.{alias.name}"


def test_only_the_pool_module_imports_threads():
    files = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / POOL_MODULE in files
    found = [f"{path.relative_to(PACKAGE)}:{line}: imports {name}"
             for path in files if path.name != POOL_MODULE
             for line, name in _offences(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
    pool = ast.parse((PACKAGE / POOL_MODULE).read_text(encoding="utf-8"))
    assert [name for _, name in _offences(pool)] == ["concurrent.futures"]


def test_detector_sees_every_import_form():
    src = ("import threading\n"
           "import concurrent.futures\n"
           "import threading as t, os\n"
           "from concurrent.futures import ThreadPoolExecutor\n"
           "from concurrent import futures\n"
           "from threading import Event\n"
           "import os\n"
           "from concurrent import interpreters\n"
           "from . import threading_notes\n"
           "from .sequences import threading\n")
    assert [line for line, _ in _offences(ast.parse(src))] == [1, 2, 3, 4, 5, 6]
