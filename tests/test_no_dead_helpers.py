"""Every top-level function and class under src/torusppc is named somewhere
else in the package.

A helper whose last caller was deleted still has to be read, kept working
and tested, for no output.  Exempt are the public names (``__all__``) and the
brute-force oracles that only the tests call.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "torusppc"

# slow reference counters kept for the tests to compare the fast paths with
ORACLES = {"additive_energy_brute", "joint_additive_energy_brute", "count_Jl_brute",
           "gcd_sum_enumerate"}


def _names(node: ast.AST) -> set[str]:
    """Every name node mentions: variables, attributes, imported names, and
    identifiers written as strings (forward annotations, getattr)."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.split(".")[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            found.add(sub.value)
    return found


def _unreferenced(modules: dict[str, ast.Module]):
    """(module, name) of each top-level def or class that no other part of
    the modules names; its own body does not count."""
    named = [(path, node, _names(node)) for path, tree in modules.items() for node in tree.body]
    for path, node, _ in named:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not any(node.name in names for _, other, names in named if other is not node):
                yield path, node.name


def _public_names(init: ast.Module) -> set[str]:
    for node in init.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                 for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_no_dead_helpers_in_package():
    modules = {str(p.relative_to(PACKAGE)): ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted(PACKAGE.rglob("*.py"))}
    allowed = _public_names(modules["__init__.py"]) | ORACLES
    assert len(allowed) > len(ORACLES)
    found = [f"{path}: {name}" for path, name in _unreferenced(modules) if name not in allowed]
    assert found == []


def test_detector_sees_dead_helpers():
    a = ("def used(x):\n    return _helper(x)\n"
         "def _helper(x):\n    return x\n"
         "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
         "class _Unused:\n    pass\n"
         "def _annotated() -> '_Typed':\n    pass\n"
         "class _Typed:\n    pass\n")
    b = "from .a import used\n"
    modules = {"a.py": ast.parse(a), "b.py": ast.parse(b)}
    assert [name for _, name in _unreferenced(modules)] == ["_recursive", "_Unused",
                                                             "_annotated"]
