"""No default of a private top-level function under src/torusppc is
overridden by every call to it in the package.

Such a default is read only by the tests, so the function keeps a second
calling mode, and the branches behind it, that no command runs.  A function
also named other than as the callee of a call (handed on as a callback, say)
may be called with its defaults anywhere, so it is not judged.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "torusppc"


def _defaulted(fn: ast.FunctionDef) -> list[str]:
    """The parameters of fn that have a default, in order."""
    args = fn.args
    positional = args.posonlyargs + args.args
    return ([a.arg for a in positional[len(positional) - len(args.defaults):]]
            + [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None])


def _bound(call: ast.Call, fn: ast.FunctionDef) -> set[str]:
    """The parameters of fn that call surely passes: positions before any
    *args, and keywords other than **kwargs."""
    params = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    bound = set()
    for param, arg in zip(params, call.args):
        if isinstance(arg, ast.Starred):
            break
        bound.add(param)
    return bound | {kw.arg for kw in call.keywords if kw.arg is not None}


def _callee(node: ast.AST) -> str | None:
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _always_overridden(modules: dict[str, ast.Module]):
    """(module, function, parameter) of each default of a private top-level
    function that every call to it in the modules passes explicitly."""
    defs = [(path, node) for path, tree in modules.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_") and not node.name.startswith("__")]
    private = {node.name for _, node in defs}
    nodes = [sub for tree in modules.values() for sub in ast.walk(tree)]
    calls = [sub for sub in nodes if isinstance(sub, ast.Call) and _callee(sub.func) in private]
    callees = {id(call.func) for call in calls}
    handed_on = {_callee(sub) for sub in nodes
                 if isinstance(sub, (ast.Name, ast.Attribute)) and id(sub) not in callees}
    for path, fn in defs:
        mine = [call for call in calls if _callee(call.func) == fn.name]
        if not mine or fn.name in handed_on:
            continue
        for param in _defaulted(fn):
            if all(param in _bound(call, fn) for call in mine):
                yield path, fn.name, param


def test_no_private_default_is_overridden_by_every_call():
    modules = {str(p.relative_to(PACKAGE)): ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted(PACKAGE.rglob("*.py"))}
    assert len(modules) > 5
    found = [f"{path}: {name}({param}=...)" for path, name, param in _always_overridden(modules)]
    assert found == []


def test_detector_sees_defaults_every_call_overrides():
    a = ("def _draw(seed, n, first=0, work=None, *, streams=None):\n    pass\n"
         "def _used(x, y=1):\n    pass\n"
         "def _handed_on(x, y=1):\n    pass\n"
         "def _starred(x, y=1):\n    pass\n"
         "def _uncalled(x, y=1):\n    pass\n"
         "def public(x, y=1):\n    pass\n"
         "def caller(args):\n"
         "    _draw(1, 2, 0, None, streams=3)\n"
         "    _used(1)\n"
         "    _used(1, y=2)\n"
         "    _handed_on(1, 2)\n"
         "    list(map(_handed_on, args))\n"
         "    _starred(*args)\n"
         "    public(1, 2)\n")
    b = ("from . import a\n"
         "from .a import _uncalled\n"
         "def _kw(x, *, z=2):\n    pass\n"
         "def other():\n"
         "    a._draw(1, 2, work=4, first=5, streams=6)\n"
         "    _kw(1, z=3)\n")
    modules = {"a.py": ast.parse(a), "b.py": ast.parse(b)}
    assert list(_always_overridden(modules)) == [
        ("a.py", "_draw", "first"), ("a.py", "_draw", "work"), ("a.py", "_draw", "streams"),
        ("b.py", "_kw", "z")]
