"""Every module-level import in the library is used, and every
module-level private name is read."""

import ast
import collections
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "sbgraph"
SOURCES = sorted(PACKAGE.rglob("*.py"))


def _module_level(statements):
    """The statements run at import time, into `if` and `try` blocks but
    not into function or class bodies."""
    for node in statements:
        yield node
        if isinstance(node, ast.If | ast.Try):
            finals = getattr(node, "finalbody", [])
            for block in (node.body, node.orelse, finals):
                yield from _module_level(block)
            for handler in getattr(node, "handlers", []):
                yield from _module_level(handler.body)


def _unused_imports(source):
    """Names bound by module-level imports of `source` that the module
    never reads, leaving out `__future__` imports, names listed in
    `__all__` and imports marked `# noqa: F401`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in _module_level(tree.body):
        if not isinstance(node, ast.Import | ast.ImportFrom):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        text = "\n".join(lines[node.lineno - 1:node.end_lineno])
        if "noqa: F401" in text:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(
        (line, name) for name, line in bound.items() if name not in used
    )


def _private_definitions(tree):
    """(name, node) for each module-level `def _x`, `class _X` and
    `_X = ...` of a parsed module; dunder names are not private."""
    for node in _module_level(tree.body):
        if isinstance(node, ast.FunctionDef | ast.ClassDef):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            targets = []
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _reads(node):
    """Counter of the names read under node: loaded names and attribute
    names."""
    names = collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            names[n.attr] += 1
    return names


def _dead_names(sources):
    """(module, line, name) of each module-level private name defined in
    `sources`, {module: source}, that none of them reads outside the
    name's own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = sum((_reads(tree) for tree in trees.values()),
                collections.Counter())
    dead = []
    for module, tree in trees.items():
        for name, node in _private_definitions(tree):
            if reads[name] == _reads(node)[name]:
                dead.append((module, node.lineno, name))
    return sorted(dead)


@pytest.mark.parametrize(
    "path", SOURCES, ids=lambda p: p.relative_to(PACKAGE).as_posix()
)
def test_module_imports_are_used(path):
    assert _unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "from . import _kernels\n"
        "from .graph import remove_edge  # noqa: F401\n"
        "from .graph import underlying\n"
        "import sys\n"
        "__all__ = ['underlying']\n"
        "def f():\n"
        "    import json\n"
        "    return os.sep\n"
    )
    assert _unused_imports(source) == [(3, "_kernels"), (6, "sys")]


def test_module_private_names_are_read():
    sources = {
        path.relative_to(PACKAGE).as_posix(): path.read_text()
        for path in SOURCES
    }
    assert _dead_names(sources) == []


def test_the_scan_finds_a_dead_private_name():
    sources = {
        "a.py": (
            "_LIMIT = 3\n"
            "_UNUSED = 4\n"
            "def _walk(n):\n"
            "    return _walk(n - 1) if n else _LIMIT\n"
            "def _helper():\n"
            "    return 0\n"
            "class _Spare:\n"
            "    pass\n"
            "if True:\n"
            "    def _gated():\n"
            "        return _gated\n"
        ),
        "b.py": (
            "from . import a\n"
            "from .a import _Spare\n"
            "def public():\n"
            "    return a._helper()\n"
        ),
    }
    assert _dead_names(sources) == [
        ("a.py", 2, "_UNUSED"),
        ("a.py", 3, "_walk"),
        ("a.py", 7, "_Spare"),
        ("a.py", 10, "_gated"),
    ]
