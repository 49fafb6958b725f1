"""Every module-level import in the library is used."""

import ast
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
