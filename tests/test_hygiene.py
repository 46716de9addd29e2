"""Source checks that no behavioural test makes.

A second module-level or class-level `def` or `class` of the same name
silently replaces the first: a test defined twice runs only its last
copy, and a function defined twice keeps only its last body. A
module-level import in the package whose name the module never reads is
dead code, and often the trace of a deleted use; an import kept for
others to find (a re-export) is marked `# noqa: F401`. A board's kernel
state is built in one place, `Board.__post_init__`: no other package
module reads the fields it is built from.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "cogchess").rglob("*.py"))
SOURCES = sorted([*PACKAGE, *(ROOT / "tests").rglob("*.py")])


def redefined(tree: ast.Module) -> list:
    """`(scope, name)` for each name a module or class body defines by
    `def` or `class` more than once."""
    found = []
    scopes = [("<module>", tree)] + [
        (node.name, node) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    for scope, node in scopes:
        names = Counter(child.name for child in node.body if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
        found += [(scope, name) for name, count in names.items() if count > 1]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_name_defined_twice(path):
    assert redefined(ast.parse(path.read_text(), str(path))) == []


def test_redefinition_is_caught():
    tree = ast.parse("def f(): pass\nclass C:\n    def g(self): pass\n"
                     "    def g(self): pass\ndef f(): pass\n")
    assert redefined(tree) == [("<module>", "f"), ("C", "g")]


def unused_imports(source: str) -> list:
    """The names that module-level imports of `source` bind and that the
    module never reads, except from `__future__` or on a line marked
    `# noqa: F401`. Imports inside a `def` or `class` are not module-level."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    found = []
    todo = list(tree.body)
    while todo:
        node = todo.pop(0)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            text = "\n".join(lines[node.lineno - 1:node.end_lineno])
            if "# noqa: F401" not in text and getattr(node, "module", None) != "__future__":
                names = (alias.asname or alias.name.split(".")[0] for alias in node.names)
                found += [name for name in names if name not in read]
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_caught():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport re as regex\n"
              "from json import dumps, loads  # noqa: F401\n"
              "try:\n    from math import pi, tau\nexcept ImportError:\n    pass\n"
              "def f():\n    import sys\n    return tau\n")
    assert unused_imports(source) == ["os", "regex", "pi"]


def kernel_state_reads(source: str) -> list:
    """`(line, name)` for each read of a board's `_stm`, `_ep` or
    `castling.mask` in `source`: the fields `Board._state` is built from."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Attribute):
            continue
        if node.attr in ("_stm", "_ep"):
            found.append((node.lineno, node.attr))
        elif node.attr == "mask" and "castling" in (
                getattr(node.value, "attr", None), getattr(node.value, "id", None)):
            found.append((node.lineno, "castling.mask"))
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "board.py"],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_only_board_reads_the_kernel_fields(path):
    assert kernel_state_reads(path.read_text()) == []


def test_kernel_field_read_is_caught():
    source = ("def f(b, castling, mask):\n"
              "    return (b._squares, b._stm, b.castling.mask, b._ep,\n"
              "            b._state, castling.mask, mask, b.mask)\n")
    assert kernel_state_reads(source) == [
        (2, "_ep"), (2, "_stm"), (2, "castling.mask"), (3, "castling.mask")]
