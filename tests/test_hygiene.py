"""Source checks that no behavioural test makes.

A second module-level or class-level `def` or `class` of the same name
silently replaces the first: a test defined twice runs only its last
copy, and a function defined twice keeps only its last body.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "cogchess").rglob("*.py"),
                  *(ROOT / "tests").rglob("*.py")])


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
