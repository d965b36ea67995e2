"""A class or function defined twice in one scope hides the first definition:
pytest never collects a shadowed test class, and a shadowed helper is dead
code.  Scan the package and its tests for such names."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*ROOT.glob("src/streamdeg/*.py"), *ROOT.glob("tests/*.py")])

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def redefinition_allowed(node: ast.AST) -> bool:
    """``@typing.overload`` stubs and property ``setter``/``deleter`` reuse a name on purpose."""
    for dec in getattr(node, "decorator_list", ()):
        name = dec.attr if isinstance(dec, ast.Attribute) else getattr(dec, "id", None)
        if name in ("overload", "setter", "deleter"):
            return True
    return False


def shadowed_definitions(tree: ast.AST) -> list[tuple[str, int, int]]:
    """``(name, first line, second line)`` for each class or function defined
    again in the same module, class or function body."""
    found = []
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, *DEFINITIONS)):
            continue
        seen: dict[str, int] = {}
        for node in scope.body:
            if not isinstance(node, DEFINITIONS) or redefinition_allowed(node):
                continue
            if node.name in seen:
                found.append((node.name, seen[node.name], node.lineno))
            seen[node.name] = node.lineno
    return found


def test_scan_finds_a_shadowed_class():
    source = "class A:\n    def f(self): pass\n    def f(self): pass\nclass A: pass\n"
    assert sorted(shadowed_definitions(ast.parse(source))) == [("A", 1, 4), ("f", 2, 3)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_name_defined_twice_in_one_scope(path):
    assert shadowed_definitions(ast.parse(path.read_text(), str(path))) == []
