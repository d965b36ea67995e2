"""Scans of the package's names.

A class or function defined twice in one scope hides the first definition:
pytest never collects a shadowed test class, and a shadowed helper is dead
code.  Scan the package and its tests for such names.

A definition in the package that no program code names is API only tests
call; it belongs with the tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*ROOT.glob("src/streamdeg/*.py"), *ROOT.glob("tests/*.py")])
PACKAGE = sorted(p for p in ROOT.glob("src/streamdeg/*.py") if p.name != "__init__.py")
PROGRAMS = PACKAGE + sorted([*ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*.py")])
PROGRAMS.remove(ROOT / "perfbench" / "test_smoke.py")
# the two-sample KS test is the reference that tests hold ks_similarity_report to
TEST_REFERENCES = {"ks_two_sample"}

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


def defined_names(tree: ast.AST) -> set[str]:
    """Every class, function and method defined at any depth, dunders aside."""
    return {node.name for node in ast.walk(tree) if isinstance(node, DEFINITIONS)
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def used_names(tree: ast.AST) -> set[str]:
    """Every name read, called or imported."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
    return found


def parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), str(path))


def test_scan_finds_a_shadowed_class():
    source = "class A:\n    def f(self): pass\n    def f(self): pass\nclass A: pass\n"
    assert sorted(shadowed_definitions(ast.parse(source))) == [("A", 1, 4), ("f", 2, 3)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_name_defined_twice_in_one_scope(path):
    assert shadowed_definitions(parse(path)) == []


def test_scan_finds_an_unnamed_definition():
    source = "class A:\n    def f(self): pass\n    def __eq__(self, o): pass\ndef g(): return A\n"
    tree = ast.parse(source)
    assert defined_names(tree) - used_names(tree) == {"f", "g"}


def test_every_package_definition_is_named_by_program_code():
    defined = set().union(*(defined_names(parse(p)) for p in PACKAGE))
    used = set().union(*(used_names(parse(p)) for p in PROGRAMS))
    assert defined - used == TEST_REFERENCES
