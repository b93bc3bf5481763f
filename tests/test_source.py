"""Checks on the package's source text."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src" / "govshapes").glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """The names a module imports at module level and never reads."""
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0]
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport re as regex\nfrom x import a, b as c\n"
                     "def f(p: a) -> None:\n    return os.sep\n")
    assert unused_imports(tree) == ["regex", "c"]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(ast.parse(path.read_text("utf-8"))) == []


def used_names(tree: ast.AST) -> Counter:
    """How often ``tree`` reads or imports each name, names each attribute,
    or holds each word in a string other than a docstring."""
    docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    used: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.alias):
            used[node.name.rpartition(".")[2]] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            used.update(re.findall(r"\w+", node.value))
    return used


def dead_functions(modules: list[ast.Module], others: list[ast.Module]) -> list[str]:
    """The functions and methods, dunders aside, defined in ``modules``
    whose names appear in ``modules`` and ``others`` only inside their own
    definitions."""
    used = sum((used_names(tree) for tree in modules + others), Counter())
    return [node.name for tree in modules for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and used[node.name] == used_names(node)[node.name]]


def test_dead_functions_are_found():
    module = ast.parse(
        "class C:\n"
        "    def __eq__(self, other): return True\n"
        "    def caller(self): return self.called()\n"
        "    def called(self): return 1\n"
        "    def recursive(self): return self.recursive()\n"
        "def by_string(): pass\n"
        "def by_test(): pass\n"
        "def by_docstring():\n"
        "    'by_docstring is no use of it'\n"
        "getattr(C, 'm.by_string')\n")
    test = ast.parse("from m import by_test\n")
    assert dead_functions([module], [test]) == ["by_docstring", "caller", "recursive"]


def test_every_function_is_used():
    # SOURCES is every module under src/, so the tests are the only others
    def trees(paths):
        return [ast.parse(path.read_text("utf-8")) for path in paths]
    assert dead_functions(trees(SOURCES), trees(sorted((ROOT / "tests").glob("*.py")))) == []


def _bound_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement binds, other than by ``def`` or
    ``import``: assignment targets, tuples of them included, and classes."""
    if isinstance(node, ast.ClassDef):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign))
               else [])
    return [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]


def dead_names(modules: list[ast.Module], others: list[ast.Module]) -> list[str]:
    """The names, dunders aside, that ``modules`` bind at module level by
    assignment or class and that appear in ``modules`` and ``others`` only
    in the statements binding them."""
    used = sum((used_names(tree) for tree in modules + others), Counter())
    own: Counter = Counter()  # name -> its appearances in the statements binding it
    for tree in modules:
        for node in tree.body:
            for name in _bound_names(node):
                own[name] += used_names(node)[name]
    return [name for name in own if not (name.startswith("__") and name.endswith("__"))
            and used[name] == own[name]]


def test_dead_names_are_found():
    module = ast.parse(
        "__all__ = ['exported']\n"
        "exported = 1\n"
        "_read = 2\n"
        "_unread = _read + 1\n"
        "_a, (_b, _c) = 1, (2, 3)\n"
        "_alias: type = int\n"
        "_twice = 1\n"
        "_twice = 2\n"
        "_grown = 1\n"
        "_grown += 1\n"
        "class _Self:\n"
        "    kind = 'x'\n"
        "    def make(self): return _Self()\n"
        "class _Tested: pass\n"
        "def f(x: _alias) -> None:\n"
        "    return _a + _c\n")
    test = ast.parse("from m import _Tested\n")
    assert dead_names([module], [test]) == ["_unread", "_b", "_twice", "_grown", "_Self"]


def test_every_module_level_name_is_used():
    def trees(paths):
        return [ast.parse(path.read_text("utf-8")) for path in paths]
    assert dead_names(trees(SOURCES), trees(sorted((ROOT / "tests").glob("*.py")))) == []
