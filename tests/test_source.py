"""Rules on the package source itself."""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

import interfere

PACKAGE = Path(interfere.__file__).parent


def test_no_assert_statements():
    """Guards raise real errors: python -O strips every assert statement."""
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    if found:  # not an assert, so the check also runs under -O
        pytest.fail(f"assert statements in the package: {', '.join(found)}")


def test_stdlib_only_imports():
    """The package has no runtime dependencies: every absolute import names a
    standard-library module."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.relative_to(PACKAGE)}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    if found:
        pytest.fail(f"imports outside the standard library: {', '.join(found)}")


# Functions and methods that no package module calls: the public ones are
# part of the API the README's module table documents (the catalog by order,
# the existence search at one m, the isomorphism certificate, which
# bench/tracer.py also binds by name); argparse calls the parser's error and
# print_help hooks.
ENTRY_POINTS = (
    "catalog.certificate",
    "catalog.graphs_upto",
    "cli._Parser.error",
    "cli._Parser.print_help",
    "index_search.exists_interference",
)


def _names_used(node):
    """Names read (as a variable or an attribute) anywhere under node."""
    return [
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if (isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load))
        or isinstance(sub, ast.Attribute)
    ]


def _functions(module, tree):
    """(qualified name, node) of each top-level function and of each method
    of a top-level class, dunder methods left out."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                    yield f"{module}.{node.name}.{sub.name}", sub


def test_every_function_has_a_caller():
    """Every top-level function and every method of a package class is read
    by package code outside its own body (re-exports in __init__.py do not
    count), or is a listed entry point.  Dunder methods are exempt.  Helpers
    that only tests use belong in tests/oracles.py."""
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    used = Counter(name for tree in trees.values() for name in _names_used(tree))
    defined, found = set(), []
    for module, tree in trees.items():
        for name, node in _functions(module, tree):
            defined.add(name)
            own = _names_used(node).count(node.name)  # recursion is not a caller
            if used[node.name] == own and name not in ENTRY_POINTS:
                found.append(name)
    found += [f"{name} (listed, not defined)" for name in ENTRY_POINTS if name not in defined]
    if found:
        pytest.fail(f"functions no package module uses: {', '.join(found)}")
