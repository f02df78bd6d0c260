"""Rules on the package source itself."""

import ast
import sys
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
