"""Rules on the package source itself."""

import ast
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
