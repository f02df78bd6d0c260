"""Rules on the package source itself."""

import ast
import importlib
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import interfere

from conftest import package_env

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


def _absolute_imports():
    """("module.py:line", top-level name) of every absolute import in the package."""
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                yield f"{path.relative_to(PACKAGE)}:{node.lineno}", name.partition(".")[0]


def test_stdlib_only_imports():
    """The package has no runtime dependencies: every absolute import names a
    standard-library module."""
    found = [f"{where} {name}" for where, name in _absolute_imports()
             if name not in sys.stdlib_module_names]
    if found:
        pytest.fail(f"imports outside the standard library: {', '.join(found)}")


def test_no_dataclasses():
    """Result types are NamedTuples: importing dataclasses costs every CLI
    process inspect, ast, dis and tokenize at start-up."""
    found = [where for where, name in _absolute_imports() if name == "dataclasses"]
    if found:
        pytest.fail(f"dataclasses imported at: {', '.join(found)}")


def _loaded_modules(code):
    """Names in sys.modules after a fresh interpreter runs code."""
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys; print(*sys.modules)"],
        capture_output=True, text=True, check=True, env=package_env(),
    )
    return set(proc.stdout.split())


def test_cli_import_footprint():
    """Importing the CLI loads no dataclass machinery and no OpenSSL: hashlib
    waits for the first fingerprint."""
    extra = _loaded_modules("import interfere.cli") - _loaded_modules("pass")
    assert "interfere.cli" in extra
    heavy = extra & {"dataclasses", "inspect", "hashlib", "_hashlib"}
    if heavy:
        pytest.fail(f"import interfere.cli loads {', '.join(sorted(heavy))}")


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


def _traced_layers():
    """LAYERS from bench/tracer.py, read from its source: the benchmark's
    per-layer metrics bind these functions by name."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "LAYERS":
            return ast.literal_eval(node.value)
    pytest.fail("bench/tracer.py defines no LAYERS")


def test_traced_names_are_defined():
    """Every name the benchmark's tracer wraps is a function of its layer
    (lru_cache wrappers included), so removing one fails here and not only
    in the benchmark's own tests."""
    found = [
        f"{layer}.{name}"
        for layer, names in _traced_layers().items()
        for name in names
        if not callable(getattr(importlib.import_module(f"interfere.{layer}"), name, None))
    ]
    if found:
        pytest.fail(f"traced names the package does not define: {', '.join(found)}")
