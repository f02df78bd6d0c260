"""Shared helpers for the test suite."""

import io
import json
import contextlib
import os
from pathlib import Path

import pytest

import interfere
from interfere.cli import main as cli_main
from interfere.index_search import _constraints_for, _Kernel


def run_cli(argv):
    """Invoke the command line entry point in-process.

    Returns (exit_code, raw_stdout_text).
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, buf.getvalue()


def run_cli_json(argv):
    code, text = run_cli(argv)
    return code, json.loads(text)


def package_env():
    """os.environ with the package's source directory first on PYTHONPATH,
    for fresh interpreters started by the tests."""
    src = str(Path(interfere.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def target_sets(G, P):
    """The target sets of P on G, the dominating pattern's as its minimal
    dominating sets, which expand_pattern does not list."""
    if P.kind == interfere.Pattern.ALL_DOMINATING:
        return interfere.minimal_dominating_sets(G)
    return interfere.expand_pattern(G, P)


def forced_rule_on_off(G, P, m, budget=10**8):
    """One kernel search at m with neighbor counting on, then off (the forced
    table emptied): [(witness or None, nodes) on, (witness or None, nodes) off].
    Raises NoDominatingSetError when a member of P fails to dominate."""
    constraints = _constraints_for(G, P)
    runs = []
    for on in (True, False):
        kern = _Kernel(G, constraints, m, budget, True)
        if not on:
            kern.forced = []
        runs.append((kern.search(), kern.nodes))
    return runs


@pytest.fixture
def cli():
    return run_cli


@pytest.fixture
def cli_json():
    return run_cli_json
