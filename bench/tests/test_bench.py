"""Tests of the benchmark's own parts: inputs, checker, tracer, metric lists.

    python3 -m pytest bench/tests
"""
import contextlib
import copy
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checker  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def cli_output(argv):
    from interfere.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# inputs

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.operations(workload, 11) == workloads.operations(workload, 11)


def test_seed_relabels_the_same_graphs():
    def degree_sequences(ops):
        seqs = []
        for argv in ops:
            n, adj = checker.parse_graph6(argv[2][len("g6:"):])
            seqs.append(sorted(bin(row).count("1") for row in adj))
        return seqs

    one, two = (workloads.operations("index-sym", seed) for seed in (1, 2))
    assert one != two
    assert degree_sequences(one) == degree_sequences(two)


def test_random_graphs_are_connected_and_twin_free():
    ops = workloads.operations("index-rand", 5)
    assert len(ops) == workloads.RAND_COUNT
    for argv in ops:
        n, adj = checker.parse_graph6(argv[2][len("g6:"):])
        assert n == workloads.RAND_ORDER
        assert checker.is_connected(n, adj)
        assert workloads.is_twin_free(n, adj)


def test_graph6_round_trip_and_agreement_with_the_package():
    from interfere.families import complete_bipartite
    from interfere.graphs import to_graph6

    rng = random.Random(3)
    for n in range(1, 13):
        adj = workloads.random_connected_twin_free(rng, n, 0.5) if n > 3 else [0] * n
        assert checker.parse_graph6(workloads.to_graph6(n, adj)) == (n, adj)
    n, adj = workloads.complete_multipartite((2, 3))
    assert workloads.to_graph6(n, adj) == to_graph6(complete_bipartite(2, 3))


# ---------------------------------------------------------------------------
# checker

K3 = ("index", "--graph", "g6:Bw")
D5 = ("index", "--graph", "g6:Dl{")
K3_REPORT = {
    "command": "index", "defined": True, "index": 3, "lower_bound_used": 2,
    "nodes_explored": 7,
    "trace": [{"m": 2, "found": False, "nodes": 4}, {"m": 3, "found": True, "nodes": 3}],
    "witness": {"ground_set_size": 3, "labels": [[0], [0, 1], [0, 2]]},
}


def test_checker_accepts_real_reports():
    for argv in (K3, ("index", "--graph", "g6:Cs"), D5):  # D5 has no closed form
        checker.check_output(argv, *cli_output(argv))
    checker.check_index(K3, K3_REPORT)


def test_checker_rejects_a_corrupted_witness():
    bad = copy.deepcopy(K3_REPORT)
    bad["witness"]["labels"][1] = [1]  # {0} and {1}: vertex 1 unserved when D = {0}
    with pytest.raises(checker.CheckError, match="fails dominating set"):
        checker.check_index(K3, bad)
    bad["witness"]["labels"][1] = [0]
    with pytest.raises(checker.CheckError, match="distinct"):
        checker.check_index(K3, bad)


def test_checker_rejects_a_wrong_index():
    # A valid witness on 4 elements, but K3's index is ceil(log2 6) = 3.
    wrong = copy.deepcopy(K3_REPORT)
    wrong.update(index=4, nodes_explored=9, trace=[
        {"m": 2, "found": False, "nodes": 4}, {"m": 3, "found": False, "nodes": 3},
        {"m": 4, "found": True, "nodes": 2}])
    wrong["witness"] = {"ground_set_size": 4, "labels": [[0], [0, 1], [0, 3]]}
    with pytest.raises(checker.CheckError, match="closed form"):
        checker.check_index(K3, wrong)
    # A 5-vertex graph with no closed form, index 3 = ceil(log2 6) at the
    # injectivity bound; claimed as 4 with no phase refuting 3.
    unrefuted = {
        "command": "index", "defined": True, "index": 4, "lower_bound_used": 4,
        "nodes_explored": 7, "trace": [{"m": 4, "found": True, "nodes": 7}],
        "witness": {"ground_set_size": 4, "labels": [[0], [0, 1], [1, 2], [0, 2], [0, 1, 2]]},
    }
    with pytest.raises(checker.CheckError, match="without refuting"):
        checker.check_index(D5, unrefuted)
    weak = copy.deepcopy(K3_REPORT)
    weak["lower_bound_used"] = 1
    with pytest.raises(checker.CheckError, match="at least 2"):
        checker.check_index(K3, weak)


def test_checker_accepts_a_stronger_reported_lower_bound():
    # K3's index 3 is above the injectivity bound 2.  A program that proves
    # 3 structurally reports it as its bound and searches no m = 2 phase.
    raised = copy.deepcopy(K3_REPORT)
    raised.update(lower_bound_used=3, nodes_explored=3,
                  trace=[{"m": 3, "found": True, "nodes": 3}])
    checker.check_index(K3, raised)


def test_checker_rejects_failed_or_mismatched_sweeps():
    argv = ("sweep", "--suite", "lg-injectivity", "--max-n", "7")
    good = {"ok": True, "mismatch_count": 0, "graph_count": 995, "check_count": 995}
    checker.check_output(argv, 0, json.dumps(good))
    with pytest.raises(checker.CheckError):
        checker.check_output(argv, 3, json.dumps(good))
    for change in ({"ok": False, "mismatch_count": 1}, {"check_count": 994}):
        with pytest.raises(checker.CheckError):
            checker.check_output(argv, 0, json.dumps({**good, **change}))


def test_checker_rejects_short_or_repeated_catalogs():
    argv = ("gen", "--catalog", "7", "--connected")
    word = workloads.to_graph6(*workloads.complete_multipartite((1,) * 7))
    with pytest.raises(checker.CheckError, match="repeats"):
        checker.check_output(argv, 0, f"{word}\n{word}\n")
    with pytest.raises(checker.CheckError, match="expected 853"):
        checker.check_output(argv, 0, f"{word}\n")


# ---------------------------------------------------------------------------
# tracer

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_total_minus_traced_children():
    clock = FakeClock()
    tr = tracer.Tracer(clock)

    def inner():
        clock.now += 2

    inner = tr.wrap("inner", inner)

    def outer():
        clock.now += 1
        inner()
        clock.now += 3
        inner()

    tr.wrap("outer", outer)()
    assert (tr.stats["outer"].calls, tr.stats["outer"].total, tr.stats["outer"].self) == (1, 8, 4)
    assert (tr.stats["inner"].calls, tr.stats["inner"].total, tr.stats["inner"].self) == (2, 4, 4)


def test_self_time_of_recursion_and_raising_calls():
    clock = FakeClock()
    tr = tracer.Tracer(clock)

    def rec(k):
        clock.now += 1
        if k:
            rec(k - 1)

    rec = tr.wrap("rec", rec)

    def boom():
        clock.now += 5
        raise KeyError

    boom = tr.wrap("boom", boom)

    def caller():
        rec(2)
        with contextlib.suppress(KeyError):
            boom()
        clock.now += 1

    tr.wrap("caller", caller)()
    assert (tr.stats["rec"].calls, tr.stats["rec"].self) == (3, 3)
    assert tr.stats["rec"].total == 3 + 2 + 1  # nested calls counted again
    assert (tr.stats["boom"].calls, tr.stats["boom"].self) == (1, 5)
    assert (tr.stats["caller"].total, tr.stats["caller"].self) == (9, 1)


def test_traced_wraps_every_binding_and_restores_it():
    import interfere.cli as cli
    import interfere.core as core
    import interfere.index_search as index_search
    import interfere.neighborhood as neighborhood

    original = cli.neighborhood_interference_of
    tr = tracer.Tracer()
    with tracer.traced(tr):
        assert cli.neighborhood_interference_of is neighborhood.neighborhood_interference_of
        assert cli.neighborhood_interference_of is not original
        assert index_search.is_pattern_interference is core.is_pattern_interference
        cli_output(K3)
    assert cli.neighborhood_interference_of is original
    assert tr.stats["cli.main"].calls == 1
    assert tr.stats["index_search.interference_index"].calls == 1
    assert tr.stats["core.is_pattern_interference"].calls == 1
    total_self = sum(s.self for s in tr.stats.values())
    assert total_self == pytest.approx(tr.stats["cli.main"].total)


# ---------------------------------------------------------------------------
# the run itself

def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "index-sym", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
