"""Command line interface: formats, exit codes, determinism."""

import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import interfere as itf
from interfere.cli import SCHEMA, _SUITES
from interfere.index_search import DEFAULT_BUDGET

from conftest import package_env, run_cli, run_cli_json

OK, USAGE, BUDGET, FORMAT = 0, 2, 3, 4


def strip_timing(obj):
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k != "timing"}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


class TestGen:
    def test_family_graph6(self):
        code, out = run_cli(["gen", "--graph", "wheel:5"])
        assert code == OK and out == "Ehfw\n"

    def test_family_edges(self):
        code, out = run_cli(["gen", "--graph", "path:3", "--format", "edges"])
        assert code == OK and out == "3\n0 1\n1 2\n"

    def test_family_flag_is_retired(self):
        # --graph takes every family spec; the second spelling is gone
        code, obj = run_cli_json(["gen", "--family", "wheel:5"])
        assert code == USAGE and obj["error"]["kind"] == "usage"

    def test_graph_spec_passthrough(self):
        code, out = run_cli(["gen", "--graph", "g6:Ehfw"])
        assert code == OK and out == "Ehfw\n"

    def test_catalog_lines(self):
        code, out = run_cli(["gen", "--catalog", "4", "--connected"])
        assert code == OK
        words = out.split()
        assert len(words) == 6
        assert all(itf.from_graph6(w).n == 4 for w in words)

    def test_connected_catalog_below_order_one_fails_as_the_full_one(self):
        # the connected level is built on its own, with the same order check
        assert run_cli(["gen", "--catalog", "0", "--connected"]) == run_cli(["gen", "--catalog", "0"])
        code, obj = run_cli_json(["gen", "--catalog", "0", "--connected"])
        assert code == USAGE and obj["error"]["kind"] == "usage"

    def test_catalog_rejects_edge_format(self):
        code, out = run_cli(["gen", "--catalog", "3", "--format", "edges"])
        assert code == USAGE

    # --connected filters the catalog, so with a single graph it would be
    # silently ignored
    @pytest.mark.parametrize("argv", [
        ["--graph", "g6:Bw", "--connected"],
        ["--graph", "path:3", "--connected"],
    ], ids=["graph", "family"])
    def test_connected_without_catalog_is_usage(self, argv):
        code, obj = run_cli_json(["gen", *argv])
        assert code == USAGE
        assert obj["error"] == {"kind": "usage",
                                "message": "--connected applies only with --catalog"}

    def test_file_spec(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("3\n0 1\n1 2\n")
        code, out = run_cli(["gen", "--graph", f"file:{p}"])
        assert code == OK and out.strip() == itf.to_graph6(itf.path(3))

    def test_bad_graph6_is_a_format_error(self):
        code, out = run_cli(["gen", "--graph", "g6:B!"])
        assert code == FORMAT
        err = json.loads(out)["error"]
        assert err["kind"] == "format"
        assert "graph6" in err["message"]

    def test_unknown_family_is_format_error(self):
        # Anything malformed inside a graph spec string is a format problem,
        # same exit class as an unparseable graph6 word.
        code, _ = run_cli(["gen", "--graph", "moebius:5"])
        assert code == FORMAT


class TestDomsets:
    def test_minimal_anchor(self):
        code, out = run_cli(["domsets", "--graph", "path:3"])
        assert code == OK and json.loads(out) == [[1], [0, 2]]

    def test_all_kind(self):
        code, out = run_cli(["domsets", "--graph", "path:3", "--kind", "all"])
        got = json.loads(out)
        assert code == OK
        assert [1] in got and [0, 1, 2] in got and [0] not in got


class TestCheck:
    def test_builtin_complete_labeling_with_pattern(self):
        code, obj = run_cli_json(
            ["check", "--graph", "complete:3", "--labeling", "complete",
             "--pattern", "min-dominating"]
        )
        assert code == OK
        assert obj["labeling_valid"] and obj["verdict"]
        # the dominating pattern is decided per vertex: there is no family to count
        assert obj["sets_checked"] is None and obj["violations"] == []

    @pytest.mark.parametrize("spec", ["path:17", "cycle:20"])
    def test_dominating_pattern_has_no_order_cap(self, spec, tmp_path):
        argv = ["check", "--graph", spec, "--pattern", "all-dominating", "--labeling"]
        code, obj = run_cli_json(argv + ["complete"])
        assert code == OK and obj["verdict"] is True and obj["sets_checked"] is None
        # disjoint labels leave the overlap graph edgeless: V minus {u} is a
        # dominating set missed at u, one violation per vertex
        G = itf.parse_family_spec(spec)
        lab = tmp_path / "lab.json"
        lab.write_text(json.dumps({"ground_set_size": G.n, "labels": [[v] for v in G.vertices()]}))
        code, obj = run_cli_json(argv + [str(lab)])
        assert code == OK and obj["verdict"] is False
        assert obj["violations"] == [
            {"set": [v for v in G.vertices() if v != u], "vertex": u,
             "candidates": itf.bit_list(G.adj[u])}
            for u in G.vertices()
        ]

    def test_explicit_sets_and_violation_report(self, tmp_path):
        lab = tmp_path / "lab.json"
        lab.write_text(json.dumps(
            {"ground_set_size": 2, "labels": [[0], [1], [0, 1]]}
        ))
        code, obj = run_cli_json(
            ["check", "--graph", "complete:3", "--labeling", str(lab),
             "--set", "0", "--set", "1,2"]
        )
        assert code == OK
        assert obj["sets_checked"] == 2
        assert not obj["verdict"]
        assert obj["violations"] == [
            {"set": [0], "vertex": 1, "candidates": [0]}
        ]

    def test_invalid_labeling_checks_no_set(self, tmp_path):
        lab = tmp_path / "lab.json"
        lab.write_text(json.dumps({"ground_set_size": 2, "labels": [[0], [0], [1]]}))
        code, obj = run_cli_json(
            ["check", "--graph", "complete:3", "--labeling", str(lab), "--set", "0"]
        )
        assert code == OK
        assert obj["labeling_valid"] is False and obj["sets_checked"] == 1
        assert obj["verdict"] is False and obj["violations"] == []

    def test_malformed_labeling_json_is_format_error(self, tmp_path):
        lab = tmp_path / "lab.json"
        lab.write_text(json.dumps({"labels": [[0]]}))
        code, out = run_cli(
            ["check", "--graph", "complete:3", "--labeling", str(lab), "--set", "0"]
        )
        assert code == FORMAT

    @pytest.mark.parametrize("labeling", [
        {"ground_set_size": 2, "labels": 5},
        {"ground_set_size": 2, "labels": [5, [1], [0]]},
        {"ground_set_size": 2, "labels": [[True], [1], [0, 1]]},
        {"ground_set_size": True, "labels": [[0]]},
    ])
    def test_mistyped_labeling_is_format_error(self, tmp_path, labeling):
        lab = tmp_path / "lab.json"
        lab.write_text(json.dumps(labeling))
        code, out = run_cli(
            ["check", "--graph", "complete:3", "--labeling", str(lab), "--set", "0"]
        )
        assert code == FORMAT
        assert json.loads(out)["error"]["kind"] == "format"

    @pytest.mark.parametrize("text", ["[[true]]", "[[-1]]"])
    def test_boolean_pattern_vertex_is_format_error(self, tmp_path, text):
        sets = tmp_path / "sets.json"
        sets.write_text(text)
        code, out = run_cli(
            ["check", "--graph", "complete:3", "--labeling", "complete",
             "--pattern", f"explicit:{sets}"]
        )
        assert code == FORMAT
        assert json.loads(out)["error"]["kind"] == "format"

    @pytest.mark.parametrize("argv", [
        ["nbd", "--graph", "cycle:5", "--singleton", "5"],
        ["nbd", "--graph", "cycle:5", "--allbut", "5"],
        ["nbd", "--graph", "cycle:5", "--set", "0,5"],
        ["dpd", "--graph", "cycle:5", "--set", "5"],
    ])
    def test_vertex_guard_message(self, argv):
        code, obj = run_cli_json(argv)
        assert code == USAGE
        assert obj["error"]["message"] == "vertex 5 out of range for order 5"

    @pytest.mark.parametrize("graph, pattern", [
        ("wheel:5", "explicit:hub.json"),
        ("kpq:3,4", "cross-pairs"),
        ("complete:4", "singletons"),
        ("g6:MFy{O}vst]BZ~syp?", "all-dominating"),  # G(14,0.7)#0
    ])
    def test_index_witness_passes_check(self, graph, pattern, tmp_path, monkeypatch):
        # the labeling file check reads is the witness index writes
        monkeypatch.chdir(tmp_path)
        (tmp_path / "hub.json").write_text("[[5]]")
        code, obj = run_cli_json(["index", "--graph", graph, "--pattern", pattern])
        assert code == OK and obj["defined"] is True
        (tmp_path / "witness.json").write_text(json.dumps(obj["witness"]))
        code, obj = run_cli_json(["check", "--graph", graph, "--pattern", pattern,
                                  "--labeling", "witness.json"])
        assert code == OK
        assert obj["labeling_valid"] is True and obj["verdict"] is True

    def test_vertex_out_of_range_is_usage(self):
        code, out = run_cli(
            ["check", "--graph", "complete:3", "--labeling", "complete", "--set", "9"]
        )
        assert code == USAGE
        assert "out of range" in json.loads(out)["error"]["message"]


class TestIndex:
    def test_complete_graph_anchor(self):
        code, obj = run_cli_json(
            ["index", "--graph", "complete:4", "--pattern", "singletons"]
        )
        assert code == OK
        assert obj["defined"] is True
        assert obj["index"] == 3
        assert obj["witness"]["labels"] == [[0], [0, 1], [0, 2], [0, 1, 2]]
        assert obj["trace"][-1]["found"] is True

    def test_undefined_is_still_exit_zero(self, tmp_path):
        sets = tmp_path / "sets.json"
        sets.write_text(json.dumps([[0]]))
        code, obj = run_cli_json(
            ["index", "--graph", "path:3", "--pattern", f"explicit:{sets}"]
        )
        assert code == OK
        assert obj["defined"] is False and "reason" in obj

    def test_max_m_is_not_an_option(self):
        code, obj = run_cli_json(["index", "--graph", "path:3", "--max-m", "3"])
        assert code == USAGE and obj["error"]["kind"] == "usage"

    def test_cross_pairs_on_bipartite_graph(self):
        code, obj = run_cli_json(["index", "--graph", "kpq:2,3", "--pattern", "cross-pairs"])
        assert code == OK
        assert obj["defined"] is True and obj["index"] == 3

    def test_cross_pairs_needs_bipartite_graph(self):
        code, obj = run_cli_json(["index", "--graph", "cycle:5", "--pattern", "cross-pairs"])
        assert code == USAGE
        assert "cross-pairs needs a bipartite graph" in obj["error"]["message"]

    def test_budget_flag_exits_three(self):
        code, out = run_cli(
            ["index", "--graph", "complete:9", "--pattern", "all-dominating",
             "--budget", "3"]
        )
        assert code == BUDGET
        assert json.loads(out)["error"]["kind"] == "budget"

    def test_dominating_pattern_cap_exits_three(self):
        # the constraints are read off N(u), under the enumerations' order-16 cap
        for pattern in ("all-dominating", "min-dominating"):
            code, obj = run_cli_json(["index", "--graph", "path:17", "--pattern", pattern])
            assert code == BUDGET
            assert obj["error"] == {"kind": "budget",
                                    "message": "dominating_constraints: n=17 exceeds cap 16"}

    def test_budget_message_names_the_given_budget(self):
        # refuting m=4 takes 98 nodes; m=5 is the construction's and takes none
        code, obj = run_cli_json(["index", "--graph", "complete:9", "--budget", "5"])
        assert code == BUDGET
        assert obj["error"]["message"] == "node budget 5 exhausted at m=4"

    def test_negative_budget_is_usage(self):
        # complete:4 needs no search, so no budget can run out there
        argv = ["index", "--graph", "complete:4"]
        code, obj = run_cli_json(argv + ["--budget", "-5"])
        assert code == USAGE
        assert obj["error"] == {"kind": "usage", "message": "node budget must be >= 0, got -5"}
        code, obj = run_cli_json(argv + ["--budget", "0"])
        assert code == OK and obj["index"] == 3 and obj["nodes_explored"] == 0

    def test_search_depth_is_not_bounded_by_the_recursion_limit(self, tmp_path):
        # One search level per vertex: star:1000 ran out of frames under the
        # default limit, and star:200 needs more than the 150 frames left here.
        sets = tmp_path / "sets.json"
        sets.write_text(json.dumps([[0]]))
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 150)
        try:
            code, obj = run_cli_json(
                ["index", "--graph", "star:200", "--pattern", f"explicit:{sets}"]
            )
        finally:
            sys.setrecursionlimit(limit)
        assert code == OK
        assert obj["index"] == 8 and obj["nodes_explored"] == 201

    def test_budget_env(self, monkeypatch):
        # the budget comes from --budget alone: INTERFERE_BUDGET is not read
        monkeypatch.setenv("INTERFERE_BUDGET", "2")
        code, obj = run_cli_json(["index", "--graph", "complete:9", "--pattern", "all-dominating"])
        assert code == OK and obj["index"] == 5
        assert obj["budget"] == DEFAULT_BUDGET


class TestBrm:
    def test_table_value(self):
        code, obj = run_cli_json(["brm", "--r", "2", "--m", "4"])
        assert code == OK and obj["value"] == 12

    def test_krs(self):
        code, obj = run_cli_json(["brm", "--krs", "2,5"])
        assert code == OK
        assert obj["index"] == 4
        assert obj["upper_bound"] == 4
        assert obj["side_index"] == 3

    def test_cap_exit(self):
        code, out = run_cli(["brm", "--r", "2", "--m", "9"])
        assert code == BUDGET

    def test_krs_cap_exit(self):
        code, obj = run_cli_json(["brm", "--krs", "4,57"])
        assert code == BUDGET and obj["error"]["kind"] == "budget"

    def test_requires_some_mode(self):
        code, _ = run_cli(["brm"])
        assert code == USAGE


class TestNbd:
    def test_complete_mode(self):
        code, obj = run_cli_json(["nbd", "--graph", "wheel:5", "--complete"])
        assert code == OK and obj["verdict"] is True
        assert obj["rule"] == "open_complete"

    def test_wheel_four_singleton_center(self):
        code, obj = run_cli_json(["nbd", "--graph", "wheel:4", "--singleton", "4"])
        assert code == OK and obj["verdict"] is False
        assert obj["trace"]["injective"] is False

    def test_complemented_set(self):
        code, obj = run_cli_json(
            ["nbd", "--graph", "cycle:5", "--labeling", "complemented", "--set", "0"]
        )
        assert code == OK and obj["verdict"] is True
        assert obj["rule"] == "complemented_set"

    def test_complemented_complete_reports_rule(self):
        code, obj = run_cli_json(
            ["nbd", "--graph", "cycle:5", "--labeling", "complemented", "--complete"]
        )
        assert code == OK and obj["verdict"] is True
        assert obj["trace"]["sufficient_rule"] == "regular"

    def test_closed_selfcheck(self):
        code, obj = run_cli_json(["nbd", "--graph", "path:3", "--labeling", "closed", "--complete"])
        assert code == OK and obj["verdict"] is True
        code, obj = run_cli_json(["nbd", "--graph", "complete:2", "--labeling", "closed", "--complete"])
        assert code == OK and obj["verdict"] is False
        assert obj["trace"]["reason"] == "NOT_INJECTIVE"

    def test_closed_complete_needs_no_enumeration(self):
        # order 17 is past the minimal-dominating-set cap, yet the verdict
        # only asks for distinct closed neighborhoods
        code, obj = run_cli_json(["nbd", "--graph", "path:17", "--labeling", "closed", "--complete"])
        assert code == OK and obj["verdict"] is True
        assert obj["trace"] == {"injective": True, "has_empty_label": False, "reason": None}

    def test_disconnected_targets_are_decided(self):
        # every labeling decides {v} and V minus {v} on 2K2 and P4 u P4 with
        # its per-set criterion, and agrees with the definitional oracle
        labelings = {"open": itf.neighborhood_labeling,
                     "complemented": itf.complemented_labeling,
                     "closed": itf.closed_labeling}
        got = {}
        for labeling, build in labelings.items():
            for spec, G in (("matching:2", itf.matching(2)),
                            ("g6:Gh?GGC", itf.from_graph6("Gh?GGC"))):
                rep = build(G)
                host = G if labeling == "closed" else itf.complete(G.n)
                for flag in ("--singleton", "--allbut"):
                    for v in (0, 1):
                        D = 1 << v if flag == "--singleton" else G.full_mask & ~(1 << v)
                        code, obj = run_cli_json(
                            ["nbd", "--graph", spec, "--labeling", labeling, flag, str(v)])
                        assert code == OK, obj
                        want = rep.valid and itf.is_interference(host, D, rep.labeling)
                        assert obj["verdict"] is want, (labeling, spec, flag, v)
                        got[labeling, spec, flag, v] = want
        assert got["open", "matching:2", "--allbut", 0] is False
        assert got["open", "g6:Gh?GGC", "--allbut", 0] is True
        assert all(want for (labeling, *_), want in got.items() if labeling == "complemented")

    # on C5 the open labeling serves {0, 1} but not {0, 2}: vertex 1's label
    # {0, 2} misses {1, 4} and {1, 3}; on P4 {0, 2} dominates and {0} does not
    @pytest.mark.parametrize("labeling, graph, target, verdict", [
        ("open", "cycle:5", "0,1", True),
        ("open", "cycle:5", "0,2", False),
        ("closed", "path:4", "0,2", True),
        ("closed", "path:4", "0", False),
    ])
    def test_set_mode(self, labeling, graph, target, verdict):
        code, obj = run_cli_json(["nbd", "--graph", graph, "--labeling", labeling, "--set", target])
        assert code == OK
        assert obj["rule"] == f"{labeling}_set" and obj["verdict"] is verdict

    @pytest.mark.parametrize("labeling", ["open", "complemented", "closed"])
    def test_allbut_on_order_one_is_usage(self, labeling):
        code, obj = run_cli_json(
            ["nbd", "--graph", "complete:1", "--labeling", labeling, "--allbut", "0"]
        )
        assert code == USAGE
        assert obj["error"]["message"] == "the all-but-one set is empty on an order-1 graph"


class TestLinegraph:
    def test_injective(self):
        code, obj = run_cli_json(["linegraph", "--graph", "path:4", "--check", "injective"])
        assert code == OK and obj["verdict"] is False
        assert obj["obstructions"] == [["sandwich", [0, 1, 2, 3]]]

    def test_interference_with_edge_set(self):
        # In L(C6) the label of edge 1-2 is {01, 23}, disjoint from the labels
        # of both of its matching neighbors, so this target set fails.
        code, obj = run_cli_json(
            ["linegraph", "--graph", "cycle:6", "--check", "interference",
             "--edge-set", "0-1", "2-3", "4-5"]
        )
        assert code == OK
        assert obj["verdict"] is False and "oracle_agrees" not in obj
        # An adjacent pair plus the opposite edge does interfere.
        code, obj = run_cli_json(
            ["linegraph", "--graph", "cycle:6", "--check", "interference",
             "--edge-set", "0-1", "1-2", "3-4"]
        )
        assert code == OK
        assert obj["verdict"] is True

    def test_complete_pentagon_fails_triangle_clause(self):
        code, obj = run_cli_json(["linegraph", "--graph", "cycle:5", "--check", "complete"])
        assert code == OK
        assert obj["verdict"] is False and "undetermined" not in obj
        assert obj["clauses"] == {
            "no_sandwich": True, "line_diameter_le_2": True, "degree_two_on_triangle": False
        }

    def test_rules(self):
        code, obj = run_cli_json(["linegraph", "--graph", "kpq:4,4", "--check", "rules"])
        assert code == OK
        assert obj["rules"]["regular"] is True
        assert obj["rules"]["independence"] is False
        assert obj["rule"] == "regular" and obj["verdict"] is True
        # order 18: the rule is decided by a vertex-cover test, with no order cap
        code, obj = run_cli_json(["linegraph", "--graph", "kpq:9,9", "--check", "rules"])
        assert code == OK and obj["verdict"] is True
        assert obj["rules"]["independence"] is True

    def test_cnbd_needs_no_connected_order_five(self, tmp_path):
        code, obj = run_cli_json(["linegraph", "--graph", "path:4", "--check", "cnbd",
                                  "--edge-set", "0-1"])
        assert code == OK and obj["verdict"] is False
        p3_p3 = tmp_path / "p3p3.txt"
        p3_p3.write_text("6\n0 1\n1 2\n3 4\n4 5\n")
        code, obj = run_cli_json(["linegraph", "--graph", f"file:{p3_p3}", "--check", "cnbd",
                                  "--edge-set", "0-1"])
        assert code == OK and obj["verdict"] is True

    def test_unknown_edge_is_usage(self):
        code, _ = run_cli(
            ["linegraph", "--graph", "path:4", "--check", "interference",
             "--edge-set", "0-2"]
        )
        assert code == USAGE


class TestDpd:
    def test_path_construction_anchor(self):
        code, obj = run_cli_json(["dpd", "--graph", "path:9", "--path-construction"])
        assert code == OK
        assert obj["markers"] == [0, 1, 3, 6]
        assert obj["dpd"] is True and obj["interference"] is True

    def test_explicit_marker_set(self):
        code, obj = run_cli_json(["dpd", "--graph", "path:3", "--set", "1"])
        assert code == OK
        assert obj["dpd"] is False and obj["interference"] is False

    def test_disconnected_is_usage(self):
        code, obj = run_cli_json(["dpd", "--graph", "matching:2", "--set", "0"])
        assert code == USAGE
        assert obj["error"] == {"kind": "hypothesis",
                                "message": "distance patterns need a connected graph"}


def _drop_first_edge(two_path_graph):
    def wrong(G):
        T = two_path_graph(G)
        return T if T is None or not T.edges else itf.Graph(T.n, T.edges[1:])
    return wrong


def _negate(real):
    return lambda G: not real(G)


def _negate_injective(real):
    def wrong(G):
        rep = real(G)
        return rep._replace(injective=not rep.injective)
    return wrong


def _lowest_dropped(D):
    """D less its lowest vertex, and D itself when that leaves nothing."""
    return D & (D - 1) or D


def _family_of_lowest_dropped(complemented_escape_family):
    """The table made wrong: bit D read at D less its lowest vertex."""
    def wrong(G):
        fam = complemented_escape_family(G)
        return sum(1 << D for D in range(1, 1 << G.n) if fam >> _lowest_dropped(D) & 1)
    return wrong


# What each sweep suite compares with its oracle, each made wrong:
# cli name -> (suite, wrong version of the real function)
WRONG_CRITERIA = {
    "two_path_graph": ("nbd-oracle", _drop_first_edge),
    "complemented_escape_family": ("nbd-oracle", _family_of_lowest_dropped),
    "neighborhood_complete": ("nbd-oracle", _negate),
    "complemented_complete": ("nbd-oracle", _negate),
    "line_injectivity_report": ("lg-injectivity", _negate_injective),
}


class TestSweep:
    def test_nbd_oracle_small(self):
        code, obj = run_cli_json(["sweep", "--suite", "nbd-oracle", "--max-n", "4"])
        assert code == OK
        assert obj["ok"] is True and obj["mismatch_count"] == 0
        assert obj["graph_count"] == 10  # connected graphs on 2..4 vertices

    def test_lg_injectivity_small(self):
        code, obj = run_cli_json(["sweep", "--suite", "lg-injectivity", "--max-n", "4"])
        assert code == OK and obj["ok"] is True

    def test_index_kn(self):
        # the K_n doubling law is tested in test_index.py; the suite is gone
        code, obj = run_cli_json(["sweep", "--suite", "index-kn", "--max-n", "5"])
        assert code == USAGE
        assert obj["error"]["kind"] == "usage"
        assert "invalid choice: 'index-kn'" in obj["error"]["message"]

    def test_graphs_file(self, tmp_path):
        p = tmp_path / "graphs.g6"
        p.write_text("Bw\nBg\n")
        code, obj = run_cli_json(
            ["sweep", "--suite", "nbd-oracle", "--graphs-file", str(p)]
        )
        assert code == OK and obj["graph_count"] == 2 and obj["ok"] is True

    # a file replaces the catalog, so no order bound played a part
    @pytest.mark.parametrize("suite", sorted(_SUITES))
    @pytest.mark.parametrize("extra", [[], ["--max-n", "0"], ["--max-n", "7"]],
                             ids=["default", "max-n-0", "max-n-7"])
    def test_graphs_file_reports_no_max_n(self, tmp_path, suite, extra):
        p = tmp_path / "graphs.g6"
        p.write_text("Bw\nBg\n")
        code, obj = run_cli_json(["sweep", "--suite", suite, "--graphs-file", str(p)] + extra)
        assert code == OK and obj["ok"] is True and obj["check_count"] > 0
        assert obj["max_n"] is None

    # every set is decided from 2^n-entry tables, so order 17 is refused
    # whatever the graph: also the edgeless one, where neither labeling is
    # valid and no table would be built
    @pytest.mark.parametrize("G", [itf.path(17), itf.Graph(17)], ids=["path17", "edgeless17"])
    def test_graphs_file_above_cap(self, tmp_path, G):
        p = tmp_path / "graphs.g6"
        p.write_text(itf.to_graph6(G) + "\n")
        code, obj = run_cli_json(["sweep", "--suite", "nbd-oracle", "--graphs-file", str(p)])
        assert code == BUDGET
        assert obj["error"] == {"kind": "budget",
                                "message": "nbd-oracle sweep: n=17 exceeds cap 16"}

    # a sweep that made no check would report "ok" vacuously: nbd-oracle
    # checks every graph, lg-injectivity every graph with an edge, so the
    # catalog below order 1 (below order 2 for lg-injectivity) and a file of
    # edgeless graphs check nothing (ids name the suite unless it is nbd-oracle)
    @pytest.mark.parametrize("suite, flag, value, message", [
        pytest.param(*case, id="-".join(case[1:] if case[0] == "nbd-oracle" else case))
        for case in [
            ("nbd-oracle", "--samples", "-3", "--samples must be >= 0, got -3"),
            ("nbd-oracle", "--max-n", "0",
             "--suite nbd-oracle made no check on the catalog to order 0"),
            ("nbd-oracle", "--max-n", "-1",
             "--suite nbd-oracle made no check on the catalog to order -1"),
            ("lg-injectivity", "--max-n", "1",
             "--suite lg-injectivity made no check on the catalog to order 1"),
            ("lg-injectivity", "--max-n", "0",
             "--suite lg-injectivity made no check on the catalog to order 0"),
            ("nbd-oracle", "--graphs-file", "empty.g6",
             "--suite nbd-oracle made no check on empty.g6"),
            ("lg-injectivity", "--graphs-file", "edgeless.g6",
             "--suite lg-injectivity made no check on edgeless.g6"),
        ]
    ])
    def test_vacuous_sweep_is_a_usage_error(self, tmp_path, monkeypatch, suite, flag, value,
                                            message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty.g6").write_text("")
        (tmp_path / "edgeless.g6").write_text("A?\n@\nC?\n")  # orders 2, 1 and 4
        code, obj = run_cli_json(["sweep", "--suite", suite, flag, value])
        assert code == USAGE
        assert obj["error"] == {"kind": "usage", "message": message}

    def test_zero_samples_still_runs_the_exhaustive_orders(self):
        code, obj = run_cli_json(["sweep", "--suite", "nbd-oracle", "--max-n", "5", "--samples", "0"])
        assert code == OK and obj["ok"] is True and obj["check_count"] > 0

    @pytest.mark.parametrize("name", sorted(WRONG_CRITERIA))
    def test_catches_a_wrong_criterion(self, monkeypatch, name):
        from interfere import cli

        suite, wrong = WRONG_CRITERIA[name]
        monkeypatch.setattr(cli, name, wrong(getattr(cli, name)))
        code, obj = run_cli_json(["sweep", "--suite", suite, "--max-n", "5"])
        assert code == OK
        assert obj["mismatch_count"] > 0 and obj["ok"] is False

    # (check_count, mismatch_count) of the nbd-oracle sweep to order 7 with
    # each nbd-oracle criterion it calls made wrong (None: all real), for
    # --seed 3 with the default 500 draws and for --seed 5 --samples 37:
    # deciding every set once and counting its draws must give what deciding
    # each draw gives
    PINNED_COUNTS = {
        None: ((968_510, 0), (74_920, 0)),
        "two_path_graph": ((968_510, 18_653), (74_920, 1_435)),
        "complemented_escape_family": ((968_510, 28_263), (74_920, 2_066)),
        "neighborhood_complete": ((968_510, 996), (74_920, 996)),
        "complemented_complete": ((968_510, 996), (74_920, 996)),
    }

    def test_pinned_counts_cover_every_nbd_criterion(self):
        nbd = {name for name, (suite, _) in WRONG_CRITERIA.items() if suite == "nbd-oracle"}
        assert set(self.PINNED_COUNTS) == nbd | {None}

    @pytest.mark.parametrize("column, flags", [(0, ["--seed", "3"]),
                                               (1, ["--seed", "5", "--samples", "37"])],
                             ids=["seed3", "seed5-samples37"])
    @pytest.mark.parametrize("name", sorted(PINNED_COUNTS, key=str))
    def test_pinned_counts(self, monkeypatch, name, column, flags):
        from interfere import cli

        if name is not None:
            monkeypatch.setattr(cli, name, WRONG_CRITERIA[name][1](getattr(cli, name)))
        code, obj = run_cli_json(["sweep", "--suite", "nbd-oracle", "--max-n", "7", *flags])
        assert code == OK
        assert (obj["check_count"], obj["mismatch_count"]) == self.PINNED_COUNTS[name][column]

    # point-determining graphs of order 6 and 7, the wheel on 7 vertices, and
    # one of order 9, above the catalog's order, so only from --graphs-file;
    # 400 draws from 63, 127 or 511 sets repeat many of them
    SAMPLED = ["ELtw", "EhNW", "FJn^W", "FhENw", "HXeuPV{"]

    @pytest.mark.parametrize("wrong", [False, True], ids=["real", "wrong-complemented"])
    def test_sampled_orders_count_every_draw(self, monkeypatch, tmp_path, wrong):
        from interfere import cli

        # the sweep reads only the table; the reference is the per-set test
        real = itf.complemented_escapes

        def escapes(G, D):
            return real(G, _lowest_dropped(D) if wrong else D)

        if wrong:
            monkeypatch.setattr(cli, "complemented_escape_family", WRONG_CRITERIA[
                "complemented_escape_family"][1](cli.complemented_escape_family))
        p = tmp_path / "graphs.g6"
        p.write_text("\n".join(self.SAMPLED) + "\n")
        seed, samples = 11, 400
        code, obj = run_cli_json(["sweep", "--suite", "nbd-oracle", "--graphs-file", str(p),
                                  "--seed", str(seed), "--samples", str(samples)])
        assert code == OK
        assert obj["check_count"] == len(self.SAMPLED) * (2 + 2 * samples)
        # draws on which the criterion in use disagrees with the real one,
        # every repeat counted
        expected = distinct = 0
        for g6 in self.SAMPLED:
            G = itf.from_graph6(g6)
            draws = cli._target_sets(G, seed, samples)
            assert len(set(draws)) < len(draws)
            if itf.is_point_determining(G):
                bad = [D for D in draws if escapes(G, D) != real(G, D)]
                expected += len(bad)
                distinct += len(set(bad))
        assert obj["mismatch_count"] == expected
        assert obj["ok"] is (expected == 0)
        if wrong:
            assert expected > distinct > 0


class TestUnreadableInput:
    @pytest.mark.parametrize("argv", [
        ["gen", "--graph", "file:{}"],
        ["check", "--graph", "complete:3", "--labeling", "{}", "--set", "0"],
        ["index", "--graph", "path:3", "--pattern", "explicit:{}"],
        ["sweep", "--suite", "nbd-oracle", "--graphs-file", "{}"],
    ], ids=["file", "labeling", "explicit", "graphs-file"])
    def test_file_that_is_not_utf8_is_a_format_error(self, tmp_path, argv):
        p = tmp_path / "input"
        p.write_bytes(b"\xff\xfe")
        code, obj = run_cli_json([tok.format(p) for tok in argv])
        assert code == FORMAT
        assert obj["error"]["kind"] == "format"
        assert obj["error"]["message"].startswith(f"cannot read {p}: ")


# Sizes CPython refuses before it allocates anything: a vertex count of
# 10^20 or 2^62, a vertex or a label element of 10^20, a ground set of 10^20
OVERSIZED = {
    "order-1e20": (["gen", "--graph", "file:{}"], "100000000000000000000\n", BUDGET),
    "order-2e62": (["gen", "--graph", "file:{}"], f"{2 ** 62}\n", BUDGET),
    "explicit-vertex": (["index", "--graph", "path:3", "--pattern", "explicit:{}"],
                        "[[100000000000000000000]]", USAGE),
    "ground-set": (["check", "--graph", "path:3", "--labeling", "{}", "--set", "0"],
                   '{"ground_set_size": 100000000000000000000, "labels": [[0], [1], [2]]}', OK),
    "label-element": (["check", "--graph", "path:3", "--labeling", "{}", "--set", "0"],
                      '{"ground_set_size": 1000000000000000000000,'
                      ' "labels": [[0], [1], [100000000000000000000]]}', BUDGET),
}


class TestOversizedInput:
    """Numbers too large to hold end as a JSON error or a verdict: an order or
    a label element in exit 3, a pattern vertex past the graph in exit 2, and
    a ground set, which is never built, in a verdict."""

    @pytest.mark.parametrize("name", sorted(OVERSIZED))
    def test_exit_code_and_kind(self, tmp_path, name):
        argv, content, want = OVERSIZED[name]
        p = tmp_path / "input"
        p.write_text(content)
        code, obj = run_cli_json([tok.format(p) for tok in argv])
        assert code == want
        if want == OK:
            assert obj["labeling_valid"] is True
        else:
            assert obj["error"]["kind"] == {BUDGET: "budget", USAGE: "usage"}[want]


class TestHarness:
    def test_schema_field_everywhere(self):
        # every report carries the envelope, written by _run alone
        for argv in (
            ["check", "--graph", "path:3", "--labeling", "complete", "--set", "0"],
            ["index", "--graph", "complete:3", "--pattern", "singletons"],
            ["brm", "--r", "2", "--m", "3"],
            ["brm", "--krs", "2,3"],
            ["nbd", "--graph", "cycle:5", "--complete"],
            ["linegraph", "--graph", "path:4", "--check", "injective"],
            ["dpd", "--graph", "path:5", "--path-construction"],
            ["sweep", "--suite", "lg-injectivity", "--max-n", "3"],
        ):
            code, obj = run_cli_json(argv)
            assert code == OK, argv
            assert obj["command"] == argv[0] and obj["schema"] == SCHEMA, argv
            assert isinstance(obj["timing"], float), argv

    def test_report_is_pinned(self, tmp_path, monkeypatch):
        # whole reports, minus timing: every field name and shape the CLI writes
        monkeypatch.chdir(tmp_path)
        (tmp_path / "hub.json").write_text("[[5]]")
        (tmp_path / "p0.json").write_text("[[0]]")
        (tmp_path / "lab3.json").write_text('{"ground_set_size": 2, "labels": [[0], [1], [0, 1]]}')
        (tmp_path / "disj5.json").write_text(
            '{"ground_set_size": 5, "labels": [[0], [1], [2], [3], [4]]}')
        budget = {"budget": DEFAULT_BUDGET, "command": "index", "schema": SCHEMA}
        pinned = [
            ("index --graph complete:4 --pattern singletons", {
                **budget, "defined": True, "pattern": "singletons",
                "graph": {"degree_sequence": [3, 3, 3, 3], "edge_hash": "21498e5cb7ea17f4",
                          "m": 6, "n": 4},
                "index": 3, "lower_bound_used": 3, "nodes_explored": 0,
                "trace": [{"found": True, "m": 3, "nodes": 0}],
                "witness": {"ground_set_size": 3, "labels": [[0], [0, 1], [0, 2], [0, 1, 2]]}}),
            ("index --graph wheel:5 --pattern explicit:hub.json", {
                **budget, "defined": True, "pattern": "explicit:hub.json",
                "graph": {"degree_sequence": [5, 3, 3, 3, 3, 3], "edge_hash": "0549d05954432c9e",
                          "m": 10, "n": 6},
                "index": 3, "lower_bound_used": 3, "nodes_explored": 6,
                "trace": [{"found": True, "m": 3, "nodes": 6}],
                "witness": {"ground_set_size": 3,
                            "labels": [[0], [1], [0, 2], [1, 2], [0, 1, 2], [0, 1]]}}),
            ("index --graph path:3 --pattern explicit:p0.json", {
                **budget, "defined": False, "pattern": "explicit:p0.json",
                "graph": {"degree_sequence": [2, 1, 1], "edge_hash": "5b20ce7c7fe083d6",
                          "m": 2, "n": 3},
                "reason": "target set [0] does not dominate; index undefined"}),
            ("brm --r 2 --m 4", {
                "command": "brm", "schema": SCHEMA, "r": 2, "m": 4, "value": 12,
                "family": [[0, 1, 2], [0, 1, 2, 3]],
                "partners": [[0], [1], [0, 1], [2], [0, 2], [1, 2], [0, 3], [1, 3], [0, 1, 3],
                             [2, 3], [0, 2, 3], [1, 2, 3]]}),
            ("brm --krs 2,5", {
                "command": "brm", "schema": SCHEMA, "r": 2, "s": 5, "index": 4,
                "side_index": 3, "upper_bound": 4}),
            ("check --graph complete:3 --labeling lab3.json --set 0 --set 1,2", {
                "command": "check", "schema": SCHEMA,
                "graph": {"degree_sequence": [2, 2, 2], "edge_hash": "31fc601b43407764",
                          "m": 3, "n": 3},
                "labeling_valid": True, "sets_checked": 2, "verdict": False,
                "violations": [{"candidates": [0], "set": [0], "vertex": 1}]}),
            ("check --graph path:5 --labeling disj5.json --pattern all-dominating", {
                "command": "check", "schema": SCHEMA,
                "graph": {"degree_sequence": [2, 2, 2, 1, 1], "edge_hash": "08bdac537b0915ee",
                          "m": 4, "n": 5},
                "labeling_valid": True, "sets_checked": None, "verdict": False,
                "violations": [
                    {"candidates": [1], "set": [1, 2, 3, 4], "vertex": 0},
                    {"candidates": [0, 2], "set": [0, 2, 3, 4], "vertex": 1},
                    {"candidates": [1, 3], "set": [0, 1, 3, 4], "vertex": 2},
                    {"candidates": [2, 4], "set": [0, 1, 2, 4], "vertex": 3},
                    {"candidates": [3], "set": [0, 1, 2, 3], "vertex": 4}]}),
            ("dpd --graph path:9 --path-construction", {
                "command": "dpd", "schema": SCHEMA,
                "graph": {"degree_sequence": [2, 2, 2, 2, 2, 2, 2, 1, 1],
                          "edge_hash": "5314c3f5f868242c", "m": 8, "n": 9},
                "markers": [0, 1, 3, 6], "ground_set_size": 9, "dpd": True, "interference": True,
                "patterns": [[0, 1, 3, 6], [0, 1, 2, 5], [1, 2, 4], [0, 2, 3], [1, 2, 3, 4],
                             [1, 2, 4, 5], [0, 3, 5, 6], [1, 4, 6, 7], [2, 5, 7, 8]]}),
        ]
        for argv, want in pinned:
            code, obj = run_cli_json(argv.split())
            assert code == OK, argv
            assert strip_timing(obj) == want, argv

    def test_usage_errors_share_one_writer(self, capsys):
        # an argparse error and a handler's ValueError print the same object
        # shape, and the same stderr line
        shapes = []
        for argv in (["index", "--graph", "cycle:5", "--budget", "x"],
                     ["index", "--graph", "cycle:5", "--budget", "-1"]):
            code, obj = run_cli_json(argv)
            assert code == USAGE and obj["error"]["kind"] == "usage"
            assert capsys.readouterr().err == f"error: {obj['error']['message']}\n"
            shapes.append((sorted(obj), sorted(obj["error"])))
        assert shapes[0] == shapes[1] == (["error", "schema"], ["kind", "message"])

    def test_output_is_deterministic_up_to_timing(self):
        a = strip_timing(run_cli_json(["nbd", "--graph", "wheel:5", "--complete"])[1])
        b = strip_timing(run_cli_json(["nbd", "--graph", "wheel:5", "--complete"])[1])
        assert a == b
        argv = ["sweep", "--suite", "lg-injectivity", "--max-n", "4"]
        code, out = run_cli(argv)
        assert code == OK and json.loads(out)["check_count"] > 0
        s = json.dumps(strip_timing(json.loads(out)), sort_keys=True)
        t = json.dumps(strip_timing(run_cli_json(argv)[1]), sort_keys=True)
        assert s == t

    def test_usage_error_shape(self):
        code, out = run_cli(["nbd", "--graph", "cycle:5"])  # no mode chosen
        assert code == USAGE
        obj = json.loads(out)
        assert obj["error"]["kind"] == "usage"

    def test_unknown_command(self):
        code, _ = run_cli(["frobnicate"])
        assert code == USAGE

    def test_one_parser_serves_every_call(self):
        # main builds its parser once; calls after a usage error and after a
        # success must print what a call with a freshly built parser prints
        from interfere import cli

        calls = [
            ["index", "--graph", "cycle:5", "--budget", "x"],
            ["index", "--graph", "cycle:5"],
            ["nbd", "--graph", "cycle:5"],
        ]
        cli._build_parser.cache_clear()
        shared = []
        for argv in calls:
            code, out = run_cli(argv)
            shared.append((code, strip_timing(json.loads(out))))
        assert cli._build_parser.cache_info().misses == 1
        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            code, out = run_cli(argv)
            fresh.append((code, strip_timing(json.loads(out))))
        assert shared == fresh
        assert [code for code, _ in shared] == [USAGE, OK, USAGE]


@pytest.mark.parametrize("argv", [
    ["gen", "--catalog", "6"],
    ["index", "--graph", "complete:5"],
    ["--help"],
])
def test_closed_stdout_exits_one_without_traceback(argv):
    """A reader that closes stdout before anything is written ends the run
    with exit code 1 and no traceback on stderr."""
    proc = subprocess.Popen([sys.executable, "-m", "interfere.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=package_env())
    proc.stdout.close()  # the child is still starting up: it has written nothing
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1, err
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def _readme_commands():
    """The sh block of the README's "Command line" section, as its printf
    writes ((text, file) pairs) and its `interfere ...` argument lists."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    writes, calls = [], []
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] == ["printf"]:
            writes.append((words[1], words[3]))
        elif words[:1] == ["interfere"]:
            calls.append(words[1:])
    return writes, calls


README_WRITES, README_CALLS = _readme_commands()


def test_readme_block_is_read():
    assert README_CALLS and README_WRITES == [("[[5]]", "hub.json")]


@pytest.mark.parametrize("argv", README_CALLS, ids=" ".join)
def test_readme_command_exits_zero(argv, tmp_path, monkeypatch):
    """Each README example runs as written, in a directory holding the
    files the block writes."""
    monkeypatch.chdir(tmp_path)
    for content, name in README_WRITES:
        (tmp_path / name).write_text(content)
    code, out = run_cli(argv)
    assert code == OK, out
