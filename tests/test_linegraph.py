"""Edge-neighborhood labelings, viewed through the line graph."""

import random

import networkx as nx
import pytest

import interfere as itf
from interfere import (
    Graph,
    HypothesisViolation,
    complemented_interference_of,
    complete,
    cycle,
    is_complete_interference,
    is_interference,
    line_complete_report,
    line_graph,
    line_injectivity_report,
    neighborhood_interference_of,
    path,
)

from conftest import run_cli_json
from oracles import independence_number

PETERSEN = Graph(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
)


def line_oracle_labeling(G):
    """The edge-neighborhood labeling evaluated on an independently built line graph."""
    H = nx.Graph()
    H.add_nodes_from(range(G.m))
    index = {e: k for k, e in enumerate(G.edges)}
    HL = nx.line_graph(nx.Graph(list(G.edges)))
    for a, b in HL.edges():
        H.add_edge(index[tuple(sorted(a))], index[tuple(sorted(b))])
    L = Graph(G.m, list(H.edges()))
    return L, itf.neighborhood_labeling(L)


def test_edgeless_graph_guard():
    """L(G), the injectivity report and the linegraph command need an edge,
    and all three say so in one message."""
    message = "line graph and edge labelings of an edgeless graph are undefined"
    for G in (Graph(1), Graph(3, [])):
        for route in (line_graph, line_injectivity_report):
            with pytest.raises(ValueError, match=f"^{message}$"):
                route(G)
        for check in ("injective", "interference", "complete", "cnbd", "rules"):
            code, obj = run_cli_json(
                ["linegraph", "--graph", f"g6:{itf.to_graph6(G)}", "--check", check]
            )
            assert code == 2
            assert obj["error"]["message"] == message


class TestInjectivity:
    def test_order_four_offenders(self):
        bad = {"P4": path(4), "C4": cycle(4), "K4": complete(4)}
        bad["K4_minus_edge"] = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        bad["paw"] = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        for name, G in bad.items():
            assert not line_injectivity_report(G).injective, name
        # the only other connected 4-graph
        assert line_injectivity_report(itf.star(3)).injective

    @pytest.mark.parametrize("n", range(5, 8))
    def test_all_larger_connected_graphs_pass(self, n):
        for G in itf.connected_graphs(n):
            assert line_injectivity_report(G).injective, itf.to_graph6(G)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_pairwise_oracle_on_line_graph(self, n):
        for G in itf.all_graphs(n):
            if G.m == 0:
                with pytest.raises(ValueError):
                    line_injectivity_report(G)
                continue
            L = line_graph(G)
            dup = len({L.adj[e] for e in L.vertices()}) < L.n
            assert line_injectivity_report(G).injective == (not dup), itf.to_graph6(G)

    def test_obstruction_inventory(self):
        rep = line_injectivity_report(itf.matching(2))
        assert rep.obstructions == (("K2", (0, 1)), ("K2", (2, 3)))
        rep = line_injectivity_report(cycle(4))
        assert rep.obstructions == (("sandwich", (0, 1, 2, 3)),)
        # one lone K2 component is harmless
        assert line_injectivity_report(Graph(3, [(0, 1)])).injective


class TestInterferenceOf:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_exhaustive_small(self, n):
        """Every edge set when m <= 10, a seeded sample of 100 otherwise.

        Disconnected graphs are included: K2 components, isolated vertices
        and sandwich components decide the validity of the labeling.
        """
        for G in itf.all_graphs(n):
            if G.m == 0:
                continue
            L, rep = line_oracle_labeling(G)
            K = complete(L.n)
            if G.m <= 10:
                targets = range(1, 1 << G.m)
            else:
                rng = random.Random(itf.to_graph6(G))
                targets = [rng.randrange(1, 1 << G.m) for _ in range(100)]
            LG = line_graph(G)
            for D in targets:
                want = rep.valid and is_interference(K, D, rep.labeling)
                assert neighborhood_interference_of(LG, D) == want, (itf.to_graph6(G), bin(D))

    def test_seeded_order_six(self):
        rng = random.Random(17)
        for G in itf.connected_graphs(6):
            L, rep = line_oracle_labeling(G)
            for _ in range(25):
                D = rng.randrange(1, 1 << G.m)
                want = rep.valid and is_interference(complete(L.n), D, rep.labeling)
                assert neighborhood_interference_of(line_graph(G), D) == want

    def test_singleton_edges(self):
        for G in itf.graphs_upto(6):
            if G.m == 0:
                continue
            L, rep = line_oracle_labeling(G)
            for e in range(G.m):
                want = rep.valid and is_interference(complete(L.n), 1 << e, rep.labeling)
                assert neighborhood_interference_of(line_graph(G), 1 << e) == want, (
                    itf.to_graph6(G), e)

    def test_rejects_empty_target(self):
        with pytest.raises(ValueError):
            neighborhood_interference_of(line_graph(path(4)), 0)


class TestCompleteness:
    def test_anchors(self):
        assert line_complete_report(complete(5)).verdict
        assert line_complete_report(itf.wheel(5)).verdict
        assert line_complete_report(itf.complete_bipartite(3, 3)).verdict
        assert not line_complete_report(path(5)).verdict
        assert not line_complete_report(complete(4)).verdict
        assert not line_complete_report(itf.windmill(3, 2)).verdict

    def test_clause_inventory(self):
        rep = line_complete_report(complete(4))
        assert not rep.clauses["no_sandwich"]
        rep = line_complete_report(path(5))
        assert not rep.clauses["line_diameter_le_2"]
        assert not rep.clauses["degree_two_on_triangle"]
        rep = line_complete_report(itf.wheel(5))
        assert rep.verdict and all(rep.clauses.values())
        assert rep._fields == ("verdict", "clauses")

    def test_pentagon_fails_the_triangle_clause(self):
        rep = line_complete_report(cycle(5))
        assert rep.verdict is False
        assert rep.clauses == {
            "no_sandwich": True, "line_diameter_le_2": True, "degree_two_on_triangle": False
        }

    @pytest.mark.parametrize("n", range(3, 8))
    def test_verdict_matches_independent_oracle(self, n):
        for G in itf.connected_graphs(n):
            L, rep = line_oracle_labeling(G)
            want = rep.valid and is_complete_interference(rep.labeling)
            assert line_complete_report(G).verdict == want, itf.to_graph6(G)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_diameter_clause_matches_networkx(self, n):
        for G in itf.connected_graphs(n):
            want = nx.diameter(nx.line_graph(nx.Graph(list(G.edges)))) <= 2
            assert line_complete_report(G).clauses["line_diameter_le_2"] == want, itf.to_graph6(G)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_triangle_clause_matches_networkx(self, n):
        for G in itf.connected_graphs(n):
            H = nx.Graph(list(G.edges))
            want = all(nx.triangles(H, v) for v in H if H.degree(v) == 2)
            assert line_complete_report(G).clauses["degree_two_on_triangle"] == want, itf.to_graph6(G)

    def test_necessary_clauses_never_reject_a_true_verdict(self):
        for G in itf.connected_graphs_upto(6):
            if G.n < 3:
                continue
            L, rep = line_oracle_labeling(G)
            if rep.valid and is_complete_interference(rep.labeling):
                assert all(line_complete_report(G).clauses.values()), itf.to_graph6(G)

    def test_builds_no_line_graph(self, monkeypatch):
        def refuse(G):
            raise AssertionError("line_graph called")
        monkeypatch.setattr(itf.linegraph, "line_graph", refuse)
        monkeypatch.setattr(itf.graphs, "line_graph", refuse)
        for G in itf.connected_graphs(6):
            line_complete_report(G)

    def test_hypotheses(self):
        with pytest.raises(HypothesisViolation):
            line_complete_report(complete(2))
        with pytest.raises(HypothesisViolation):
            line_complete_report(itf.matching(2))


class TestComplementedEdgeRoute:
    def test_decides_outside_order_five_connected(self):
        # the per-set criterion needs neither hypothesis: on P4 edges 01 and
        # 23 get the same label {01, 23}, and on P3 u P3 the label
        # {01, 34, 45} of edge 01 meets every other label
        assert complemented_interference_of(line_graph(path(4)), 0b1) is False
        P3_P3 = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        assert complemented_interference_of(line_graph(P3_P3), 0b1) is True

    @pytest.mark.parametrize("n", range(2, 7))
    def test_against_definitional_oracle(self, n):
        # every graph of order n with an edge, disconnected ones included;
        # every D up to 8 edges, 40 seeded D past that
        rng = random.Random(n)
        for G in itf.all_graphs(n):
            if G.m == 0:
                continue
            L = line_graph(G)
            rep = itf.complemented_labeling(L)
            sets = range(1, 1 << G.m) if G.m <= 8 else (
                rng.randrange(1, 1 << G.m) for _ in range(40))
            for D in sets:
                want = rep.valid and is_interference(complete(L.n), D, rep.labeling)
                assert complemented_interference_of(L, D) == want, (itf.to_graph6(G), D)

    def test_size_rule_needs_five_edges(self):
        with pytest.raises(HypothesisViolation):
            itf.line_complemented_size_rule(path(6), 0b1111)

    def test_size_rule_dichotomy(self):
        rng = random.Random(5)
        for G in itf.connected_graphs(6):
            if G.m < 5:
                continue
            edges = list(range(G.m))
            for _ in range(10):
                count = rng.randrange(5, G.m + 1)
                D = 0
                for e in rng.sample(edges, count):
                    D |= 1 << e
                assert itf.line_complemented_size_rule(G, D)

    def test_independence_rule(self):
        assert independence_number(PETERSEN) == 4
        assert itf.line_complemented_independence_rule(PETERSEN)
        # equality alpha = n-4 must not fire: the bound is strict
        K44 = itf.complete_bipartite(4, 4)
        assert independence_number(K44) == 4
        assert not itf.line_complemented_independence_rule(K44)

    def test_independence_rule_matches_independence_number(self):
        """The rule is decided as "no vertex cover of at most 4 vertices"."""
        from interfere.linegraph import _has_vertex_cover

        for G in itf.graphs_upto(7):
            alpha_rule = independence_number(G) < G.n - 4
            assert (not _has_vertex_cover(G, 4)) == alpha_rule
            assert itf.line_complemented_independence_rule(G) == (
                itf.is_connected(G) and alpha_rule
            )

    def test_independence_rule_needs_no_cap(self):
        # K9,9 has independence number 9 < 14; order 18 is past the cap of
        # the independence_number oracle, and the rule needs no such cap
        assert itf.line_complemented_independence_rule(itf.complete_bipartite(9, 9))
        assert not itf.line_complemented_independence_rule(itf.star(20))

    def test_regular_rule(self):
        assert itf.line_complemented_regular_rule(PETERSEN)
        assert itf.line_complemented_regular_rule(itf.complete_bipartite(4, 4))
        assert itf.line_complemented_regular_rule(cycle(8))
        assert not itf.line_complemented_regular_rule(cycle(7))   # order below eight
        assert not itf.line_complemented_regular_rule(itf.wheel(6))  # not regular

    @pytest.mark.parametrize(
        "G", [PETERSEN, itf.complete_bipartite(4, 4), cycle(8), cycle(9)]
    )
    def test_fired_rules_imply_oracle_completeness(self, G):
        fired = itf.line_complemented_regular_rule(G) or (
            itf.line_complemented_independence_rule(G)
        )
        assert fired
        L = line_graph(G)
        rep = itf.complemented_labeling(L)
        assert rep.valid and is_complete_interference(rep.labeling)
