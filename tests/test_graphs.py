"""Graph container, neighborhoods, metrics, and graph6 codec."""

import copy
import hashlib
import itertools
import pickle
import random
import subprocess
import sys

import networkx as nx
import pytest

import interfere as itf
from interfere import (
    INFINITY,
    Graph,
    GraphFormatError,
    bit_list,
    closed_neighborhood,
    complemented_neighborhood,
    complete,
    cycle,
    diameter,
    from_graph6,
    path,
    to_graph6,
    wheel,
)

from interfere.cli import bipartition

from conftest import package_env
from oracles import (
    has_edge,
    independence_number,
    induced_subgraph,
    neighbor_sets,
    second_neighborhood,
)


def to_nx(G: Graph) -> nx.Graph:
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edges)
    return H


class TestConstruction:
    def test_edges_are_canonical(self):
        G = Graph(3, [(2, 1), (0, 2)])
        assert G.edges == ((0, 2), (1, 2))
        assert G.m == 2

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match=r"^duplicate edge \(0, 1\)$"):
            Graph(3, [(0, 1), (1, 0)])
        with pytest.raises(ValueError, match=r"^duplicate edge \(0, 1\)$"):
            Graph(2, [(0, 1), (1, 0)])
        with pytest.raises(ValueError, match=r"^duplicate edge \(1, 2\)$"):
            Graph(3, [(2, 1), (0, 1), (2, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1)])
        b = Graph(3, [(1, 0)])
        assert a == b and hash(a) == hash(b)
        assert a != Graph(3, [(0, 2)])

    def test_edge_index_round_trip(self):
        G = wheel(5)
        for k, (u, v) in enumerate(G.edges):
            assert G.edge_index(u, v) == G.edge_index(v, u) == k

    def test_pickle_and_copy_round_trip(self):
        cached = wheel(5)
        cached.edge_index(0, 1)  # fills the edges and edge-index caches
        graphs = [G for n in range(1, 6) for G in itf.all_graphs(n)]
        for G in graphs + [complete(1), cached]:
            for H in (pickle.loads(pickle.dumps(G)), copy.copy(G), copy.deepcopy(G)):
                assert type(H) is Graph and H == G and hash(H) == hash(G)
                assert H.adj == G.adj and H.edges == G.edges
                for k, (u, v) in enumerate(G.edges):
                    assert H.edge_index(u, v) == H.edge_index(v, u) == k


class TestNeighborhoods:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_against_set_arithmetic(self, n):
        for G in itf.all_graphs(n):
            nbrs = neighbor_sets(G)
            for u in G.vertices():
                assert set(bit_list(G.adj[u])) == set(nbrs[u])
                assert set(bit_list(closed_neighborhood(G, u))) == set(nbrs[u]) | {u}
                assert set(bit_list(complemented_neighborhood(G, u))) == (
                    set(range(n)) - set(nbrs[u])
                )

    def test_complemented_contains_self(self):
        G = complete(4)
        for u in G.vertices():
            assert complemented_neighborhood(G, u) >> u & 1

    @pytest.mark.parametrize("n", range(2, 6))
    def test_second_neighborhood_is_distance_two_shell(self, n):
        for G in itf.all_graphs(n):
            H = to_nx(G)
            for u in G.vertices():
                lengths = nx.single_source_shortest_path_length(H, u)
                want = {v for v, d in lengths.items() if d == 2}
                assert second_neighborhood(G, u) == want


class TestMetrics:
    def test_distance_matches_networkx(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randrange(2, 9)
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
            G = Graph(n, edges)
            H = to_nx(G)
            for u in G.vertices():
                lengths = nx.single_source_shortest_path_length(H, u)
                want = [0] * (max(lengths.values()) + 1)
                for v, d in lengths.items():
                    want[d] |= 1 << v
                assert itf.bfs_layers(G, u) == want

    @staticmethod
    def graphs():
        """Every graph of order 1-6, disconnected ones included, then seeded
        random graphs of order up to 12."""
        for n in range(1, 7):
            yield from itf.all_graphs(n)
        rng = random.Random(19)
        for _ in range(80):
            n = rng.randrange(1, 13)
            yield Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.2])

    def test_connectivity_matches_networkx(self):
        for G in self.graphs():
            H = to_nx(G)
            want = sorted(sorted(c) for c in nx.connected_components(H))
            assert [bit_list(c) for c in itf.components(G)] == want, to_graph6(G)
            assert itf.is_connected(G) == nx.is_connected(H), to_graph6(G)
            want_diameter = nx.diameter(H) if nx.is_connected(H) else INFINITY
            assert diameter(G) == want_diameter, to_graph6(G)

    def test_bipartition_matches_networkx(self):
        """The sides partition V, every edge crosses, each component's lowest
        vertex is on the first side, and an odd cycle is a ValueError."""
        for G in self.graphs():
            if not nx.is_bipartite(to_nx(G)):
                with pytest.raises(ValueError, match="cross-pairs needs a bipartite graph"):
                    bipartition(G)
                continue
            U, W = bipartition(G)
            assert U | W == G.full_mask and U & W == 0, to_graph6(G)
            assert all(U >> u & 1 != U >> v & 1 for u, v in G.edges), to_graph6(G)
            assert all(U & comp & -comp for comp in itf.components(G)), to_graph6(G)

    def test_diameter_cases(self):
        assert diameter(complete(5)) == 1
        assert diameter(path(4)) == 3
        assert diameter(Graph(2, [])) == INFINITY
        assert diameter(complete(1)) == 0

    def test_connectivity_and_components(self):
        G = Graph(5, [(0, 1), (2, 3)])
        assert not itf.is_connected(G)
        comps = itf.components(G)
        assert sorted(bit_list(c) for c in comps) == [[0, 1], [2, 3], [4]]
        assert itf.is_connected(path(6))

    def test_induced_subgraph(self):
        G = wheel(4)
        H, mapping = induced_subgraph(G, {0, 1, 4})
        assert H.n == 3
        assert H.m == 3  # rim edge 0-1 plus both spokes
        assert sorted(mapping) == [0, 1, 4]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_independence_number_brute(self, n):
        for G in itf.all_graphs(n):
            best = 0
            for r in range(n, 0, -1):
                if any(
                    all(not has_edge(G, a, b) for a, b in itertools.combinations(c, 2))
                    for c in itertools.combinations(range(n), r)
                ):
                    best = r
                    break
            assert independence_number(G) == best

    def test_point_determining_anchors(self):
        assert itf.is_point_determining(cycle(5))
        assert not itf.is_point_determining(cycle(4))
        assert itf.is_point_determining(complete(3))
        assert not itf.is_point_determining(complete_bipartite_22())

    def test_regularity(self):
        assert itf.is_regular(cycle(6)) == 2
        assert itf.is_regular(path(3)) is None


def complete_bipartite_22():
    return itf.complete_bipartite(2, 2)


class TestLineGraph:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_networkx(self, n):
        for G in itf.all_graphs(n):
            if G.m == 0:
                continue
            L = itf.line_graph(G)
            HL = nx.line_graph(to_nx(G))
            # networkx names line-graph vertices by edge pairs
            index = {e: k for k, e in enumerate(G.edges)}
            want = {
                tuple(sorted((index[tuple(sorted(a))], index[tuple(sorted(b))])))
                for a, b in HL.edges()
            }
            assert set(L.edges) == want
            assert L.n == G.m

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError):
            itf.line_graph(Graph(3, []))

    def test_edge_adjacency_masks(self):
        L = itf.line_graph(path(4))
        # consecutive path edges meet, the outer two do not
        assert L.adj == (0b010, 0b101, 0b010)


class TestGraph6:
    def test_known_words(self):
        assert to_graph6(complete(2)) == "A_"
        assert to_graph6(complete(3)) == "Bw"
        assert to_graph6(path(3)) == "Bg"

    @pytest.mark.parametrize("n", range(1, 6))
    def test_round_trip_and_networkx_agreement(self, n):
        for G in itf.all_graphs(n):
            word = to_graph6(G)
            assert from_graph6(word) == G
            H = nx.from_graph6_bytes(word.encode())
            assert set(map(tuple, map(sorted, H.edges()))) == set(G.edges)
            assert H.number_of_nodes() == n
            # and our decoder accepts networkx's encoding of the same graph
            back = nx.to_graph6_bytes(to_nx(G), header=False).strip().decode()
            assert from_graph6(back) == G

    def test_rejects_bad_character(self):
        with pytest.raises(GraphFormatError):
            from_graph6("B!")

    def test_rejects_wrong_payload_length(self):
        with pytest.raises(GraphFormatError):
            from_graph6("B")  # K3 needs one payload character
        with pytest.raises(GraphFormatError):
            from_graph6("Bww")

    def test_rejects_long_form(self):
        with pytest.raises(GraphFormatError):
            from_graph6("~??~?????")

    def test_rejects_empty(self):
        with pytest.raises(GraphFormatError):
            from_graph6("")


class TestEdgeListsAndFingerprint:
    def test_edge_list_round_trip(self):
        G = itf.helm(4)
        text = itf.to_edge_list_text(G)
        assert itf.from_edge_list(text) == G

    def test_edge_list_rejects_a_reversed_duplicate(self):
        text = "3\n0 1\n# a comment line\n1 2\n1 0\n"
        with pytest.raises(GraphFormatError, match=r"^line 5: duplicate edge \(0, 1\)$"):
            itf.from_edge_list(text)

    def test_fingerprint_shape(self):
        fp = itf.fingerprint(wheel(5))
        assert fp["n"] == 6 and fp["m"] == 10
        assert fp["degree_sequence"] == [5, 3, 3, 3, 3, 3]
        assert len(fp["edge_hash"]) == 16
        # stable across reconstruction
        assert itf.fingerprint(from_graph6(to_graph6(wheel(5)))) == fp

    # edge_hash: the first 16 hex digits of SHA-256 over "n:u-v,..." with the
    # edges (u < v) in sorted order
    EDGE_HASHES = [
        (complete(40), "ba0c3bc82bb718f4"),
        (wheel(5), "0549d05954432c9e"),
        (cycle(16), "b245deb1864aa1bc"),
        (path(1), "0758ffe9350a70a1"),
        (Graph(3), "d94a69874c047d9d"),
    ]

    @pytest.mark.parametrize("G, pin", EDGE_HASHES, ids=["K40", "W5", "C16", "P1", "empty3"])
    def test_edge_hash_pins(self, G, pin):
        pairs = sorted((u, v) for u, v in itertools.combinations(range(G.n), 2) if G.adj[u] >> v & 1)
        blob = f"{G.n}:" + ",".join(f"{u}-{v}" for u, v in pairs)
        assert hashlib.sha256(blob.encode()).hexdigest()[:16] == pin
        assert itf.fingerprint(G)["edge_hash"] == pin

    def test_edge_hash_in_a_fresh_interpreter(self):
        """The first fingerprint in a process imports hashlib; it gives the
        same hashes."""
        code = ("import sys, interfere as itf; "
                "print(*(itf.fingerprint(itf.from_graph6(g))['edge_hash'] for g in sys.argv[1:]))")
        proc = subprocess.run(
            [sys.executable, "-c", code, *(to_graph6(G) for G, _ in self.EDGE_HASHES)],
            capture_output=True, text=True, check=True, env=package_env(),
        )
        assert proc.stdout.split() == [pin for _, pin in self.EDGE_HASHES]
