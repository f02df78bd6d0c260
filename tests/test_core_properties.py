"""Property tests: graph storage and formats, the two-path graph, and the
overlap-graph interference predicate.

Graphs of order 9-12 lie past the exhaustive catalogs that the other core
and graph tests sweep.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import interfere as itf
from interfere import is_dominating, neighborhood_labeling, overlap_graph, two_path_graph

from oracles import brute_is_interference, brute_two_path_graph


@st.composite
def graphs(draw):
    n = draw(st.integers(9, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return itf.Graph(n, [e for e, k in zip(pairs, keep) if k])


@st.composite
def labeled_graphs(draw):
    """A graph, a valid labeling over 4-6 elements, and a nonempty target set."""
    G = draw(graphs())
    m = draw(st.integers(4, 6))
    codes = draw(st.lists(st.integers(1, (1 << m) - 1), min_size=G.n, max_size=G.n,
                          unique=True))
    D = draw(st.integers(1, G.full_mask))
    return G, itf.SetLabeling(m, tuple(codes)), D


@settings(derandomize=True, deadline=None)
@given(graphs())
def test_graph6_and_edge_list_round_trips(G):
    assert itf.from_graph6(itf.to_graph6(G)) == G
    assert itf.from_edge_list(itf.to_edge_list_text(G)) == G


@settings(derandomize=True, deadline=None)
@given(graphs(), st.randoms(use_true_random=False))
def test_rows_and_edges_give_the_same_graph(G, rng):
    """A graph built from its own rows, or from its edges in any order and
    orientation, has the same edges in the same order, edge indices, hash
    and fingerprint."""
    shuffled = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in G.edges]
    rng.shuffle(shuffled)
    for H in (itf.Graph.from_rows(G.adj), itf.Graph(G.n, shuffled)):
        assert H == G
        assert H.adj == G.adj
        assert H.edges == G.edges
        assert H.m == G.m == len(G.edges)
        assert all(H.edge_index(u, v) == G.edge_index(v, u) == k
                   for k, (u, v) in enumerate(G.edges))
        assert hash(H) == hash(G)
        assert itf.fingerprint(H) == itf.fingerprint(G)


@settings(derandomize=True, deadline=None)
@given(graphs())
def test_two_path_graph_matches_distance_oracle(G):
    T = two_path_graph(G)
    assert (T is None) == (not neighborhood_labeling(G).valid)
    if T is not None:
        assert T == brute_two_path_graph(G)


@settings(derandomize=True, deadline=None)
@given(labeled_graphs())
def test_overlap_domination_matches_set_oracle(case):
    G, f, D = case
    assert is_dominating(overlap_graph(G, f), D) == brute_is_interference(
        G, itf.bit_list(D), f
    )
