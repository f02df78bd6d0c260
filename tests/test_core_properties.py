"""Property tests: graph formats and the overlap-graph interference predicate.

Graphs of order 9-12 lie past the exhaustive catalogs that the other core
and graph tests sweep.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import interfere as itf
from interfere import is_dominating, overlap_graph

from oracles import brute_is_interference


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
@given(labeled_graphs())
def test_overlap_domination_matches_set_oracle(case):
    G, f, D = case
    assert is_dominating(overlap_graph(G, f), D) == brute_is_interference(
        G, itf.bit_list(D), f
    )
