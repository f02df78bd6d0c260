"""Property tests: the index kernel's pruning rules, each on and off.

Graphs of order 7-12 lie past the exhaustive differential tests in
test_index.py.  The symmetry rules run on a random connected base graph of
order 7-9 with planted true twins (same closed neighborhood) and false twins
(same open neighborhood), which is where twin ordering prunes.  Neighbor
counting runs on dense connected graphs of order 9-12, where the forced
graph holds most edges.
"""

from hypothesis import given, reject, settings
from hypothesis import strategies as st

import interfere as itf
from interfere import Pattern, SearchBudgetExceeded, exists_interference, index_lower_bound

from conftest import forced_rule_on_off, target_sets
from oracles import brute_is_interference


@st.composite
def graphs_with_twins(draw):
    n = draw(st.integers(7, 9))
    base = draw(st.integers(3, n - 2))
    # a random spanning tree keeps the base connected
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, base)}
    for u in range(base):
        for v in range(u + 1, base):
            if draw(st.booleans()):
                edges.add((u, v))
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    for w in range(base, n):
        v = draw(st.integers(0, w - 1))
        nbrs[w] = set(nbrs[v])
        if draw(st.booleans()):  # true twin: also adjacent to v
            nbrs[w].add(v)
        for x in nbrs[w]:
            nbrs[x].add(w)
    return itf.Graph(n, [(u, v) for u in range(n) for v in nbrs[u] if u < v])


@st.composite
def dense_graphs(draw):
    """A connected graph of order 9-12: a random spanning tree plus each other
    pair with probability k/10, k drawn from 5-8."""
    n = draw(st.integers(9, 12))
    k = draw(st.integers(5, 8))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.integers(0, 9)) < k:
                edges.add((u, v))
    return itf.Graph(n, sorted(edges))


@st.composite
def graph_and_pattern(draw, graphs=graphs_with_twins()):
    G = draw(graphs)
    if draw(st.booleans()):
        return G, Pattern.all_dominating()
    # an explicit subfamily can make graph twins asymmetric
    minimal = itf.minimal_dominating_sets(G)
    picked = draw(st.lists(st.sampled_from(minimal), min_size=1, max_size=4, unique=True))
    return G, Pattern.explicit(picked)


# Without symmetry breaking, refuting a near-complete graph of order 9 takes
# tens of seconds (K9 at m = 4: about 25 s); such examples are rejected.  K_n has its
# own exhaustive checks in test_index.py and test_acceptance.py.
SYMMETRY_OFF_BUDGET = 3000


@settings(derandomize=True, deadline=None)
@given(graph_and_pattern())
def test_twin_ordering_keeps_verdicts_and_witnesses(case):
    G, P = case
    m = index_lower_bound(G.n)
    on = exists_interference(G, P, m, symmetry=True)
    try:
        off = exists_interference(G, P, m, budget=SYMMETRY_OFF_BUDGET, symmetry=False)
    except SearchBudgetExceeded:
        reject()
    assert (on is None) == (off is None), itf.to_graph6(G)
    for witness in (on, off):
        if witness is not None:
            for D in target_sets(G, P):
                assert brute_is_interference(G, itf.bit_list(D), witness)


# Neighbor counting off, refuting m = L at order 12 can take tens of
# thousands of nodes; such examples are rejected.
FORCED_OFF_BUDGET = 3000


@settings(max_examples=50, derandomize=True, deadline=None)
@given(graph_and_pattern(dense_graphs()))
def test_neighbor_counting_keeps_verdicts_and_witnesses(case):
    G, P = case
    try:
        (on, nodes_on), (off, nodes_off) = forced_rule_on_off(
            G, P, index_lower_bound(G.n), FORCED_OFF_BUDGET)
    except SearchBudgetExceeded:
        reject()
    assert on == off, itf.to_graph6(G)
    assert nodes_on <= nodes_off, itf.to_graph6(G)
    if on is not None:
        for D in target_sets(G, P):
            assert brute_is_interference(G, itf.bit_list(D), on)
