"""Acceptance gate: one test per numbered build criterion.

Each test is self-contained and states exactly what it certifies.  Wherever a
criterion names a closed-form value, the test recomputes the value through an
independent route (brute-force enumeration over set families, raw adjacency
arithmetic, or the definitional interference predicate) so that the package
under test never grades its own homework.  Runtime ceilings that are part of
a criterion are enforced with wall-clock checks.

Two families of facts deserve a note up front because the obvious closed
forms have degenerate endpoints, and the tests below pin the true values:

* the two-block cross-intersecting maximum equals 2^m - 4 only from m = 3 on;
  at m = 2 the blocks {a}, {b} admit the single partner {a, b}, beating the
  construction that drops a point from the ground set (so b2(2) = 1, not 0);
* a wheel with rim length exactly 4 gives opposite rim vertices identical
  neighborhoods, so its neighborhood labeling is not injective and cannot be
  a complete interference; every other rim length from 3 through 8 works.
"""

import math
import random
import time

import pytest

import interfere as itf
from interfere import (
    Graph,
    Pattern,
    bipartite_index,
    bit_list,
    build_complete_interference,
    ceil_log2,
    certificate,
    complemented_complete,
    complemented_interference_of,
    complete,
    complete_bipartite,
    connected_graphs,
    crown,
    cycle,
    dpd_interference_check,
    exists_interference,
    helm,
    husimi,
    interference_index,
    is_complete_interference,
    is_dpd_set,
    is_interference,
    is_pattern_interference,
    line_complemented_independence_rule,
    line_complemented_regular_rule,
    line_graph,
    line_injectivity_report,
    mask_of,
    matching,
    max_cross_intersecting,
    neighborhood_complete,
    neighborhood_interference_of,
    path,
    path_dpd_set,
    star,
    star_polygon,
    wheel,
    windmill,
)
from oracles import brute_max_cross_intersecting, brute_minimal_dominating_sets

PETERSEN = Graph(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
)


# ---------------------------------------------------------------------------
# definitional oracles used by several criteria, written with plain Python
# sets so they share no machinery with the bitmask implementation under test

def _oracle_verdict(label_sets, D_mask):
    """Is the given vertex -> set map an interference of D when any two
    distinct vertices may interfere?  Validity (nonempty, injective) included."""
    n = len(label_sets)
    if any(not s for s in label_sets) or len(set(label_sets)) < n:
        return False
    members = [v for v in range(n) if D_mask >> v & 1]
    return all(
        any(label_sets[u] & label_sets[v] for v in members)
        for u in range(n)
        if not D_mask >> u & 1
    )


def _open_label_sets(G):
    return [frozenset(bit_list(G.adj[u])) for u in G.vertices()]


def _complemented_label_sets(G):
    everyone = frozenset(G.vertices())
    return [everyone - frozenset(bit_list(G.adj[u])) for u in G.vertices()]


def _edge_label_sets(G):
    """Edge i -> indices of edges sharing an endpoint with it."""
    return [
        frozenset(
            j
            for j, f in enumerate(G.edges)
            if j != i and set(f) & set(e)
        )
        for i, e in enumerate(G.edges)
    ]


# ---------------------------------------------------------------------------
# 1. complete-graph index

def test_criterion_01_complete_graph_index():
    """interference_index(K_n) over dominating sets is ceil(log2 2n) for
    n = 2..12; each run finishes within a minute and the phase one ground
    element below the answer is exhausted (search reports None)."""
    for n in range(2, 13):
        started = time.monotonic()
        res = interference_index(complete(n), Pattern.all_dominating())
        assert res.index == ceil_log2(2 * n), n
        assert is_pattern_interference(complete(n), Pattern.all_dominating(), res.witness)
        assert exists_interference(complete(n), Pattern.all_dominating(), res.index - 1) is None
        assert time.monotonic() - started < 60.0, n


# ---------------------------------------------------------------------------
# 2. index when the target set is one vertex joined to everything

def test_criterion_02_wheel_center_index():
    """For a wheel with rim length n = 3..6 and target set {hub}, the index
    is ceil(log2(order + 1)) with order n + 1."""
    for n in range(3, 7):
        W = wheel(n)
        hub_only = Pattern.explicit([1 << n])
        res = interference_index(W, hub_only)
        assert res.index == ceil_log2(n + 2), n
        assert is_pattern_interference(W, hub_only, res.witness)


# ---------------------------------------------------------------------------
# 3. two-block cross-intersecting law and the K_{2,s} index

def test_criterion_03_two_block_law_and_k2s_index():
    """Brute force certifies the two-block maximum b2(m): it equals 2^m - 4
    for m = 3..5, while the degenerate endpoint is b2(2) = 1 (the blocks
    {a}, {b} with partner {a, b}; the 2^m - 4 construction only gives 0
    there).  The K_{2,s} index formula ceil(log2(s + 4)) holds for
    s = 2..12 and agrees with the direct search for s <= 5."""
    for m in range(2, 6):
        brute = brute_max_cross_intersecting(2, m)
        assert max_cross_intersecting(2, m).value == brute, m
        if m == 2:
            assert brute == 1
        else:
            assert brute == (1 << m) - 4, m
    for s in range(2, 13):
        assert bipartite_index(2, s) == ceil_log2(s + 4), s
    for s in range(2, 6):
        res = interference_index(complete_bipartite(2, s), Pattern.all_dominating())
        assert res.index == bipartite_index(2, s), s


# ---------------------------------------------------------------------------
# 4. K_{r,s} equality window for r = 3, 4

def test_criterion_04_krs_equality_window():
    """bipartite_index(r, s) equals ceil(log2(n + r)) with n = r + s for
    every 3 <= r <= 4 and r <= s <= 6, and the direct search over all
    minimal dominating sets of K_{r,s} finds the same index."""
    for r in (3, 4):
        for s in range(r, 7):
            assert bipartite_index(r, s) == ceil_log2(2 * r + s), (r, s)
            res = interference_index(complete_bipartite(r, s), Pattern.all_dominating())
            assert res.index == bipartite_index(r, s), (r, s)


# ---------------------------------------------------------------------------
# 5. neighborhood criteria match the definitional oracle

def test_criterion_05_neighborhood_routes_match_definitional_oracle():
    """Over every connected graph with at most 6 vertices, the structural
    verdicts for the open and complemented neighborhood labelings equal the
    definitional oracle: exhaustively over all nonempty target sets up to
    5 vertices, and over 500 seeded samples per graph at 6 vertices.  Zero
    mismatches, under ten minutes."""
    started = time.monotonic()
    mismatches = []

    def compare(G, D):
        open_sets = _open_label_sets(G)
        comp_sets = _complemented_label_sets(G)
        if neighborhood_interference_of(G, D) != _oracle_verdict(open_sets, D):
            mismatches.append(("open", itf.to_graph6(G), D))
        if complemented_interference_of(G, D) != _oracle_verdict(comp_sets, D):
            mismatches.append(("complemented", itf.to_graph6(G), D))

    checked = 0
    for n in range(1, 6):
        for G in connected_graphs(n):
            for D in range(1, 1 << n):
                compare(G, D)
                checked += 1
    rng = random.Random(0)
    sixes = connected_graphs(6)
    assert len(sixes) == 112
    for G in sixes:
        for _ in range(500):
            compare(G, rng.randrange(1, 1 << 6))
            checked += 1
    assert mismatches == []
    assert checked == sum((1 << n) - 1 for n, c in ((1, 1), (2, 1), (3, 2), (4, 6), (5, 21)) for _ in range(c)) + 112 * 500
    assert time.monotonic() - started < 600.0


# ---------------------------------------------------------------------------
# 6. named families where the neighborhood labeling succeeds

def test_criterion_06_family_examples():
    """Completeness of the neighborhood labeling across the named families,
    and interference for the documented target sets on helms, crowns and
    star polygons.  Wheels work for every rim length 3..8 except exactly 4,
    where the two rim vertices opposite each other share their whole
    neighborhood and injectivity fails."""
    for n in (3, 5, 6, 7, 8):
        assert neighborhood_complete(wheel(n)), n
    W = wheel(4)
    assert W.adj[0] == W.adj[2]  # {1, 3, hub} both times
    assert not neighborhood_complete(W)

    for n in (3, 4):
        for m in (2, 3):
            assert neighborhood_complete(windmill(n, m)), (n, m)
    for orders in ([3, 3], [3, 4, 5]):
        assert neighborhood_complete(husimi(orders)), orders

    for n in range(3, 7):
        H = helm(n)  # rim 0..n-1, hub n, pendants n+1..2n
        assert neighborhood_interference_of(H, mask_of(range(n)))
        assert neighborhood_interference_of(H, mask_of(range(n + 1, 2 * n + 1)))
        C = crown(n)  # cycle 0..n-1, pendants n..2n-1
        assert neighborhood_interference_of(C, mask_of(range(n)))
        assert neighborhood_interference_of(C, mask_of(range(n, 2 * n)))
        S = star_polygon(n)  # cycle 0..n-1, apexes n..2n-1
        assert neighborhood_interference_of(S, mask_of(range(n)))
        assert neighborhood_interference_of(S, mask_of(range(n, 2 * n)))


# ---------------------------------------------------------------------------
# 7. complemented labeling on cycles

def test_criterion_07_complemented_cycle_boundary():
    """The complemented neighborhood labeling of C_n is a complete
    interference exactly when n >= 5, for n = 3..10."""
    for n in range(3, 11):
        assert complemented_complete(cycle(n)) == (n >= 5), n


# ---------------------------------------------------------------------------
# 8. injectivity of the edge labeling

def test_criterion_08_line_injectivity():
    """Among connected graphs on 4 vertices the edge labeling fails to be
    injective exactly for the path, the cycle, the complete graph, the
    complete graph minus an edge, and the triangle with a pendant; it is
    injective for every connected graph on 5..7 vertices.  The structural
    verdict matches the pairwise duplicate-row oracle on the line graph
    with zero mismatches through 7 vertices."""
    offenders = {
        certificate(path(4)),
        certificate(cycle(4)),
        certificate(complete(4)),
        certificate(Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])),  # K4 - e
        certificate(Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])),  # paw
    }
    found = {
        certificate(G) for G in connected_graphs(4) if not line_injectivity_report(G).injective
    }
    assert found == offenders
    # the only other connected graph on 4 vertices
    assert line_injectivity_report(star(3)).injective

    for n in range(5, 8):
        assert all(line_injectivity_report(G).injective for G in connected_graphs(n)), n

    for n in range(2, 8):
        for G in connected_graphs(n):
            rows = _edge_label_sets(G)
            injective = line_injectivity_report(G).injective
            assert injective == (len(set(rows)) == len(rows)), itf.to_graph6(G)


# ---------------------------------------------------------------------------
# 9. edge labeling interference matches the oracle; sufficient rules

def test_criterion_09_line_interference_oracle_and_rules():
    """The structural edge-labeling verdict equals the definitional oracle
    on every connected graph with at most 6 vertices over 300 seeded random
    edge subsets each, with zero mismatches.  Whenever one of the two
    sufficient rules for the complemented edge labeling fires (independence
    number below order minus 4, or regular of order at least 8, with the
    Petersen graph and K_{4,4} as the mandated regular exemplars) the
    complemented edge labeling really is a complete interference."""
    rng = random.Random(0)
    for n in range(2, 7):
        for G in connected_graphs(n):
            labels = _edge_label_sets(G)
            L = line_graph(G)
            for _ in range(300):
                D = rng.randrange(1, 1 << G.m)
                assert neighborhood_interference_of(L, D) == _oracle_verdict(labels, D), (
                    itf.to_graph6(G),
                    bin(D),
                )

    def complemented_edge_complete(G):
        everyone = frozenset(range(G.m))
        labels = [everyone - s for s in _edge_label_sets(G)]
        if len(set(labels)) < len(labels):
            return False
        return all(
            labels[i] & labels[j]
            for i in range(G.m)
            for j in range(i + 1, G.m)
        )

    fired = []
    for G in [PETERSEN, complete_bipartite(4, 4)] + [
        H for n in range(5, 8) for H in connected_graphs(n)
    ]:
        if line_complemented_regular_rule(G) or line_complemented_independence_rule(G):
            fired.append(G)
            assert complemented_edge_complete(G), itf.to_graph6(G)
    assert line_complemented_regular_rule(PETERSEN)
    assert line_complemented_regular_rule(complete_bipartite(4, 4))
    assert len(fired) >= 2


# ---------------------------------------------------------------------------
# 10. distance-pattern distinguishing sets on paths

def test_criterion_10_dpd_path_theorem():
    """For n = 4..40 the path construction returns the triangular-number
    markers: floor((1 + sqrt(8n - 7)) / 2) of them, forming a distinguishing
    set whose distance-pattern labeling interferes for the marker set, both
    confirmed by a raw-set oracle.  (The ceiling of the same expression
    coincides exactly when 8n - 7 is a perfect square; when it differs, a
    set of that larger size would need a marker beyond the last vertex.)
    No singleton ever works on a connected graph of order 2..6.  Under a
    minute in total."""
    started = time.monotonic()
    for n in range(4, 41):
        P = path(n)
        M = path_dpd_set(n)
        markers = list(bit_list(M))
        r = math.floor((1 + math.isqrt(8 * n - 7)) / 2)
        assert len(markers) == r, n
        assert markers == [j * (j - 1) // 2 for j in range(1, r + 1)], n
        square = math.isqrt(8 * n - 7) ** 2 == 8 * n - 7
        assert (math.ceil((1 + math.sqrt(8 * n - 7)) / 2) == r) == square, n
        assert is_dpd_set(P, M)
        assert dpd_interference_check(P, M)
        # raw-set oracle: patterns are distance multisets to the markers
        patterns = [frozenset(abs(v - u) for u in markers) for v in range(n)]
        assert _oracle_verdict(patterns, M), n

    for n in range(2, 7):
        for G in connected_graphs(n):
            for v in range(n):
                assert not dpd_interference_check(G, 1 << v), (itf.to_graph6(G), v)
    assert time.monotonic() - started < 60.0


# ---------------------------------------------------------------------------
# 11. the doubling construction is sound and universal

def test_criterion_11_construction_soundness():
    """build_complete_interference(n) yields a valid pairwise-intersecting
    labeling on exactly 1 + ceil(log2 n) ground elements for n = 1..64, and
    on every graph with at most 5 vertices it interferes for every minimal
    dominating set enumerated by brute force."""
    for n in range(1, 65):
        lab = build_complete_interference(n)
        assert len(lab.labels) == n
        assert is_complete_interference(lab)
        sets = [frozenset(bit_list(code)) for code in lab.labels]
        assert all(sets) and len(set(sets)) == n
        assert all(a & b for i, a in enumerate(sets) for b in sets[i + 1:])
        assert lab.ground_size == 1 + ceil_log2(n), n

    for n in range(1, 6):
        for G in itf.all_graphs(n):
            lab = build_complete_interference(n)
            for D in brute_minimal_dominating_sets(G):
                assert is_interference(G, mask_of(D), lab), (itf.to_graph6(G), D)
