"""Distance patterns: labeling vertices by their sets of distances to a marker set.

For a connected graph and a nonempty marker set M, vertex u gets
f(u) = { d(u, v) : v in M }, a subset of {0..diameter}.  When these sets are
pairwise distinct M is distance-pattern distinguishing (a DPD set), and the
labeling can be tested as an interference of M with respect to the complete
graph on V.
"""
from __future__ import annotations

from .bitset import check_set, iter_bits, mask_of
from .core import SetLabeling, is_interference, is_valid_labeling
from .errors import HypothesisViolation
from .families import complete
from .graphs import INFINITY, Graph, bfs_layers, diameter


def distance_pattern(G: Graph, M: int) -> SetLabeling:
    """Distance sets of every vertex to the markers, as labels over {0..diameter}.

    Needs a connected graph; the labels are pairwise distinct iff M is a DPD set.
    """
    check_set(M, G.n, "marker set")
    diam = diameter(G)
    if diam == INFINITY:
        raise HypothesisViolation("distance patterns need a connected graph")
    patterns = [0] * G.n
    for v in iter_bits(M):
        for d, layer in enumerate(bfs_layers(G, v)):
            for u in iter_bits(layer):
                patterns[u] |= 1 << d
    return SetLabeling(diam + 1, tuple(patterns))


def is_dpd_set(G: Graph, M: int) -> bool:
    """Markers whose distance patterns separate all vertices."""
    return len(set(distance_pattern(G, M).labels)) == G.n


def path_dpd_set(n: int) -> int:
    """Marker mask {j(j-1)/2 : 1 <= j <= r} for the n-vertex path, 0-based.

    r is the largest size whose last marker still fits: the unique r with
    r(r-1)/2 <= n-1 < r(r+1)/2.  The gaps grow by one each step, which is
    what makes the resulting distance sets pairwise distinct.
    """
    if n < 4:
        raise ValueError("path construction needs n >= 4")
    r = 1
    while (r + 1) * r // 2 <= n - 1:
        r += 1
    markers = [j * (j - 1) // 2 for j in range(1, r + 1)]
    return mask_of(markers)


def dpd_interference_check(G: Graph, M: int) -> bool:
    """Whether the distance-pattern labeling interferes for M on the complete graph.

    False whenever two vertices share a pattern (the labeling is not even
    valid); with a valid labeling, every nonmarker's distance set must meet
    some marker's.
    """
    f = distance_pattern(G, M)
    if not is_valid_labeling(f):
        return False
    return is_interference(complete(G.n), M, f)
