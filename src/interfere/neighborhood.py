"""Neighborhood-derived labelings and their interference criteria.

Here the graph G plays two roles at once: it *defines* the labeling
(open neighborhoods u -> N(u), or their complements u -> V \\ N(u), over
the ground set V) while the interference condition is taken with respect
to the complete graph on V, so any vertex of the target set may supply
the shared element.  Every predicate in this module is a structural
criterion evaluated on G directly; the definitional route (build the
labeling, run the core predicate) lives in core and is what the tests
compare against.  The closed labeling u -> N[u] is the exception: its
interference is taken with respect to G itself.

Each target-set criterion splits into a per-graph fact and a cheap test per
target set D.  The open criterion is domination of the two-path graph T(G),
where u ~ v when N(u) and N(v) meet, i.e. u and v lie at distance two or on
a common triangle; two_path_graph builds its rows from the rows of G, not
from the labels.  Completeness and the distance-two sufficient rule read the
same rows.  The complemented criterion is point-determinacy plus
complemented_escapes, a test on the common neighborhood of D.  Neither
per-set criterion needs G connected.  complemented_escape_family decides
every D at once: D fails iff it lies inside M_u = N(u) ∩ ⋂_{w ∉ N[u]} N(w)
for some u, so the family is the complement of domination.down_set over
the M_u.
"""
from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from .bitset import check_set, iter_bits
from .core import SetLabeling
from .domination import down_set, is_dominating
from .graphs import (
    Graph,
    closed_neighborhood,
    complemented_neighborhood,
    is_point_determining,
    is_regular,
)


class LabelingReport(NamedTuple):
    """Validity report for a neighborhood-style labeling of G."""

    injective: bool
    has_empty_label: bool
    labeling: Optional[SetLabeling]

    @property
    def valid(self) -> bool:
        return self.labeling is not None


def _report(G: Graph, labels: Tuple[int, ...]) -> LabelingReport:
    injective, has_empty = len(set(labels)) == G.n, 0 in labels
    valid = injective and not has_empty
    return LabelingReport(injective, has_empty, SetLabeling(G.n, labels) if valid else None)


def neighborhood_labeling(G: Graph) -> LabelingReport:
    """u -> N(u); valid iff G is point-determining with no isolated vertex."""
    return _report(G, G.adj)


def complemented_labeling(G: Graph) -> LabelingReport:
    """u -> V minus N(u); never empty, injective iff G is point-determining."""
    return _report(G, tuple(complemented_neighborhood(G, u) for u in G.vertices()))


def closed_labeling(G: Graph) -> LabelingReport:
    """u -> N[u]; never empty, injective iff G has no two true twins.

    As an interference with respect to G itself (not the complete graph) it
    serves every dominating set D once valid: an outside vertex u has a
    neighbor v in D, and N[u] and N[v] share both u and v.
    """
    return _report(G, tuple(closed_neighborhood(G, u) for u in G.vertices()))


# ---------------------------------------------------------------------------
# open-neighborhood criteria

def _open_valid(G: Graph) -> bool:
    """u -> N(u) is a valid labeling: G is point-determining with no
    isolated vertex."""
    return is_point_determining(G) and all(G.adj)


def _two_path_row(G: Graph, u: int) -> int:
    """Row u of T(G): the vertices other than u with a neighbor in common
    with u, i.e. the union of N(w) over w in N(u), minus u."""
    reach = 0
    for w in iter_bits(G.adj[u]):
        reach |= G.adj[w]
    return reach & ~(1 << u)


def _two_path_rows(G: Graph) -> List[int]:
    return [_two_path_row(G, u) for u in G.vertices()]


def two_path_graph(G: Graph) -> Optional[Graph]:
    """T(G): u ~ v when u and v lie at distance two, or on a common triangle.

    These are the pairs joined by a path of length two, so T(G) is the
    overlap graph of u -> N(u) with respect to the complete graph.  None when
    u -> N(u) is not a valid labeling: G is not point-determining, or has an
    isolated vertex.
    """
    if not _open_valid(G):
        return None
    return Graph.from_rows(_two_path_rows(G))


def neighborhood_interference_of(G: Graph, D: int) -> bool:
    """Structural test that u -> N(u) interferes for D: D dominates T(G).

    Every vertex outside D needs a member of D at distance two, or a member
    of D adjacent to it forming a triangle with it.
    """
    check_set(D, G.n)
    T = two_path_graph(G)
    return T is not None and is_dominating(T, D)


def neighborhood_complete(G: Graph) -> bool:
    """u -> N(u) pairwise-intersecting and valid: point-determining graph
    without isolated vertices (so of order >= 2) with diameter <= 2 whose
    every edge lies in a triangle, that is, every two vertices have a common
    neighbor (two_path_complete)."""
    return _open_valid(G) and two_path_complete(G)


def two_path_complete(G: Graph) -> bool:
    """Every two distinct vertices joined by a length-two path: the rows of
    T(G) are complete."""
    return all(_two_path_row(G, u) | 1 << u == G.full_mask for u in G.vertices())


# ---------------------------------------------------------------------------
# complemented-neighborhood criteria

def complemented_interference_of(G: Graph, D: int) -> bool:
    """Structural test that u -> V \\ N(u) interferes for D: G is
    point-determining and complemented_escapes(G, D) holds."""
    check_set(D, G.n)
    return is_point_determining(G) and complemented_escapes(G, D)


def _common_neighborhood(G: Graph, S: int, common: int) -> int:
    """common ∩ N(w) for every w in S, stopping once it is empty."""
    adj = G.adj
    while S and common:
        low = S & -S
        common &= adj[low.bit_length() - 1]
        S ^= low
    return common


def complemented_escapes(G: Graph, D: int) -> bool:
    """Per-D half of the complemented criterion, for nonempty D.

    Only vertices adjacent to all of D are at risk: such a u needs a
    nonneighbor that also misses some member of D, i.e. V \\ N(u) must
    escape the common neighborhood of D.  That neighborhood never meets D.
    """
    full, adj = G.full_mask, G.adj
    common = _common_neighborhood(G, D, full)
    return all((adj[u] | common) != full for u in iter_bits(common))


def complemented_escape_family(G: Graph) -> int:
    """The int whose bit D is set iff D is nonempty and
    complemented_escapes(G, D) holds.

    D fails exactly when some u in its common neighborhood has every
    nonneighbor w in it too: D lies inside N(u) and inside every N(w) with
    w outside N[u].  So the failing D are the down_set of those
    intersections M_u; it holds the empty set, so bit 0 is clear.
    """
    full = G.full_mask
    stuck = [_common_neighborhood(G, full ^ closed_neighborhood(G, u), G.adj[u])
             for u in G.vertices()]
    return down_set("complemented_escape_family", G.n, stuck) ^ ((1 << (1 << G.n)) - 1)


def complemented_complete(G: Graph) -> bool:
    """u -> V \\ N(u) pairwise-intersecting: point-determining and no edge
    whose endpoint neighborhoods cover all of V."""
    if not is_point_determining(G):
        return False
    return all((G.adj[u] | G.adj[v]) != G.full_mask for u, v in G.edges)


REGULAR_RULE = "regular"
DEGREE_SUM_RULE = "degree_sum"
DISTANCE2_RULE = "distance_2"


def complemented_sufficient_rule(G: Graph) -> Optional[str]:
    """Strongest degree-based rule certifying complemented completeness.

    In order of decreasing simplicity: k-regular with n > 2k; every two
    degrees summing below n; degree sums <= n on distance-two pairs and < n
    elsewhere.  Returns None when nothing fires (including non-point-
    determining graphs, where no rule may certify anything).
    """
    if not is_point_determining(G):
        return None
    n = G.n
    k = is_regular(G)
    if k is not None and n > 2 * k:
        return REGULAR_RULE
    degs = [G.degree(v) for v in G.vertices()]
    if sum(sorted(degs)[-2:]) < n:  # the two largest degrees
        return DEGREE_SUM_RULE
    # distance-two pairs: rows of T(G) minus the rows of G
    far = [row & ~G.adj[u] for u, row in enumerate(_two_path_rows(G))]
    if all(degs[u] + degs[v] < n + (far[u] >> v & 1)
           for u in range(n) for v in range(u + 1, n)):
        return DISTANCE2_RULE
    return None
