"""Interference criteria for labelings of a graph's edges.

Edges get labeled by their neighboring edges (or the complement thereof),
and the interference condition is with respect to the complete graph on the
edge set.  That is the neighborhood question asked of the line graph: edge i
is vertex i of L(G), and its label is N_{L(G)}(i) or its complement.  So
the per-set verdicts are the neighborhood criteria called on line_graph(G),
neighborhood_interference_of(line_graph(G), D) for the open labeling and
complemented_interference_of(line_graph(G), D) for the complemented one,
and this module holds only the statements about G itself: the K2/sandwich
description of injectivity, the three clauses that decide completeness on G
with no line graph, and the complemented labeling's size rule (connected G
of order >= 5), independence rule and regular rule.

Edge sets are int bitmasks over canonical edge indices (Graph.edges order).
"""
from __future__ import annotations

from typing import Iterable, List, NamedTuple, Tuple

from .bitset import bit_list, iter_bits
from .errors import HypothesisViolation
from .graphs import (
    Graph, check_has_edge, closed_neighborhood, components, is_connected, is_regular, line_graph
)
from .neighborhood import complemented_interference_of


def edge_mask(G: Graph, pairs: Iterable[Tuple[int, int]]) -> int:
    """Bitmask of edge indices for the given endpoint pairs."""
    mask = 0
    for u, v in pairs:
        mask |= 1 << G.edge_index(u, v)
    return mask


def _component_kinds(G: Graph) -> List[Tuple[str, List[int]]]:
    """(kind, vertices) per component: 'K2', 'sandwich' or 'other'.

    A sandwich component has exactly four vertices carrying a spanning path;
    those are precisely the components squeezed between the 4-path and K4.
    The only connected graph on four vertices without a spanning path is the
    star K1,3, the one whose degrees are 1, 1, 1, 3.
    """
    out = []
    for comp in components(G):
        verts = bit_list(comp)
        if len(verts) == 2:
            kind = "K2"
        elif len(verts) == 4 and sorted(map(G.degree, verts)) != [1, 1, 1, 3]:
            kind = "sandwich"
        else:
            kind = "other"
        out.append((kind, verts))
    return out


class InjectivityReport(NamedTuple):
    injective: bool
    obstructions: Tuple[Tuple[str, Tuple[int, ...]], ...]


def line_injectivity_report(G: Graph) -> InjectivityReport:
    """Distinctness of the edge -> neighboring-edges labeling.

    Fails exactly when two components are single edges (both labels empty)
    or some component is a sandwich between the 4-path and K4.
    """
    check_has_edge(G)
    kinds = _component_kinds(G)
    k2s = [(k, v) for k, v in kinds if k == "K2"]
    sandwiches = [(k, v) for k, v in kinds if k == "sandwich"]
    obstructions = []
    if len(k2s) >= 2:
        obstructions.extend(k2s)
    obstructions.extend(sandwiches)
    return InjectivityReport(
        not obstructions, tuple((k, tuple(v)) for k, v in obstructions)
    )


class LineCompleteReport(NamedTuple):
    """Edge-labeling completeness: the verdict is that every clause holds."""

    verdict: bool
    clauses: dict


def line_complete_report(G: Graph) -> LineCompleteReport:
    """Whether e -> N_{L(G)}(e) is a complete interference, decided on G.

    The labels are nonempty, as a connected G of order >= 3 gives every
    edge a neighbor, so they must pairwise meet and be distinct.  Adjacent
    edges vx and vy share a neighboring edge iff deg v >= 3 or xy is an
    edge: every vertex of degree 2 lies on a triangle.  Disjoint edges share
    one iff an edge joins them: for each edge ab no edge lies inside V minus
    (N[a] | N[b]), which is diameter(L(G)) <= 2.  Adjacent edges never have
    equal labels: each label holds the other edge and not its own.  If
    disjoint edges ab and cd did, an edge with one end in {a, b, c, d} would
    neighbor one of them and not the other, so G, being connected, would
    have order 4.  Order 3 has no two disjoint edges, and at order 4 the
    failure is exactly the sandwich.
    """
    if G.n < 3:
        raise HypothesisViolation("edge-labeling completeness needs order >= 3")
    if not is_connected(G):
        raise HypothesisViolation("edge-labeling completeness needs a connected graph")
    adj, closed = G.adj, [closed_neighborhood(G, v) for v in G.vertices()]
    outside = [G.full_mask & ~(closed[a] | closed[b]) for a, b in G.edges]
    clauses = {
        "no_sandwich": _component_kinds(G)[0][0] != "sandwich",
        "line_diameter_le_2": not any(adj[w] & out for out in outside for w in iter_bits(out)),
        "degree_two_on_triangle": all(
            adj[x] >> y & 1 for x, y in (bit_list(row) for row in adj if row.bit_count() == 2)
        ),
    }
    return LineCompleteReport(all(clauses.values()), clauses)


# ---------------------------------------------------------------------------
# complemented edge labeling

def line_complemented_size_rule(G: Graph, D: int) -> bool:
    """Dichotomy for |D| >= 5: either the labeling interferes for D or some
    outside edge neighbors every other edge.  Returns the disjunction."""
    if not is_connected(G):
        raise HypothesisViolation("complemented edge criteria need a connected graph")
    if G.n < 5:
        raise HypothesisViolation("complemented edge criteria need order >= 5")
    if D.bit_count() < 5:
        raise HypothesisViolation("size rule needs |D| >= 5")
    L = line_graph(G)
    return complemented_interference_of(L, D) or any(
        not (D >> e & 1) and (L.adj[e] | 1 << e) == L.full_mask for e in L.vertices()
    )


def _has_vertex_cover(G: Graph, k: int, cover: int = 0) -> bool:
    """Whether at most k more vertices touch every edge that `cover` misses:
    some endpoint of any uncovered edge must join, so branch k deep on one."""
    edge = next((e for e in G.edges if not (cover >> e[0] | cover >> e[1]) & 1), None)
    if edge is None:
        return True
    return k > 0 and any(_has_vertex_cover(G, k - 1, cover | 1 << w) for w in edge)


def line_complemented_independence_rule(G: Graph) -> bool:
    """Sufficient rule: connected with independence number below n - 4.

    That is, no vertex cover of at most 4 vertices (covers are the
    complements of independent sets), which needs no cap on the order.
    """
    return is_connected(G) and not _has_vertex_cover(G, 4)


def line_complemented_regular_rule(G: Graph) -> bool:
    """Sufficient rule: connected regular graph of order at least 8."""
    return is_connected(G) and G.n >= 8 and is_regular(G) is not None
