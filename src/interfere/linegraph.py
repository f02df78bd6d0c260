"""Interference criteria for labelings of a graph's edges.

Edges get labeled by their neighboring edges (or the complement thereof),
i.e. the open/complemented neighborhoods taken in the line graph; the
interference condition is with respect to the complete graph on the edge
set.  All structural predicates below work on G directly through edge
adjacency masks; materializing the line graph is reserved for the
definitional oracle (line_graph + the neighborhood module), which is also
what settles completeness.

Edge sets are int bitmasks over canonical edge indices (Graph.edges order).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, List, Tuple

from .bitset import bit_list, iter_bits
from .core import is_complete_interference
from .errors import HypothesisViolation
from .graphs import (
    Graph,
    components,
    is_connected,
    is_regular,
    edge_adjacency_masks,
    line_graph,
)
from .neighborhood import neighborhood_labeling


def edge_mask(G: Graph, pairs: Iterable[Tuple[int, int]]) -> int:
    """Bitmask of edge indices for the given endpoint pairs."""
    mask = 0
    for u, v in pairs:
        mask |= 1 << G.edge_index(u, v)
    return mask


def _has_spanning_path(G: Graph, verts: List[int]) -> bool:
    for order in permutations(verts):
        if all(G.has_edge(order[i], order[i + 1]) for i in range(len(order) - 1)):
            return True
    return False


def _component_kinds(G: Graph) -> List[Tuple[str, List[int]]]:
    """(kind, vertices) per component: 'edgeless', 'K2', 'sandwich' or 'other'.

    A sandwich component has exactly four vertices carrying a spanning path;
    those are precisely the components squeezed between the 4-path and K4.
    """
    out = []
    for comp in components(G):
        verts = bit_list(comp)
        medges = sum(1 for u, v in G.edges if comp >> u & 1)
        if medges == 0:
            kind = "edgeless"
        elif len(verts) == 2:
            kind = "K2"
        elif len(verts) == 4 and _has_spanning_path(G, verts):
            kind = "sandwich"
        else:
            kind = "other"
        out.append((kind, verts))
    return out


@dataclass(frozen=True)
class InjectivityReport:
    injective: bool
    obstructions: Tuple[Tuple[str, Tuple[int, ...]], ...]


def line_injectivity_report(G: Graph) -> InjectivityReport:
    """Distinctness of the edge -> neighboring-edges labeling.

    Fails exactly when two components are single edges (both labels empty)
    or some component is a sandwich between the 4-path and K4.
    """
    if not G.edges:
        raise ValueError("the edge labeling of an edgeless graph is undefined")
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


def line_injective(G: Graph) -> bool:
    return line_injectivity_report(G).injective


def line_interference_of(G: Graph, D: int) -> bool:
    """Structural test that the edge labeling interferes for the edge set D.

    No component may be a single edge (empty label) or a sandwich
    (injectivity), and every edge outside D needs a neighboring edge that
    itself neighbors D.
    """
    if not G.edges:
        raise ValueError("the edge labeling of an edgeless graph is undefined")
    if D == 0:
        raise ValueError("D must be nonempty")
    if D >> len(G.edges):
        raise ValueError("D has edge indices outside the graph")
    kinds = _component_kinds(G)
    if any(k in ("K2", "sandwich") for k, _ in kinds):
        return False
    ladj = edge_adjacency_masks(G)
    for e in range(len(G.edges)):
        if D >> e & 1:
            continue
        if not any(ladj[f] & D for f in iter_bits(ladj[e])):
            return False
    return True


def line_singleton(G: Graph, edge: int) -> bool:
    """Interference of the single edge {edge} (an edge index).

    Demands a connected edge-bearing part with at least two edges, no
    sandwich shape, and every edge within two steps of the chosen one.
    Isolated vertices carry no edges and are ignored.
    """
    if not G.edges:
        raise ValueError("the edge labeling of an edgeless graph is undefined")
    if not 0 <= edge < len(G.edges):
        raise ValueError(f"edge index {edge} out of range")
    kinds = _component_kinds(G)
    carrying = [(k, v) for k, v in kinds if k != "edgeless"]
    if len(carrying) != 1:
        return False
    if len(G.edges) < 2:
        return False
    if carrying[0][0] in ("K2", "sandwich"):
        return False
    # every edge must be a neighbor of a neighbor of the chosen edge
    ladj = edge_adjacency_masks(G)
    return all(
        e == edge or (ladj[e] & ladj[edge]) for e in range(len(G.edges))
    )


@dataclass(frozen=True)
class LineCompleteReport:
    """Clause-by-clause trace for edge-labeling completeness.

    The recorded clauses are each necessary; they are not jointly sufficient
    (one published clause of the criterion is garbled), so the verdict is
    the definitional oracle's and `undetermined` flags graphs where all
    clauses hold yet the oracle says no.
    """

    verdict: bool
    clauses: dict
    undetermined: bool


def line_complete_report(G: Graph) -> LineCompleteReport:
    if G.n < 3:
        raise HypothesisViolation("edge-labeling completeness needs order >= 3")
    if not is_connected(G):
        raise HypothesisViolation("edge-labeling completeness needs a connected graph")
    ladj = edge_adjacency_masks(G)
    not_sandwich = _component_kinds(G)[0][0] != "sandwich"
    diam_ok = all(
        (ladj[i] >> j & 1) or (ladj[i] & ladj[j])
        for i in range(len(G.edges))
        for j in range(i + 1, len(G.edges))
    )
    pendant_ok = True
    for u, v in G.edges:
        du, dv = G.degree(u), G.degree(v)
        if min(du, dv) == 1 and max(du, dv) < 3:
            pendant_ok = False
    clauses = {
        "no_sandwich": not_sandwich,
        "line_diameter_le_2": diam_ok,
        "pendant_edges_thick": pendant_ok,
    }
    L, _ = line_graph(G)
    rep = neighborhood_labeling(L)
    oracle = rep.valid and is_complete_interference(rep.labeling)
    return LineCompleteReport(oracle, clauses, all(clauses.values()) and not oracle)


def line_complete(G: Graph) -> bool:
    """Edge labeling pairwise-intersecting; settled by the oracle on L(G)."""
    return line_complete_report(G).verdict


# ---------------------------------------------------------------------------
# complemented edge labeling

def _require_cnbd_hypotheses(G: Graph) -> None:
    if not is_connected(G):
        raise HypothesisViolation("complemented edge criteria need a connected graph")
    if G.n < 5:
        raise HypothesisViolation("complemented edge criteria need order >= 5")


def line_complemented_interference_of(G: Graph, D: int) -> bool:
    """Structural test that edge -> non-neighboring-edges interferes for D.

    On a connected graph of order >= 5 the labeling is automatically valid;
    only an edge adjacent to every member of D is at risk, and it is saved
    by any non-neighboring edge that misses some member of D.
    """
    _require_cnbd_hypotheses(G)
    if D == 0:
        raise ValueError("D must be nonempty")
    if D >> len(G.edges):
        raise ValueError("D has edge indices outside the graph")
    ladj = edge_adjacency_masks(G)
    nedges = len(G.edges)
    for e in range(nedges):
        if D >> e & 1:
            continue
        if ladj[e] & D != D:
            continue  # some member of D already misses e
        saved = any(
            f != e and not (ladj[e] >> f & 1) and (ladj[f] & D) != D
            for f in range(nedges)
        )
        if not saved:
            return False
    return True


def line_complemented_size_rule(G: Graph, D: int) -> bool:
    """Dichotomy for |D| >= 5: either the labeling interferes for D or some
    outside edge neighbors every other edge.  Returns the disjunction."""
    _require_cnbd_hypotheses(G)
    if D.bit_count() < 5:
        raise HypothesisViolation("size rule needs |D| >= 5")
    if line_complemented_interference_of(G, D):
        return True
    ladj = edge_adjacency_masks(G)
    nedges = len(G.edges)
    all_but_self = (1 << nedges) - 1
    return any(
        not (D >> e & 1) and (ladj[e] | (1 << e)) == all_but_self
        for e in range(nedges)
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
