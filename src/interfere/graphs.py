"""Simple-graph core: immutable graphs, metrics, derived graphs, text formats.

Vertices are always 0..n-1.  Vertex sets are int bitmasks (see bitset.py).
Edges are canonical ``(u, v)`` pairs with ``u < v``, stored sorted, so the
edge order (and therefore every edge index used by the line-graph routines)
is reproducible.
"""
from __future__ import annotations

import hashlib
import math
from typing import Iterable, List, Optional, Tuple, Union

from .bitset import iter_bits
from .errors import GraphFormatError


# Distance to an unreachable vertex; orders above every int and never overflows.
INFINITY = math.inf

Distance = Union[int, float]


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "adj", "edges", "full_mask", "_edge_index")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]] = ()):
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"graph order must be a positive int, got {n!r}")
        canon = []
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            canon.append(e)
        canon.sort()
        adj = [0] * n
        for u, v in canon:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(canon))
        object.__setattr__(self, "adj", tuple(adj))
        object.__setattr__(self, "full_mask", (1 << n) - 1)
        object.__setattr__(self, "_edge_index", {e: i for i, e in enumerate(canon)})

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def m(self) -> int:
        return len(self.edges)

    def vertices(self) -> range:
        return range(self.n)

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1) if 0 <= v < self.n else False

    def edge_index(self, u: int, v: int) -> int:
        e = (u, v) if u < v else (v, u)
        try:
            return self._edge_index[e]
        except KeyError:
            raise ValueError(f"{e} is not an edge") from None

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# neighborhoods

def open_neighborhood(G: Graph, u: int) -> int:
    """Open neighborhood N(u) as a bitmask (u itself excluded)."""
    return G.adj[u]


def closed_neighborhood(G: Graph, u: int) -> int:
    return G.adj[u] | (1 << u)


def complemented_neighborhood(G: Graph, u: int) -> int:
    """V minus N(u); note u itself is a member (never empty)."""
    return G.full_mask & ~G.adj[u]


def second_neighborhood(G: Graph, u: int) -> int:
    """Vertices at distance exactly two from u, by mask composition."""
    ring = 0
    for v in iter_bits(G.adj[u]):
        ring |= G.adj[v]
    return ring & ~G.adj[u] & ~(1 << u)


# ---------------------------------------------------------------------------
# distances

def bfs_distances(G: Graph, source: int) -> List[Distance]:
    """Distances from source to every vertex; INFINITY where unreachable."""
    if not 0 <= source < G.n:
        raise ValueError(f"source {source} out of range")
    dist: List[Distance] = [INFINITY] * G.n
    dist[source] = 0
    frontier = 1 << source
    visited = frontier
    d = 0
    while frontier:
        d += 1
        nxt = 0
        for v in iter_bits(frontier):
            nxt |= G.adj[v]
        nxt &= ~visited
        for v in iter_bits(nxt):
            dist[v] = d
        visited |= nxt
        frontier = nxt
    return dist


def distance(G: Graph, u: int, v: int) -> Distance:
    return bfs_distances(G, u)[v]


def diameter(G: Graph) -> Distance:
    best: Distance = 0
    for u in G.vertices():
        for d in bfs_distances(G, u):
            if d > best:
                best = d
    return best


def is_connected(G: Graph) -> bool:
    return INFINITY not in bfs_distances(G, 0)


def components(G: Graph) -> List[int]:
    """Vertex masks of the connected components, in order of smallest vertex."""
    out = []
    todo = G.full_mask
    while todo:
        start = (todo & -todo).bit_length() - 1
        comp = 1 << start
        frontier = comp
        while frontier:
            nxt = 0
            for v in iter_bits(frontier):
                nxt |= G.adj[v]
            nxt &= ~comp
            comp |= nxt
            frontier = nxt
        out.append(comp)
        todo &= ~comp
    return out


def induced_subgraph(G: Graph, mask: int) -> Tuple[Graph, List[int]]:
    """Subgraph induced on the masked vertices, plus new-index -> old-vertex map."""
    verts = list(iter_bits(mask))
    if not verts:
        raise ValueError("cannot induce on the empty vertex set")
    pos = {v: i for i, v in enumerate(verts)}
    edges = [(pos[u], pos[v]) for u, v in G.edges if (mask >> u & 1) and (mask >> v & 1)]
    return Graph(len(verts), edges), verts


# ---------------------------------------------------------------------------
# structural predicates and invariants

def is_point_determining(G: Graph) -> bool:
    """No two distinct vertices share the same open neighborhood."""
    return len(set(G.adj)) == G.n


def edge_in_triangle(G: Graph, edge: Tuple[int, int]) -> bool:
    u, v = edge
    if not G.has_edge(u, v):
        raise ValueError(f"({u},{v}) is not an edge")
    return (G.adj[u] & G.adj[v]) != 0


def is_regular(G: Graph) -> Optional[int]:
    """The common degree if G is regular, else None."""
    degs = {mask.bit_count() for mask in G.adj}
    return degs.pop() if len(degs) == 1 else None


# ---------------------------------------------------------------------------
# line graph

def edge_adjacency_masks(G: Graph) -> List[int]:
    """For each edge index i, the mask of edge indices sharing an endpoint."""
    at_vertex = [0] * G.n
    for i, (u, v) in enumerate(G.edges):
        at_vertex[u] |= 1 << i
        at_vertex[v] |= 1 << i
    return [(at_vertex[u] | at_vertex[v]) & ~(1 << i) for i, (u, v) in enumerate(G.edges)]


def line_graph(G: Graph) -> Graph:
    """Line graph whose vertex i is the edge G.edges[i]."""
    if not G.edges:
        raise ValueError("line graph of an edgeless graph is undefined")
    masks = edge_adjacency_masks(G)
    edges = [(i, j) for i in range(len(masks)) for j in iter_bits(masks[i]) if i < j]
    return Graph(len(G.edges), edges)


# ---------------------------------------------------------------------------
# text formats

def from_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format: first value n, then one 'u v' per line.

    '#' starts a comment, blank lines are skipped.  Raises GraphFormatError on
    self-loops, duplicate edges, out-of-range endpoints or malformed lines.
    """
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 1:
                raise GraphFormatError(f"line {lineno}: expected the vertex count, got {raw!r}")
            try:
                n = int(parts[0])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: vertex count is not an int") from None
            if n < 1:
                raise GraphFormatError(f"line {lineno}: vertex count must be positive")
            continue
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: endpoints are not ints") from None
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop at {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"line {lineno}: endpoint out of range for n={n}")
        e = (u, v) if u < v else (v, u)
        if e in edges:
            raise GraphFormatError(f"line {lineno}: duplicate edge {e}")
        edges.append(e)
    if n is None:
        raise GraphFormatError("empty edge-list input")
    return Graph(n, edges)


def to_edge_list_text(G: Graph) -> str:
    lines = [str(G.n)]
    lines.extend(f"{u} {v}" for u, v in G.edges)
    return "\n".join(lines) + "\n"


def from_graph6(line: str) -> Graph:
    """Decode one short-form graph6 string (n <= 62)."""
    s = line.strip()
    if not s:
        raise GraphFormatError("empty graph6 string")
    data = [ord(c) for c in s]
    for c in data:
        if not 63 <= c <= 126:
            raise GraphFormatError(f"invalid graph6 character {chr(c)!r}")
    if data[0] == 126:
        raise GraphFormatError("long-form graph6 (n >= 63) is not supported")
    n = data[0] - 63
    if n < 1:
        raise GraphFormatError("graph6 order must be at least 1")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    payload = data[1:]
    if len(payload) != need:
        raise GraphFormatError(
            f"graph6 payload length {len(payload)} does not match order {n} (need {need})"
        )
    bits = []
    for c in payload:
        val = c - 63
        bits.extend((val >> shift) & 1 for shift in range(5, -1, -1))
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return Graph(n, edges)


def to_graph6(G: Graph) -> str:
    """Encode as one short-form graph6 string (n <= 62)."""
    if G.n > 62:
        raise GraphFormatError(f"graph6 short form handles n <= 62, got {G.n}")
    bits = []
    for j in range(1, G.n):
        for i in range(j):
            bits.append(G.adj[i] >> j & 1)
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(G.n + 63)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = (val << 1) | b
        chars.append(chr(val + 63))
    return "".join(chars)


def fingerprint(G: Graph) -> dict:
    """Stable descriptive fingerprint used in CLI reports."""
    degs = sorted((mask.bit_count() for mask in G.adj), reverse=True)
    blob = f"{G.n}:" + ",".join(f"{u}-{v}" for u, v in G.edges)
    return {
        "n": G.n,
        "m": G.m,
        "degree_sequence": degs,
        "edge_hash": hashlib.sha256(blob.encode()).hexdigest()[:16],
    }
