"""Simple-graph core: immutable graphs, metrics, derived graphs, text formats.

Vertices are always 0..n-1.  Vertex sets are int bitmasks (see bitset.py).
A graph is stored as its adjacency rows: adj[u] is the bitmask of N(u).
Every derived graph (line graph, two-path graph, overlap graph) builds its
rows directly.  The edge list is derived from the rows on first use, read
row by row with u < v, which is the canonical sorted order of ``(u, v)``
pairs; so the edge order, every edge index used by the line-graph routines,
and the vertex numbering of L(G) are reproducible.
"""
from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .bitset import check_vertex, iter_bits
from .errors import GraphFormatError


# Distance to an unreachable vertex; orders above every int and never overflows.
INFINITY = math.inf

Distance = Union[int, float]


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "adj", "full_mask", "_edges", "_edge_index")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]] = ()):
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"graph order must be a positive int, got {n!r}")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if adj[u] >> v & 1:
                raise ValueError(f"duplicate edge {(u, v) if u < v else (v, u)}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self._set_rows(tuple(adj))

    @classmethod
    def from_rows(cls, rows: Sequence[int]) -> "Graph":
        """The graph whose vertex u has neighbor mask rows[u].

        The rows must already be symmetric and loop-free; derived-graph
        builders pass rows that are so by construction, unchecked.
        """
        if not rows:
            raise ValueError("graph order must be a positive int, got 0")
        G = object.__new__(cls)
        G._set_rows(tuple(rows))
        return G

    def _set_rows(self, adj: Tuple[int, ...]) -> None:
        object.__setattr__(self, "n", len(adj))
        object.__setattr__(self, "adj", adj)
        object.__setattr__(self, "full_mask", (1 << len(adj)) - 1)
        object.__setattr__(self, "_edges", None)
        object.__setattr__(self, "_edge_index", None)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # pickle and copy rebuild from the rows; the default slot restore
        # would go through __setattr__ and fail
        return (Graph.from_rows, (self.adj,))

    @property
    def edges(self) -> Tuple[Tuple[int, int], ...]:
        """Canonical ``(u, v)`` pairs with u < v, in sorted order."""
        if self._edges is None:
            object.__setattr__(self, "_edges", tuple(
                (u, u + 1 + i)
                for u, row in enumerate(self.adj)
                for i in iter_bits(row >> (u + 1))
            ))
        return self._edges

    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def vertices(self) -> range:
        return range(self.n)

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def edge_index(self, u: int, v: int) -> int:
        if self._edge_index is None:
            object.__setattr__(self, "_edge_index", {e: i for i, e in enumerate(self.edges)})
        e = (u, v) if u < v else (v, u)
        try:
            return self._edge_index[e]
        except KeyError:
            raise ValueError(f"{e} is not an edge") from None

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# neighborhoods

def closed_neighborhood(G: Graph, u: int) -> int:
    return G.adj[u] | (1 << u)


def complemented_neighborhood(G: Graph, u: int) -> int:
    """V minus N(u); note u itself is a member (never empty)."""
    return G.full_mask & ~G.adj[u]


# ---------------------------------------------------------------------------
# distances

def bfs_layers(G: Graph, source: int) -> List[int]:
    """Vertex masks at distance 0, 1, 2, ... from source: disjoint, nonempty,
    and their union is the component of source."""
    check_vertex(source, G.n)
    layers = [1 << source]
    seen = layers[0]
    while seen != G.full_mask:
        nxt = 0
        for v in iter_bits(layers[-1]):
            nxt |= G.adj[v]
        nxt &= ~seen
        if not nxt:
            break
        layers.append(nxt)
        seen |= nxt
    return layers


def is_connected(G: Graph) -> bool:
    return sum(bfs_layers(G, 0)) == G.full_mask


def diameter(G: Graph) -> Distance:
    """Largest distance between two vertices; INFINITY when G is disconnected."""
    if not is_connected(G):
        return INFINITY
    return max(len(bfs_layers(G, u)) for u in G.vertices()) - 1


def components(G: Graph) -> List[int]:
    """Vertex masks of the connected components, in order of smallest vertex."""
    out = []
    todo = G.full_mask
    while todo:
        out.append(sum(bfs_layers(G, (todo & -todo).bit_length() - 1)))
        todo &= ~out[-1]
    return out


# ---------------------------------------------------------------------------
# structural predicates and invariants

def is_point_determining(G: Graph) -> bool:
    """No two distinct vertices share the same open neighborhood."""
    return len(set(G.adj)) == G.n


def is_regular(G: Graph) -> Optional[int]:
    """The common degree if G is regular, else None."""
    degs = {mask.bit_count() for mask in G.adj}
    return degs.pop() if len(degs) == 1 else None


# ---------------------------------------------------------------------------
# line graph

def check_has_edge(G: Graph) -> None:
    """Raise ValueError unless G has an edge: L(G) and the edge labelings
    need one."""
    if not any(G.adj):
        raise ValueError("line graph and edge labelings of an edgeless graph are undefined")


def line_graph(G: Graph) -> Graph:
    """Line graph whose vertex i is the edge G.edges[i]: edges i and j are
    adjacent when they share an endpoint."""
    check_has_edge(G)
    edges = G.edges
    at_vertex = [0] * G.n  # edge indices at each vertex
    for i, (u, v) in enumerate(edges):
        at_vertex[u] |= 1 << i
        at_vertex[v] |= 1 << i
    return Graph.from_rows(
        [(at_vertex[u] | at_vertex[v]) & ~(1 << i) for i, (u, v) in enumerate(edges)]
    )


# ---------------------------------------------------------------------------
# text formats

def from_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format: first value n, then one 'u v' per line.

    '#' starts a comment, blank lines are skipped.  Raises GraphFormatError on
    self-loops, duplicate edges, out-of-range endpoints or malformed lines.
    """
    n = None
    edges = set()  # rows do not depend on the order edges come in
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
        edges.add(e)
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
    import hashlib  # loads OpenSSL's libcrypto: only commands that print a fingerprint pay

    degs = sorted((mask.bit_count() for mask in G.adj), reverse=True)
    blob = f"{G.n}:" + ",".join(f"{u}-{v}" for u, v in G.edges)
    return {
        "n": G.n,
        "m": G.m,
        "degree_sequence": degs,
        "edge_hash": hashlib.sha256(blob.encode()).hexdigest()[:16],
    }
