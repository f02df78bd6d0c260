"""Exhaustive isomorphism-free catalogs of small graphs.

The certificate of a graph is the minimum upper-triangle adjacency code over
the vertex orderings compatible with the stable color-refinement partition.
It is found row by row.  Position i takes a vertex v from the first cell of an
ordered partition, and every later cell, with the rest of the first cell,
splits into v's non-neighbors followed by its neighbors: that makes row i of
the code as small as it can be for v.  Only the candidates with the smallest
row are expanded, and a branch whose rows already exceed the best leaf's is
cut.  Of mutual twins in a cell only one is tried: swapping two twins is an
automorphism that fixes every placed vertex, so the skipped subtree gives the
same codes.

The stable partition is found by counting.  Refinement starts from degree
ranks; each round keys a vertex by its color, then by its neighbor count in
each color cell in color order, a larger count first, and ranks the keys
until no cell splits (McKay's equitable-partition step).  Colors refine
degree, so vertices of one color have equally many neighbors; for those,
"more neighbors of the first color where the counts differ" is the order of
their sorted neighbor-color tuples, so the classes come out in the same order
as by sorting those tuples.

The search also reports automorphisms: a transposition for each skipped twin,
and the map from the first best leaf to each later one.  These maps generate
the whole automorphism group; the tests match its order against a brute-force
count on every graph up to order 6 and on symmetric graphs up to order 7.

Graphs on n vertices come from McKay's canonical construction path
("Isomorph-free exhaustive generation", J. Algorithms 26, 1998).  Each
(n-1)-vertex representative R gets a new vertex x, joined to one neighbor set
from each orbit of Aut(R).  The canonical deletion vertex c of a candidate G is
the first vertex of maximum degree in the first best leaf its search finds.
Two best leaves differ by an automorphism, so c's orbit does not depend on
which leaf that is, and relabeling G carries the orbit along.  G is kept only
when x lies in c's orbit, and then each class is kept exactly once.  It is
met: deleting c from one of its graphs leaves some R, and the orbit of c's
neighbor set holds a candidate in which x plays c's part.  It is met once: an
isomorphism between two kept candidates can be chosen to fix x, so they share
R and their neighbor sets share an orbit, from which one set was tried.  Both
steps need the whole groups Aut(R) and Aut(G).  A candidate in which some
vertex has a higher degree than x is rejected before any search, since no
vertex of x's orbit then has maximum degree; most candidates end there.

The rest are refined once, and the refinement itself rejects more of them
before the descent (386 of the 1,639 left up to order 7, 353 of those in the
first round).  The descent keeps the stable cells in color order, so c lies
in the least-colored cell of maximum degree, and an orbit lies inside one
stable cell; so x, of maximum degree, is in c's orbit only if its color is the
least among the vertices of its degree.  Refinement keeps the order of
colors, so the first round that gives a vertex of x's degree a smaller color
than x's decides this.  The few candidates that pass and still fail the orbit
test are searched.  A kept candidate's rows are relabeled at once in the
order of the first best leaf, which spells out its code; the build holds only
the code and those rows of each kept graph until the catalog is sorted.

Each level carries the groups its searches found, as the leaf and the maps in
the candidate's labeling, so a parent's group is not searched for again; the
maps are conjugated by the leaf only when the graph serves as a parent.  A
trivial group is the empty value, and the top order MAX_CATALOG_N, which
serves no higher level, keeps none.  The groups live in the cached level
itself, so clearing the caches makes a build fully cold.

A connected level is built on its own from the full level below: its graph's
canonical parent may be disconnected.  Only neighbor sets that meet every
component of the parent are augmented; automorphisms permute components, so
an orbit meets all of them or none.

Known totals used by the tests: 1, 2, 4, 11, 34, 156, 1044, 12346 graphs and
1, 1, 2, 6, 21, 112, 853, 11117 connected graphs on 1..8 vertices.
"""
from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from .bitset import mask_of
from .errors import CapExceededError
from .graphs import Graph, components, is_connected

MAX_CATALOG_N = 8

# A vertex map p of an automorphism: p[v] is the image of v.
Perm = Tuple[int, ...]


def _refine_colors(n: int, adj: Sequence[int], x: int = -1) -> Optional[List[int]]:
    """The stable colors of the graph with rows ``adj``, ranked by degree
    first.  When ``x`` is a vertex of maximum degree, None as soon as some
    vertex of x's degree has a smaller color than x."""
    colors = [a.bit_count() for a in adj]
    ranks = {c: i for i, c in enumerate(sorted(set(colors)))}
    colors = [ranks[c] for c in colors]
    width = n.bit_length()
    top = (1 << width) - 1
    while True:
        cells = [0] * len(ranks)
        for v, c in enumerate(colors):
            cells[c] |= 1 << v
        # fields of `width` bits: own color, then top minus the neighbor
        # count per cell, so that a larger count sorts first.  A vertex alone
        # in its cell is ranked by its color alone: no other key has it.
        shift = width * len(cells)
        keys = []
        for v, a in enumerate(adj):
            key = colors[v]
            own = cells[key]
            if own & (own - 1):
                for C in cells:
                    key = key << width | (top - (a & C).bit_count())
            else:
                key <<= shift
            keys.append(key)
        distinct = set(keys)
        if len(distinct) == len(cells):
            return colors
        order = sorted(distinct)
        ranks = {k: i for i, k in enumerate(order)}
        if x >= 0:
            # x is still the least of its degree, so only its own cell can
            # put a key of x's degree below x's, and then directly below
            r = ranks[keys[x]]
            if r and order[r - 1] >> shift == colors[x]:
                return None
        colors = [ranks[k] for k in keys]


def _rows_code(adj: Sequence[int], order: Sequence[int], code: int) -> int:
    """code followed by the upper-triangle rows of adj among the vertices
    of order, taken in that order."""
    for i, v in enumerate(order):
        a = adj[v]
        for w in order[i + 1:]:
            code = code << 1 | (a >> w & 1)
    return code


def _search(
    n: int, adj: Sequence[int], autos: List[Perm], colors: Sequence[int]
) -> Tuple[int, List[int]]:
    """The minimal adjacency code of the graph with rows ``adj`` over the
    orderings the refinement allows, and the first ordering found with it
    (vertex at each position).

    The automorphisms met on the way (skipped twins, leaves tied for the
    best code) are appended to ``autos``.  ``colors`` is
    ``_refine_colors(n, adj)``, already computed.
    """
    cells = [0] * (max(colors) + 1)
    for v, c in enumerate(colors):
        cells[c] |= 1 << v
    # rows 0..d-1 of a code are the code shifted right by the bits of rows d..n-1
    shifts = [(n - d) * (n - d - 1) // 2 for d in range(n + 1)]
    # best[d]: rows 0..d-1 of the best code so far, above every code until a leaf
    best = [1 << n * n] * (n + 1)
    leaves: List[List[int]] = []  # orderings reaching the best code
    order: List[int] = []

    def descend(cells: List[int], d: int, code: int) -> None:
        if code > best[d]:
            return
        if len(cells) == n - d:
            # every cell is a singleton: the rest of the ordering is forced
            rest = [C.bit_length() - 1 for C in cells]
            code = _rows_code(adj, rest, code)
            if code < best[n]:
                best[:] = [code >> s for s in shifts]
                leaves.clear()
            if code == best[n]:
                leaves.append(order + rest)
            return
        first = cells[0]
        later = [(C, C.bit_count()) for C in cells[1:]]
        width = n - 1 - d
        tried: List[int] = []
        low = 1 << width  # above every row
        kids: List[Tuple[int, List[int]]] = []  # (v, split) of the rows equal to low
        todo = first
        while todo:
            bv = todo & -todo
            todo ^= bv
            v = bv.bit_length() - 1
            a = adj[v]
            for u in tried:
                if adj[u] & ~bv == a & ~(1 << u):
                    p = list(range(n))
                    p[u], p[v] = v, u
                    autos.append(tuple(p))
                    break
            else:
                tried.append(v)
                C = first ^ bv
                nb = C & a
                row = (1 << nb.bit_count()) - 1
                split = [C ^ nb] if C ^ nb else []
                if nb:
                    split.append(nb)
                for C, size in later:
                    nb = C & a
                    row = row << size | ((1 << nb.bit_count()) - 1)
                    if C ^ nb:
                        split.append(C ^ nb)
                    if nb:
                        split.append(nb)
                if row < low:
                    low = row
                    kids = [(v, split)]
                elif row == low:
                    kids.append((v, split))
        code = code << width | low
        for v, split in kids:
            order.append(v)
            descend(split, d + 1, code)
            order.pop()

    descend(cells, 0, 0)
    first = leaves[0]
    for other in leaves[1:]:
        p = [0] * n
        for a, b in zip(first, other):
            p[a] = b
        autos.append(tuple(p))
    return best[n], leaves[0]


def certificate(G: Graph) -> Tuple[int, int]:
    """Exact isomorphism certificate: (n, minimal adjacency code)."""
    return (G.n, _search(G.n, G.adj, [], _refine_colors(G.n, G.adj))[0])


def _orbit_starts(k: int, autos: List[Perm]) -> List[int]:
    """The smallest subset of range(k), as a mask, in each orbit under autos."""
    size = 1 << k
    images = []
    for p in set(autos):
        img = [0] * size
        for mask in range(1, size):
            low = mask & -mask
            img[mask] = img[mask ^ low] | 1 << p[low.bit_length() - 1]
        images.append(img)
    seen = bytearray(size)
    starts = []
    for mask in range(size):
        if seen[mask]:
            continue
        starts.append(mask)
        seen[mask] = 1
        stack = [mask]
        while stack:
            x = stack.pop()
            for img in images:
                y = img[x]
                if not seen[y]:
                    seen[y] = 1
                    stack.append(y)
    return starts


def _in_orbit(x: int, c: int, autos: List[Perm]) -> bool:
    """Whether some product of the maps in autos takes c to x."""
    seen = {c}
    stack = [c]
    while stack:
        v = stack.pop()
        if v == x:
            return True
        for p in autos:
            if p[v] not in seen:
                seen.add(p[v])
                stack.append(p[v])
    return False


def _check_cap(n: int) -> None:
    if n > MAX_CATALOG_N:
        raise CapExceededError(f"graph catalog capped at n <= {MAX_CATALOG_N}")


def _check_order(n: int) -> None:
    if n < 1:
        raise ValueError("catalog needs n >= 1")
    _check_cap(n)


class _Level(tuple):
    """The graphs of one catalog level.  ``groups[i]`` is ``(leaf, found)``
    from the search that kept the i-th graph, or () when its group is
    trivial; ``groups`` is None on a level that is no parent."""

    groups: Optional[Tuple[tuple, ...]]

    def automorphisms(self, i: int) -> List[Perm]:
        """Generators of the i-th graph's automorphism group, conjugated by
        its leaf into the graph's own labeling."""
        if not self.groups[i]:
            return []
        leaf, found = self.groups[i]
        position = [0] * len(leaf)
        for j, v in enumerate(leaf):
            position[v] = j
        return [tuple(position[p[v]] for v in leaf) for p in found]


def _level(n: int, connected: bool) -> _Level:
    """The graphs on n >= 2 vertices, or only the connected ones, augmented
    from the (n-1)-vertex catalog.  Groups are kept on a full level below
    MAX_CATALOG_N, the only levels built on."""
    keep = not connected and n < MAX_CATALOG_N
    kept = []  # (code, rows relabeled by the leaf, group)
    x = n - 1  # the new vertex
    parents = all_graphs(x)
    for i, R in enumerate(parents):
        # automorphisms permute components, so either every mask of an orbit
        # meets them all or none does
        parts = components(R) if connected else ()
        most = max(a.bit_count() for a in R.adj)
        peaks = mask_of(v for v, a in enumerate(R.adj) if a.bit_count() == most)
        for mask in _orbit_starts(x, parents.automorphisms(i)):
            # x has the largest degree unless R has a vertex of higher degree,
            # or x joins a vertex of its own degree, which then gains one
            top = mask.bit_count()  # the degree of x
            if top < most or top == most and mask & peaks:
                continue
            if any(not mask & C for C in parts):
                continue
            rows = [a | 1 << x if mask >> v & 1 else a for v, a in enumerate(R.adj)]
            rows.append(mask)
            # c lies in the least stable cell of degree top and x's orbit in
            # x's cell, so x must stay the least-colored vertex of its degree
            colors = _refine_colors(n, rows, x)
            if colors is None:
                continue
            found: List[Perm] = []
            code, leaf = _search(n, rows, found, colors)
            c = next(v for v in leaf if rows[v].bit_count() == top)
            if not _in_orbit(x, c, found):
                continue
            # relabeled by the leaf, the rows spell out the code; the bit loop is
            # inline because mask_of over iter_bits makes the order-7 build ~7% slower
            bit = [0] * n  # bit[v]: the bit of v's position in the leaf
            for j, v in enumerate(leaf):
                bit[v] = 1 << j
            relabeled = []
            for v in leaf:
                a = rows[v]
                row = 0
                while a:
                    low = a & -a
                    a ^= low
                    row |= bit[low.bit_length() - 1]
                relabeled.append(row)
            group = (tuple(leaf), tuple(found)) if keep and found else ()
            kept.append((code, tuple(relabeled), group))
    kept.sort(key=lambda k: (k[0].bit_count(), k[0]))
    level = _Level(Graph.from_rows(rows) for _, rows, _ in kept)
    level.groups = tuple(group for _, _, group in kept) if keep else None
    return level


@lru_cache(maxsize=None)
def all_graphs(n: int) -> Tuple[Graph, ...]:
    """All graphs on exactly n vertices, one per isomorphism class."""
    _check_order(n)
    if n > 1:
        return _level(n, connected=False)
    level = _Level((Graph(1),))
    level.groups = ((),)
    return level


@lru_cache(maxsize=None)
def connected_graphs(n: int) -> Tuple[Graph, ...]:
    """All connected graphs on exactly n vertices, one per isomorphism class."""
    _check_order(n)
    return _level(n, connected=True) if n > 1 else all_graphs(1)


def graphs_upto(n: int) -> List[Graph]:
    _check_cap(n)
    return [G for k in range(1, n + 1) for G in all_graphs(k)]


def connected_graphs_upto(n: int) -> List[Graph]:
    """The connected graphs on 1..n vertices: the orders below n are filtered
    from the full levels that build order n."""
    _check_cap(n)
    if n < 1:
        return []
    lower = [G for k in range(1, n) for G in all_graphs(k) if is_connected(G)]
    return lower + list(connected_graphs(n))
