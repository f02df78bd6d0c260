"""Reference implementations used to cross-check the package.

Everything here works on plain Python sets and itertools, on purpose: the
package itself runs on integer bitmasks, so agreement between the two routes
is meaningful.  These oracles are deliberately slow and simple.
There are two exceptions.  reference_propagate runs the index kernel's
propagation rules on the kernel's bitmask domains, walking every code.
independence_number is a bitmask branch and bound; the tests check it
against an exhaustive scan and use it to check the package's vertex-cover
test.
random_labeling, gnp, induced_subgraph and second_neighborhood are helpers
only the tests use, so they live here rather than in the package.
brute_two_path_graph reads T(G) off breadth-first distances, where the
package unions neighbor rows; brute_sufficient_rule reads its distance-two
pairs the same way.
brute_certificate walks every vertex ordering its refinement allows, which
the package's certificate search reaches row by row; that refinement,
reference_refine_colors, compares sorted neighbor-color tuples where the
package counts neighbors per color cell.  brute_automorphism_count tries
every vertex permutation, prefix by prefix, where the package generates the group from the
automorphisms its search meets.  brute_twin_classes tries every vertex
transposition, where the package screens them by profile.  scan_index asks the
package's exists_interference at every m between the index bounds, where
interference_index trusts the doubling construction at the upper one.
"""

import itertools
import random

from interfere import (
    DEGREE_SUM_RULE,
    DISTANCE2_RULE,
    REGULAR_RULE,
    CapExceededError,
    Graph,
    SetLabeling,
    bit_list,
    exists_interference,
    index_lower_bound,
    iter_bits,
    universal_upper_bound,
)

_INDEPENDENCE_CAP = 16  # independence_number refuses graphs of larger order


def neighbor_sets(G: Graph):
    """Adjacency as a list of frozensets, rebuilt from the edge list."""
    nbrs = [set() for _ in range(G.n)]
    for u, v in G.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return [frozenset(s) for s in nbrs]


def has_edge(G: Graph, u: int, v: int) -> bool:
    """Whether uv is an edge, read off the edge list."""
    return (min(u, v), max(u, v)) in G.edges


def random_labeling(n: int, m: int, rng: random.Random) -> SetLabeling:
    """Uniformly chosen valid labeling: n distinct nonempty subsets of {0..m-1}."""
    if (1 << m) - 1 < n:
        raise ValueError(f"cannot pick {n} distinct nonempty labels from {m} elements")
    codes = rng.sample(range(1, 1 << m), n)
    return SetLabeling(m, tuple(codes))


def gnp(n: int, p: float, seed: int) -> Graph:
    """G(n,p)#seed: random.Random(seed) keeps each pair u < v, in
    lexicographic order, with probability p."""
    rng = random.Random(seed)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def set_distances(G: Graph, source: int):
    """Breadth-first distances from source as a dict; unreachable vertices
    are absent."""
    nbrs = neighbor_sets(G)
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in nbrs[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def second_neighborhood(G: Graph, u: int):
    """The set of vertices at distance exactly two from u."""
    return {v for v, d in set_distances(G, u).items() if d == 2}


def induced_subgraph(G: Graph, vertices):
    """Subgraph induced on a nonempty vertex set, plus the map from new index
    to old vertex (the vertices in increasing order)."""
    verts = sorted(vertices)
    if not verts:
        raise ValueError("cannot induce on the empty vertex set")
    pos = {v: i for i, v in enumerate(verts)}
    edges = [(pos[u], pos[v]) for u, v in G.edges if u in pos and v in pos]
    return Graph(len(verts), edges), verts


def brute_two_path_graph(G: Graph) -> Graph:
    """The two-path graph from BFS distances: u ~ v when they lie at distance
    two, or are adjacent with a common neighbor."""
    nbrs = neighbor_sets(G)
    edges = [
        (u, v)
        for u in range(G.n)
        for v, d in set_distances(G, u).items()
        if u < v and (d == 2 or (d == 1 and nbrs[u] & nbrs[v]))
    ]
    return Graph(G.n, edges)


def brute_sufficient_rule(G: Graph):
    """complemented_sufficient_rule from neighbor sets and BFS distances: the
    first of the regular, degree-sum and distance-two rules that holds, or
    None, and always None on a graph with two equal neighborhoods."""
    nbrs = neighbor_sets(G)
    if len(set(nbrs)) < G.n:
        return None
    n = G.n
    degs = [len(s) for s in nbrs]
    pairs = list(itertools.combinations(range(n), 2))
    if len(set(degs)) == 1 and n > 2 * degs[0]:
        return REGULAR_RULE
    if all(degs[u] + degs[v] < n for u, v in pairs):
        return DEGREE_SUM_RULE
    dist = [set_distances(G, u) for u in range(n)]
    if all(
        degs[u] + degs[v] <= n if dist[u].get(v) == 2 else degs[u] + degs[v] < n
        for u, v in pairs
    ):
        return DISTANCE2_RULE
    return None


def reference_refine_colors(G: Graph):
    """Stable color refinement as a list of color ranks.

    Refinement starts from degree ranks; each round ranks the vertices by
    (color, sorted neighbor colors) until no class splits.
    """
    nbrs = neighbor_sets(G)
    colors = [len(nbrs[v]) for v in range(G.n)]
    while True:
        sigs = [(colors[v], tuple(sorted(colors[u] for u in nbrs[v])))
                for v in range(G.n)]
        ranks = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranks[s] for s in sigs]
        if len(set(new)) == len(set(colors)):
            return new
        colors = new


def brute_certificate(G: Graph):
    """(n, minimal upper-triangle adjacency code) over every vertex ordering
    that lists the classes of reference_refine_colors in color order."""
    nbrs = neighbor_sets(G)
    colors = reference_refine_colors(G)
    groups = [[v for v in range(G.n) if colors[v] == c] for c in sorted(set(colors))]
    best = None
    for parts in itertools.product(*(itertools.permutations(g) for g in groups)):
        order = [v for part in parts for v in part]
        code = 0
        for i in range(G.n):
            for j in range(i + 1, G.n):
                code = code << 1 | (order[j] in nbrs[order[i]])
        if best is None or code < best:
            best = code
    return (G.n, best)


def brute_automorphism_count(G: Graph) -> int:
    """|Aut(G)|: the vertex permutations that map the edge set onto itself.

    Every permutation is built one vertex at a time, 0 -> p[0], 1 -> p[1],
    ...; a prefix that already maps an edge to a non-edge, or a non-edge to
    an edge, among the vertices mapped so far is not extended.
    """
    nbrs = neighbor_sets(G)

    def count(p):
        u = len(p)
        if u == G.n:
            return 1
        return sum(
            count(p + [w])
            for w in range(G.n)
            if w not in p and all((v in nbrs[u]) == (p[v] in nbrs[w]) for v in range(u))
        )

    return count([])


def brute_catalogs(max_n: int):
    """Graphs on 1..max_n vertices, one per brute_certificate, as sorted edge
    tuples in catalog order (edge count, then code).  Each order joins a new
    vertex to every subset of every graph of the order below: no pruning.
    """
    levels = {1: [()]}
    for n in range(2, max_n + 1):
        certs = set()
        for edges in levels[n - 1]:
            for r in range(n):
                for S in itertools.combinations(range(n - 1), r):
                    H = Graph(n, list(edges) + [(v, n - 1) for v in S])
                    certs.add(brute_certificate(H))
        pairs = list(itertools.combinations(range(n), 2))
        levels[n] = [
            tuple(e for k, e in enumerate(pairs) if code >> (len(pairs) - 1 - k) & 1)
            for _, code in sorted(certs, key=lambda c: (bin(c[1]).count("1"), c[1]))
        ]
    return levels


def brute_is_dominating(G: Graph, D) -> bool:
    D = set(D)
    if not D:
        return False
    nbrs = neighbor_sets(G)
    return all(u in D or (nbrs[u] & D) for u in range(G.n))


def brute_minimal_dominating_sets(G: Graph):
    """All minimal dominating sets, found by scanning every subset."""
    out = []
    for r in range(1, G.n + 1):
        for combo in itertools.combinations(range(G.n), r):
            D = set(combo)
            if not brute_is_dominating(G, D):
                continue
            if any(brute_is_dominating(G, D - {v}) for v in D):
                continue
            out.append(frozenset(D))
    return out


def labels_as_sets(labeling: SetLabeling):
    return [set(bit_list(code)) for code in labeling.labels]


def brute_is_valid(labeling: SetLabeling) -> bool:
    sets = labels_as_sets(labeling)
    if any(not s for s in sets):
        return False
    frozen = {frozenset(s) for s in sets}
    return len(frozen) == len(sets)


def brute_is_interference(I: Graph, D, labeling: SetLabeling) -> bool:
    """Definition unwound with sets: every outsider overlaps a neighbor inside D."""
    D = set(D)
    if not D or not brute_is_valid(labeling):
        return False
    nbrs = neighbor_sets(I)
    sets = labels_as_sets(labeling)
    for u in range(I.n):
        if u in D:
            continue
        if not any(sets[u] & sets[v] for v in nbrs[u] & D):
            return False
    return True


def brute_is_complete(labeling: SetLabeling) -> bool:
    sets = labels_as_sets(labeling)
    if not brute_is_valid(labeling):
        return False
    return all(
        sets[i] & sets[j] for i in range(len(sets)) for j in range(i + 1, len(sets))
    )


def brute_exists_interference(I: Graph, D_families, m: int) -> bool:
    """Try every injective assignment of nonempty subsets of an m-element
    ground set.  Only feasible for tiny n and m."""
    codes = range(1, 1 << m)
    for perm in itertools.permutations(codes, I.n):
        lab = SetLabeling(m, list(perm))
        if all(brute_is_interference(I, D, lab) for D in D_families):
            return True
    return False


def scan_index(G: Graph, P):
    """The least m in L..U with a P-interference, searched upward one m at a
    time; None when no m up to U has one (the index is undefined)."""
    for m in range(index_lower_bound(G.n), universal_upper_bound(G.n) + 1):
        if exists_interference(G, P, m) is not None:
            return m
    return None


def brute_minimal_constraints(G: Graph, family):
    """(kept, dropped) index-kernel constraints of a target-set family, as
    (u, frozenset C) pairs with C = N(u) & D for each D and u outside D.

    A pair is kept when no pair of the same vertex has a strict subset of
    its C, and dropped otherwise.  Assumes every member dominates.
    """
    nbrs = neighbor_sets(G)
    pairs = {
        (u, nbrs[u] & frozenset(D))
        for D in map(bit_list, family)
        for u in range(G.n)
        if u not in D
    }
    kept = {(u, C) for u, C in pairs if not any(w == u and B < C for w, B in pairs)}
    return kept, pairs - kept


def brute_twin_classes(n: int, constraints):
    """cls[v] = the least u whose transposition with v maps the set of
    (vertex, candidate set) pairs onto itself, v itself when none does.

    Tries every transposition on every pair, as sets; the package tests only
    against each class's first member, and only when two profiles agree.
    """
    pairs = {(u, frozenset(bit_list(C))) for u, C in constraints}

    def swaps(u, v):
        t = {u: v, v: u}
        return {(t.get(w, w), frozenset(t.get(x, x) for x in C)) for w, C in pairs} == pairs

    return [next(u for u in range(v + 1) if u == v or swaps(u, v)) for v in range(n)]


def brute_max_cross_intersecting(r: int, m: int) -> int:
    """Largest s admitting r+s distinct subsets of an m-set where each of the
    first r meets each of the last s.  Literal enumeration of the first block
    over all subsets (empty set included); the last block is then forced to be
    every remaining subset that meets the whole first block.
    """
    best = 0
    for block in itertools.combinations(range(1 << m), r):
        s = sum(
            1
            for Y in range(1 << m)
            if Y not in block and all(Y & Z for Z in block)
        )
        best = max(best, s)
    return best


def reference_propagate(n, constraints, m, dom):
    """The index kernel's propagation rules run to a fixpoint the plain way.

    constraints holds (u, candidate-mask) pairs; dom[v] is a bitmask of the
    label codes (1..2^m - 1) still open to v, narrowed in place.  Each
    constraint visit recomputes every candidate's element union by walking
    its codes.  Neighbor counting reads the forced graph, the one-candidate
    pairs, from the whole list and counts codes in plain sets.  Returns
    False on a wipeout or too few codes for n distinct labels.
    """
    codes = range(1, 1 << m)
    # sup[x] = codes meeting element mask x
    sup = [sum(1 << c for c in codes if c & x) for x in range(1 << m)]
    forced = [set() for _ in range(n)]
    reverse = []
    for u, cands in constraints:
        vs = bit_list(cands)
        if len(vs) == 1:
            forced[u].add(vs[0])
            forced[vs[0]].add(u)
            reverse.append((vs[0], 1 << u))
    # f(u) and f(v) must meet both ways: (v, {u}) holds whenever (u, {v}) does
    constraints = list(constraints) + reverse

    def elem_union(d):
        out = 0
        for c in codes:
            if d >> c & 1:
                out |= c
        return out

    changed = True
    while changed:
        changed = False
        # all-different: committed codes leave every other domain
        union_all = 0
        for v in range(n):
            d = dom[v]
            if d == 0:
                return False
            union_all |= d
            if d & (d - 1) == 0:
                for w in range(n):
                    if w != v and dom[w] & d:
                        dom[w] &= ~d
                        changed = True
        if bin(union_all).count("1") < n:
            return False
        for u, cands in constraints:
            big = 0
            for v in bit_list(cands):
                big |= elem_union(dom[v])
            nd = dom[u] & sup[big]
            if nd == 0:
                return False
            if nd != dom[u]:
                dom[u] = nd
                changed = True
        # neighbor counting: the F-neighbors of u take distinct codes, each
        # meeting u's code and none equal to it; degree-1 vertices are skipped
        for u in range(n):
            ws = forced[u]
            if len(ws) < 2:
                continue
            avail = {c for w in ws for c in codes if dom[w] >> c & 1}
            keep = {
                c for c in codes
                if dom[u] >> c & 1 and len({a for a in avail if a & c and a != c}) >= len(ws)
            }
            if not keep:
                return False
            nd = sum(1 << c for c in keep)
            if nd != dom[u]:
                dom[u] = nd
                changed = True
    return True


def independence_number(G: Graph) -> int:
    """Exact maximum independent set size by branch and bound; refuses n > 16."""
    if G.n > _INDEPENDENCE_CAP:
        raise CapExceededError(f"independence_number: n={G.n} exceeds cap {_INDEPENDENCE_CAP}")
    closed = [G.adj[v] | (1 << v) for v in G.vertices()]
    best = 0

    def rec(mask: int, size: int) -> None:
        nonlocal best
        if size + mask.bit_count() <= best:
            return
        if mask == 0:
            best = max(best, size)
            return
        # branch on a max-degree-in-mask vertex: skipping it removes one
        # vertex, taking it removes its whole closed neighborhood
        v = max(iter_bits(mask), key=lambda w: (G.adj[w] & mask).bit_count())
        rec(mask & ~closed[v], size + 1)
        rec(mask & ~(1 << v), size)

    rec(G.full_mask, 0)
    return best
