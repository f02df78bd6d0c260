"""Seeded inputs for the benchmark workloads.

Standard library and the benchmark's checker only, independent of the
package under test: the program receives nothing but the argument lists
built here, and its graphs only as graph6 words.  The same workload and
seed always give the same list.
"""
from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from checker import is_connected

WORKLOADS = ("index-sym", "index-rand", "sweep-nbd", "catalog-cold")

Argv = Tuple[str, ...]

# index-sym: twin-rich complete multipartite graphs, named by their part
# sizes.  Each index search spends most of its nodes refuting m = index - 1.
SYM_GRAPHS = (
    ("K11", (1,) * 11),
    ("K12", (1,) * 12),
    ("K5,6", (5, 6)),
    ("K5,7", (5, 7)),
    ("K4,9", (4, 9)),
    ("K2,2,2,2,2", (2,) * 5),
)
# The search cost of the first five does not depend on the vertex labeling.
# That of K2,2,2,2,2 does (0.2 s to 3.4 s over 20 random labelings), which
# would put a seed-driven spread larger than any regression bound on the
# workload, so it keeps the labeling it is generated with.
SYM_FIXED_LABELING = frozenset({"K2,2,2,2,2"})

# index-rand: a fixed pool of connected twin-free random graphs, the same for
# every seed.  Drawing the pool from the seed, or relabeling it by the seed,
# moves the workload's cost between seeds by more than any regression bound:
# per-graph cost at this order is heavy-tailed (coefficient of variation about
# 1.7 over 100 graphs), and relabeling alone moved the slowest call of the pass
# between 1.0 s and 2.0 s over five seeds.
RAND_POOL_SEED = 0
RAND_COUNT = 20
RAND_ORDER = 10
RAND_EDGE_PROB = 0.8

SWEEP_MAX_N = 7
CATALOG_N = 7


def to_graph6(n: int, adj: Sequence[int]) -> str:
    """Short-form graph6 word of a graph given by adjacency bitmasks (n <= 62)."""
    bits = [adj[i] >> j & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    chars = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = val << 1 | b
        chars.append(chr(val + 63))
    return "".join(chars)


def complete_multipartite(parts: Sequence[int]) -> Tuple[int, List[int]]:
    n = sum(parts)
    part_of = [i for i, size in enumerate(parts) for _ in range(size)]
    adj = [0] * n
    for u in range(n):
        for v in range(n):
            if part_of[u] != part_of[v]:
                adj[u] |= 1 << v
    return n, adj


def relabel(adj: Sequence[int], perm: Sequence[int]) -> List[int]:
    """Adjacency after moving vertex v to perm[v]."""
    out = [0] * len(adj)
    for u, row in enumerate(adj):
        for v in range(len(adj)):
            if row >> v & 1:
                out[perm[u]] |= 1 << perm[v]
    return out


def is_twin_free(n: int, adj: Sequence[int]) -> bool:
    """No two vertices with equal neighborhoods apart from each other."""
    return all(
        adj[u] & ~(1 << v) != adj[v] & ~(1 << u)
        for u in range(n)
        for v in range(u + 1, n)
    )


def random_connected_twin_free(rng: random.Random, n: int, p: float) -> List[int]:
    while True:
        adj = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        if is_connected(n, adj) and is_twin_free(n, adj):
            return adj


def _shuffled(rng: random.Random, n: int) -> List[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def random_pool() -> List[List[int]]:
    rng = random.Random(RAND_POOL_SEED)
    return [
        random_connected_twin_free(rng, RAND_ORDER, RAND_EDGE_PROB)
        for _ in range(RAND_COUNT)
    ]


def operations(workload: str, seed: int) -> List[Argv]:
    """The CLI argument lists one pass of the workload runs, in order."""
    rng = random.Random(seed)
    if workload == "index-sym":
        ops = []
        for name, parts in SYM_GRAPHS:
            n, adj = complete_multipartite(parts)
            if name not in SYM_FIXED_LABELING:
                adj = relabel(adj, _shuffled(rng, n))
            ops.append(("index", "--graph", "g6:" + to_graph6(n, adj),
                        "--pattern", "all-dominating"))
        return ops
    if workload == "index-rand":
        return [("index", "--graph", "g6:" + to_graph6(RAND_ORDER, adj)) for adj in random_pool()]
    if workload == "sweep-nbd":
        return [("sweep", "--suite", "nbd-oracle", "--max-n", str(SWEEP_MAX_N),
                 "--seed", str(seed))]
    if workload == "catalog-cold":
        return [
            ("gen", "--catalog", str(CATALOG_N)),
            ("gen", "--catalog", str(CATALOG_N), "--connected"),
            ("sweep", "--suite", "lg-injectivity", "--max-n", str(SWEEP_MAX_N)),
        ]
    raise ValueError(f"unknown workload {workload!r}")
