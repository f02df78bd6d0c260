"""Dominating sets and exact enumeration of the minimal ones.

dominating_family decides every D ⊆ V at once, as one int whose bit D is set
iff D dominates G, read off union_table, the package's one doubling builder
of per-set tables; is_dominating decides one set.
"""
from __future__ import annotations

from typing import List, Tuple

from .bitset import bit_list, iter_bits
from .errors import CapExceededError
from .graphs import Graph, closed_neighborhood

_CAP = 16  # the enumerations refuse graphs of larger order


def is_dominating(G: Graph, D: int) -> bool:
    """True when every vertex is in D or adjacent to it; empty D never dominates."""
    if D == 0:
        return False
    covered = D
    for v in iter_bits(D):
        covered |= G.adj[v]
    return covered == G.full_mask


def is_minimal_dominating(G: Graph, D: int) -> bool:
    """Dominating, and removing any single vertex breaks domination."""
    if not is_dominating(G, D):
        return False
    return all(not is_dominating(G, D & ~(1 << v)) for v in iter_bits(D))


def _canonical_order(sets) -> Tuple[int, ...]:
    return tuple(sorted(sets, key=lambda D: (D.bit_count(), bit_list(D))))


def minimal_dominating_sets(G: Graph) -> Tuple[int, ...]:
    """Every minimal dominating set, ordered by size then lexicographically.

    Branches on an uncovered vertex with the fewest remaining candidate
    dominators; sibling branches exclude earlier candidates so no chosen set
    is revisited.  Non-minimal leaves are filtered by the direct definition.
    """
    check_cap("minimal_dominating_sets", G.n)
    closed = [closed_neighborhood(G, v) for v in G.vertices()]
    found = set()

    def rec(chosen: int, covered: int, forbidden: int) -> None:
        if covered == G.full_mask:
            if is_minimal_dominating(G, chosen):
                found.add(chosen)
            return
        best_u, best_cands = -1, -1
        uncovered = G.full_mask & ~covered
        for u in iter_bits(uncovered):
            cands = closed[u] & ~forbidden
            if best_u < 0 or cands.bit_count() < best_cands.bit_count():
                best_u, best_cands = u, cands
        excl = 0
        for v in iter_bits(best_cands):
            rec(chosen | (1 << v), covered | closed[v], forbidden | excl)
            excl |= 1 << v

    rec(0, 0, 0)
    return _canonical_order(found)


def check_cap(name: str, n: int) -> None:
    """Refuse order n above the cap, naming the caller."""
    if n > _CAP:
        raise CapExceededError(f"{name}: n={n} exceeds cap {_CAP}")


def union_table(name: str, rows: List[int]) -> List[int]:
    """table[D] = table[D minus its highest vertex v] | rows[v], from
    table[empty] = 0, so table[D] is the union of rows[v] over v in D: each
    vertex doubles the table.  name, the caller, goes to check_cap."""
    check_cap(name, len(rows))
    table = [0]
    for row in rows:
        table += [t | row for t in table]
    return table


def dominating_family(G: Graph) -> int:
    """The int whose bit D is set iff D dominates G (bit 0, the empty set,
    never): D covers the union of N[v] over v in D."""
    covered = union_table("dominating_family",
                          [closed_neighborhood(G, v) for v in G.vertices()])
    full = G.full_mask
    return int("".join("1" if c == full else "0" for c in reversed(covered)), 2)


def all_dominating_sets(G: Graph) -> Tuple[int, ...]:
    """Every dominating set: the members of dominating_family."""
    bits = bin(dominating_family(G))[:1:-1]  # character D is bit D, in linear time
    return _canonical_order(D for D, bit in enumerate(bits) if bit == "1")
