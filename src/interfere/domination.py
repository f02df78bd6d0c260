"""Dominating sets, with the minimal ones read off dominating_family.

dominating_family decides every D ⊆ V at once, as one int whose bit D is set
iff D dominates G: the complement of down_set, the package's one builder of
per-set families, over the masks V minus N[u], since D fails exactly when it
misses some N[u].  Both listings read that int; is_dominating decides one
set.  dominating_constraints reads, with no enumeration, which sets
C = D ∩ N(u) the dominating sets D leave each vertex u outside them.
"""
from __future__ import annotations

from typing import Iterable, List, Tuple

from .bitset import iter_bits, mask_of
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


def minimal_dominating_sets(G: Graph) -> Tuple[int, ...]:
    """Every minimal dominating set, by size, then lexicographically: the
    members of dominating_family that are no member D plus a vertex v ∉ D."""
    check_cap("minimal_dominating_sets", G.n)
    family, full = dominating_family(G), G.full_mask
    larger = 0
    for v in G.vertices():
        larger |= (family & down_set("minimal_dominating_sets", G.n, [full ^ 1 << v])) << (1 << v)
    return _members(family & ~larger)


def dominating_constraints(G: Graph) -> List[Tuple[int, int]]:
    """The sorted pairs (u, C), C inclusion-minimal among the sets D ∩ N(u)
    over the dominating sets D without u, read off N(u) (local partial
    domination): the minimal C ⊆ N(u) whose closed neighborhood holds u and
    each w in N(u) with N(w) ⊆ N[u].  Such a C extends to the dominating set
    C ∪ (V ∖ N[u]), as every other w has a neighbor outside N[u].  Branches on
    the uncovered w with the fewest choices in N[w] ∩ N(u), each excluding the
    choices of earlier siblings, so each cover C is reached once; it is kept
    when each member covers a needed vertex that no other member covers."""
    check_cap("dominating_constraints", G.n)
    closed = [closed_neighborhood(G, v) for v in G.vertices()]

    def rec(C: int, left: int, allowed: int, twice: int) -> None:  # twice: covered by two members
        if not left:
            if not twice or all(closed[v] & need & ~twice for v in iter_bits(C)):
                covers.append(C)
            return
        choices = min((closed[w] & allowed for w in iter_bits(left)), key=int.bit_count)
        for v in iter_bits(choices):
            rec(C | 1 << v, left & ~closed[v], allowed, twice | closed[v] & need & ~left)
            allowed ^= 1 << v

    pairs: List[Tuple[int, int]] = []
    for u, cu in enumerate(closed):
        need, covers = mask_of(w for w in iter_bits(cu) if closed[w] & ~cu == 0), []
        rec(0, need, G.adj[u], 0)
        pairs.extend((u, C) for C in sorted(covers))
    return pairs


def check_cap(name: str, n: int) -> None:
    """Refuse order n above the cap, naming the caller."""
    if n > _CAP:
        raise CapExceededError(f"{name}: n={n} exceeds cap {_CAP}")


def down_set(name: str, n: int, masks: Iterable[int]) -> int:
    """The int whose bit D is set iff D is a subset of some mask, for D over
    the subsets of n vertices.  The subsets of T start from {empty} (bit 0);
    each vertex v of T adds v to all of them, a shift by 2^v.  name, the
    caller, goes to check_cap."""
    check_cap(name, n)
    family = 0
    for T in set(masks):
        subsets = 1
        while T:
            low = T & -T
            subsets |= subsets << low
            T ^= low
        family |= subsets
    return family


def dominating_family(G: Graph) -> int:
    """The int whose bit D is set iff D dominates G (bit 0, the empty set,
    never): D fails exactly when it lies inside V minus N[u] for some u."""
    full = G.full_mask
    misses = down_set("dominating_family", G.n,
                      [full ^ closed_neighborhood(G, u) for u in G.vertices()])
    return ((1 << (1 << G.n)) - 1) ^ misses


def all_dominating_sets(G: Graph) -> Tuple[int, ...]:
    """Every dominating set: the members of dominating_family."""
    return _members(dominating_family(G))


def _members(family: int) -> Tuple[int, ...]:
    """The sets D whose bit family sets, by size, then lexicographically; the
    latter is descending order of bin(D)[:1:-1], whose character v is bit v."""
    bits = bin(family)[:1:-1]  # character D is bit D
    found, D = [], bits.find("1")
    while D >= 0:
        found.append(D)
        D = bits.find("1", D + 1)
    return tuple(sorted(found, key=lambda D: (-D.bit_count(), bin(D)[:1:-1]), reverse=True))
