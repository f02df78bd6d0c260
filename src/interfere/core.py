"""Set-valued labelings and the interference predicates.

A labeling assigns every vertex a nonempty subset of a ground set
{0..m-1}; distinct vertices must get distinct subsets.  Such a labeling f
is an *interference* of a nonempty vertex set D (with respect to the
"interference graph" I) when every vertex u outside D has some neighbor
v in D whose label meets f(u).  Equivalently, D dominates the overlap
graph H_f: the edges of I whose endpoint labels meet.  It is an
interference of a *family* of sets when it is one for every member.
pattern_violations decides every family; it reads the dominating pattern
off closed neighborhoods, with no listing and no order cap.
"""
from __future__ import annotations

from typing import Iterator, NamedTuple, Optional, Sequence, Tuple

from .bitset import check_set, iter_bits
from .graphs import Graph, closed_neighborhood


class _SetLabelingFields(NamedTuple):
    # a NamedTuple body cannot define __new__, so SetLabeling adds it below
    ground_size: int
    labels: Tuple[int, ...]


class SetLabeling(_SetLabelingFields):
    """Vertex labels over ground set {0..ground_size-1}, one bitmask each."""

    __slots__ = ()

    def __new__(cls, ground_size: int, labels: Sequence[int]) -> "SetLabeling":
        return super().__new__(cls, ground_size, tuple(labels))

    @property
    def n(self) -> int:
        return len(self.labels)


def is_valid_labeling(f: SetLabeling) -> bool:
    """Nonempty, in-range, pairwise-distinct labels over a nonempty ground set."""
    if f.ground_size < 1 or f.n < 1:
        return False
    if any(lab == 0 or lab >> f.ground_size for lab in f.labels):
        return False
    return len(set(f.labels)) == f.n


def _require_valid(f: SetLabeling) -> None:
    if not is_valid_labeling(f):
        raise ValueError("labeling is not valid (empty, out-of-range or repeated labels)")


class Violation(NamedTuple):
    """Why a labeling fails to interfere for D: the vertex and its D-neighbors."""

    vertex: int
    candidates_mask: int


def overlap_graph(G: Graph, f: SetLabeling) -> Graph:
    """The edges of G whose endpoint labels meet; f interferes for D iff D dominates it."""
    _require_valid(f)
    if f.n != G.n:
        raise ValueError("labeling size does not match graph order")
    labs, rows = f.labels, []
    for lab, row in zip(labs, G.adj):
        meets = 0
        while row:
            low = row & -row
            if lab & labs[low.bit_length() - 1]:
                meets |= low
            row ^= low
        rows.append(meets)
    return Graph.from_rows(rows)


def overlap_violation(G: Graph, H: Graph, D: int) -> Optional[Violation]:
    """First vertex (ascending) outside D with no neighbor in D in H = overlap_graph(G, f)."""
    check_set(D, G.n)
    for u in iter_bits(G.full_mask & ~D):
        if H.adj[u] & D == 0:
            return Violation(u, G.adj[u] & D)
    return None


def is_interference(G: Graph, D: int, f: SetLabeling) -> bool:
    return overlap_violation(G, overlap_graph(G, f), D) is None


# ---------------------------------------------------------------------------
# pattern families

class Pattern(NamedTuple):
    """A listed family of target sets, or the dominating pattern."""

    kind: str
    sets: Tuple[int, ...] = ()

    EXPLICIT = "explicit"
    ALL_DOMINATING = "all_dominating"

    @classmethod
    def explicit(cls, sets: Sequence[int]) -> "Pattern":
        sets = tuple(sets)
        if any(D == 0 for D in sets):
            raise ValueError("explicit pattern members must be nonempty")
        return cls(cls.EXPLICIT, sets=sets)

    @classmethod
    def singletons(cls, n: int) -> "Pattern":
        """The explicit family of the n one-vertex sets."""
        return cls.explicit([1 << v for v in range(n)])

    @classmethod
    def all_dominating(cls) -> "Pattern":
        return cls(cls.ALL_DOMINATING)

    @classmethod
    def cross_pairs(cls, side_u: int, side_w: int) -> "Pattern":
        """The explicit family of pairs {u, w}, u in side_u and w in side_w."""
        if side_u == 0 or side_w == 0 or (side_u & side_w):
            raise ValueError("cross_pairs needs two disjoint nonempty sides")
        return cls.explicit([(1 << u) | (1 << w)
                             for u in iter_bits(side_u) for w in iter_bits(side_w)])


def expand_pattern(G: Graph, P: Pattern) -> Tuple[int, ...]:
    """The listed family of P on G; the dominating pattern has none here."""
    if P.kind == Pattern.EXPLICIT:
        if any(D >> G.n for D in P.sets):
            raise ValueError("explicit pattern has vertices outside the graph")
        return P.sets
    if P.kind == Pattern.ALL_DOMINATING:
        raise ValueError("list dominating sets with domination.minimal_dominating_sets")
    raise ValueError(f"unknown pattern kind {P.kind!r}")


def pattern_violations(G: Graph, P: Pattern, f: SetLabeling) -> Iterator[Tuple[int, Violation]]:
    """(D, Violation) for each target set D of P that f fails: a listed
    family's failing members in family order.  The dominating pattern has no
    family: f misses a dominating D iff D lies in V minus N_H[u] for some u,
    and dominating sets are closed upward, so iff that set itself dominates
    G: iff no w has N_G[w] inside N_H[u], and any such w lies in N_G[u].  So
    it yields, for each such u in ascending order, D = V minus N_H[u], the
    largest dominating set that f misses at u."""
    H = overlap_graph(G, f)
    if P.kind != Pattern.ALL_DOMINATING:
        for D in expand_pattern(G, P):
            bad = overlap_violation(G, H, D)
            if bad is not None:
                yield D, bad
        return
    closed = [closed_neighborhood(G, v) for v in G.vertices()]
    for u in G.vertices():
        hu = closed_neighborhood(H, u)
        if all(closed[w] & ~hu for w in iter_bits(closed[u])):
            D = G.full_mask & ~hu
            yield D, Violation(u, G.adj[u] & D)


def is_pattern_interference(G: Graph, P: Pattern, f: SetLabeling) -> bool:
    """Interference of every member of the family: pattern_violations yields nothing."""
    return next(pattern_violations(G, P, f), None) is None


# ---------------------------------------------------------------------------
# complete interference

def is_complete_interference(f: SetLabeling) -> bool:
    """Valid labeling with pairwise-intersecting labels.

    Equivalent to being an interference of every dominating set when the
    interference graph is complete.
    """
    _require_valid(f)
    labs = f.labels
    return all(
        labs[i] & labs[j] for i in range(len(labs)) for j in range(i + 1, len(labs))
    )


def build_complete_interference(n: int) -> SetLabeling:
    """Deterministic complete interference for n vertices on 1 + ceil(log2 n) elements.

    Every label contains element 0; the rest of label i is the binary
    encoding of i shifted past element 0.  For n=4: {0}, {0,1}, {0,2}, {0,1,2}.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    m = 1 + (n - 1).bit_length()
    return SetLabeling(m, tuple(1 | (i << 1) for i in range(n)))

