"""Exact smallest-ground-set search for pattern interferences.

exists_interference decides, by complete backtracking, whether some valid
labeling on m ground elements interferes for every member of a pattern
family.  The kernel works on label *codes* (nonzero bitmasks over the ground
set) and prunes with:

* support filtering: a vertex u constrained by candidate set Vs keeps only
  codes meeting the union of elements still available in Vs (a code
  intersects some member of a union iff it intersects the union).  A
  one-candidate pair (u, {v}) is an edge of the forced graph F (f(u) and
  f(v) must meet) and holds at both ends (arc consistency; Mackworth, Artif.
  Intell. 8, 1977).  Vertices with the same F-neighbors and candidate sets,
  such as a side of K_{r,s}, form a class, and the rule builds one mask per
  class and applies it to every member.  Each vertex's element union is read
  once per fixpoint round from one code mask per ground element (a committed
  code is its own union); every rule only narrows domains and every failure
  test stays true as they shrink, so the rounds reach the same fixpoint as
  fresh unions would;
* implied constraints are not propagated: (u, Vs) is dropped when u has a
  constraint on a strict subset of Vs, whose fixpoint already meets the
  support rule of (u, Vs), so the monotone rules reach the same fixpoint.  The
  dominating pattern reads each vertex's minimal sets off N(u)
  (domination.dominating_constraints) and lists no dominating set; the
  other patterns list their sets and drop the implied pairs;
* all-different (labels must be pairwise distinct): the committed codes
  leave every other domain, and the union of the domains must hold n codes;
* neighbor counting on F: a vertex u of F-degree d >= 2 keeps a code c only
  if its F-neighbors' domains hold at least d codes that meet c and differ
  from it, since those neighbors take pairwise distinct codes, each meeting
  c and none equal to it (Solnon, Artif. Intell. 174, 2010): a degree filter
  at the root.  It runs once per class, over the union of its members'
  domains, and skips a class whose F-neighbors' domain union is the
  one it last counted against in the same propagation, since domains only
  shrink there.  An empty forced table turns this rule off, not F's edges;
* first-occurrence symmetry breaking: along the fixed assignment order,
  each new label may introduce only a contiguous block of fresh ground
  elements, so solutions are explored once per ground-permutation orbit;
* twin ordering: vertices whose transposition maps the constraint set onto
  itself are interchangeable, so their codes must increase along the
  assignment order; a transposition is tested only on vertices whose pairs'
  candidate counts agree.  The lexicographically least labeling of each orbit
  under vertex-twin and ground permutations, read in assignment order,
  obeys both symmetry rules (Crawford, Ginsberg, Luks & Roy, KR 1996; Law &
  Lee, CP 2004), so no orbit loses its solutions.

The assignment order is fail-first (Haralick & Elliott, Artif. Intell. 14,
1980): smallest twin class first, then lowest degree in G, then vertex
number, so the tightest constraints fail early, while large twin classes,
such as the larger side of K_{r,s}, come last, where twin ordering cuts
deepest.  Both symmetry rules hold along any fixed order.

Both exhaustive searches here, the kernel and max_cross_intersecting, read
two tables built once per m: the codes meeting each element set
(_meeting_codes, from domination.down_set) and the codes first-occurrence
order admits after each prefix of used elements (_first_occurrence).
symmetry=False gives the kernel all-codes masks in place of the latter and
no twin links; the propagation rules always run.  Every assignment counts
against the node budget; exceeding it raises SearchBudgetExceeded rather
than returning a verdict.  interference_index runs at most one search, since
the doubling construction answers the upper bound.  _checked tests every
witness against the pattern before it is returned, with
core.is_pattern_interference, which decides the dominating pattern without
listing its sets.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from operator import itemgetter
from typing import List, NamedTuple, Optional, Tuple

from .bitset import iter_bits
from .core import (
    Pattern, SetLabeling, build_complete_interference, expand_pattern, is_pattern_interference
)
from .domination import dominating_constraints, down_set
from .errors import CapExceededError, NoDominatingSetError, SearchBudgetExceeded
from .graphs import Graph

DEFAULT_BUDGET = 10**8
_MAX_GROUND = 14  # domain masks have 2^m bits; beyond this the kernel is hopeless anyway


def ceil_log2(x: int) -> int:
    if x < 1:
        raise ValueError("ceil_log2 needs x >= 1")
    return (x - 1).bit_length()


def index_lower_bound(n: int) -> int:
    """Any interference of a dominating set needs at least ceil(log2(n+1)) elements."""
    return ceil_log2(n + 1)


def universal_upper_bound(n: int) -> int:
    """A complete interference on ceil(log2(2n)) elements always exists."""
    return ceil_log2(2 * n)


class PhaseOutcome(NamedTuple):
    m: int
    found: bool
    nodes: int


class IndexResult(NamedTuple):
    index: int
    witness: SetLabeling
    lower_bound_used: int
    nodes_explored: int
    trace: Tuple[PhaseOutcome, ...]



def _constraints_for(G: Graph, P: Pattern) -> List[Tuple[int, int]]:
    """The sorted subset-minimal (vertex, candidate-mask) pairs of P's target
    sets: read off the graph for the dominating pattern, listed for the others.

    Raises NoDominatingSetError for the first set that fails to dominate: no
    labeling can serve a vertex with no neighbor inside the set.
    """
    if P.kind == Pattern.ALL_DOMINATING:
        return dominating_constraints(G)
    seen = set()
    for D in expand_pattern(G, P):
        for u in G.vertices():
            if D >> u & 1:
                continue
            cands = G.adj[u] & D
            if cands == 0:
                raise NoDominatingSetError(
                    f"target set {sorted(iter_bits(D))} does not dominate; index undefined"
                )
            seen.add((u, cands))
    return _minimal_pairs(sorted(seen))


def _minimal_pairs(pairs) -> List[Tuple[int, int]]:
    """The pairs (u, C) of a sorted list with no pair (u, C') for a strict
    subset C' of C.  Sorting puts each vertex's pairs together, and a strict
    subset is a smaller int, so it comes first; testing against the kept
    pairs alone suffices, since a dropped subset has a kept subset of its own."""
    kept: List[Tuple[int, int]] = []
    for u, group in groupby(pairs, key=itemgetter(0)):
        mins: List[int] = []
        for _, C in group:
            if all(c & C != c for c in mins):
                mins.append(C)
        kept.extend((u, c) for c in mins)
    return kept


def _twin_classes(n: int, constraints) -> List[int]:
    """cls[v] = the least vertex u whose transposition with v maps the
    constraint set onto itself (v itself when there is none).

    Such transpositions generate the full symmetric group on each class, so
    one test against each class's first member decides membership.  It runs
    only on vertices of one profile, which such a transposition keeps: the
    sorted candidate counts of their own pairs (negated) and of pairs naming them.
    """
    cset = set(constraints)
    profile: List[list] = [[] for _ in range(n)]
    for w, cands in constraints:
        k = cands.bit_count()
        profile[w].append(-k)
        while cands:
            low = cands & -cands
            cands ^= low
            profile[low.bit_length() - 1].append(k)
    profile = [sorted(p) for p in profile]

    def swaps(u: int, v: int) -> bool:
        t = {u: v, v: u}
        both = (1 << u) | (1 << v)
        for w, cands in constraints:
            if (cands >> u ^ cands >> v) & 1:
                cands ^= both
            elif w not in t:
                continue  # owned by neither, holding both or neither: maps to itself
            if (t.get(w, w), cands) not in cset:
                return False
        return True

    cls = list(range(n))
    reps: List[int] = []
    for v in range(n):
        for u in reps:
            if profile[u] == profile[v] and swaps(u, v):
                cls[v] = u
                break
        else:
            reps.append(v)
    return cls


@lru_cache(maxsize=4)  # a table has 4^m bits: keep only the latest few sizes
def _meeting_codes(m: int) -> Tuple[int, ...]:
    """sup[e] = mask of the nonzero codes over m elements that meet element-mask
    e: all codes but the down_set of K minus e."""
    K = (1 << m) - 1
    codes = down_set("_meeting_codes", m, [K])
    return tuple(codes ^ down_set("_meeting_codes", m, [K ^ e]) for e in range(K + 1))


@lru_cache(maxsize=None)
def _first_occurrence(m: int, used: int) -> int:
    """Mask of the codes over m elements that first-occurrence order admits
    once the first `used` elements have occurred: those whose other elements
    form one block, possibly empty, starting at element `used`."""
    within = (1 << (1 << used)) - 1  # codes inside the first `used` elements
    return sum(within << (((1 << k) - 1) << used) for k in range(m - used + 1))


class _Kernel:
    def __init__(self, G: Graph, constraints, m: int, budget: int, symmetry: bool):
        self.n = G.n
        self.m = m
        self.sup = sup = _meeting_codes(m)
        self.all_codes = sup[-1]  # codes run 1..2^m - 1
        # first[used] = codes to try once the first `used` elements occur
        self.first = [_first_occurrence(m, u) if symmetry else sup[-1] for u in range(m + 1)]
        self.budget = budget
        self.nodes = 0
        # (element bit, codes holding that element), to read a domain's element union
        self.elem_codes = [(1 << e, sup[1 << e]) for e in range(m)]
        # the forced graph F: a one-candidate pair (u, {v}) forces f(u) and f(v)
        # to meet.  rules lists (members, F-neighbors, candidate sets of two or
        # more) per class of vertices sharing both; forced, those of F-degree >= 2
        fnbrs = [0] * self.n
        sets: List[list] = [[] for _ in range(self.n)]
        for u, c in constraints:
            if c & (c - 1):
                sets[u].append(tuple(iter_bits(c)))
            else:
                fnbrs[u] |= c
                fnbrs[c.bit_length() - 1] |= 1 << u
        classes = {}
        for u in range(self.n):
            if fnbrs[u] or sets[u]:
                classes.setdefault((fnbrs[u], tuple(sets[u])), []).append(u)
        self.rules = [(tuple(us), tuple(iter_bits(ws)), vss) for (ws, vss), us in classes.items()]
        self.forced = [(us, ws) for us, ws, _ in self.rules if len(ws) > 1]
        # fail-first: small twin classes, then low degree in G, come first
        cls = _twin_classes(self.n, constraints) if symmetry else range(self.n)
        size = [0] * self.n
        for c in cls:
            size[c] += 1
        self.order = sorted(range(self.n), key=lambda v: (size[cls[v]], G.adj[v].bit_count(), v))
        # twin[pos] = the latest twin of order[pos] earlier in the order, or -1
        latest = {}
        self.twin = []
        for v in self.order:
            self.twin.append(latest.get(cls[v], -1))
            latest[cls[v]] = v

    def _union(self, d: int) -> int:
        """Union of the element masks of every code in domain d."""
        if d & (d - 1) == 0:
            return d.bit_length() - 1 if d else 0  # a committed code is its own union
        out = 0
        for bit, codes in self.elem_codes:
            if d & codes:
                out |= bit
        return out

    def _propagate(self, dom: List[int]) -> bool:
        n, sup, union = self.n, self.sup, self._union
        # seen[i] = the avail that forced class i was last counted against in
        # this call; never kept across calls, since a sibling node may see the
        # same avail with codes still untested
        seen = [-1] * len(self.forced)
        changed = True
        while changed:
            changed = False
            # all-different: committed codes leave every other domain, and
            # the domains together must still hold n codes
            committed = 0
            for d in dom:
                if d & (d - 1) == 0:
                    if committed & d:
                        return False  # two vertices committed to one code
                    committed |= d
            union_all = 0
            for v in range(n):
                d = dom[v]
                if d & committed and d & (d - 1):
                    dom[v] = d = d & ~committed
                    if d == 0:
                        return False
                    changed = True
                union_all |= d
            if union_all.bit_count() < n:
                return False
            # element unions, read once per round: a rule that narrows a
            # domain sets changed, and the next round reads it afresh
            eu = [union(d) for d in dom]
            # support, one mask per class: each member meets each F-neighbor's
            # elements (F's edges, listed at both ends) and each candidate
            # set's element union
            for us, ws, sets in self.rules:
                keep = -1
                for w in ws:
                    keep &= sup[eu[w]]
                for vs in sets:
                    big = 0
                    for v in vs:
                        big |= eu[v]
                    keep &= sup[big]
                for u in us:
                    du = dom[u]
                    nd = du & keep
                    if nd != du:
                        if nd == 0:
                            return False
                        dom[u] = nd
                        changed = True
            # neighbor counting: the class's F-neighbors need distinct codes
            # that meet a member's code c and differ from it; domains only
            # shrink, so an unchanged avail has no code left to cut
            for i, (us, ws) in enumerate(self.forced):
                avail = 0
                for w in ws:
                    avail |= dom[w]
                if avail == seen[i]:
                    continue
                seen[i] = avail
                d = len(ws)
                left = cut = 0
                for u in us:
                    left |= dom[u]
                while left:
                    low = left & -left
                    left ^= low
                    if (avail & (sup[low.bit_length() - 1] ^ low)).bit_count() < d:
                        cut |= low
                if cut:
                    for u in us:
                        du = dom[u]
                        if du & cut:
                            du &= ~cut
                            if du == 0:
                                return False
                            dom[u] = du
                            changed = True
        return True

    def search(self) -> Optional[SetLabeling]:
        """Depth-first over the assignment order with an explicit stack, one
        frame per assigned position, so the depth is not bounded by Python's
        recursion limit."""
        dom = [self.all_codes] * self.n
        if not self._propagate(dom):
            return None
        stack = [[dom, 0, self._codes(0, dom, 0)]]  # [domains, elements used, codes left]
        while stack:
            frame = stack[-1]
            dom, used, codes = frame
            if codes == 0:
                stack.pop()
                continue
            low = codes & -codes
            frame[2] = codes ^ low
            code = low.bit_length() - 1
            self.nodes += 1
            if self.nodes > self.budget:
                raise SearchBudgetExceeded(
                    f"node budget {self.budget} exhausted at m={self.m}", self.nodes
                )
            pos = len(stack) - 1
            nd = list(dom)
            nd[self.order[pos]] = 1 << code
            if self._propagate(nd):
                if pos + 1 == self.n:
                    return SetLabeling(self.m, tuple(d.bit_length() - 1 for d in nd))
                used = max(used, code.bit_length())
                stack.append([nd, used, self._codes(pos + 1, nd, used)])
        return None

    def _codes(self, pos: int, dom: List[int], used: int) -> int:
        """Codes to try at position pos of the order, once the first `used`
        ground elements occur."""
        codes = dom[self.order[pos]] & self.first[used]
        twin = self.twin[pos]
        if twin >= 0:
            codes &= -(dom[twin] << 1)  # twins take increasing codes along the order
        return codes


def _phase(G: Graph, constraints, m: int, budget: int, symmetry: bool):
    """One fixed-m existence decision; returns (witness or None, nodes used).
    constraints is None when some target set fails to dominate."""
    if m < 1:
        raise ValueError("ground set size must be >= 1")
    if m > _MAX_GROUND:
        raise CapExceededError(f"search capped at m <= {_MAX_GROUND}")
    if constraints is None or G.n > (1 << m) - 1:
        return None, 0  # a set fails to dominate, or too few distinct nonempty labels
    kern = _Kernel(G, constraints, m, budget, symmetry)
    return kern.search(), kern.nodes


def _checked(G: Graph, P: Pattern, witness: Optional[SetLabeling]) -> Optional[SetLabeling]:
    if witness is not None and not is_pattern_interference(G, P, witness):
        raise RuntimeError("search produced a witness that does not interfere (bug)")
    return witness


def exists_interference(
    G: Graph,
    P: Pattern,
    m: int,
    budget: int = DEFAULT_BUDGET,
    symmetry: bool = True,
) -> Optional[SetLabeling]:
    """A pattern interference on exactly m ground elements, or None.

    The None verdict is exhaustive (complete search); running out of node
    budget raises instead of answering.
    """
    try:
        constraints = _constraints_for(G, P)
    except NoDominatingSetError:
        constraints = None  # answered by _phase, after it has checked m
    return _checked(G, P, _phase(G, constraints, m, budget, symmetry)[0])


def interference_index(
    G: Graph,
    P: Pattern,
    budget: int = DEFAULT_BUDGET,
) -> IndexResult:
    """Smallest ground-set size admitting a P-interference, with phase trace.

    The bounds L = ceil(log2(n+1)) and U = ceil(log2 2n) differ by at most
    one, and the doubling construction interferes on U elements for every
    dominating family: one search decides m = L when L < U, and otherwise the
    construction witnesses U in a 0-node phase.  A member that fails to
    dominate makes the index undefined (NoDominatingSetError).
    """
    constraints = _constraints_for(G, P)
    lower = index_lower_bound(G.n)
    upper = universal_upper_bound(G.n)
    trace: List[PhaseOutcome] = []
    witness, nodes = None, 0
    if lower < upper:
        witness, nodes = _phase(G, constraints, lower, budget, symmetry=True)
        trace.append(PhaseOutcome(lower, witness is not None, nodes))
    if witness is None:
        witness = build_complete_interference(G.n)
        trace.append(PhaseOutcome(upper, True, 0))
    return IndexResult(trace[-1].m, _checked(G, P, witness), lower, nodes, tuple(trace))


# ---------------------------------------------------------------------------
# cross-intersecting families and complete-bipartite indices

_R_CAP, _M_CAP = 4, 6  # max_cross_intersecting refuses larger families and ground sets


class CrossIntersectingResult(NamedTuple):
    """Largest s admitting r+s distinct subsets with all r-to-s pairs meeting."""

    r: int
    m: int
    value: int
    family: Tuple[int, ...]
    partners: Tuple[int, ...]



def max_cross_intersecting(r: int, m: int) -> CrossIntersectingResult:
    """Exhaustive computation of the extremal cross-intersecting size.

    Enumerates the r-subfamily up to ground-set permutation only, in
    increasing first-occurrence order (each next subset may introduce fresh
    elements solely as the next contiguous block, which keeps one
    lexicographically-least member of every orbit).  The partners of a
    family are exact: every nonmember code that meets all its members.
    """
    if r < 1 or m < 1:
        raise ValueError("need r >= 1 and m >= 1")
    if r > _R_CAP or m > _M_CAP:
        raise CapExceededError(f"max_cross_intersecting capped at r <= {_R_CAP}, m <= {_M_CAP}")
    if (1 << m) < r:
        raise ValueError(f"cannot pick {r} distinct subsets of a {m}-set")
    sup = _meeting_codes(m)
    best = (-1, (), 0)  # (partner count, family, partner mask)

    def rec(fam: List[int], used: int) -> None:
        nonlocal best
        if len(fam) == r:
            partners = sup[-1]
            for Z in fam:
                partners &= sup[Z] & ~(1 << Z)
            count = partners.bit_count()
            if count > best[0]:
                best = (count, tuple(fam), partners)
            return
        codes = _first_occurrence(m, used)
        if fam:
            codes &= -(2 << fam[-1])  # members increase
        for c in iter_bits(codes):
            fam.append(c)
            rec(fam, max(used, c.bit_length()))
            fam.pop()

    rec([], 0)
    count, family, partners = best
    return CrossIntersectingResult(r, m, count, family, tuple(iter_bits(partners)))


def bipartite_index_upper_bound(r: int, s: int) -> int:
    """ceil(log2(n + r)) with r the smaller side; exact whenever r <= 4."""
    if r < 1 or s < 1:
        raise ValueError("need r, s >= 1")
    if r > s:
        r, s = s, r
    return ceil_log2(r + s + r)


def bipartite_index(r: int, s: int) -> int:
    """Interference index of the complete bipartite graph, via the extremal law.

    The index is the least m whose cross-intersecting capacity reaches the
    larger side.  The scan starts at ceil(log2(r+s+1)), since no smaller m
    holds r+s distinct nonempty labels, and max_cross_intersecting's caps
    bound it.  Always at most the closed-form upper bound; the tests pin
    equality on the r <= 4 window where it is certified.
    """
    if r < 1 or s < 1:
        raise ValueError("need r, s >= 1")
    if r > s:
        r, s = s, r
    for m in range(index_lower_bound(r + s), bipartite_index_upper_bound(r, s) + 1):
        if max_cross_intersecting(r, m).value >= s:
            return m
    raise RuntimeError("extremal scan exceeded the certified upper bound (bug)")
