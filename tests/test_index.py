"""Smallest-ground-set search and the cross-intersecting extremal numbers."""

import random

import pytest

import interfere as itf
from interfere import (
    CapExceededError,
    NoDominatingSetError,
    Pattern,
    SearchBudgetExceeded,
    SetLabeling,
    ceil_log2,
    complete,
    complete_bipartite,
    exists_interference,
    index_lower_bound,
    interference_index,
    max_cross_intersecting,
    universal_upper_bound,
)

from interfere.bitset import bit_list, mask_of
from interfere.cli import bipartition
from interfere.index_search import _constraints_for, _Kernel, _meeting_codes, _twin_classes

from conftest import forced_rule_on_off, run_cli, target_sets
from oracles import (
    brute_exists_interference,
    brute_is_interference,
    brute_max_cross_intersecting,
    brute_minimal_constraints,
    brute_twin_classes,
    gnp,
    reference_propagate,
    scan_index,
)

# values confirmed by brute_max_cross_intersecting, which enumerates the
# literal definition with no symmetry shortcuts
CROSS_TABLE = {
    (1, 1): 0, (1, 2): 2, (1, 3): 6, (1, 4): 14,
    (2, 1): 0, (2, 2): 1, (2, 3): 4, (2, 4): 12, (2, 5): 28,
    (3, 2): 0, (3, 3): 2, (3, 4): 10,
    (4, 2): 0, (4, 3): 2, (4, 4): 8,
}

# max_cross_intersecting(r, m) for every r <= 4, m <= 6 with 2^m >= r, as
# (value, family codes, partner codes as one mask).  The family is the first
# best one in increasing first-occurrence order, so this pins that order too.
CROSS_PINNED = {
    (1, 1): (0, (0,), 0x0),
    (1, 2): (2, (3,), 0x6),
    (1, 3): (6, (7,), 0x7e),
    (1, 4): (14, (15,), 0x7ffe),
    (1, 5): (30, (31,), 0x7ffffffe),
    (1, 6): (62, (63,), 0x7ffffffffffffffe),
    (2, 1): (0, (0, 1), 0x0),
    (2, 2): (1, (1, 2), 0x8),
    (2, 3): (4, (3, 7), 0x66),
    (2, 4): (12, (7, 15), 0x7e7e),
    (2, 5): (28, (15, 31), 0x7ffe7ffe),
    (2, 6): (60, (31, 63), 0x7ffffffe7ffffffe),
    (3, 2): (0, (0, 1, 2), 0x0),
    (3, 3): (2, (1, 2, 5), 0x88),
    (3, 4): (10, (7, 11, 15), 0x766e),
    (3, 5): (26, (15, 23, 31), 0x7f7e7efe),
    (3, 6): (58, (31, 47, 63), 0x7fff7ffe7ffefffe),
    (4, 2): (0, (0, 1, 2, 3), 0x0),
    (4, 3): (2, (1, 2, 5, 6), 0x88),
    (4, 4): (8, (3, 7, 11, 15), 0x6666),
    (4, 5): (24, (7, 15, 23, 31), 0x7e7e7e7e),
    (4, 6): (56, (15, 31, 47, 63), 0x7ffe7ffe7ffe7ffe),
}


class TestBounds:
    def test_ceil_log2(self):
        assert [ceil_log2(k) for k in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]

    def test_lower_and_upper(self):
        for n in range(1, 40):
            lo = index_lower_bound(n)
            hi = universal_upper_bound(n)
            assert lo == ceil_log2(n + 1)
            assert hi == ceil_log2(2 * n)
            assert lo <= hi
        # the doubling form is one more than the plain logarithm once n >= 2
        assert all(universal_upper_bound(n) == 1 + ceil_log2(n) for n in range(2, 40))


class TestSearchAgainstBrute:
    @pytest.mark.parametrize("n", range(2, 5))
    def test_every_target_set(self, n):
        for G in itf.all_graphs(n):
            for m in (2, 3):
                if n > (1 << m) - 1:
                    continue
                for D in range(1, 1 << n):
                    got = exists_interference(G, Pattern.explicit([D]), m)
                    want = brute_exists_interference(G, [list(itf.bit_list(D))], m)
                    assert (got is not None) == want, (itf.to_graph6(G), m, bin(D))
                    if got is not None:
                        assert itf.is_interference(G, D, got)

    def test_minimal_dominating_families(self):
        for G in itf.connected_graphs(5):
            fam = itf.minimal_dominating_sets(G)
            got = exists_interference(G, Pattern.all_dominating(), 3)
            want = brute_exists_interference(G, [list(itf.bit_list(D)) for D in fam], 3)
            assert (got is not None) == want, itf.to_graph6(G)

    def test_symmetry_flag_does_not_change_verdicts(self):
        for G in itf.connected_graphs(5)[::3]:
            a = exists_interference(G, Pattern.all_dominating(), 3, symmetry=True)
            b = exists_interference(G, Pattern.all_dominating(), 3, symmetry=False)
            assert (a is None) == (b is None)


def complete_multipartite(*parts):
    first = [sum(parts[:i]) for i in range(len(parts))]
    n = sum(parts)
    return itf.Graph(n, [
        (u, v)
        for i, (a, ra) in enumerate(zip(first, parts))
        for b, rb in zip(first[i + 1:], parts[i + 1:])
        for u in range(a, a + ra)
        for v in range(b, b + rb)
    ])


TWIN_RICH = (
    [complete(n) for n in range(3, 8)]
    + [complete_multipartite(*p) for p in ((3, 3), (2, 2, 2), (2, 2, 3), (3, 4))]
    + [itf.star(s) for s in range(2, 7)]
    + [itf.wheel(n) for n in range(3, 7)]
)

# graphs whose vertices share F-neighborhoods, so the kernel's forced classes
# have several members; crown:4 is the corona of C4
F_CLASSES = (
    [complete_bipartite(r, s) for r in range(1, 6) for s in range(r, 6)]
    + [complete_multipartite(*p)
       for p in ((2, 2, 2), (1, 2, 3), (3, 3, 3), (2, 2, 2, 2), (1, 1, 3, 3))]
    + [itf.crown(4)]
)

# (graph, pattern, class): the kernel builds a class with several members that
# joins F-neighbors to a candidate set, or has a candidate set alone, so one
# support mask serves every member
MIXED_CLASSES = (
    # complete:5 under {0}, {1, 2}: 3 and 4 need 0 alone and one of 1, 2
    pytest.param(complete(5), Pattern.explicit([0b00001, 0b00110]),
                 ((3, 4), (0,), ((1, 2),)), id="complete:5"),
    # kpq:2,3 under {0, 1}: the far side needs one of 0, 1 and has no F-edge
    pytest.param(complete_bipartite(2, 3), Pattern.explicit([0b00011]),
                 ((2, 3, 4), (), ((0, 1),)), id="kpq:2,3"),
)


def patterns_of(G):
    """The dominating pattern and the singletons, plus cross-pairs when G has
    a bipartition with two sides."""
    patterns = (Pattern.all_dominating(), Pattern.singletons(G.n))
    try:
        return patterns + (Pattern.cross_pairs(*bipartition(G)),)
    except ValueError:
        return patterns  # an odd cycle, or the empty second side of K1


class TestSymmetryRules:
    """Twin ordering and the fresh-block rule never change a verdict."""

    @staticmethod
    def _compare(G):
        for P in patterns_of(G):
            try:
                index = interference_index(G, P).index
                expected = {index - 1: False, index: True}
            except NoDominatingSetError:
                expected = {index_lower_bound(G.n): False}
            for m, found in expected.items():
                if m < 1:
                    continue
                on = exists_interference(G, P, m, symmetry=True)
                off = exists_interference(G, P, m, symmetry=False)
                assert (on is not None) == (off is not None) == found, (
                    itf.to_graph6(G), P.kind, m
                )

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_connected_graph(self, n):
        for G in itf.connected_graphs(n):
            self._compare(G)

    @pytest.mark.parametrize("G", TWIN_RICH, ids=itf.to_graph6)
    def test_twin_rich_graphs(self, G):
        self._compare(G)

    def test_twins_come_from_constraints_not_adjacency(self):
        # the sides {0, 1} and {2, 3} of K2,2 hold graph twins, but the target
        # set {0, 2} singles out one vertex of each side, so no swap survives
        G = complete_bipartite(2, 2)

        def twins(*sets):
            kern = _Kernel(G, _constraints_for(G, Pattern.explicit(sets)), 3, 10**6, True)
            return dict(zip(kern.order, kern.twin))

        assert twins(0b0101) == {0: -1, 1: -1, 2: -1, 3: -1}
        assert twins(0b0101, 0b0110, 0b1001, 0b1010) == {0: -1, 1: 0, 2: -1, 3: 2}


def circulant(n, jumps):
    return itf.Graph(n, {tuple(sorted((i, (i + j) % n))) for i in range(n) for j in jumps})


# vertex-transitive graphs: every vertex has one profile, but few are twins
VERTEX_TRANSITIVE = (
    [itf.cycle(n) for n in range(3, 11)]
    + [circulant(n, (1, 2)) for n in range(6, 11)]
    + [circulant(8, (1, 4)), circulant(10, (2, 5))]
    + [complete_bipartite(r, r) for r in range(1, 6)]
    + [complete_multipartite(*[2] * k) for k in range(2, 6)]
    + [itf.Graph(2 * r, [(u, r + v) for u in range(r) for v in range(r) if u != v])
       for r in range(3, 6)]  # crown graphs: K_{r,r} minus a perfect matching
    + [itf.Graph(8, [(u, u ^ 1 << b) for u in range(8) for b in range(3) if u < u ^ 1 << b])]
    + [itf.Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                 + [(i, 5 + i) for i in range(5)])]  # the Petersen graph
)


class TestTwinClasses:
    """The profile screen drops no twin: _twin_classes equals the test of
    every transposition on the whole pair set, for the dominating, singleton
    and explicit patterns of graphs of order 2-10."""

    @staticmethod
    def _cases():
        rng = random.Random(28)
        graphs = VERTEX_TRANSITIVE + TWIN_RICH + [
            gnp(n, p, seed) for n in range(2, 11) for p in (0.3, 0.5, 0.8) for seed in range(3)
        ]
        for G in graphs:
            yield G, Pattern.all_dominating()
            yield G, Pattern.singletons(G.n)
            fam = itf.minimal_dominating_sets(G)
            for _ in range(2):
                yield G, Pattern.explicit(rng.sample(fam, rng.randint(1, min(3, len(fam)))))

    def test_matches_every_transposition(self):
        twinned = twin_free_transitive = 0
        for G, P in self._cases():
            try:
                constraints = _constraints_for(G, P)
            except NoDominatingSetError:
                continue
            want = brute_twin_classes(G.n, constraints)
            assert _twin_classes(G.n, constraints) == want, (itf.to_graph6(G), P.kind)
            twinned += want != list(range(G.n))
            # every profile is equal here, so the transposition tests decide
            twin_free_transitive += (
                want == list(range(G.n)) and P.kind == Pattern.ALL_DOMINATING
                and any(G is H for H in VERTEX_TRANSITIVE)
            )
        assert twinned and twin_free_transitive


class TestNeighborCounting:
    """Neighbor counting removes only codes that lie in no solution: with the
    forced table emptied, the search gives the same verdict and the same first
    witness, in at least as many nodes."""

    @staticmethod
    def _compare(G, P, m):
        """True when the rule saved nodes; NoDominatingSetError propagates."""
        (on, nodes_on), (off, nodes_off) = forced_rule_on_off(G, P, m)
        key = (itf.to_graph6(G), P.kind, m)
        assert on == off, key
        assert nodes_on <= nodes_off, key
        if on is not None:
            for D in target_sets(G, P):
                assert brute_is_interference(G, itf.bit_list(D), on), key
        return nodes_on < nodes_off

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_connected_graph(self, n):
        saved = 0
        for G in itf.connected_graphs(n):
            for P in patterns_of(G):
                for m in range(index_lower_bound(n), universal_upper_bound(n) + 1):
                    try:
                        saved += self._compare(G, P, m)
                    except NoDominatingSetError:
                        break
        if n >= 5:
            assert saved > 0  # the rule has codes to remove from order 5 on

    @pytest.mark.parametrize("G", F_CLASSES, ids=itf.to_graph6)
    def test_forced_classes(self, G):
        for P in patterns_of(G):
            for m in range(index_lower_bound(G.n), universal_upper_bound(G.n) + 1):
                try:
                    self._compare(G, P, m)
                except NoDominatingSetError:
                    break

    @pytest.mark.parametrize("G, P, cls", MIXED_CLASSES)
    def test_mixed_classes(self, G, P, cls):
        kern = _Kernel(G, _constraints_for(G, P), 3, 10**6, True)
        assert cls in kern.rules
        for m in range(index_lower_bound(G.n), universal_upper_bound(G.n) + 1):
            self._compare(G, P, m)

    def test_forced_table(self):
        # star:3 under {0}: each leaf's one candidate is the center, so F is
        # the star itself and only the center has F-degree >= 2
        G = itf.star(3)
        kern = _Kernel(G, _constraints_for(G, Pattern.explicit([0b0001])), 3, 10**6, True)
        assert kern.forced == [((0,), (1, 2, 3))]
        # K2,3 under the dominating pattern: F is K2,3 itself, so each side is
        # one class whose F-neighbors are the other side
        G = complete_bipartite(2, 3)
        kern = _Kernel(G, _constraints_for(G, Pattern.all_dominating()), 3, 10**6, True)
        assert kern.forced == [((0, 1), (2, 3, 4)), ((2, 3, 4), (0, 1))]


class TestIndexAgainstScan:
    """One search at L plus the construction at U gives the upward scan's index."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_connected_graph(self, n):
        for G in itf.connected_graphs(n):
            for P in patterns_of(G):
                want = scan_index(G, P)
                try:
                    res = interference_index(G, P)
                except NoDominatingSetError:
                    assert want is None, (itf.to_graph6(G), P.kind)
                    continue
                assert res.index == want, (itf.to_graph6(G), P.kind)
                assert res.lower_bound_used == index_lower_bound(G.n)
                # the search confirms what the construction claims at U
                assert exists_interference(G, P, universal_upper_bound(G.n)) is not None


class TestImpliedConstraints:
    """The kernel gets each vertex's subset-minimal pairs only: read off the
    graph for the dominating pattern, listed from the sets for the others."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_connected_graph(self, n):
        for G in itf.connected_graphs(n):
            for P in patterns_of(G):
                family = target_sets(G, P)
                try:
                    constraints = _constraints_for(G, P)
                except NoDominatingSetError:
                    continue
                got = [(u, frozenset(bit_list(C))) for u, C in constraints]
                kept, dropped = brute_minimal_constraints(G, family)
                assert constraints == sorted(constraints), (itf.to_graph6(G), P.kind)
                assert len(got) == len(set(got)), (itf.to_graph6(G), P.kind)
                assert set(got) == kept, (itf.to_graph6(G), P.kind)
                for u, C in dropped:
                    assert any(w == u and K < C for w, K in kept), (itf.to_graph6(G), u, C)


class TestPinnedSearch:
    """Node counts, phases and witnesses of the kernel under the fail-first
    order.  Dropping implied pairs leaves every fixpoint as it is, and neighbor
    counting removes only codes that lie in no solution, so neither moves the
    first witness of the search."""

    @pytest.mark.parametrize("G,P,trace,witness", [
        pytest.param(
            complete_bipartite(6, 6), Pattern.all_dominating(),
            [(4, False, 139), (5, True, 0)],
            (1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23),
            id="K6,6",
        ),
        # the smaller side goes first as the smaller twin class; by degree
        # alone the larger side would, and refuting m = 4 took 924 nodes
        pytest.param(
            complete_bipartite(4, 9), Pattern.all_dominating(),
            [(4, False, 21), (5, True, 0)],
            (1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25),
            id="K4,9",
        ),
        # the other index-sym graphs, in the generated labeling (parts in order)
        pytest.param(
            complete(11), Pattern.all_dominating(),
            [(4, False, 0), (5, True, 0)], (1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21),
            id="K11",
        ),
        pytest.param(
            complete(12), Pattern.all_dominating(),
            [(4, False, 0), (5, True, 0)], (1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23),
            id="K12",
        ),
        pytest.param(
            complete_bipartite(5, 6), Pattern.all_dominating(),
            [(4, True, 19)], (3, 5, 7, 10, 12, 6, 9, 11, 13, 14, 15),
            id="K5,6",
        ),
        pytest.param(
            complete_bipartite(5, 7), Pattern.all_dominating(),
            [(4, False, 78), (5, True, 0)], (1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23),
            id="K5,7",
        ),
        pytest.param(
            complete_multipartite(2, 2, 2, 2, 2), Pattern.all_dominating(),
            [(4, True, 10)], (3, 7, 5, 10, 6, 9, 11, 13, 14, 15),
            id="K2,2,2,2,2",
        ),
        pytest.param(
            gnp(10, 0.8, 5), Pattern.all_dominating(),
            [(4, True, 37)], (5, 7, 11, 3, 1, 6, 2, 13, 9, 15),
            id="G(10,0.8)#5",
        ),
        pytest.param(
            gnp(10, 0.8, 35), Pattern.all_dominating(),
            [(4, True, 12)], (5, 6, 7, 11, 2, 15, 3, 13, 14, 1),
            id="G(10,0.8)#35",
        ),
        pytest.param(
            gnp(15, 0.8, 1), Pattern.all_dominating(),
            [(4, False, 0), (5, True, 0)],
            (1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29),
            id="G(15,0.8)#1",
        ),
        # neighbor counting refutes m = 4 at the root
        pytest.param(
            gnp(12, 0.8, 1), Pattern.all_dominating(),
            [(4, False, 0), (5, True, 0)],
            (1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23),
            id="G(12,0.8)#1",
        ),
        # and here early in the search
        pytest.param(
            gnp(14, 0.7, 1), Pattern.all_dominating(),
            [(4, False, 52), (5, True, 0)],
            (1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27),
            id="G(14,0.7)#1",
        ),
        # 26,846 and 23,479 nodes under the former heaviest-first order
        pytest.param(
            gnp(14, 0.7, 0), Pattern.all_dominating(),
            [(4, False, 2137), (5, True, 0)],
            (1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27),
            id="G(14,0.7)#0",
        ),
        pytest.param(
            gnp(14, 0.7, 2), Pattern.all_dominating(),
            [(4, False, 610), (5, True, 0)],
            (1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27),
            id="G(14,0.7)#2",
        ),
        # an explicit set {0, 4, 5, 6, 8} leaves pairs of several candidates
        # where one can be the sole support; a dual rule that narrowed that
        # candidate to codes meeting u's elements took 9 nodes here
        pytest.param(
            gnp(9, 0.7, 2714), Pattern.explicit([0b101110001]),
            [(4, True, 14)], (14, 5, 6, 2, 7, 8, 3, 4, 1),
            id="G(9,0.7)#2714-explicit",
        ),
    ])
    def test_nodes_trace_and_witness(self, G, P, trace, witness):
        res = interference_index(G, P)
        assert [(p.m, p.found, p.nodes) for p in res.trace] == trace
        assert res.nodes_explored == sum(nodes for _, _, nodes in trace)
        assert res.witness.labels == witness


class TestPropagation:
    """The reference runs the rules on every pair the listed family gives,
    the kernel on the subset-minimal ones that _constraints_for passes it;
    both reach one fixpoint."""

    @staticmethod
    def _agrees(rng, G, P):
        """Propagate from random commitments both ways and compare.  Returns
        (pairs, pairs propagated, whether the kernel with neighbor counting
        off reaches another fixpoint), or None when a member fails to
        dominate."""
        try:
            kern_constraints = _constraints_for(G, P)
        except NoDominatingSetError:
            return None
        kept, dropped = brute_minimal_constraints(G, target_sets(G, P))
        constraints = sorted((u, mask_of(C)) for u, C in kept | dropped)
        n = G.n
        m = index_lower_bound(n) + rng.randint(0, 1)
        kern = _Kernel(G, kern_constraints, m, 10**6, True)
        dom = [kern.all_codes] * n
        for v, code in zip(
            rng.sample(range(n), rng.randint(0, n)),
            rng.sample(range(1, 1 << m), n),
        ):
            dom[v] = 1 << code
        got, want = list(dom), list(dom)
        ok = kern._propagate(got)
        assert ok == reference_propagate(n, constraints, m, want)
        if ok:
            assert got == want
        off = list(dom)
        kern.forced = []
        off_ok = kern._propagate(off)
        if off_ok:
            # with neighbor counting off, the pair rule alone holds each
            # one-candidate pair (u, {v}) arc-consistent, in both directions
            for u, C in kern_constraints:
                if C & (C - 1) == 0:
                    v = C.bit_length() - 1
                    for a, b in ((u, v), (v, u)):
                        assert all(
                            any(c & e for e in bit_list(off[b])) for c in bit_list(off[a])
                        ), (itf.to_graph6(G), u, v)
        return len(constraints), len(kern_constraints), (ok, ok and got) != (off_ok, off_ok and off)

    def test_matches_reference_fixpoint(self):
        rng = random.Random(7)
        checked = 0
        while checked < 400:
            n = rng.randint(2, 8)
            G = itf.Graph(n, [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
            ])
            if rng.random() < 0.5:
                P = Pattern.all_dominating()
            else:
                P = Pattern.explicit([rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 4))])
            if self._agrees(rng, G, P) is not None:
                checked += 1

    def test_forced_classes(self):
        rng = random.Random(36)
        for G in F_CLASSES:
            for P in patterns_of(G):
                for _ in range(10):
                    if self._agrees(rng, G, P) is None:
                        break

    @pytest.mark.parametrize("G, P, cls", MIXED_CLASSES)
    def test_mixed_classes(self, G, P, cls):
        rng = random.Random(37)
        assert cls in _Kernel(G, _constraints_for(G, P), 3, 10**6, True).rules
        for _ in range(200):
            self._agrees(rng, G, P)

    def test_orders_9_and_10_minimal_dominating(self):
        rng = random.Random(9)
        pairs = propagated = 0
        for _ in range(40):
            n = rng.randint(9, 10)
            p = rng.choice((0.5, 0.8))
            G = itf.Graph(n, [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
            ])
            counts = self._agrees(rng, G, Pattern.all_dominating())
            pairs += counts[0]
            propagated += counts[1]
        assert 2 * propagated < pairs  # most pairs are implied here

    def test_neighbor_counting_fires_on_dense_graphs(self):
        # at edge probability 0.8 one-candidate pairs are common, and the
        # forced graph refutes commitments that the other rules leave open
        rng = random.Random(13)
        fired = 0
        for _ in range(150):
            n = rng.randint(7, 8)
            G = itf.Graph(n, [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.8
            ])
            fired += self._agrees(rng, G, Pattern.all_dominating())[2]
        assert fired

    def test_nested_explicit_members(self):
        rng = random.Random(11)
        checked = dropped = 0
        while checked < 200:
            n = rng.randint(2, 8)
            G = itf.Graph(n, [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
            ])
            D = rng.choice(itf.minimal_dominating_sets(G))
            D_masks = [D]
            for _ in range(rng.randint(1, 3)):
                D |= rng.randrange(1 << n)  # D only grows: D_masks is a chain
                D_masks.append(D)
            if rng.random() < 0.5:
                D_masks.append(rng.randrange(1, 1 << n))
            rng.shuffle(D_masks)
            counts = self._agrees(rng, G, Pattern.explicit(D_masks))
            if counts is not None:
                checked += 1
                dropped += counts[0] > counts[1]
        assert dropped > checked // 4


class TestIndexOnCompleteGraphs:
    @pytest.mark.parametrize("n", range(2, 17))
    def test_doubling_law(self, n):
        res = interference_index(complete(n), Pattern.all_dominating())
        assert res.index == ceil_log2(2 * n)
        # the search itself shows nothing smaller works: the index is the
        # lower bound, or the trace refutes one size below it
        assert res.index == res.lower_bound_used or any(
            p.m == res.index - 1 and not p.found for p in res.trace
        )
        # the witness really is a pattern interference
        assert itf.is_pattern_interference(
            complete(n), Pattern.all_dominating(), res.witness
        )
        # one size below, the search space is provably empty
        assert exists_interference(complete(n), Pattern.all_dominating(), res.index - 1) is None

    def test_trace_shows_failed_phase_when_gap_exists(self):
        res = interference_index(complete(3), Pattern.singletons(3))
        assert [(p.m, p.found) for p in res.trace] == [(2, False), (3, True)]
        assert res.lower_bound_used == 2

    def test_power_of_two_order_collapses_to_lower_bound(self):
        # when n = 2^k the injectivity bound and the doubling law coincide
        res = interference_index(complete(4), Pattern.all_dominating())
        assert res.index == index_lower_bound(4) == 3


class TestIndexMachinery:
    def test_undefined_without_domination(self):
        with pytest.raises(NoDominatingSetError):
            interference_index(itf.path(3), Pattern.explicit([0b001]))

    def test_budget_exhaustion_raises(self):
        with pytest.raises(SearchBudgetExceeded) as info:
            interference_index(complete(9), Pattern.all_dominating(), budget=3)
        assert info.value.nodes >= 3

    def test_budget_bounds_the_whole_call(self):
        G, P = complete(9), Pattern.all_dominating()
        res = interference_index(G, P)
        total = res.nodes_explored
        assert total == sum(p.nodes for p in res.trace)
        assert interference_index(G, P, budget=total).trace == res.trace
        with pytest.raises(SearchBudgetExceeded) as info:
            interference_index(G, P, budget=total - 1)
        assert str(info.value).startswith(f"node budget {total - 1} exhausted")
        assert info.value.nodes == total

    def test_undominated_family_precedence(self):
        # undefined before any phase
        with pytest.raises(NoDominatingSetError):
            interference_index(itf.path(3), Pattern.explicit([0b001]))
        # a single m is checked first, and then the family answers None
        with pytest.raises(ValueError):
            exists_interference(itf.path(3), Pattern.explicit([0b001]), 0)
        with pytest.raises(CapExceededError):
            exists_interference(itf.path(3), Pattern.explicit([0b001]), 15)
        assert exists_interference(itf.path(3), Pattern.explicit([0b001]), 2) is None

    def test_lists_no_dominating_set(self, monkeypatch):
        # the constraints, the witness check and `check` all read N(u)
        # directly; every listing of dominating sets reads dominating_family
        calls = []
        for name in ("minimal_dominating_sets", "dominating_family"):
            listing = getattr(itf.domination, name)
            monkeypatch.setattr(itf.domination, name,
                                lambda G, listing=listing: calls.append(G) or listing(G))
        for G in (complete(5), gnp(10, 0.8, 5), gnp(14, 0.7, 2)):
            res = interference_index(G, Pattern.all_dominating())
            assert exists_interference(G, Pattern.all_dominating(), res.index) is not None
            code, out = run_cli(["check", "--graph", "g6:" + itf.to_graph6(G),
                                 "--labeling", "complete", "--pattern", "all-dominating"])
            assert code == 0 and '"verdict": true' in out
        assert calls == []

    @pytest.mark.parametrize("m", range(1, 7))
    def test_meeting_codes(self, m):
        # bit c of sup[e]: the nonzero code c shares an element with e
        sup = _meeting_codes(m)
        assert len(sup) == 1 << m
        for e, codes in enumerate(sup):
            assert codes == mask_of(c for c in range(1, 1 << m) if c & e), (m, e)

    def test_at_most_one_search(self, monkeypatch):
        calls = []
        search = _Kernel.search
        monkeypatch.setattr(_Kernel, "search", lambda self: calls.append(self.m) or search(self))
        interference_index(complete(5), Pattern.all_dominating())
        assert calls == [3]
        # L = U: the construction answers without a search
        for G, P, m in (
            (complete(4), Pattern.all_dominating(), 3),
            (complete(16), Pattern.all_dominating(), 5),
            (complete_bipartite(8, 8), Pattern.all_dominating(), 5),
        ):
            calls.clear()
            res = interference_index(G, P)
            assert calls == [] and res.index == m and res.nodes_explored == 0
            assert [(p.m, p.found, p.nodes) for p in res.trace] == [(m, True, 0)]

    def test_empty_family_collapses_to_injectivity_bound(self):
        res = interference_index(itf.path(3), Pattern.explicit([]))
        assert res.index == index_lower_bound(3) == 2

    def test_wheel_center_index(self):
        for n in range(3, 7):
            G = itf.wheel(n)
            res = interference_index(G, Pattern.explicit([1 << n]))
            assert res.index == ceil_log2(G.n + 1)

    def test_bad_witness_raises(self, monkeypatch):
        # {0},{1},{0,1} on K3: vertex 1 shares nothing with {0}
        bad = SetLabeling(2, (0b01, 0b10, 0b11))
        monkeypatch.setattr(itf.index_search._Kernel, "search", lambda self: bad)
        with pytest.raises(RuntimeError, match="bug"):
            interference_index(complete(3), Pattern.singletons(3))
        with pytest.raises(RuntimeError, match="bug"):
            exists_interference(complete(3), Pattern.singletons(3), 2)
        # the construction passes the same guard: here vertex 1 misses {0}
        bad = SetLabeling(3, (0b001, 0b010, 0b100, 0b011))
        monkeypatch.setattr(itf.index_search, "build_complete_interference", lambda n: bad)
        with pytest.raises(RuntimeError, match="bug"):
            interference_index(complete(4), Pattern.singletons(4))


class TestCrossIntersecting:
    @pytest.mark.parametrize("r,m", sorted(CROSS_TABLE))
    def test_frozen_table(self, r, m):
        assert max_cross_intersecting(r, m).value == CROSS_TABLE[(r, m)]

    @pytest.mark.parametrize("r,m", sorted(CROSS_PINNED))
    def test_pinned_result(self, r, m):
        value, family, partners = CROSS_PINNED[(r, m)]
        assert max_cross_intersecting(r, m) == (
            r, m, value, family, tuple(c for c in range(1 << m) if partners >> c & 1)
        )

    @pytest.mark.parametrize(
        "r,m",
        [(r, m) for r in (1, 2, 3, 4) for m in (1, 2, 3, 4) if (1 << m) >= r] + [(3, 5), (4, 5)],
    )
    def test_agrees_with_literal_enumeration(self, r, m):
        assert max_cross_intersecting(r, m).value == brute_max_cross_intersecting(r, m)

    def test_first_block_too_large_for_ground_set(self):
        with pytest.raises(ValueError):
            max_cross_intersecting(3, 1)

    def test_two_block_law_holds_from_three_elements(self):
        for m in (3, 4, 5):
            assert max_cross_intersecting(2, m).value == (1 << m) - 4

    def test_two_block_law_fails_at_two_elements(self):
        # {a} and {b} admit the single partner {a,b}, beating the
        # {X, X-minus-a} construction, whose count 2^m - 4 would be zero here
        assert max_cross_intersecting(2, 2).value == 1
        assert brute_max_cross_intersecting(2, 2) == 1

    def test_witness_family_is_consistent(self):
        res = max_cross_intersecting(2, 4)
        assert len(res.family) == 2 and len(res.partners) == res.value
        for Y in res.partners:
            assert all(Y & Z for Z in res.family)
        assert len(set(res.family) | set(res.partners)) == 2 + res.value

    def test_monotone_in_ground_size(self):
        for r in (1, 2, 3):
            for m in (2, 3):
                assert (
                    max_cross_intersecting(r, m).value
                    <= max_cross_intersecting(r, m + 1).value
                )

    def test_antitone_in_block_size(self):
        for m in (3, 4):
            for r in (1, 2, 3):
                assert (
                    max_cross_intersecting(r + 1, m).value
                    <= max_cross_intersecting(r, m).value
                )

    def test_caps(self):
        with pytest.raises(CapExceededError):
            max_cross_intersecting(5, 3)
        with pytest.raises(CapExceededError):
            max_cross_intersecting(2, 7)


class TestBipartiteIndex:
    @pytest.mark.parametrize("s", range(2, 13))
    def test_smaller_side_two(self, s):
        assert itf.bipartite_index(2, s) == ceil_log2(s + 4)

    @pytest.mark.parametrize("r", (3, 4))
    def test_equality_window(self, r):
        for s in range(r, 7):
            n = r + s
            assert itf.bipartite_index(r, s) == ceil_log2(n + r)
            assert itf.bipartite_index_upper_bound(r, s) == ceil_log2(n + r)

    @pytest.mark.parametrize("r,s", [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)])
    def test_agrees_with_direct_search(self, r, s):
        G = complete_bipartite(r, s)
        res = interference_index(G, Pattern.all_dominating())
        assert res.index == itf.bipartite_index(r, s)

    @pytest.mark.parametrize("r,s", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)])
    def test_cross_pairs_family_gives_the_same_index(self, r, s):
        G = complete_bipartite(r, s)
        U = (1 << r) - 1
        W = ((1 << s) - 1) << r
        res = interference_index(G, Pattern.cross_pairs(U, W))
        assert res.index == itf.bipartite_index(r, s)

    def test_k66_within_default_budget(self):
        G = complete_bipartite(6, 6)
        res = interference_index(G, Pattern.all_dominating())
        assert res.index == 5
        for D in itf.minimal_dominating_sets(G):
            assert brute_is_interference(G, itf.bit_list(D), res.witness)

    def test_one_side_as_target(self):
        for r, s in ((2, 3), (3, 4)):
            G = complete_bipartite(r, s)
            U = (1 << r) - 1
            res = interference_index(G, Pattern.explicit([U]))
            assert res.index == ceil_log2(r + s + 1)

    def test_arguments_commute(self):
        assert itf.bipartite_index(2, 5) == itf.bipartite_index(5, 2)

    def test_ground_set_cap_binds(self):
        """max_cross_intersecting's m <= 6 cap bounds the scan: K4,56 is the
        largest K4,s it answers."""
        assert itf.bipartite_index(4, 56) == 6
        with pytest.raises(CapExceededError):
            itf.bipartite_index(4, 57)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            itf.bipartite_index(0, 3)
