"""Dominating-set predicates, families and the minimal dominating sets."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import interfere as itf
from interfere import bit_list, mask_of

from interfere.domination import dominating_constraints, down_set

from oracles import (
    brute_is_dominating,
    brute_minimal_constraints,
    brute_minimal_dominating_sets,
    gnp,
)


class TestIsDominating:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_set_oracle(self, n):
        for G in itf.all_graphs(n):
            for D in range(1 << n):
                assert itf.is_dominating(G, D) == brute_is_dominating(
                    G, bit_list(D)
                ), (itf.to_graph6(G), bin(D))

    def test_empty_set_never_dominates(self):
        assert not itf.is_dominating(itf.complete(3), 0)

    def test_isolated_vertex_must_join(self):
        G = itf.Graph(3, [(0, 1)])
        assert not itf.is_dominating(G, mask_of([0]))
        assert itf.is_dominating(G, mask_of([0, 2]))


class TestDominatingFamily:
    @staticmethod
    def _filtered(G):
        return mask_of(D for D in range(1 << G.n) if itf.is_dominating(G, D))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_per_set_predicate(self, n):
        for G in itf.all_graphs(n):
            assert itf.dominating_family(G) == self._filtered(G), itf.to_graph6(G)

    def test_matches_on_random_graphs(self):
        rng = random.Random(20)
        for n in range(7, 13):
            for p in (0.2, 0.5, 0.8):
                edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
                G = itf.Graph(n, edges)
                assert itf.dominating_family(G) == self._filtered(G), itf.to_graph6(G)

    @pytest.mark.parametrize("n", range(13, 17))
    def test_matches_at_orders_13_to_16(self, n):
        for p in (0.2, 0.8):
            G = gnp(n, p, n)
            assert itf.dominating_family(G) == self._filtered(G), itf.to_graph6(G)

    def test_cap(self):
        # at the cap the edgeless graph is dominated by V alone
        assert itf.dominating_family(itf.Graph(16)) == 1 << (1 << 16) - 1
        with pytest.raises(itf.CapExceededError):
            itf.dominating_family(itf.Graph(17))
        with pytest.raises(itf.CapExceededError):
            itf.all_dominating_sets(itf.Graph(17))


def _subsets_of_some(masks):
    """Every subset of every mask, listed by itertools, as one int."""
    return mask_of({mask_of(c) for T in masks for r in range(T.bit_count() + 1)
                    for c in itertools.combinations(bit_list(T), r)})


class TestDownSet:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_subset_oracle(self, n):
        rng = random.Random(n)
        for k in range(4):
            masks = [rng.getrandbits(n) for _ in range(k)]
            assert down_set("t", n, masks) == _subsets_of_some(masks), masks

    @pytest.mark.parametrize("n, masks, want", [
        (1, [], 0),
        (1, [0], 0b1),  # the empty set alone
        (1, [1], 0b11),
        (1, [1, 1, 0], 0b11),
        (3, [0b101, 0b101], 0b110011),  # {}, {0}, {2}, {0, 2}
        (3, [0b111], 0xFF),
    ])
    def test_anchors(self, n, masks, want):
        assert down_set("t", n, masks) == want == _subsets_of_some(masks)

    def test_order_16(self):
        full = (1 << 16) - 1
        rng = random.Random(16)
        masks = [rng.getrandbits(16) for _ in range(3)]
        assert down_set("t", 16, masks + masks + [0]) == _subsets_of_some(masks)
        assert down_set("t", 16, [0, full, 0b1011]) == (1 << (1 << 16)) - 1

    def test_cap(self):
        with pytest.raises(itf.CapExceededError, match="^down: n=17 exceeds cap 16$"):
            down_set("down", 17, [1])


class TestEnumeration:
    @pytest.mark.parametrize("n", [*range(1, 7), *range(9, 13)])
    def test_matches_subset_scan(self, n):
        graphs = itf.all_graphs(n) if n <= 6 else [
            gnp(n, p, seed) for p in (0.2, 0.5, 0.8) for seed in range(2)]
        for G in graphs:
            fam = itf.minimal_dominating_sets(G)
            got = {frozenset(bit_list(D)) for D in fam}
            assert got == set(brute_minimal_dominating_sets(G)), itf.to_graph6(G)
            assert len(got) == len(fam)  # no duplicates emitted

    def test_path3_anchor(self):
        fam = itf.minimal_dominating_sets(itf.path(3))
        assert [bit_list(D) for D in fam] == [[1], [0, 2]]

    def test_complete_bipartite_structure(self):
        r, s = 2, 3
        G = itf.complete_bipartite(r, s)
        U = frozenset(range(r))
        W = frozenset(range(r, r + s))
        want = {U, W} | {
            frozenset({u, w}) for u in range(r) for w in range(r, r + s)
        }
        fam = itf.minimal_dominating_sets(G)
        assert {frozenset(bit_list(D)) for D in fam} == want

    def test_all_dominating_sets(self):
        for G in itf.graphs_upto(5):
            got = set(itf.all_dominating_sets(G))
            want = {D for D in range(1, 1 << G.n) if itf.is_dominating(G, D)}
            assert got == want

    def test_every_dominating_contains_a_minimal(self):
        for G in itf.all_graphs(5):
            minimals = itf.minimal_dominating_sets(G)
            for D in itf.all_dominating_sets(G):
                assert any(M & ~D == 0 for M in minimals)

    # counts confirmed by a scan of all 2^n subsets
    @pytest.mark.parametrize("spec, count", [
        ("path:16", 191), ("cycle:16", 222), ("wheel:15", 159), ("crown:8", 256),
        ("complete:16", 16),
    ])
    def test_counts_at_orders_15_and_16(self, spec, count):
        G = itf.parse_family_spec(spec)
        fam = itf.minimal_dominating_sets(G)
        assert len(fam) == len(set(fam)) == count
        for D in fam:
            assert itf.is_dominating(G, D)
            assert not any(itf.is_dominating(G, D ^ 1 << v) for v in bit_list(D))

    def test_cap_guard(self):
        with pytest.raises(itf.CapExceededError,
                           match="^minimal_dominating_sets: n=17 exceeds cap 16$"):
            itf.minimal_dominating_sets(itf.complete(17))

    def test_listings_are_in_canonical_order(self):
        # dense and sparse families alike: by size, then by vertex list
        for G in (itf.complete(12), gnp(12, 0.5, 0), itf.path(9), itf.Graph(8)):
            for fam in (itf.all_dominating_sets(G), itf.minimal_dominating_sets(G)):
                assert list(fam) == sorted(fam, key=lambda D: (D.bit_count(), bit_list(D)))

    def test_returns_canonically_ordered_tuple(self):
        fam = itf.minimal_dominating_sets(itf.cycle(5))
        assert isinstance(fam, tuple)
        assert [bit_list(D) for D in fam] == [[0, 2], [0, 3], [1, 3], [1, 4], [2, 4]]


def _agrees_with_enumeration(G):
    """dominating_constraints(G) is sorted, repeats no pair, and holds the
    subset-minimal pairs listed from the minimal dominating sets."""
    got = dominating_constraints(G)
    assert got == sorted(set(got)), itf.to_graph6(G)
    kept, _ = brute_minimal_constraints(G, itf.minimal_dominating_sets(G))
    assert {(u, frozenset(bit_list(C))) for u, C in got} == kept, itf.to_graph6(G)


@st.composite
def graphs_9_to_14(draw):
    n = draw(st.integers(9, 14))
    k = draw(st.integers(1, 9))  # each pair is kept with probability k/10
    return itf.Graph(n, [
        (u, v) for u in range(n) for v in range(u + 1, n) if draw(st.integers(0, 9)) < k
    ])


class TestDominatingConstraints:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_graph(self, n):
        # disconnected graphs too: an isolated vertex is in every dominating
        # set, so it has no pair, and it constrains no neighbor
        for G in itf.all_graphs(n):
            _agrees_with_enumeration(G)

    @settings(derandomize=True, deadline=None)
    @given(graphs_9_to_14())
    def test_orders_9_to_14(self, G):
        _agrees_with_enumeration(G)

    def test_anchors(self):
        # on C5 no neighbor w of 0 has N(w) inside N[0], so any one neighbor
        # will do; on P3 both ends of the middle vertex need covering
        assert dominating_constraints(itf.cycle(5))[:2] == [(0, 0b00010), (0, 0b10000)]
        assert dominating_constraints(itf.path(3)) == [(0, 0b010), (1, 0b101), (2, 0b010)]

    def test_cap(self):
        with pytest.raises(itf.CapExceededError,
                           match="^dominating_constraints: n=17 exceeds cap 16$"):
            dominating_constraints(itf.path(17))
