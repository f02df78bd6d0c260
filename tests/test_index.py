"""Smallest-ground-set search and the cross-intersecting extremal numbers."""

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

from oracles import brute_exists_interference, brute_max_cross_intersecting

# values confirmed by brute_max_cross_intersecting, which enumerates the
# literal definition with no symmetry shortcuts
CROSS_TABLE = {
    (1, 1): 0, (1, 2): 2, (1, 3): 6, (1, 4): 14,
    (2, 1): 0, (2, 2): 1, (2, 3): 4, (2, 4): 12, (2, 5): 28,
    (3, 2): 0, (3, 3): 2, (3, 4): 10,
    (4, 2): 0, (4, 3): 2, (4, 4): 8,
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
            fam = itf.minimal_dominating_sets(G).sets
            got = exists_interference(G, Pattern.all_minimal_dominating(), 3)
            want = brute_exists_interference(G, [list(itf.bit_list(D)) for D in fam], 3)
            assert (got is not None) == want, itf.to_graph6(G)

    def test_symmetry_flag_does_not_change_verdicts(self):
        for G in itf.connected_graphs(5)[::3]:
            a = exists_interference(G, Pattern.all_minimal_dominating(), 3, symmetry=True)
            b = exists_interference(G, Pattern.all_minimal_dominating(), 3, symmetry=False)
            assert (a is None) == (b is None)


class TestIndexOnCompleteGraphs:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_doubling_law(self, n):
        res = interference_index(complete(n), Pattern.all_dominating())
        assert res.index == ceil_log2(2 * n)
        # the witness really is a pattern interference
        assert itf.is_pattern_interference(
            complete(n), Pattern.all_dominating(), res.witness
        )
        # one size below, the search space is provably empty
        assert exists_interference(complete(n), Pattern.all_dominating(), res.index - 1) is None

    def test_trace_shows_failed_phase_when_gap_exists(self):
        res = interference_index(complete(3), Pattern.singletons())
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
            interference_index(complete(6), Pattern.singletons(), budget=3)
        assert info.value.nodes >= 3

    def test_max_m_cap(self):
        with pytest.raises(CapExceededError):
            interference_index(complete(6), Pattern.singletons(), max_m=3)

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
            interference_index(complete(3), Pattern.singletons())
        with pytest.raises(RuntimeError, match="bug"):
            exists_interference(complete(3), Pattern.singletons(), 2)

    def test_result_serialization(self):
        res = interference_index(complete(4), Pattern.singletons())
        d = res.as_dict()
        assert d["index"] == 3
        assert d["witness"]["ground_set_size"] == 3
        assert [p["m"] for p in d["trace"]] == [3]


class TestCrossIntersecting:
    @pytest.mark.parametrize("r,m", sorted(CROSS_TABLE))
    def test_frozen_table(self, r, m):
        assert max_cross_intersecting(r, m).value == CROSS_TABLE[(r, m)]

    @pytest.mark.parametrize(
        "r,m",
        [(r, m) for r in (1, 2, 3) for m in (1, 2, 3) if (1 << m) >= r],
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
        res = interference_index(G, Pattern.all_minimal_dominating())
        assert res.index == itf.bipartite_index(r, s)

    @pytest.mark.parametrize("r,s", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)])
    def test_cross_pairs_family_gives_the_same_index(self, r, s):
        G = complete_bipartite(r, s)
        U = (1 << r) - 1
        W = ((1 << s) - 1) << r
        res = interference_index(G, Pattern.cross_pairs(U, W))
        assert res.index == itf.bipartite_index(r, s)

    def test_one_side_as_target(self):
        for r, s in ((2, 3), (3, 4)):
            G = complete_bipartite(r, s)
            U = (1 << r) - 1
            res = interference_index(G, Pattern.explicit([U]))
            assert res.index == ceil_log2(r + s + 1)
            assert itf.bipartite_side_index(r, s) == ceil_log2(r + s + 1)

    def test_arguments_commute(self):
        assert itf.bipartite_index(2, 5) == itf.bipartite_index(5, 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            itf.bipartite_index(0, 3)
