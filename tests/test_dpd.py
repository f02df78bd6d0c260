"""Distance-pattern labelings, marker sets, and the spaced-marker path family."""

import math

import pytest

import interfere as itf
from interfere import (
    Graph,
    bit_list,
    complete,
    cycle,
    distance_pattern,
    dpd_interference_check,
    is_dpd_set,
    is_interference,
    iter_bits,
    mask_of,
    path,
    path_dpd_set,
)

from oracles import set_distances


class TestDistancePattern:
    def test_path_from_one_end(self):
        pat = distance_pattern(path(4), mask_of([0]))
        assert pat.ground_size == 4
        assert pat.labels == (1 << 0, 1 << 1, 1 << 2, 1 << 3)

    def test_two_markers_merge_distance_sets(self):
        pat = distance_pattern(path(4), mask_of([0, 3]))
        assert pat.labels == (
            mask_of([0, 3]),
            mask_of([1, 2]),
            mask_of([1, 2]),
            mask_of([0, 3]),
        )

    @pytest.mark.parametrize("n", range(1, 7))
    def test_labels_match_set_distances(self, n):
        """Label u holds d(u, v) for each marker v, over {0..diameter}, for
        every marker set of size one or two."""
        for G in itf.connected_graphs(n):
            dist = [set_distances(G, v) for v in G.vertices()]
            ground = max(max(d.values()) for d in dist) + 1
            for M in {1 << a | 1 << b for a in range(n) for b in range(a, n)}:
                want = tuple(mask_of(dist[v][u] for v in iter_bits(M)) for u in G.vertices())
                f = distance_pattern(G, M)
                assert (f.ground_size, f.labels) == (ground, want), (itf.to_graph6(G), M)

    def test_ground_set_is_diameter_plus_one(self):
        for G in (path(6), cycle(7), complete(4)):
            assert distance_pattern(G, 1).ground_size == itf.diameter(G) + 1

    def test_rejects_empty_markers(self):
        with pytest.raises(ValueError):
            distance_pattern(path(4), 0)

    def test_rejects_markers_out_of_range(self):
        with pytest.raises(ValueError):
            distance_pattern(path(4), 1 << 4)

    def test_rejects_disconnected(self):
        with pytest.raises(itf.HypothesisViolation):
            distance_pattern(Graph(4, [(0, 1), (2, 3)]), 1)


class TestDpdSets:
    def test_two_vertex_anchor(self):
        assert is_dpd_set(complete(2), 0b01)

    def test_middle_of_path_collides(self):
        assert not is_dpd_set(path(3), 0b010)

    def test_full_vertex_set_of_cycle(self):
        # every vertex gets the same pattern {0, 1, ..}; never distinguishing for n >= 2
        assert not is_dpd_set(cycle(5), 0b11111)

    def test_matches_pattern_distinctness(self):
        for G in itf.connected_graphs_upto(5):
            for M in range(1, 1 << G.n):
                pats = distance_pattern(G, M).labels
                assert is_dpd_set(G, M) == (len(set(pats)) == G.n)


class TestInterferenceCheck:
    def test_collision_forces_false(self):
        assert dpd_interference_check(path(3), 0b010) is False

    def test_matches_definitional_oracle(self):
        for G in itf.connected_graphs_upto(5):
            for M in range(1, 1 << G.n):
                lab = distance_pattern(G, M)
                if itf.is_valid_labeling(lab):
                    want = is_interference(complete(G.n), M, lab)
                else:
                    want = False
                assert dpd_interference_check(G, M) == want, (itf.to_graph6(G), bin(M))

    def test_singletons_never_interfere_beyond_trivial_order(self):
        for G in itf.connected_graphs_upto(6):
            if G.n < 2:
                continue
            for v in G.vertices():
                assert dpd_interference_check(G, 1 << v) is False

    def test_single_vertex_graph_is_vacuous(self):
        assert dpd_interference_check(complete(1), 0b1) is True


class TestPathConstruction:
    def test_markers_are_triangular_positions(self):
        assert bit_list(path_dpd_set(9)) == [0, 1, 3, 6]
        assert bit_list(path_dpd_set(10)) == [0, 1, 3, 6]
        assert bit_list(path_dpd_set(11)) == [0, 1, 3, 6, 10]

    def test_minimum_order(self):
        with pytest.raises(ValueError):
            path_dpd_set(3)

    @pytest.mark.parametrize("n", range(4, 41))
    def test_spacing_theorem(self, n):
        G = path(n)
        M = path_dpd_set(n)
        markers = bit_list(M)
        r = len(markers)
        # size: the largest r whose final marker r(r-1)/2 still fits
        assert markers == [j * (j - 1) // 2 for j in range(1, r + 1)]
        assert markers[-1] <= n - 1
        assert r * (r + 1) // 2 > n - 1
        # closed form for the same quantity
        assert r == math.floor((1 + math.isqrt(8 * n - 7)) / 2)
        assert is_dpd_set(G, M)
        assert dpd_interference_check(G, M)

    @pytest.mark.parametrize("n", range(4, 41))
    def test_interference_proof_anchors(self, n):
        """Marker gaps grow one at a time, so markers jointly carry the
        distance values 1..r-1 and nothing sits farther than r-1 away."""
        M = path_dpd_set(n)
        markers = bit_list(M)
        r = len(markers)
        pat = distance_pattern(path(n), M)
        joint = 0
        for v in markers:
            joint |= pat.labels[v]
        assert all(joint >> d & 1 for d in range(1, r))
        assert all(
            min(abs(w - v) for v in markers) <= r - 1 for w in range(n)
        )

    def test_rounding_form_agreement(self):
        """The ceiling form of the size expression matches the floor form
        exactly when 8n-7 is a perfect square, and the floor form is the one
        the construction can realize for every n."""
        for n in range(4, 41):
            r = len(bit_list(path_dpd_set(n)))
            ceil_r = math.ceil((1 + math.sqrt(8 * n - 7)) / 2)
            square = math.isqrt(8 * n - 7) ** 2 == 8 * n - 7
            assert (ceil_r == r) == square
            if not square:
                # the ceiling form would demand a marker past the end of the path
                assert 1 + ceil_r * (ceil_r - 1) // 2 > n
