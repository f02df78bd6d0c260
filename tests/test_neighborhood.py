"""Structural criteria for the neighborhood and complemented-neighborhood labelings.

Every criterion here has a second, definitional route: build the actual
labeling and run the interference predicate.  The tests keep both routes in
play so neither can drift.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import interfere as itf
from interfere import (
    Graph,
    complemented_complete,
    complemented_escape_family,
    complemented_escapes,
    complemented_interference_of,
    complemented_labeling,
    complete,
    cycle,
    is_complete_interference,
    is_interference,
    mask_of,
    matching,
    neighborhood_complete,
    neighborhood_interference_of,
    neighborhood_labeling,
    path,
    two_path_complete,
    two_path_graph,
    wheel,
)

from oracles import (
    brute_is_interference,
    brute_minimal_dominating_sets,
    brute_sufficient_rule,
    brute_two_path_graph,
    gnp,
    induced_subgraph,
    neighbor_sets,
    second_neighborhood,
)


def oracle_interferes(G, D, labeling_report):
    return labeling_report.valid and is_interference(
        complete(G.n), D, labeling_report.labeling
    )


class TestLabelingReports:
    def test_square_is_not_injective(self):
        rep = neighborhood_labeling(cycle(4))
        assert not rep.injective and not rep.valid

    def test_isolated_vertex_gives_empty_label(self):
        rep = neighborhood_labeling(complete(1))
        assert rep.has_empty_label and not rep.valid

    def test_pentagon_is_clean_both_ways(self):
        assert neighborhood_labeling(cycle(5)).valid
        assert complemented_labeling(cycle(5)).valid

    def test_complemented_never_has_empty_label(self):
        for G in (complete(4), cycle(4), matching(2)):
            assert not complemented_labeling(G).has_empty_label

    def test_complemented_injective_iff_plain_injective(self):
        for G in itf.graphs_upto(5):
            assert (
                complemented_labeling(G).injective
                == neighborhood_labeling(G).injective
                == itf.is_point_determining(G)
            )


class TestOpenRouteEquivalence:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_exhaustive_small(self, n):
        for G in itf.connected_graphs(n):
            rep = neighborhood_labeling(G)
            for D in range(1, 1 << n):
                assert neighborhood_interference_of(G, D) == oracle_interferes(
                    G, D, rep
                ), (itf.to_graph6(G), bin(D))

    def test_seeded_order_six(self):
        rng = random.Random(2026)
        for G in itf.connected_graphs(6):
            rep = neighborhood_labeling(G)
            for _ in range(40):
                D = rng.randrange(1, 1 << 6)
                assert neighborhood_interference_of(G, D) == oracle_interferes(
                    G, D, rep
                )

    def test_rejects_empty_target(self):
        with pytest.raises(ValueError):
            neighborhood_interference_of(path(3), 0)

    def test_distance_condition_fails_plainly(self):
        # far end of a path is out of reach of the target
        assert not neighborhood_interference_of(path(5), mask_of([0]))

    def test_triangle_clause_as_non_isolation_in_induced_neighborhood(self):
        """The criterion again, with the triangle clause read as some member
        of D being non-isolated in the subgraph induced on N(u)."""
        for G in itf.connected_graphs_upto(6):
            if not itf.is_point_determining(G) or 0 in G.adj:
                continue
            nbrs = neighbor_sets(G)
            in_triangle = []  # per u: the neighbors non-isolated in G[N(u)]
            for u in G.vertices():
                sub, verts = induced_subgraph(G, nbrs[u])
                in_triangle.append({v for i, v in enumerate(verts) if sub.adj[i]})
            ring = [second_neighborhood(G, u) for u in G.vertices()]
            for D in range(1, 1 << G.n):
                members = set(itf.bit_list(D))
                want = all(
                    ring[u] & members or in_triangle[u] & members
                    for u in G.vertices()
                    if u not in members
                )
                assert neighborhood_interference_of(G, D) == want, (itf.to_graph6(G), bin(D))


class TestTwoPathGraph:
    """The open criterion as a graph identity: T(G), built from the rows of G,
    is the overlap graph of u -> N(u) in K_n, and is the distance-two-or-
    triangle graph read off BFS distances."""

    def test_is_the_overlap_graph_of_the_open_labeling(self):
        graphs = [G for n in range(1, 8) for G in itf.all_graphs(n)]
        assert len(graphs) == 1252
        built = 0
        for G in graphs:
            T = two_path_graph(G)
            rep = neighborhood_labeling(G)
            assert (T is None) == (not rep.valid), itf.to_graph6(G)
            if T is not None:
                built += 1
                assert T == itf.overlap_graph(complete(G.n), rep.labeling), itf.to_graph6(G)
                assert T == brute_two_path_graph(G), itf.to_graph6(G)
        assert built == 606

    def test_anchors(self):
        assert two_path_graph(cycle(4)) is None  # opposite corners share N(u)
        assert two_path_graph(complete(1)) is None  # isolated vertex
        # C5: distance-two pairs only, i.e. the pentagram
        assert two_path_graph(cycle(5)) == Graph(5, [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)])
        # K3: every edge lies on the triangle
        assert two_path_graph(complete(3)) == complete(3)


class TestCompleteness:
    def test_wheels(self):
        for n in range(3, 9):
            assert neighborhood_complete(wheel(n)) == (n != 4)

    def test_wheel_four_fails_by_duplicate_neighborhoods(self):
        W = wheel(4)
        assert W.adj[0] == W.adj[2]
        assert not itf.is_point_determining(W)
        assert not neighborhood_labeling(W).valid

    def test_windmills_and_block_stars(self):
        for n in (3, 4):
            for m in (2, 3):
                assert neighborhood_complete(itf.windmill(n, m))
        assert neighborhood_complete(itf.husimi([3, 3]))
        assert neighborhood_complete(itf.husimi([3, 4, 5]))

    def test_pentagon_fails_for_lack_of_triangles(self):
        assert not neighborhood_complete(cycle(5))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_definitional_oracle(self, n):
        for G in itf.all_graphs(n):
            rep = neighborhood_labeling(G)
            want = rep.valid and is_complete_interference(rep.labeling)
            assert neighborhood_complete(G) == want, itf.to_graph6(G)


class TestTargetFamilies:
    @pytest.mark.parametrize("n", range(3, 7))
    def test_helm_crown_star_polygon(self, n):
        cases = (
            (itf.helm(n), range(n), range(n + 1, 2 * n + 1)),
            (itf.crown(n), range(n), range(n, 2 * n)),
            (itf.star_polygon(n), range(n), range(n, 2 * n)),
        )
        for G, cycle_vertices, pendant_like in cases:
            rep = neighborhood_labeling(G)
            for D in (mask_of(cycle_vertices), mask_of(pendant_like)):
                assert neighborhood_interference_of(G, D)
                assert oracle_interferes(G, D, rep)


class TestSingletonAndAllButOne:
    """D = {v} asks that row v of T(G) be complete, D = V minus {v} that it
    be nonempty; both are target sets like any other."""

    def test_singleton_against_oracle(self):
        # every graph up to order 7, K1 and disconnected graphs included
        for G in itf.graphs_upto(7):
            rep = neighborhood_labeling(G)
            for v in G.vertices():
                assert neighborhood_interference_of(G, 1 << v) == oracle_interferes(
                    G, 1 << v, rep
                ), (itf.to_graph6(G), v)

    def test_all_but_one_against_oracle(self):
        # disconnected graphs included; K1 has no all-but-one set
        for G in itf.graphs_upto(7):
            if G.n < 2:
                continue
            rep = neighborhood_labeling(G)
            for v in G.vertices():
                D = G.full_mask & ~(1 << v)
                assert neighborhood_interference_of(G, D) == oracle_interferes(
                    G, D, rep
                ), (itf.to_graph6(G), v)

    def test_wheel_four_center_fails_despite_rich_neighborhood(self):
        # the center's neighborhood induces a cycle, yet the labeling itself
        # is not injective, so no target set works
        assert neighborhood_interference_of(wheel(4), 1 << 4) is False

    def test_path_end_all_but_one(self):
        assert neighborhood_interference_of(path(5), 0b11110)


class TestTwoPathComplete:
    @staticmethod
    def _join_k2(H):
        """K2 on {0, 1} joined to a shifted copy of H."""
        edges = [(0, 1)] + [(a, b + 2) for a in (0, 1) for b in range(H.n)]
        edges += [(u + 2, v + 2) for u, v in H.edges]
        return Graph(H.n + 2, edges)

    def test_join_with_edge_pair_is_two_path_complete(self):
        # K2 joined to anything: both joined vertices see every other vertex
        for H in (path(3), path(4), cycle(5)):
            assert two_path_complete(self._join_k2(H))

    def test_join_completeness_still_needs_distinct_neighborhoods(self):
        # joining K2 to P3 leaves the two path ends interchangeable, so the
        # labeling is not injective and completeness fails
        G = self._join_k2(path(3))
        assert two_path_complete(G)
        assert not itf.is_point_determining(G)
        assert not neighborhood_complete(G)
        # P4 has pairwise distinct neighborhoods and the join keeps them so
        G = self._join_k2(path(4))
        assert itf.is_point_determining(G)
        assert neighborhood_complete(G)

    def test_diamond_shows_injectivity_is_needed(self):
        diamond = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        assert two_path_complete(diamond)
        assert not itf.is_point_determining(diamond)
        assert not neighborhood_complete(diamond)

    def test_implication_with_injectivity_restored(self):
        for G in itf.connected_graphs_upto(6):
            if G.n < 2:
                continue
            if two_path_complete(G) and itf.is_point_determining(G):
                assert neighborhood_complete(G), itf.to_graph6(G)


class TestComplementedRoute:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_exhaustive_small(self, n):
        for G in itf.connected_graphs(n):
            rep = complemented_labeling(G)
            for D in range(1, 1 << n):
                assert complemented_interference_of(G, D) == oracle_interferes(
                    G, D, rep
                ), (itf.to_graph6(G), bin(D))

    def test_seeded_order_six(self):
        rng = random.Random(99)
        for G in itf.connected_graphs(6):
            rep = complemented_labeling(G)
            for _ in range(40):
                D = rng.randrange(1, 1 << 6)
                assert complemented_interference_of(G, D) == oracle_interferes(
                    G, D, rep
                )

    @pytest.mark.parametrize("n", range(1, 7))
    def test_per_set_half_matches_the_overlap_graph(self, n):
        """On point-determining graphs, complemented_escapes(G, D) is
        domination of the complemented labeling's overlap graph in K_n."""
        for G in itf.all_graphs(n):
            rep = complemented_labeling(G)
            assert rep.valid == itf.is_point_determining(G)
            if not rep.valid:
                continue
            H = itf.overlap_graph(complete(n), rep.labeling)
            for D in range(1, 1 << n):
                assert complemented_escapes(G, D) == itf.is_dominating(H, D), (
                    itf.to_graph6(G), bin(D))

    def test_matches_prose_form(self):
        """The criterion again in prose form: every vertex outside D that is
        adjacent to all of D has a nonneighbor missing some member of D."""
        for G in itf.connected_graphs_upto(6):
            if not itf.is_point_determining(G):
                continue
            for D in range(1, 1 << G.n):
                want = all(
                    any(
                        not G.adj[d] >> w & 1
                        for w in itf.iter_bits(itf.complemented_neighborhood(G, u))
                        for d in itf.iter_bits(D)
                    )
                    for u in itf.iter_bits(G.full_mask & ~D)
                    if D & ~G.adj[u] == 0
                )
                assert complemented_interference_of(G, D) == want, (itf.to_graph6(G), bin(D))

    def test_anchors(self):
        assert complemented_interference_of(cycle(5), mask_of([0]))
        assert not complemented_interference_of(cycle(3), mask_of([0]))
        assert not complemented_interference_of(cycle(4), mask_of([0]))

    @pytest.mark.parametrize("n", range(3, 11))
    def test_cycle_completeness_boundary(self, n):
        assert complemented_complete(cycle(n)) == (n >= 5)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_completeness_matches_oracle(self, n):
        for G in itf.all_graphs(n):
            rep = complemented_labeling(G)
            want = rep.valid and is_complete_interference(rep.labeling)
            assert complemented_complete(G) == want, itf.to_graph6(G)


def _escape_bits(G):
    """complemented_escape_family(G), set by set."""
    return sum(1 << D for D in range(1, 1 << G.n) if complemented_escapes(G, D))


@st.composite
def graphs_8_to_12(draw):
    n = draw(st.integers(8, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


class TestComplementedEscapeFamily:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_per_set_test(self, n):
        """Every graph, disconnected and non-point-determining ones too."""
        for G in itf.all_graphs(n):
            fam = complemented_escape_family(G)
            assert fam == _escape_bits(G), itf.to_graph6(G)
            assert not fam & 1

    @settings(derandomize=True, deadline=None)
    @given(graphs_8_to_12())
    def test_matches_per_set_test_past_the_catalog(self, G):
        fam = complemented_escape_family(G)
        assert fam == _escape_bits(G)
        assert not fam & 1

    @pytest.mark.parametrize("n", range(13, 17))
    def test_matches_per_set_test_at_orders_13_to_16(self, n):
        for p in (0.2, 0.8):
            G = gnp(n, p, n)
            assert complemented_escape_family(G) == _escape_bits(G), itf.to_graph6(G)

    def test_anchors(self):
        # K_n: common(D) = V minus D, whose members cover V with their rows
        # unless it is empty
        assert complemented_escape_family(complete(5)) == 1 << 31
        # edgeless: no vertex is adjacent to all of a nonempty D
        assert complemented_escape_family(Graph(16)) == (1 << (1 << 16)) - 2

    def test_cap(self):
        with pytest.raises(itf.CapExceededError):
            complemented_escape_family(Graph(17))


class TestSufficientRules:
    def test_exemplars(self):
        assert itf.complemented_sufficient_rule(cycle(5)) == itf.REGULAR_RULE
        assert itf.complemented_sufficient_rule(path(5)) == itf.DEGREE_SUM_RULE
        anchor = itf.from_graph6("G?Ca|W")  # two degree-4 hubs at distance two
        assert itf.complemented_sufficient_rule(anchor) == itf.DISTANCE2_RULE

    def test_matches_brute_rule_through_order_8(self):
        """The rule that fires is the brute-force one on every graph up to
        order 8; the distance-two rule first fires at order 8."""
        fired = Counter()
        for n in range(1, 9):
            for G in itf.all_graphs(n):
                rule = itf.complemented_sufficient_rule(G)
                assert rule == brute_sufficient_rule(G), itf.to_graph6(G)
                fired[n, rule] += 1
        assert fired[8, itf.DISTANCE2_RULE] == 74
        assert not any(fired[n, itf.DISTANCE2_RULE] for n in range(1, 8))

    def test_rules_guard_injectivity(self):
        square_plus_isolated = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert itf.complemented_sufficient_rule(square_plus_isolated) is None

    def test_fired_rule_implies_completeness(self):
        fired = 0
        for G in itf.graphs_upto(6):
            rule = itf.complemented_sufficient_rule(G)
            if rule is None:
                continue
            fired += 1
            assert complemented_complete(G), (itf.to_graph6(G), rule)
        assert fired > 0

    def test_rules_are_not_necessary(self):
        # completeness can hold while every sufficient rule stays silent;
        # the smallest such graphs have six vertices
        examples = [
            G
            for G in itf.connected_graphs(6)
            if complemented_complete(G) and itf.complemented_sufficient_rule(G) is None
        ]
        assert len(examples) == 7
        assert itf.to_graph6(examples[0]) == "E@UW"
        for n in (2, 3, 4, 5):
            assert all(
                itf.complemented_sufficient_rule(G) is not None
                for G in itf.connected_graphs(n)
                if complemented_complete(G)
            )


class TestClosedLabeling:
    def test_valid_iff_interference_of_every_minimal_dominating_set(self):
        """With respect to G itself, u -> N[u] interferes for every minimal
        dominating set exactly when the closed neighborhoods are distinct."""
        for G in itf.graphs_upto(6):
            nbrs = neighbor_sets(G)
            f = itf.SetLabeling(G.n, tuple(mask_of(nbrs[u] | {u}) for u in range(G.n)))
            oracle = all(
                brute_is_interference(G, D, f) for D in brute_minimal_dominating_sets(G)
            )
            assert itf.closed_labeling(G).valid == oracle, itf.to_graph6(G)

    def test_failure_reason(self):
        rep = itf.closed_labeling(complete(2))
        assert not rep.valid and not rep.injective
        assert not rep.has_empty_label

    def test_path_passes(self):
        rep = itf.closed_labeling(path(3))
        assert rep.valid
        assert rep.labeling.labels == (0b011, 0b111, 0b110)
