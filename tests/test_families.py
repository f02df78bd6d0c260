"""Named graph family constructors and the family spec mini-language."""

import pytest

import interfere as itf
from interfere import (
    Graph,
    GraphFormatError,
    certificate,
    diameter,
    generate_family,
    parse_family_spec,
)

from oracles import has_edge


class TestBasicFamilies:
    def test_path(self):
        G = itf.path(5)
        assert G.edges == ((0, 1), (1, 2), (2, 3), (3, 4))

    def test_cycle(self):
        G = itf.cycle(4)
        assert G.m == 4 and all(G.degree(v) == 2 for v in G.vertices())

    def test_cycle_minimum_size(self):
        with pytest.raises(ValueError):
            itf.cycle(2)

    def test_complete(self):
        G = itf.complete(5)
        assert G.m == 10

    def test_complete_bipartite(self):
        G = itf.complete_bipartite(2, 3)
        assert G.n == 5 and G.m == 6
        assert all(not has_edge(G, 0, 1) for _ in [0])
        assert not has_edge(G, 2, 3) and has_edge(G, 0, 2)

    def test_star_is_bipartite_one_n(self):
        assert certificate(itf.star(4)) == certificate(itf.complete_bipartite(1, 4))

    def test_matching(self):
        G = itf.matching(3)
        assert G.n == 6 and G.edges == ((0, 1), (2, 3), (4, 5))


class TestWheelLike:
    def test_wheel_numbering(self):
        G = itf.wheel(5)
        assert G.n == 6
        for i in range(5):
            assert has_edge(G, i, (i + 1) % 5)
            assert has_edge(G, i, 5)

    def test_wheel_three_is_k4(self):
        assert certificate(itf.wheel(3)) == certificate(itf.complete(4))

    def test_wheel_diameter_split(self):
        assert diameter(itf.wheel(3)) == 1
        for n in range(4, 9):
            assert diameter(itf.wheel(n)) == 2

    def test_helm_numbering(self):
        n = 4
        G = itf.helm(n)
        assert G.n == 2 * n + 1
        for i in range(n):
            assert has_edge(G, i, n)              # spoke to the center
            assert has_edge(G, i, n + 1 + i)      # pendant of cycle vertex i
            assert G.degree(n + 1 + i) == 1

    def test_crown_numbering(self):
        n = 5
        G = itf.crown(n)
        assert G.n == 2 * n
        for i in range(n):
            assert has_edge(G, i, (i + 1) % n)
            assert has_edge(G, i, n + i)
            assert G.degree(n + i) == 1

    def test_star_polygon_numbering(self):
        n = 4
        G = itf.star_polygon(n)
        assert G.n == 2 * n
        for i in range(n):
            apex = n + i
            assert has_edge(G, i, apex) and has_edge(G, (i + 1) % n, apex)
            assert G.degree(apex) == 2


class TestBlockFamilies:
    def test_windmill_shares_vertex_zero(self):
        G = itf.windmill(3, 3)
        assert G.n == 1 + 3 * 2
        assert G.degree(0) == 6
        assert all(G.degree(v) == 2 for v in range(1, G.n))

    def test_windmill_parameter_bounds(self):
        with pytest.raises(ValueError):
            itf.windmill(1, 2)
        with pytest.raises(ValueError):
            itf.windmill(3, 1)

    def test_husimi_blocks(self):
        G = itf.husimi([3, 4])
        assert G.n == 1 + 2 + 3
        assert G.degree(0) == 2 + 3
        assert diameter(G) == 2

    def test_husimi_matches_windmill(self):
        assert certificate(itf.husimi([3, 3, 3])) == certificate(itf.windmill(3, 3))

    def test_husimi_needs_two_blocks(self):
        with pytest.raises(ValueError):
            itf.husimi([4])


class TestFamilySpecs:
    @pytest.mark.parametrize(
        "spec, n, m",
        [
            ("path:7", 7, 6),
            ("cycle:6", 6, 6),
            ("complete:6", 6, 15),
            ("kpq:2,5", 7, 10),
            ("wheel:5", 6, 10),
            ("helm:4", 9, 12),
            ("crown:4", 8, 8),
            ("star_polygon:5", 10, 15),
            ("windmill:3,4", 9, 12),
            ("husimi:3,3,4", 8, 12),
            ("matching:2", 4, 2),
            ("star:5", 6, 5),
        ],
    )
    def test_parse_and_build(self, spec, n, m):
        G = parse_family_spec(spec)
        assert isinstance(G, Graph)
        assert (G.n, G.m) == (n, m)

    def test_unknown_family(self):
        with pytest.raises(GraphFormatError):
            generate_family("moebius", [5])

    def test_arity_mismatch(self):
        with pytest.raises(GraphFormatError):
            generate_family("path", [3, 4])

    def test_bad_parameter_value_is_wrapped(self):
        with pytest.raises(GraphFormatError):
            generate_family("cycle", [2])

    def test_malformed_spec(self):
        with pytest.raises(GraphFormatError):
            parse_family_spec("path")
        with pytest.raises(GraphFormatError):
            parse_family_spec("path:x")
