"""Exhaustive small-graph catalog and the isomorphism certificate."""

import hashlib
import random
from functools import lru_cache

import networkx as nx
import pytest

import interfere as itf
from interfere import Graph, catalog, certificate
from oracles import (
    brute_automorphism_count,
    brute_catalogs,
    brute_certificate,
    neighbor_sets,
    reference_refine_colors,
)

ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
# SHA-256 of the graph6 lines of the order-8 catalogs, as `gen --catalog 8`
# and `gen --catalog 8 --connected` print them
ORDER_8_SHA256 = {
    "all": "3265f989f01fdff7fad4932b240a17d4270336453b827d54837500900ceb8c26",
    "connected": "8012986be33a26690f85aba8162da672c6cb7824aa625b6b02bc24037167f77c",
}


class TestCounts:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_all_graphs_count(self, n):
        assert len(itf.all_graphs(n)) == ALL_COUNTS[n]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_connected_count(self, n):
        assert len(itf.connected_graphs(n)) == CONNECTED_COUNTS[n]

    def test_upto_variants(self):
        assert len(itf.graphs_upto(5)) == sum(ALL_COUNTS[k] for k in range(1, 6))
        assert len(itf.connected_graphs_upto(5)) == sum(
            CONNECTED_COUNTS[k] for k in range(1, 6)
        )

    def test_matches_unpruned_brute_catalog(self):
        # every augmentation, certified by the brute oracle: the orbit
        # pruning and the row-by-row search switched off
        reference = brute_catalogs(7)
        for n in range(1, 8):
            assert [G.edges for G in itf.all_graphs(n)] == reference[n]

    def test_order_eight_is_pinned(self):
        # beyond the reach of the brute-force catalog: the exact graphs and
        # their order are fixed by hash
        for kind, graphs in (("all", itf.all_graphs(8)), ("connected", itf.connected_graphs(8))):
            text = "".join(itf.to_graph6(G) + "\n" for G in graphs)
            assert hashlib.sha256(text.encode()).hexdigest() == ORDER_8_SHA256[kind]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_networkx_atlas(self, n):
        atlas = [H for H in nx.graph_atlas_g() if H.number_of_nodes() == n]
        ours = {certificate(G) for G in itf.all_graphs(n)}
        theirs = set()
        for H in atlas:
            mapping = {v: i for i, v in enumerate(H.nodes())}
            G = Graph(n, [(mapping[a], mapping[b]) for a, b in H.edges()])
            theirs.add(certificate(G))
        assert ours == theirs

    def test_cap(self):
        with pytest.raises(itf.CapExceededError):
            itf.all_graphs(9)

    def test_upto_cap_raises_before_any_search(self, monkeypatch):
        # the orders below the cap are not built first
        calls = cold_catalog_with_search_count(monkeypatch)
        for build in (catalog.graphs_upto, catalog.connected_graphs_upto, catalog.connected_graphs):
            with pytest.raises(itf.CapExceededError):
                build(9)
        assert calls == [0]

    def test_cold_build_search_count(self, monkeypatch):
        # the candidates that pass the degree pre-filter and the color check
        # (386 fewer than without it); each parent's group comes from the
        # search that kept it, so no parent is searched again
        calls = cold_catalog_with_search_count(monkeypatch)
        assert len(catalog.all_graphs(7)) == ALL_COUNTS[7]
        assert calls == [1253]

    def test_cold_connected_build_search_count(self, monkeypatch):
        # order 7 augments only the orbit starts that meet every component
        calls = cold_catalog_with_search_count(monkeypatch)
        assert len(catalog.connected_graphs(7)) == CONNECTED_COUNTS[7]
        assert calls == [1061]

    @pytest.mark.parametrize("connected_first", [True, False], ids=["connected-first", "all-first"])
    def test_connected_level_is_the_filtered_full_level(self, monkeypatch, connected_first):
        cold_catalog_with_search_count(monkeypatch)
        for n in range(1, 8):
            if connected_first:
                connected = catalog.connected_graphs(n)
            full = catalog.all_graphs(n)
            if not connected_first:
                connected = catalog.connected_graphs(n)
            assert connected == tuple(G for G in full if itf.is_connected(G))

    def test_top_order_keeps_no_groups(self):
        assert catalog.all_graphs(catalog.MAX_CATALOG_N).groups is None
        assert catalog.connected_graphs(7).groups is None
        level = catalog.all_graphs(7)
        trivial = [g for g in level.groups if not g]
        assert trivial and all(g is trivial[0] for g in trivial)


def cold_catalog_with_search_count(monkeypatch):
    """Give the catalog fresh caches for this test, and count its searches
    in the returned one-item list; the shared caches stay as they were."""
    calls = [0]
    search = catalog._search

    def counted(*args, **kwargs):
        calls[0] += 1
        return search(*args, **kwargs)

    monkeypatch.setattr(catalog, "_search", counted)
    for name in ("all_graphs", "connected_graphs"):
        build = getattr(catalog, name).__wrapped__
        monkeypatch.setattr(catalog, name, lru_cache(maxsize=None)(build))
    return calls


def refined_search(n, adj, autos):
    """catalog._search on the stable colors of the rows adj."""
    return catalog._search(n, adj, autos, catalog._refine_colors(n, adj))


def group_order(n, autos):
    """The order of the permutation group on range(n) that autos generate."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        g = frontier.pop()
        for p in autos:
            h = tuple(p[v] for v in g)
            if h not in group:
                group.add(h)
                frontier.append(h)
    return len(group)


def relabeled(G, perm):
    return Graph(G.n, [(perm[u], perm[v]) for u, v in G.edges])


def symmetric_graphs():
    """Twin-heavy and vertex-transitive graphs up to order 8, by name."""
    ring = [(i, (i + 1) % 8) for i in range(8)]
    out = {f"K{n}": itf.complete(n) for n in range(1, 9)}
    out.update({f"E{n}": Graph(n) for n in range(2, 9)})
    out.update({f"K{a},{b}": itf.complete_bipartite(a, b)
                for a in range(1, 5) for b in range(a, 9 - a)})
    out["K2,2,2"] = Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)
                              if u // 2 != v // 2])
    out.update({f"C{n}": itf.cycle(n) for n in range(3, 9)})
    out["Q3"] = Graph(8, [(u, u | 1 << k) for u in range(8) for k in range(3)
                          if not u >> k & 1])
    out["C8+diameters"] = Graph(8, ring + [(i, i + 4) for i in range(4)])
    out["C8+2-chords"] = Graph(8, ring + [(i, (i + 2) % 8) for i in range(8)])
    return out


SYMMETRIC = symmetric_graphs()


class TestRefinement:
    def test_matches_sorted_tuple_refinement(self):
        # counting neighbors per cell, more first, ranks the vertices as
        # sorting their neighbor-color tuples does
        rng = random.Random(5)
        graphs = list(SYMMETRIC.values())
        for n in range(1, 8):
            for G in itf.all_graphs(n):
                graphs.append(G)
                for _ in range(3):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    graphs.append(relabeled(G, perm))
        for G in graphs:
            assert catalog._refine_colors(G.n, G.adj) == reference_refine_colors(G), G.edges


class TestCertificate:
    def test_matches_brute_force_under_relabeling(self):
        rng = random.Random(7)
        for n in range(1, 8):
            for G in itf.all_graphs(n):
                for _ in range(3):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    H = relabeled(G, perm)
                    assert certificate(H) == brute_certificate(H), H.edges

    @pytest.mark.parametrize("name", sorted(SYMMETRIC))
    def test_matches_brute_force_on_symmetric_graphs(self, name):
        G = SYMMETRIC[name]
        want = brute_certificate(G)
        rng = random.Random(G.m)
        for _ in range(3):
            perm = list(range(G.n))
            rng.shuffle(perm)
            assert certificate(relabeled(G, perm)) == want
        assert certificate(G) == want

    def test_invariant_under_relabeling(self):
        rng = random.Random(11)
        for G in itf.all_graphs(6)[::7]:
            want = certificate(G)
            for _ in range(5):
                perm = list(range(G.n))
                rng.shuffle(perm)
                H = Graph(G.n, [(perm[u], perm[v]) for u, v in G.edges])
                assert certificate(H) == want

    def test_orbit_starts_come_from_automorphisms(self):
        # the maps the search reports are automorphisms, and the masks kept
        # for augmentation are the orbit minima under them
        for n in range(1, 8):
            for G in [*itf.all_graphs(n), *(H for H in SYMMETRIC.values() if H.n == n)]:
                autos = []
                refined_search(G.n, G.adj, autos)
                for p in autos:
                    assert sorted(p) == list(range(n))
                    assert sorted(tuple(sorted((p[u], p[v]))) for u, v in G.edges) == list(G.edges)
                seen, want = set(), []
                for mask in range(1 << n):
                    S = frozenset(v for v in range(n) if mask >> v & 1)
                    if S in seen:
                        continue
                    want.append(mask)
                    frontier = [S]
                    seen.add(S)
                    while frontier:
                        T = frontier.pop()
                        for p in autos:
                            U = frozenset(p[v] for v in T)
                            if U not in seen:
                                seen.add(U)
                                frontier.append(U)
                assert catalog._orbit_starts(n, autos) == want

    def test_automorphisms_generate_the_group(self):
        # a candidate is kept when its new vertex lies in the deletion
        # vertex's orbit under these maps: exact only if they generate Aut(G)
        rng = random.Random(13)
        graphs = [G for n in range(1, 7) for G in itf.all_graphs(n)]
        graphs += [G for G in SYMMETRIC.values() if G.n <= 7]
        for G in graphs:
            want = brute_automorphism_count(G)
            perm = list(range(G.n))
            rng.shuffle(perm)
            for H in (G, relabeled(G, perm)):
                autos = []
                refined_search(H.n, H.adj, autos)
                assert group_order(H.n, autos) == want, H.edges

    def test_carried_groups_are_the_searched_groups(self):
        # a parent's orbit starts come from the generators the search that
        # kept it found, conjugated by its leaf into the parent's labeling
        for n in range(1, 8):
            level = itf.all_graphs(n)
            for i, G in enumerate(level):
                carried = level.automorphisms(i)
                assert group_order(n, carried) == brute_automorphism_count(G), G.edges
                autos = []
                refined_search(n, G.adj, autos)
                assert catalog._orbit_starts(n, carried) == catalog._orbit_starts(n, autos)

    def test_leaf_ordering_spells_out_the_code(self):
        # a kept candidate becomes a Graph by relabeling its rows in the
        # order of the leaf the search returns
        rng = random.Random(17)
        graphs = [G for n in range(1, 8) for G in itf.all_graphs(n)]
        for G in SYMMETRIC.values():
            for _ in range(3):
                perm = list(range(G.n))
                rng.shuffle(perm)
                graphs.append(relabeled(G, perm))
        for G in graphs:
            code, leaf = refined_search(G.n, G.adj, [])
            assert sorted(leaf) == list(range(G.n))
            position = [0] * G.n
            for i, v in enumerate(leaf):
                position[v] = i
            nbrs = neighbor_sets(relabeled(G, position))
            got = 0
            for i in range(G.n):
                for j in range(i + 1, G.n):
                    got = got << 1 | (j in nbrs[i])
            assert got == code, G.edges

    def test_color_check_rejects_only_orbit_failures(self):
        # a candidate whose new vertex x is not of the least color among the
        # vertices of its degree fails the orbit test after a full search
        rejected = 0
        for x in range(1, 7):
            n = x + 1
            for R in itf.all_graphs(x):
                autos = []
                refined_search(x, R.adj, autos)
                for mask in catalog._orbit_starts(x, autos):
                    rows = [a | 1 << x if mask >> v & 1 else a for v, a in enumerate(R.adj)]
                    rows.append(mask)
                    top = mask.bit_count()
                    if max(a.bit_count() for a in rows) > top:
                        continue  # the degree pre-filter
                    colors = catalog._refine_colors(n, rows)
                    if colors[x] == min(colors[v] for v in range(n) if rows[v].bit_count() == top):
                        continue
                    rejected += 1
                    found = []
                    _, leaf = catalog._search(n, rows, found, colors)
                    c = next(v for v in leaf if rows[v].bit_count() == top)
                    assert not catalog._in_orbit(x, c, found), (R.edges, mask)
        assert rejected == 386

    def test_early_exit_refinement_matches_the_stable_color_check(self):
        # every augmentation mask up to order 7, not only the orbit starts:
        # x has the largest degree in the 3,131 the pre-filter passes, and
        # refinement keeps the order of colors, so a round that puts a vertex
        # of x's degree below x already decides the stable check
        rejected = 0
        for x in range(1, 7):
            n = x + 1
            for R in itf.all_graphs(x):
                for mask in range(1 << x):
                    rows = [a | 1 << x if mask >> v & 1 else a for v, a in enumerate(R.adj)]
                    rows.append(mask)
                    top = mask.bit_count()
                    if max(a.bit_count() for a in rows) > top:
                        continue
                    colors = catalog._refine_colors(n, rows)
                    least = colors[x] == min(colors[v] for v in range(n) if rows[v].bit_count() == top)
                    early = catalog._refine_colors(n, rows, x)
                    assert early == (colors if least else None), (R.edges, mask)
                    rejected += not least
        assert rejected == 817

    def test_separates_same_degree_sequence(self):
        # C6 and two triangles share the degree sequence but not the certificate
        c6 = itf.cycle(6)
        two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert certificate(c6) != certificate(two_triangles)

    def test_catalog_members_are_pairwise_distinct(self):
        certs = [certificate(G) for G in itf.all_graphs(6)]
        assert len(set(certs)) == len(certs)

    def test_catalog_orders_and_edge_canonical_form(self):
        for G in itf.all_graphs(5):
            assert G.n == 5
            assert list(G.edges) == sorted(G.edges)
