"""Set labelings, the interference predicate, patterns, and the doubling construction."""

import itertools
import pickle
import random

import pytest

import interfere as itf
from interfere import (
    Pattern,
    SetLabeling,
    Violation,
    bit_list,
    build_complete_interference,
    complete,
    expand_pattern,
    is_complete_interference,
    is_dominating,
    is_interference,
    is_pattern_interference,
    is_valid_labeling,
    mask_of,
    overlap_graph,
    overlap_violation,
    pattern_violations,
)
from interfere.cli import bipartition

from oracles import (
    brute_is_complete,
    brute_is_dominating,
    brute_is_interference,
    brute_is_valid,
    brute_minimal_dominating_sets,
    gnp,
    labels_as_sets,
    neighbor_sets,
    random_labeling,
)


class TestLabelingValidity:
    def test_accepts_distinct_nonempty(self):
        assert is_valid_labeling(SetLabeling(2, [1, 2, 3]))

    def test_rejects_empty_label(self):
        assert not is_valid_labeling(SetLabeling(2, [1, 0]))

    def test_rejects_duplicate_labels(self):
        assert not is_valid_labeling(SetLabeling(2, [1, 1]))

    def test_rejects_label_outside_ground_set(self):
        assert not is_valid_labeling(SetLabeling(2, [1, 4]))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_set_oracle(self, m):
        for labels in itertools.product(range(1 << m), repeat=3):
            lab = SetLabeling(m, list(labels))
            assert is_valid_labeling(lab) == brute_is_valid(lab)


class TestResultTypes:
    """The result types are NamedTuples; these are the tuple behaviours the
    package and its callers rely on."""

    def test_labels_become_a_tuple(self):
        a, b = SetLabeling(2, [1, 2, 3]), SetLabeling(2, (1, 2, 3))
        assert type(a.labels) is tuple
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1

    def test_fields_are_read_only(self):
        for obj, field in [
            (SetLabeling(2, [1, 2]), "labels"),
            (Pattern.singletons(3), "kind"),
            (itf.interference_index(itf.cycle(5), Pattern.all_dominating()), "index"),
            (itf.line_injectivity_report(itf.path(3)), "injective"),
            (itf.neighborhood_labeling(itf.path(3)), "labeling"),
        ]:
            with pytest.raises(AttributeError):
                setattr(obj, field, None)
            with pytest.raises(AttributeError):  # no instance dict either
                obj.extra = None

    def test_pickle_round_trip(self):
        for obj in [
            SetLabeling(3, [1, 6, 5]),
            Pattern.explicit([0b011, 0b101]),
            Pattern.cross_pairs(0b0011, 0b1100),
            itf.interference_index(itf.cycle(5), Pattern.all_dominating()),
        ]:
            back = pickle.loads(pickle.dumps(obj))
            assert back == obj and type(back) is type(obj)

    def test_class_constants_are_not_fields(self):
        assert Pattern._fields == ("kind", "sets")
        assert SetLabeling._fields == ("ground_size", "labels")
        assert [Pattern.EXPLICIT, Pattern.ALL_DOMINATING] == ["explicit", "all_dominating"]
        assert not hasattr(Pattern, "CROSS_PAIRS") and not hasattr(Pattern, "SINGLETONS")
        assert Pattern.all_dominating() == ("all_dominating", ())


class TestInterferencePredicate:
    def test_definition_on_path(self):
        G = itf.path(3)
        lab = SetLabeling(2, [1, 3, 2])
        # vertex 0 and 2 both meet the middle label
        assert is_interference(G, mask_of([1]), lab)
        # D={0}: vertex 2 has no neighbor inside D at all
        assert not is_interference(G, mask_of([0]), lab)

    def test_violation_report(self):
        lab = SetLabeling(2, [1, 2, 3])
        v = overlap_violation(complete(3), overlap_graph(complete(3), lab), 0b001)
        assert v is not None
        assert v.vertex == 1 and v.candidates_mask == 0b001
        assert not is_interference(complete(3), 0b001, lab)

    def test_no_violation_returns_none(self):
        lab = SetLabeling(2, [1, 3, 2])
        G = itf.path(3)
        assert overlap_violation(G, overlap_graph(G, lab), mask_of([1])) is None

    def test_invalid_labeling_is_rejected(self):
        dup = SetLabeling(2, [1, 1, 2])
        with pytest.raises(ValueError):
            is_interference(complete(3), 0b001, dup)

    @pytest.mark.parametrize("n", range(2, 5))
    def test_matches_set_oracle(self, n):
        rng = random.Random(n)
        for G in itf.all_graphs(n):
            for _ in range(12):
                lab = random_labeling(n, 3, rng)
                H = overlap_graph(G, lab)
                for D in range(1, 1 << n):
                    want = brute_is_interference(G, bit_list(D), lab)
                    assert is_interference(G, D, lab) == want
                    assert is_dominating(H, D) == want

    @pytest.mark.parametrize("n, m", [(6, 3), (6, 8), (9, 4), (9, 10)])
    def test_overlap_rows(self, n, m):
        """Row u is {v in N_G(u) : f(u) meets f(v)}, on ground sets smaller
        and larger than n; some edges of G must drop out."""
        rng = random.Random(n * m)
        dropped = 0
        for seed in range(8):
            G = gnp(n, 0.5, seed)
            assert G.edges and len(G.edges) < n * (n - 1) // 2
            lab = random_labeling(n, m, rng)
            sets, nbrs = labels_as_sets(lab), neighbor_sets(G)
            H = overlap_graph(G, lab)
            assert [set(bit_list(row)) for row in H.adj] == [
                {v for v in nbrs[u] if sets[u] & sets[v]} for u in range(n)]
            dropped += len(G.edges) - len(H.edges)
        assert dropped

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError):
            is_interference(complete(3), 0, SetLabeling(2, [1, 2, 3]))


_C5, _K4 = itf.cycle(5), complete(4)
_C5_LAB = build_complete_interference(5)

# every criterion that takes a target set: the order of the graph the set
# lives in (edges of G on the L(G) routes), and the criterion applied to D
TARGET_SET_CRITERIA = {
    "is_interference": (5, lambda D: is_interference(_C5, D, _C5_LAB)),
    "overlap_violation": (5, lambda D: overlap_violation(_C5, overlap_graph(_C5, _C5_LAB), D)),
    "neighborhood_interference_of": (5, lambda D: itf.neighborhood_interference_of(_C5, D)),
    "complemented_interference_of": (5, lambda D: itf.complemented_interference_of(_C5, D)),
    "open_on_line_graph": (6, lambda D: itf.neighborhood_interference_of(itf.line_graph(_K4), D)),
    "complemented_on_line_graph":
        (6, lambda D: itf.complemented_interference_of(itf.line_graph(_K4), D)),
    "distance_pattern": (5, lambda D: itf.distance_pattern(_C5, D)),
}


@pytest.mark.parametrize("name", sorted(TARGET_SET_CRITERIA))
def test_target_set_guards(name):
    """An empty target set, or one reaching past the graph, is a ValueError."""
    order, criterion = TARGET_SET_CRITERIA[name]
    criterion((1 << order) - 1)  # the whole graph passes the guard
    with pytest.raises(ValueError, match="must be nonempty"):
        criterion(0)
    with pytest.raises(ValueError, match="has vertices outside the graph"):
        criterion(1 << order)


VERTEX_CRITERIA = {
    "bfs_layers": lambda v: itf.bfs_layers(_C5, v),
}


@pytest.mark.parametrize("name", sorted(VERTEX_CRITERIA))
def test_vertex_guards(name):
    """A vertex outside the graph is a ValueError with the one message."""
    criterion = VERTEX_CRITERIA[name]
    criterion(4)  # the last vertex passes the guard
    for v in (-1, 5):
        with pytest.raises(ValueError, match=f"^vertex {v} out of range for order 5$"):
            criterion(v)


class TestPatterns:
    def test_singletons_expansion(self):
        G = itf.path(3)
        assert expand_pattern(G, Pattern.singletons(G.n)) == (1, 2, 4)
        assert Pattern.singletons(3) == Pattern.explicit([1, 2, 4])

    def test_explicit_keeps_given_sets(self):
        G = itf.path(3)
        P = Pattern.explicit([0b011, 0b101])
        assert expand_pattern(G, P) == (0b011, 0b101)

    def test_explicit_rejects_empty_member(self):
        with pytest.raises(ValueError):
            Pattern.explicit([0])

    def test_cross_pairs_expansion(self):
        G = itf.complete_bipartite(2, 2)
        P = Pattern.cross_pairs(0b0011, 0b1100)
        assert set(expand_pattern(G, P)) == {0b0101, 0b1001, 0b0110, 0b1010}

    def test_cross_pairs_is_the_explicit_family_of_its_pairs(self):
        # u ascending, then w: the order in which check lists violations
        assert Pattern.cross_pairs(0b0011, 0b1100) == Pattern.explicit(
            [0b0101, 0b1001, 0b0110, 0b1010])

    def test_cross_pairs_validation(self):
        with pytest.raises(ValueError):
            Pattern.cross_pairs(0b011, 0b110)  # overlapping sides
        with pytest.raises(ValueError):
            Pattern.cross_pairs(0, 0b110)

    def test_all_dominating_reduces_to_minimal(self):
        # the dominating pattern is decided with no family; its reduced
        # listing, the minimal dominating sets, is domination's to make
        G = itf.cycle(5)
        with pytest.raises(ValueError, match="minimal_dominating_sets"):
            expand_pattern(G, Pattern.all_dominating())
        reduced = set(itf.minimal_dominating_sets(G))
        assert reduced == set(map(mask_of, brute_minimal_dominating_sets(G)))
        assert reduced < set(itf.all_dominating_sets(G))

    @pytest.mark.parametrize("n", range(2, 6))
    def test_reduction_is_sound_for_verdicts(self, n):
        """Interference for every minimal dominating set extends upward, so the
        reduced family gives the verdicts of the family of every dominating set."""
        rng = random.Random(100 + n)
        for G in itf.all_graphs(n)[::2]:
            every = Pattern.explicit(itf.all_dominating_sets(G))
            for _ in range(8):
                lab = random_labeling(n, 3, rng)
                a = is_pattern_interference(G, Pattern.all_dominating(), lab)
                b = is_pattern_interference(G, every, lab)
                assert a == b

    def test_pattern_interference_checks_every_member(self):
        G = itf.path(3)
        lab = SetLabeling(2, [1, 3, 2])
        assert is_pattern_interference(G, Pattern.explicit([0b010]), lab)
        assert not is_pattern_interference(G, Pattern.explicit([0b010, 0b001]), lab)

    def test_empty_explicit_family_is_vacuous(self):
        lab = SetLabeling(2, [1, 3, 2])
        assert is_pattern_interference(itf.path(3), Pattern.explicit([]), lab)


class TestDominatingPatternIdentity:
    """is_pattern_interference decides the dominating pattern with no family:
    f serves every dominating set iff each u has a w in N_G[u] with N_G[w]
    inside N_H[u], H the overlap graph."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_per_set_check(self, n):
        rng = random.Random(700 + n)
        positive = 0
        for G in itf.all_graphs(n):
            family = [bit_list(D) for D in itf.minimal_dominating_sets(G)]
            for lab in (random_labeling(n, 3, rng), random_labeling(n, 4, rng)):
                want = all(brute_is_interference(G, D, lab) for D in family)
                assert is_pattern_interference(G, Pattern.all_dominating(), lab) == want
                positive += want
        assert positive

    @pytest.mark.parametrize("seed", range(3))
    def test_accepts_kernel_witnesses(self, seed):
        G = gnp(14, 0.7, seed)
        witness = itf.exists_interference(G, Pattern.all_dominating(), 5)
        assert is_pattern_interference(G, Pattern.all_dominating(), witness)
        for D in itf.minimal_dominating_sets(G):
            assert brute_is_interference(G, bit_list(D), witness)

    def test_no_order_cap(self):
        G = itf.path(17)
        assert is_pattern_interference(G, Pattern.all_dominating(), build_complete_interference(17))
        # disjoint labels leave H edgeless: every dominating set but V is missed
        disjoint = SetLabeling(17, tuple(1 << v for v in range(17)))
        assert not is_pattern_interference(G, Pattern.all_dominating(), disjoint)


class TestPatternViolations:
    """pattern_violations, the one decision path for a family: its dominating
    certificates against every dominating set, and its listed pairs against
    the per-set definition."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_dominating_pattern_against_every_dominating_set(self, n):
        rng = random.Random(1700 + n)
        flagged = 0
        for G in itf.all_graphs(n):
            nbrs = neighbor_sets(G)
            doms = [set(D) for r in range(1, n + 1) for D in itertools.combinations(range(n), r)
                    if brute_is_dominating(G, D)]
            for lab in (random_labeling(n, 3, rng), random_labeling(n, 4, rng)):
                sets = labels_as_sets(lab)

                def served_by(u):  # N_H[u]: u and its neighbors whose labels meet u's
                    return {u} | {v for v in nbrs[u] if sets[u] & sets[v]}

                unserved = {u for D in doms for u in range(n) if not served_by(u) & D}
                got = list(pattern_violations(G, Pattern.all_dominating(), lab))
                assert [bad.vertex for _, bad in got] == sorted(unserved), itf.to_graph6(G)
                for D, bad in got:
                    u, members = bad.vertex, set(bit_list(D))
                    # the largest dominating set that misses u: V minus N_H[u]
                    assert members == set(range(n)) - served_by(u)
                    assert brute_is_dominating(G, members)
                    assert bit_list(bad.candidates_mask) == sorted(nbrs[u] & members)
                flagged += len(got)
        assert flagged or n == 1

    @pytest.mark.parametrize("n", range(1, 6))
    def test_listed_patterns_match_per_set_definition(self, n):
        rng = random.Random(1800 + n)
        for G in itf.all_graphs(n):
            nbrs = neighbor_sets(G)
            lab = random_labeling(n, 3, rng)
            sets = labels_as_sets(lab)
            patterns = [Pattern.singletons(n),
                        Pattern.explicit([rng.randrange(1, 1 << n) for _ in range(5)])]
            try:
                patterns.append(Pattern.cross_pairs(*bipartition(G)))
            except ValueError:
                pass  # an odd cycle, or one side empty
            for P in patterns:
                want = []
                for D in expand_pattern(G, P):
                    members = set(bit_list(D))
                    left = [u for u in range(n) if u not in members
                            and not any(sets[u] & sets[v] for v in nbrs[u] & members)]
                    if left:
                        want.append((D, Violation(left[0], mask_of(nbrs[left[0]] & members))))
                assert list(pattern_violations(G, P, lab)) == want, (itf.to_graph6(G), P.kind)


class TestCompleteness:
    def test_complete_detects_pairwise_overlap(self):
        assert is_complete_interference(SetLabeling(3, [1, 3, 5]))
        assert not is_complete_interference(SetLabeling(3, [1, 2, 4]))

    @pytest.mark.parametrize("n, m", [(3, 2), (4, 3), (6, 3)])
    def test_matches_set_oracle(self, n, m):
        rng = random.Random(n * 8 + m)
        for _ in range(200):
            lab = random_labeling(n, m, rng)
            assert is_complete_interference(lab) == brute_is_complete(lab)

    @pytest.mark.parametrize("n", range(1, 65))
    def test_doubling_construction(self, n):
        lab = build_complete_interference(n)
        assert len(lab.labels) == n
        assert is_valid_labeling(lab)
        assert is_complete_interference(lab)
        want_ground = 1 if n == 1 else 1 + (n - 1).bit_length()
        assert lab.ground_size == want_ground

    def test_construction_shares_a_common_element(self):
        lab = build_complete_interference(10)
        common = lab.labels[0]
        for code in lab.labels:
            common &= code
        assert common  # one ground element sits in every label

    @pytest.mark.parametrize("n", range(2, 6))
    def test_complete_implies_every_dominating_pattern(self, n):
        for G in itf.all_graphs(n):
            lab = build_complete_interference(n)
            fam = itf.minimal_dominating_sets(G)
            for D in fam:
                assert is_interference(G, D, lab)
