from fractions import Fraction
from itertools import combinations

import pytest

import minstab.cuts as cuts
from minstab import Segment
from minstab.cuts import (
    SUPPORT_EPS,
    UNWEIGHED_MARGIN,
    VIOLATION_EPS,
    CutError,
    FlowGraph,
    gomory_hu,
    max_flow_min_cut,
    separate_blossom,
    separate_connectivity,
)
from minstab.instance import SplitMix64
from minstab.oracle import enum_perfect_matchings, enum_spanning_trees


def brute_min_st_cut(n, edges, s, t):
    """Independent oracle: minimum s-t cut by subset enumeration."""
    best = None
    others = [v for v in range(n) if v not in (s, t)]
    for size in range(len(others) + 1):
        for extra in combinations(others, size):
            side = {s, *extra}
            val = sum(w for u, v, w in edges if (u in side) != (v in side))
            if best is None or val < best:
                best = val
    return best


def weight(x, members):
    return sum(w for e, w in x.items() if (e.a in members) != (e.b in members))


def brute_min_odd_cut(x, n):
    best = None
    for size in range(1, n, 2):
        for s_set in combinations(range(n), size):
            val = weight(x, set(s_set))
            if best is None or val < best:
                best = val
    return best


def brute_min_cut(x, n):
    best = None
    for size in range(1, n):
        for s_set in combinations(range(n), size):
            if 0 not in s_set:
                continue
            val = weight(x, set(s_set))
            if best is None or val < best:
                best = val
    return best


def random_matching_combination(n, rng, parts=3):
    matchings = list(enum_perfect_matchings(n))
    weights = [rng.randrange(1, 100) for _ in range(parts)]
    total = sum(weights)
    x = {}
    for w in weights:
        m = matchings[rng.randrange(len(matchings))]
        for e in m:
            x[e] = x.get(e, 0.0) + w / total
    return x


class TestMaxFlow:
    def test_path_graph(self):
        value, side = max_flow_min_cut(FlowGraph.of(3, [(0, 1, 1.0), (1, 2, 1.0)]), 0, 2)
        assert value == pytest.approx(1)
        assert 0 in side and 2 not in side

    def test_disconnected(self):
        value, side = max_flow_min_cut(FlowGraph.of(4, [(0, 1, 1.0), (2, 3, 1.0)]), 0, 2)
        assert value == 0
        assert side == frozenset({0, 1})

    def test_matches_brute_cut(self):
        rng = SplitMix64(11)
        for trial in range(25):
            n = 4 + rng.randrange(4)
            edges = []
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.randrange(100) < 60:
                        edges.append((i, j, rng.randrange(1, 8) / 2))
            value, _ = max_flow_min_cut(FlowGraph.of(n, edges), 0, n - 1)
            assert value == pytest.approx(brute_min_st_cut(n, edges, 0, n - 1))

    def test_fraction_weights_exact(self):
        edges = [(0, 1, Fraction(1, 3)), (1, 2, Fraction(1, 2)), (0, 2, Fraction(1, 6))]
        value, _ = max_flow_min_cut(FlowGraph.of(3, edges), 0, 2)
        assert value == Fraction(1, 2)  # min cut isolates vertex 2

    def test_flow_graph_is_reused_unchanged(self):
        # a graph reused gives what a fresh one gives, call after call
        rng = SplitMix64(13)
        for trial in range(20):
            n = 4 + rng.randrange(5)
            edges = [
                (i, j, Fraction(rng.randrange(1, 9), rng.randrange(1, 4)))
                for i in range(n)
                for j in range(i + 1, n)
                if rng.randrange(100) < 50
            ]
            graph = FlowGraph.of(n, edges)
            for s, t in ((0, n - 1), (n - 1, 0), (1, 2), (0, n - 1)):
                value, side = max_flow_min_cut(graph, s, t)
                assert (value, side) == max_flow_min_cut(FlowGraph.of(n, edges), s, t)
                assert value == brute_min_st_cut(n, edges, s, t)
            assert graph == FlowGraph.of(n, edges)


def assert_tree_edges_are_flows(tree, edges):
    """Each tree edge's value is the maximum flow between its two ends."""
    for i in range(1, tree.n):
        direct, _ = max_flow_min_cut(FlowGraph.of(tree.n, edges), i, tree.parent[i])
        assert tree.value[i] == pytest.approx(direct), (i, tree.parent[i])


class TestGomoryHu:
    def test_path_graph(self):
        edges = ((0, 1, 1.0), (1, 2, 1.0))
        tree = gomory_hu(3, edges)
        assert tree.value[1:] == pytest.approx((1, 1))
        assert_tree_edges_are_flows(tree, edges)

    def test_disconnected_zero_edge(self):
        edges = ((0, 1, 1.0), (2, 3, 1.0))
        tree = gomory_hu(4, edges)
        assert sorted(tree.value[1:]) == [0, 1, 1]
        assert_tree_edges_are_flows(tree, edges)

    def test_triangle_all_pairs_two(self):
        edges = ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0))
        tree = gomory_hu(3, edges)
        assert tree.value[1:] == pytest.approx((2, 2))
        assert_tree_edges_are_flows(tree, edges)

    def test_pairwise_values_match_direct_flows(self):
        rng = SplitMix64(77)
        for trial in range(10):
            n = 5 + rng.randrange(8)  # up to 12
            edges = []
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.randrange(100) < 50:
                        edges.append((i, j, rng.randrange(1, 10) / 2))
            assert_tree_edges_are_flows(gomory_hu(n, edges), edges)

    def test_child_sides_are_minimum_cuts(self):
        # cut-tree property, stronger than equal pairwise flows: the child
        # side of every tree edge is a cut of exactly the edge's value,
        # which is what separation reads off the tree
        rng = SplitMix64(2)
        for trial in range(300):
            n = 3 + rng.randrange(8)  # up to 10
            edges = []
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.randrange(100) < 50:
                        w = Fraction(rng.randrange(1, 10), rng.randrange(1, 5))
                        edges.append((i, j, w))
            tree = gomory_hu(n, edges)
            for side, value in tree.cut_candidates():
                cut = sum(w for u, v, w in edges if (u in side) != (v in side))
                assert cut == value, (trial, sorted(side))

    def test_needs_two_vertices(self):
        with pytest.raises(CutError):
            gomory_hu(1, ())

    def test_one_graph_for_all_flows(self, monkeypatch):
        # the arcs are built once per tree and every one of the n - 1 flows
        # runs on them, through the module's max_flow_min_cut
        builds, graphs = [], []
        of = FlowGraph.of.__func__

        def recorded_of(cls, n, edges):
            builds.append(n)
            return of(cls, n, edges)

        flow = cuts.max_flow_min_cut

        def recorded_flow(graph, s, t, eps=0):
            graphs.append(graph)
            return flow(graph, s, t, eps)

        monkeypatch.setattr(FlowGraph, "of", classmethod(recorded_of))
        monkeypatch.setattr(cuts, "max_flow_min_cut", recorded_flow)
        n = 9
        edges = [(i, (i * 4 + 3) % n, 0.5 + i / 4) for i in range(n)] + [(0, 5, 1.0)]
        tree = gomory_hu(n, edges)
        assert builds == [n]
        assert len(graphs) == n - 1
        assert isinstance(graphs[0], FlowGraph)
        assert all(graph is graphs[0] for graph in graphs)
        monkeypatch.undo()
        assert_tree_edges_are_flows(tree, edges)


class TestSeparateBlossom:
    def test_two_disjoint_triangles(self):
        x = {}
        for a, b, c in ((0, 1, 2), (3, 4, 5)):
            for e in (Segment.of(a, b), Segment.of(b, c), Segment.of(a, c)):
                x[e] = 0.5
        cuts = separate_blossom(x, 6)
        assert len(cuts) == 2
        sides = {c.members for c in cuts}
        assert frozenset({0, 1, 2}) in sides or frozenset({3, 4, 5}) in sides
        for c in cuts:
            assert c.cut_value == pytest.approx(0)

    def test_four_cycle_not_violated(self):
        x = {
            Segment(0, 1): 0.5,
            Segment(1, 2): 0.5,
            Segment(2, 3): 0.5,
            Segment(0, 3): 0.5,
        }
        assert separate_blossom(x, 4) == []

    def test_integral_matching_clean(self):
        x = {Segment(0, 1): 1.0, Segment(2, 3): 1.0}
        assert separate_blossom(x, 4) == []

    def test_odd_n_rejected(self):
        with pytest.raises(CutError, match="even"):
            separate_blossom({}, 5)

    def test_agrees_with_enumeration(self):
        rng = SplitMix64(123)
        for trial in range(60):
            n = (4, 6, 8, 10)[rng.randrange(4)]
            x = random_matching_combination(n, rng)
            cuts = separate_blossom(x, n)
            true_min = brute_min_odd_cut(x, n)
            assert bool(cuts) == (true_min < 1 - 1e-7)
            if cuts:
                assert cuts[0].cut_value == pytest.approx(true_min, abs=1e-9)

    def test_most_violated_first_and_capped(self):
        # perfect matching split into many components: every odd side of a
        # Gomory-Hu edge is violated, list is sorted and at most 10 long
        n = 12
        x = {Segment(2 * i, 2 * i + 1): 1.0 for i in range(n // 2)}
        x[Segment(0, 2)] = 0.25
        cuts = separate_blossom(x, n)
        assert len(cuts) <= 10
        values = [c.cut_value for c in cuts]
        assert values == sorted(values)


class TestSeparateConnectivity:
    def test_disconnected_support(self):
        x = {Segment(0, 1): 1.0, Segment(2, 3): 1.0}
        cuts = separate_connectivity(x, 4)
        assert cuts
        assert cuts[0].members in (frozenset({0, 1}), frozenset({2, 3}))
        assert cuts[0].cut_value == pytest.approx(0)

    def test_spanning_path_clean(self):
        x = {Segment(0, 1): 1.0, Segment(1, 2): 1.0, Segment(2, 3): 1.0}
        assert separate_connectivity(x, 4) == []

    def test_weak_bridge(self):
        x = {Segment(0, 1): 1.0, Segment(2, 3): 1.0, Segment(1, 2): 0.5}
        cuts = separate_connectivity(x, 4)
        assert cuts
        assert cuts[0].cut_value == pytest.approx(0.5)
        assert cuts[0].members in (frozenset({0, 1}), frozenset({2, 3}))

    def test_needs_two_vertices(self):
        with pytest.raises(CutError):
            separate_connectivity({}, 1)

    def test_noise_edge_does_not_join_components(self):
        x = {Segment(0, 1): 1.0, Segment(2, 3): 1.0, Segment(1, 2): 1e-9}
        cuts = separate_connectivity(x, 4)
        assert cuts
        assert cuts[0].members in (frozenset({0, 1}), frozenset({2, 3}))
        assert cuts[0].cut_value == 0

    def test_agrees_with_enumeration(self):
        rng = SplitMix64(321)
        trees6 = list(enum_spanning_trees(6))
        for trial in range(60):
            n = 6
            parts = 2 + rng.randrange(2)
            weights = [rng.randrange(1, 50) for _ in range(parts)]
            total = sum(weights)
            x = {}
            for w in weights:
                t = trees6[rng.randrange(len(trees6))]
                for e in t:
                    x[e] = x.get(e, 0.0) + w / total
            # random downscale can break connectivity requirements
            scale = rng.randrange(50, 120) / 100
            x = {e: w * scale for e, w in x.items()}
            cuts = separate_connectivity(x, n)
            true_min = brute_min_cut(x, n)
            assert bool(cuts) == (true_min < 1 - 1e-7)
            if cuts:
                assert cuts[0].cut_value == pytest.approx(true_min, abs=1e-9)


class TestCutTreeExactness:
    """Both separators against enumeration of every vertex subset, on random
    supports where some edges weigh 1 or more and get contracted."""

    @pytest.mark.parametrize("kind", [float, Fraction, int])
    def test_matches_brute(self, kind):
        rng = SplitMix64({float: 55, Fraction: 56, int: 57}[kind])
        if kind is float:
            eps = dict(support_eps=SUPPORT_EPS, violation_eps=VIOLATION_EPS)
        else:
            eps = dict(support_eps=0, violation_eps=0)
        contracted = 0
        for trial in range(60):
            n = 2 + rng.randrange(9)
            x = {}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.randrange(100) < 40:
                        if kind is int:
                            x[Segment(i, j)] = rng.randrange(3)
                        else:
                            x[Segment(i, j)] = kind(rng.randrange(0, 9)) / 6
                        if kind is float and rng.randrange(10) == 0:
                            x[Segment(i, j)] = 1e-9  # below the support threshold
            contracted += any(w >= 1 for w in x.values())
            support = {e: w for e, w in x.items() if w > eps["support_eps"]}
            limit = 1 - eps["violation_eps"]
            separators = [(separate_connectivity, False)]
            if n % 2 == 0:
                separators.append((separate_blossom, True))
            for separate, odd in separators:
                cuts = separate(x, n, **eps)
                weights = [
                    weight(support, frozenset(s))
                    for size in range(1, n, 2 if odd else 1)
                    for s in combinations(range(n), size)
                ]
                assert bool(cuts) == (min(weights) < limit), (trial, odd)
                if cuts:
                    assert cuts[0].cut_value == min(weights)
                for c in cuts:
                    assert 0 < len(c.members) < n
                    assert c.cut_value == weight(support, c.members)
                    assert c.cut_value < limit
                    assert not odd or len(c.members) % 2 == 1
        assert contracted > 30


class TestUnweighedCuts:
    """Fundamental cuts whose tree value clears 1 - violation_eps by
    UNWEIGHED_MARGIN are not weighed on the support; those below are."""

    def test_cut_just_below_the_limit_is_returned(self):
        # contracted to {0, 1} and {2, 3}, joined by two halves of w
        w = 1 - VIOLATION_EPS - 1e-12
        x = {
            Segment(0, 1): 1.0,
            Segment(2, 3): 1.0,
            Segment(1, 2): w / 2,
            Segment(0, 3): w / 2,
        }
        found = separate_connectivity(x, 4)
        assert [c.members for c in found] == [frozenset({0, 1}), frozenset({2, 3})]
        assert [c.cut_value for c in found] == [w, w]

    def test_cut_inside_the_margin_is_weighed_and_kept_out(self, monkeypatch):
        weighed = []
        weigh = cuts._cut_weight

        def recorded(x, members):
            weighed.append(members)
            return weigh(x, members)

        monkeypatch.setattr(cuts, "_cut_weight", recorded)
        w = 1 - VIOLATION_EPS + 1e-12
        x = {
            Segment(0, 1): 1.0,
            Segment(2, 3): 1.0,
            Segment(1, 2): w / 2,
            Segment(0, 3): w / 2,
        }
        assert separate_connectivity(x, 4) == []
        assert len(weighed) == 1
        assert weighed[0] in (frozenset({0, 1}), frozenset({2, 3}))

    @pytest.mark.parametrize("odd", [False, True])
    def test_weighs_only_cuts_below_the_margin(self, monkeypatch, odd):
        trees, weighed = [], []
        build, weigh = cuts.gomory_hu, cuts._cut_weight

        def recorded_tree(*args, **kwargs):
            trees.append(build(*args, **kwargs))
            return trees[-1]

        def recorded_weight(x, members):
            weighed.append(members)
            return weigh(x, members)

        monkeypatch.setattr(cuts, "gomory_hu", recorded_tree)
        monkeypatch.setattr(cuts, "_cut_weight", recorded_weight)
        separate = separate_blossom if odd else separate_connectivity
        limit = 1 - VIOLATION_EPS + UNWEIGHED_MARGIN
        rng = SplitMix64(31)
        skipped = kept = 0
        for trial in range(40):
            n = 4 + 2 * rng.randrange(4)
            # every weight is below 1 - VIOLATION_EPS: nothing is contracted,
            # so node i of the tree is vertex i
            x = {
                Segment(i, j): rng.randrange(1, 12) / 13
                for i in range(n)
                for j in range(i + 1, n)
                if rng.randrange(100) < 50
            }
            trees.clear()
            weighed.clear()
            separate(x, n)
            (tree,) = trees
            expected = []
            for side, value in tree.cut_candidates():
                # a cut weighs at least its flow
                assert weight(x, side) >= value - 1e-12
                if value >= limit:
                    skipped += 1
                elif not odd or len(side) % 2 == 1:
                    expected.append(side)
            assert weighed == expected, trial
            kept += len(expected)
        assert skipped > 0 and kept > 0
