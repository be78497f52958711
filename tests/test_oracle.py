from fractions import Fraction

import pytest

from minstab import Instance, LineFamily, Point, Problem, Segment, gen_random
from minstab.oracle import (
    EnumBudget,
    EnumerationCapError,
    EnumerationError,
    Objective,
    RadicalSum,
    brute_optimum,
    enum_perfect_matchings,
    enum_spanning_trees,
    enum_triangulations,
)

AXIS = LineFamily.AXIS_PARALLEL
GENERAL = LineFamily.GENERAL


def double_factorial(n):
    out = 1
    for k in range(n - 1, 0, -2):
        out *= k
    return out


class TestEnumMatchings:
    @pytest.mark.parametrize("n,count", [(2, 1), (4, 3), (6, 15), (8, 105)])
    def test_counts(self, n, count):
        assert count == double_factorial(n)
        matchings = list(enum_perfect_matchings(n))
        assert len(matchings) == count
        assert len({tuple(m) for m in matchings}) == count

    def test_each_is_perfect(self):
        for m in enum_perfect_matchings(6):
            covered = sorted(v for e in m for v in e)
            assert covered == list(range(6))

    def test_odd_rejected(self):
        with pytest.raises(EnumerationError):
            list(enum_perfect_matchings(5))

    def test_over_cap_rejected(self):
        with pytest.raises(EnumerationCapError):
            list(enum_perfect_matchings(16))


class TestEnumTrees:
    @pytest.mark.parametrize("n,count", [(2, 1), (3, 3), (4, 16), (5, 125), (6, 1296)])
    def test_cayley_counts(self, n, count):
        trees = list(enum_spanning_trees(n))
        assert len(trees) == count
        assert len({tuple(t) for t in trees}) == count

    def test_each_is_spanning_tree(self):
        for t in enum_spanning_trees(5):
            assert len(t) == 4
            parent = list(range(5))

            def find(i):
                while parent[i] != i:
                    parent[i] = parent[parent[i]]
                    i = parent[i]
                return i

            for e in t:
                ra, rb = find(e.a), find(e.b)
                assert ra != rb
                parent[ra] = rb

    def test_over_cap_rejected(self):
        with pytest.raises(EnumerationCapError):
            list(enum_spanning_trees(9))


class TestEnumTriangulations:
    def test_square_has_two(self, unit_square):
        tris = list(enum_triangulations(unit_square))
        assert len(tris) == 2
        diagonals = {Segment(0, 3), Segment(1, 2)}
        for t in tris:
            assert len(set(t) & diagonals) == 1

    def test_triangle_has_one(self):
        inst = Instance("tri", (Point(0, 0), Point(4, 0), Point(1, 3)))
        assert len(list(enum_triangulations(inst))) == 1

    @pytest.mark.parametrize("n,catalan", [(4, 2), (5, 5), (6, 14)])
    def test_convex_position_catalan(self, n, catalan):
        # convex polygon vertices far from collinear
        base = [
            Point(0, 0), Point(20, 2), Point(28, 16),
            Point(14, 29), Point(2, 22), Point(-8, 9),
        ]
        inst = Instance("conv", tuple(base[:n]))
        assert len(list(enum_triangulations(inst))) == catalan

    def test_collinear_rejected(self, collinear3):
        with pytest.raises(EnumerationError, match="collinear"):
            list(enum_triangulations(collinear3))

    def test_interior_vertex_edges_excluded(self):
        # vertex 1 sits inside segment 0-2: the long edge is inadmissible
        inst = Instance(
            "mid", (Point(0, 0), Point(1, 0), Point(2, 0), Point(1, 2))
        )
        for t in enum_triangulations(inst):
            assert Segment(0, 2) not in t

    def test_collinear_points_supported(self):
        inst = Instance(
            "grid23",
            (Point(0, 0), Point(1, 0), Point(2, 0), Point(0, 1), Point(1, 1), Point(2, 1)),
        )
        tris = list(enum_triangulations(inst))
        assert tris
        counts = {len(t) for t in tris}
        assert counts == {9}  # 2*6 - 2 - hull(6) + ... every full triangulation has 9 edges


class TestBruteOptimum:
    def test_unit_square_matching(self, unit_square):
        value, structures = brute_optimum(
            unit_square, Problem.MATCHING, AXIS, Objective.STABBING
        )
        assert value == 2
        assert len(structures) == 3

    def test_three_collinear_tree(self, collinear3):
        value, structures = brute_optimum(
            collinear3, Problem.SPANNING_TREE, AXIS, Objective.STABBING
        )
        assert value == 2
        assert len(structures) == 3

    def test_unit_square_triangulation_crossing(self, unit_square):
        value, structures = brute_optimum(
            unit_square, Problem.TRIANGULATION, AXIS, Objective.CROSSING
        )
        assert value == 3
        assert len(structures) == 2

    def test_stabbing_at_least_crossing(self):
        for seed in range(6):
            inst = gen_random(6, 30, seed=seed)
            for problem in (Problem.MATCHING, Problem.SPANNING_TREE):
                for fam in (AXIS, GENERAL):
                    vs, _ = brute_optimum(inst, problem, fam, Objective.STABBING)
                    vc, _ = brute_optimum(inst, problem, fam, Objective.CROSSING)
                    assert vs >= vc

    def test_budget_enforced(self, unit_square):
        with pytest.raises(EnumerationCapError):
            brute_optimum(
                gen_random(12, 50, seed=1),
                Problem.MATCHING,
                AXIS,
                Objective.STABBING,
                budget=EnumBudget(max_structures=100),
            )

    def test_average_stabbing_value(self):
        # two points spanning D=2: single matching of Manhattan length 2
        inst = Instance("pair", (Point(0, 0), Point(2, 0), Point(0, 2), Point(2, 2)))
        value, structures = brute_optimum(
            inst, Problem.MATCHING, AXIS, Objective.AVERAGE_STABBING
        )
        assert value == Fraction(4, 4)  # total Manhattan 4 over 2*D = 4
        assert structures

    def test_length_objective_matches_enumeration(self):
        inst = gen_random(6, 40, seed=17)
        value, structures = brute_optimum(
            inst, Problem.MATCHING, AXIS, Objective.LENGTH
        )
        from minstab.geom import manhattan_total

        best = None
        best_set = []
        for m in enum_perfect_matchings(6):
            t = manhattan_total(m, inst.points)
            if best is None or t < best:
                best, best_set = t, [m]
            elif t == best:
                best_set.append(m)
        assert value == best
        assert structures == tuple(sorted(best_set))


class TestRadicalSum:
    def test_nontrivial_equality(self):
        # sqrt(8) + sqrt(18) = 2sqrt2 + 3sqrt2 = 5 sqrt2 = sqrt(50)
        a = RadicalSum([(2, 5)])
        b = RadicalSum([(2, 2), (2, 3)])
        assert a == b

    def test_ordering(self):
        assert RadicalSum([(2, 1)]) < RadicalSum([(3, 1)])
        assert RadicalSum([(1, 7)]) < RadicalSum([(2, 5)])

    def test_of_edges_detects_nontrivial_equality(self):
        # sqrt(2) + sqrt(8) = 3*sqrt(2) = sqrt(18)
        a = [Point(0, 0), Point(1, 1), Point(10, 0), Point(12, 2)]
        b = [Point(0, 0), Point(3, 3)]
        pair = [Segment.of(0, 1), Segment.of(2, 3)]
        assert RadicalSum.of_edges(pair, a) == RadicalSum.of_edges(pair[:1], b)

    def test_of_edges_distinguishes(self):
        pts = [Point(0, 0), Point(1, 0), Point(0, 2)]
        short, long = [Segment.of(0, 1)], [Segment.of(0, 2)]
        assert RadicalSum.of_edges(short, pts) != RadicalSum.of_edges(long, pts)
