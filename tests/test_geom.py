from fractions import Fraction

import pytest

from minstab import (
    Instance,
    LineFamily,
    Point,
    Segment,
    average_stabbing,
    crossing_number,
    gen_random,
    is_crossing_pair,
    orient,
    representative_lines,
    stabbing_number,
    stabs,
)
from minstab.geom import (
    COORD_LIMIT,
    GeometryError,
    StabLine,
    collinear_segments,
    segments_disjoint,
    sqrt_decompose,
)
from minstab.instance import SplitMix64

AXIS = LineFamily.AXIS_PARALLEL
GENERAL = LineFamily.GENERAL


def seg(i, j):
    return Segment.of(i, j)


class TestOrient:
    def test_counterclockwise(self):
        assert orient(Point(0, 0), Point(1, 0), Point(0, 1)) == 1

    def test_collinear(self):
        assert orient(Point(0, 0), Point(1, 1), Point(2, 2)) == 0

    def test_clockwise(self):
        assert orient(Point(0, 0), Point(1, 1), Point(2, 0)) == -1

    def test_exact_at_the_coordinate_limit(self):
        lim = COORD_LIMIT - 1
        p, q, r = Point(-lim, -lim), Point(lim, -lim), Point(-lim, lim)
        # (2 lim)^2 overflows 64-bit signed arithmetic, whose wrapped value is negative
        assert (2 * lim) ** 2 > 2**63
        assert orient(p, q, r) == 1
        assert orient(p, r, q) == -1
        # collinear, with products 2 lim^2 > 2^63 that cancel
        assert orient(Point(-lim, -lim), Point(0, 0), Point(lim, lim)) == 0
        assert orient(Point(-lim, lim), Point(lim, -lim), Point(0, 0)) == 0

    def test_antisymmetric_in_last_two_args(self):
        rng = SplitMix64(5)
        for _ in range(200):
            pts = [Point(rng.randrange(20), rng.randrange(20)) for _ in range(3)]
            assert orient(pts[0], pts[1], pts[2]) == -orient(pts[0], pts[2], pts[1])


class TestStabLine:
    def test_canonical_form(self):
        assert StabLine(2, 4, 6) == StabLine(1, 2, 3)
        assert StabLine(-1, 0, -5) == StabLine(1, 0, 5)
        assert StabLine(0, -3, 9) == StabLine(0, 1, -3)

    def test_through_two_points_equals_reversed(self):
        p, q = Point(2, 3), Point(7, 11)
        assert StabLine.through(p, q) == StabLine.through(q, p)

    def test_zero_normal_rejected(self):
        with pytest.raises(GeometryError):
            StabLine(0, 0, 1)


class TestStabs:
    def test_proper_crossing(self):
        pts = [Point(0, 0), Point(2, 0)]
        assert stabs(StabLine.vertical(1), seg(0, 1), pts)

    def test_endpoint_touch_counts(self):
        pts = [Point(1, 0), Point(2, 0)]
        assert stabs(StabLine.vertical(1), seg(0, 1), pts)

    def test_disjoint(self):
        pts = [Point(0, 0), Point(2, 0)]
        assert not stabs(StabLine.vertical(3), seg(0, 1), pts)

    def test_collinear_overlap_counts(self):
        pts = [Point(0, 0), Point(2, 0)]
        assert stabs(StabLine.horizontal(0), seg(0, 1), pts)


class TestRepresentativeLines:
    def test_axis_all_distinct_coordinates(self):
        pts = [Point(0, 0), Point(1, 2), Point(3, 1)]
        lines = representative_lines(pts, AXIS)
        assert set(lines) == {
            StabLine.vertical(0),
            StabLine.vertical(1),
            StabLine.vertical(3),
            StabLine.horizontal(0),
            StabLine.horizontal(1),
            StabLine.horizontal(2),
        }

    def test_axis_dedup(self):
        # direct set construction: x in {0, 2}, y in {0, 5}
        pts = [Point(0, 0), Point(0, 5), Point(2, 0)]
        lines = representative_lines(pts, AXIS)
        assert set(lines) == {
            StabLine.vertical(0),
            StabLine.vertical(2),
            StabLine.horizontal(0),
            StabLine.horizontal(5),
        }

    def test_general_three_points(self):
        pts = [Point(0, 0), Point(1, 2), Point(3, 1)]
        lines = representative_lines(pts, GENERAL)
        axis = set(representative_lines(pts, AXIS))
        pair_lines = {
            StabLine.through(pts[0], pts[1]),
            StabLine.through(pts[0], pts[2]),
            StabLine.through(pts[1], pts[2]),
        }
        assert set(lines) == axis | pair_lines
        assert len(lines) == len(set(lines))

    def test_empty_errors(self):
        with pytest.raises(GeometryError, match="empty instance"):
            representative_lines([], AXIS)


def _sweep_stabbing(edges, pts):
    """Independent oracle: evaluate every vertex line and every midline for
    both orientations by direct closed-interval membership."""
    best = 0
    for coord, lo_of, hi_of in (
        ("x", lambda p: p.x, lambda p: p.x),
        ("y", lambda p: p.y, lambda p: p.y),
    ):
        values = sorted({lo_of(p) for p in pts})
        positions = [Fraction(v) for v in values]
        positions += [
            Fraction(a + b, 2) for a, b in zip(values, values[1:])
        ]
        for t in positions:
            count = 0
            for e in edges:
                a, b = lo_of(pts[e.a]), lo_of(pts[e.b])
                if min(a, b) <= t <= max(a, b):
                    count += 1
            best = max(best, count)
    return best


class TestStabbingNumber:
    def test_single_segment(self):
        pts = [Point(0, 0), Point(1, 0)]
        assert stabbing_number([seg(0, 1)], pts, AXIS)[0] == 1

    def test_unit_square_matching_witness(self, unit_square):
        k, witness = stabbing_number(
            [seg(0, 1), seg(2, 3)], unit_square.points, AXIS
        )
        assert k == 2
        assert witness == StabLine.vertical(0)

    def test_empty_edge_set(self, unit_square):
        assert stabbing_number([], unit_square.points, AXIS) == (0, None)

    def test_invalid_edge_errors(self, unit_square):
        with pytest.raises(GeometryError):
            stabbing_number([Segment(0, 9)], unit_square.points, AXIS)

    def test_matches_naive_sweep(self):
        rng = SplitMix64(17)
        for trial in range(30):
            n = 4 + rng.randrange(7)  # up to 10
            inst = gen_random(n, 40, seed=1000 + trial)
            edges = set()
            while len(edges) < n:
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    edges.add(Segment.of(i, j))
            k, _ = stabbing_number(sorted(edges), inst.points, AXIS)
            assert k == _sweep_stabbing(sorted(edges), inst.points)

    def test_general_at_least_axis(self):
        for s in range(10):
            inst = gen_random(8, 60, seed=s)
            edges = [seg(0, 1), seg(2, 3), seg(4, 5), seg(6, 7)]
            ka, _ = stabbing_number(edges, inst.points, AXIS)
            kg, _ = stabbing_number(edges, inst.points, GENERAL)
            assert kg >= ka


class TestCrossingNumber:
    def test_adjoining_collinear_segments_merge(self):
        pts = [Point(0, 0), Point(1, 0), Point(2, 0)]
        edges = [seg(0, 1), seg(1, 2)]
        assert crossing_number(edges, pts, AXIS) == 1
        assert stabbing_number(edges, pts, AXIS)[0] == 2

    def test_planar_matching_coincides(self):
        pts = [Point(0, 0), Point(1, 0), Point(2, 0), Point(3, 0)]
        edges = [seg(0, 1), seg(2, 3)]
        assert crossing_number(edges, pts, AXIS) == 2
        assert stabbing_number(edges, pts, AXIS)[0] == 2

    def test_square_with_diagonal_midline(self, unit_square):
        edges = [seg(0, 1), seg(2, 3), seg(0, 2), seg(1, 3), seg(0, 3)]
        assert crossing_number(edges, unit_square.points, AXIS) == 3

    def test_never_exceeds_stabbing(self):
        rng = SplitMix64(23)
        for trial in range(25):
            n = 6
            inst = gen_random(n, 30, seed=2000 + trial)
            edges = set()
            while len(edges) < n:
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    edges.add(Segment.of(i, j))
            edges = sorted(edges)
            for fam in (AXIS, GENERAL):
                assert crossing_number(edges, inst.points, fam) <= stabbing_number(
                    edges, inst.points, fam
                )[0]

    def test_disjoint_noncollinear_matching_equality(self):
        # disjoint pairwise non-collinear segments: per line, contributions
        # are pairwise disjoint closed sets, so components equal stabs
        for s in range(15):
            inst = gen_random(8, 100, seed=3000 + s)
            edges = [seg(0, 1), seg(2, 3), seg(4, 5), seg(6, 7)]
            disjoint = all(
                segments_disjoint(e, f, inst.points)
                for i, e in enumerate(edges)
                for f in edges[i + 1 :]
            )
            noncollinear = all(
                not collinear_segments(e, f, inst.points)
                for i, e in enumerate(edges)
                for f in edges[i + 1 :]
            )
            if not (disjoint and noncollinear):
                continue
            for fam in (AXIS, GENERAL):
                assert (
                    crossing_number(edges, inst.points, fam)
                    == stabbing_number(edges, inst.points, fam)[0]
                )


class TestIsCrossingPair:
    def test_x_configuration(self):
        pts = [Point(0, 0), Point(1, 1), Point(1, 0), Point(0, 1)]
        assert is_crossing_pair(seg(0, 1), seg(2, 3), pts)

    def test_parallel_disjoint(self):
        pts = [Point(0, 0), Point(1, 0), Point(0, 1), Point(1, 1)]
        assert not is_crossing_pair(seg(0, 1), seg(2, 3), pts)

    def test_shared_endpoint_not_crossing(self):
        pts = [Point(0, 0), Point(1, 0), Point(2, 1)]
        assert not is_crossing_pair(seg(0, 1), seg(1, 2), pts)

    def test_collinear_overlap_not_crossing(self):
        pts = [Point(0, 0), Point(3, 0), Point(1, 0), Point(4, 0)]
        assert not is_crossing_pair(seg(0, 1), seg(2, 3), pts)

    def test_identical_segments_rejected(self):
        pts = [Point(0, 0), Point(1, 0)]
        with pytest.raises(GeometryError):
            is_crossing_pair(seg(0, 1), seg(0, 1), pts)


class TestAverageStabbing:
    def test_single_horizontal_segment(self):
        pts = [Point(0, 0), Point(1, 0), Point(0, 1)]  # D = 1
        assert average_stabbing([seg(0, 1)], pts, AXIS) == Fraction(1, 2)

    def test_empty_edges(self, unit_square):
        assert average_stabbing([], unit_square.points, AXIS) == 0

    def test_two_unit_segments_additive(self):
        pts = [Point(0, 0), Point(1, 0), Point(0, 1), Point(1, 1)]  # D = 1
        assert average_stabbing([seg(0, 1), seg(2, 3)], pts, AXIS) == Fraction(1)

    def test_translation_invariant(self):
        pts = [Point(0, 0), Point(3, 1), Point(1, 4), Point(2, 2)]
        moved = [Point(p.x + 7, p.y - 5) for p in pts]
        edges = [seg(0, 1), seg(2, 3)]
        assert average_stabbing(edges, pts, AXIS) == average_stabbing(
            edges, moved, AXIS
        )

    def test_degenerate_instance_errors(self):
        with pytest.raises(GeometryError):
            average_stabbing([], [Point(5, 5)], AXIS)


class TestExactLengthKeys:
    def test_sqrt_decompose(self):
        assert sqrt_decompose(1) == (1, 1)
        assert sqrt_decompose(8) == (2, 2)
        assert sqrt_decompose(45) == (3, 5)
        assert sqrt_decompose(49) == (7, 1)
