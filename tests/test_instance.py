import json
from fractions import Fraction

import pytest

from minstab import (
    Instance,
    LineFamily,
    Method,
    Point,
    Problem,
    Segment,
    Solution,
    gen_grid,
    gen_random,
    parse_instance,
    parse_solution,
    serialize_instance,
    solution_to_json,
    verify_solution,
)
from minstab.instance import InstanceError, SolutionError


class TestParseNative:
    def test_unit_square(self):
        inst = parse_instance("4\n0 0\n1 0\n0 1\n1 1\n")
        assert inst.n == 4
        assert inst.points[3] == Point(1, 1)

    def test_single_point(self):
        inst = parse_instance("1\n5 5\n")
        assert inst.points == (Point(5, 5),)

    def test_duplicate_point_reports_line(self):
        with pytest.raises(InstanceError, match="line 3"):
            parse_instance("2\n0 0\n0 0\n")

    def test_malformed_line_number(self):
        with pytest.raises(InstanceError, match="line 2"):
            parse_instance("1\nnope nope\n")

    def test_comments_ignored(self):
        inst = parse_instance("# header\n2\n0 0\n# middle\n1 1\n")
        assert inst.n == 2

    def test_count_mismatch(self):
        with pytest.raises(InstanceError, match="header"):
            parse_instance("3\n0 0\n1 1\n")

    def test_roundtrip_bit_exact(self):
        for seed in range(5):
            inst = gen_random(9, 50, seed=seed)
            text = serialize_instance(inst)
            again = parse_instance(text, name=inst.name)
            assert again == inst
            assert serialize_instance(again) == text


class TestParseTsplib:
    TEXT = (
        "NAME : demo\n"
        "TYPE : TSP\n"
        "DIMENSION : 3\n"
        "EDGE_WEIGHT_TYPE : EUC_2D\n"
        "NODE_COORD_SECTION\n"
        "1 0 0\n"
        "2 10 0\n"
        "3 0 10\n"
        "EOF\n"
    )

    def test_basic(self):
        inst = parse_instance(self.TEXT)
        assert inst.name == "demo"
        assert inst.points == (Point(0, 0), Point(10, 0), Point(0, 10))

    def test_decimal_scaling(self):
        text = self.TEXT.replace("1 0 0", "1 0.25 0").replace("2 10 0", "2 10.5 0")
        inst = parse_instance(text)
        assert inst.name == "demo-x100"
        assert inst.points[0] == Point(25, 0)
        assert inst.points[1] == Point(1050, 0)

    @pytest.mark.parametrize("coord", ["nan", "Infinity", "-inf", "sNaN"])
    def test_non_finite_coordinate_rejected(self, coord):
        # Decimal parses these, but they name no point
        text = self.TEXT.replace("2 10 0", f"2 {coord} 1")
        with pytest.raises(InstanceError, match="line 7: bad coordinate"):
            parse_instance(text)

    @pytest.mark.parametrize("coord", ["1e999999999", "-1e999999999", "1e999999", "2147483648"])
    def test_coordinate_out_of_range_rejected(self, coord):
        # the first two overflow the decimal context; the third would take
        # seconds to convert to int
        text = self.TEXT.replace("2 10 0", f"2 {coord} 1")
        with pytest.raises(InstanceError, match="^line 7: coordinate out of range$"):
            parse_instance(text)

    def test_largest_coordinate_accepted(self):
        inst = parse_instance(self.TEXT.replace("2 10 0", "2 2147483647 -2147483647"))
        assert inst.points[1] == Point(2**31 - 1, -(2**31) + 1)

    def test_duplicate_after_scaling_names_its_file_line(self):
        text = self.TEXT.replace("1 0 0", "1 0.00001 0").replace("2 10 0", "2 0.00002 0")
        with pytest.raises(InstanceError, match="^duplicate point at line 7 after scaling$"):
            parse_instance(text)

    def test_scaling_capped_at_four_decimals(self):
        text = self.TEXT.replace("1 0 0", "1 0.123456 0")
        inst = parse_instance(text)
        assert inst.name == "demo-x10000"
        assert inst.points[0] == Point(1235, 0)


class TestInstanceInvariants:
    def test_duplicates_rejected(self):
        with pytest.raises(InstanceError):
            Instance("bad", (Point(0, 0), Point(0, 0)))

    def test_empty_rejected(self):
        with pytest.raises(InstanceError):
            Instance("bad", ())

    def test_drop_last(self):
        inst = parse_instance("3\n0 0\n1 0\n2 0\n")
        assert inst.drop_last().n == 2


class TestGenerators:
    def test_random_deterministic(self):
        a = gen_random(4, 10, seed=1)
        b = gen_random(4, 10, seed=1)
        assert a == b

    def test_random_single_cell(self):
        assert gen_random(1, 0, seed=0).points == (Point(0, 0),)

    def test_random_capacity_margin(self):
        with pytest.raises(InstanceError):
            gen_random(101, 10, seed=0)
        with pytest.raises(InstanceError):
            gen_random(200, 10, seed=0)

    def test_random_in_box_and_distinct(self):
        inst = gen_random(30, 40, seed=9)
        assert len(set(inst.points)) == 30
        for p in inst.points:
            assert 0 <= p.x <= 40 and 0 <= p.y <= 40

    def test_grid_full(self):
        inst = gen_grid(2, 2, Fraction(1), seed=3)
        assert set(inst.points) == {Point(0, 0), Point(1, 0), Point(0, 1), Point(1, 1)}
        assert gen_grid(3, 3, Fraction(1), seed=0).n == 9

    def test_grid_deterministic(self):
        a = gen_grid(5, 5, Fraction(4, 5), seed=7)
        b = gen_grid(5, 5, Fraction(4, 5), seed=7)
        assert a == b
        assert a.n == 20

    def test_grid_empty_rejected(self):
        with pytest.raises(InstanceError):
            gen_grid(2, 2, Fraction(1, 100), seed=0)

    def test_grid_keep_fraction_range(self):
        with pytest.raises(InstanceError):
            gen_grid(2, 2, Fraction(3, 2), seed=0)


class TestSolutionIO:
    def _solution(self):
        return Solution(
            problem=Problem.MATCHING,
            family=LineFamily.AXIS_PARALLEL,
            edges=(Segment(2, 3), Segment(0, 1)),
            k=2,
            lower_bound=Fraction(3, 2),
            method=Method.EXACT,
        )

    def test_field_order_and_sorted_edges(self):
        text = solution_to_json(self._solution())
        assert text == (
            '{"problem": "matching", "family": "axis", "k": 2, '
            '"lower_bound": "3/2", "method": "exact", '
            '"edges": [[0, 1], [2, 3]]}\n'
        )

    def test_roundtrip(self):
        sol = self._solution()
        again = parse_solution(solution_to_json(sol))
        assert again.problem == sol.problem
        assert again.family == sol.family
        assert again.k == sol.k
        assert again.lower_bound == sol.lower_bound
        assert sorted(again.edges) == sorted(sol.edges)

    def test_null_lower_bound(self):
        sol = Solution(
            Problem.SPANNING_TREE,
            LineFamily.GENERAL,
            (Segment(0, 1),),
            1,
            None,
            Method.BRUTE,
        )
        assert '"lower_bound": null' in solution_to_json(sol)
        assert parse_solution(solution_to_json(sol)).lower_bound is None

    def test_bad_document(self):
        with pytest.raises(SolutionError):
            parse_solution("{not json")
        with pytest.raises(SolutionError):
            parse_solution('{"problem": "matching"}')

    GOOD = {
        "problem": "matching",
        "family": "axis",
        "k": 1,
        "lower_bound": "1/2",
        "method": "exact",
        "edges": [[0, 1]],
    }

    @pytest.mark.parametrize(
        "document",
        [
            [1, 2],
            "matching",
            None,
            dict(GOOD, lower_bound="1/0"),
            dict(GOOD, lower_bound="1/x"),
            dict(GOOD, k=True),
            dict(GOOD, k=1.0),
            dict(GOOD, k="1"),
            dict(GOOD, edges=[[0, 1.9]]),
            dict(GOOD, edges=[[False, 1]]),
            dict(GOOD, edges=[5]),
            dict(GOOD, edges=[[0, 1, 2]]),
            dict(GOOD, edges=3),
        ],
        ids=[
            "array",
            "string",
            "null",
            "zero_denominator",
            "bad_denominator",
            "bool_k",
            "float_k",
            "string_k",
            "float_index",
            "bool_index",
            "bare_index",
            "three_indices",
            "edges_not_a_list",
        ],
    )
    def test_malformed_document_raises_solution_error(self, document):
        # not an object, a zero denominator, or a k or vertex index that is
        # no JSON integer: each is a SolutionError, never a TypeError, a
        # ZeroDivisionError or a silently truncated index
        shape = "" if isinstance(document, dict) else ": not a JSON object"
        with pytest.raises(SolutionError, match="bad solution document" + shape):
            parse_solution(json.dumps(document))
        assert parse_solution(json.dumps(self.GOOD)).lower_bound == Fraction(1, 2)


class TestVerifySolution:
    def test_good_matching(self, unit_square):
        sol = Solution(
            Problem.MATCHING,
            LineFamily.AXIS_PARALLEL,
            (Segment(0, 1), Segment(2, 3)),
            2,
            None,
            Method.EXACT,
        )
        verify_solution(unit_square, sol)

    def test_wrong_k_rejected(self, unit_square):
        sol = Solution(
            Problem.MATCHING,
            LineFamily.AXIS_PARALLEL,
            (Segment(0, 1), Segment(2, 3)),
            1,
            None,
            Method.EXACT,
        )
        with pytest.raises(SolutionError, match="stabbing"):
            verify_solution(unit_square, sol)

    def test_non_perfect_matching_rejected(self, unit_square):
        sol = Solution(
            Problem.MATCHING,
            LineFamily.AXIS_PARALLEL,
            (Segment(0, 1),),
            1,
            None,
            Method.EXACT,
        )
        with pytest.raises(SolutionError, match="perfect"):
            verify_solution(unit_square, sol)

    def test_tree_checked(self, collinear3):
        good = Solution(
            Problem.SPANNING_TREE,
            LineFamily.AXIS_PARALLEL,
            (Segment(0, 1), Segment(1, 2)),
            2,
            None,
            Method.EXACT,
        )
        verify_solution(collinear3, good)
        bad = Solution(
            Problem.SPANNING_TREE,
            LineFamily.AXIS_PARALLEL,
            (Segment(0, 1), Segment(0, 1)),
            2,
            None,
            Method.EXACT,
        )
        with pytest.raises(SolutionError):
            verify_solution(collinear3, bad)

    def test_triangulation_maximality(self, unit_square):
        partial = Solution(
            Problem.TRIANGULATION,
            LineFamily.AXIS_PARALLEL,
            (Segment(0, 1), Segment(0, 2), Segment(1, 3), Segment(2, 3)),
            2,
            None,
            Method.BRUTE,
        )
        with pytest.raises(SolutionError, match="maximal"):
            verify_solution(unit_square, partial)
