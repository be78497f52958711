import dataclasses
import math

import pytest

import minstab.models
import minstab.solve
from minstab import (
    Instance,
    LineFamily,
    Method,
    Point,
    Problem,
    Segment,
    branch_and_bound,
    brute_optimum,
    gen_random,
    iterated_rounding,
    min_length_matching,
    min_length_tree,
    solve_relaxation,
    verify_solution,
)
from minstab.models import ModelError, fix_edge
from minstab.oracle import Objective
from minstab.solve import SolveError, build_model

AXIS = LineFamily.AXIS_PARALLEL
GENERAL = LineFamily.GENERAL


def relaxed(inst, problem, family):
    """The model of an instance and its solved root relaxation."""
    model = build_model(inst, problem, family)
    return model, solve_relaxation(model)


def rounded(inst, problem, family):
    return iterated_rounding(*relaxed(inst, problem, family))


def rounded_bnb(inst, problem, family, **kwargs):
    """Branch-and-bound from the iterated-rounding incumbent, as the CLI runs it."""
    model, root = relaxed(inst, problem, family)
    incumbent = iterated_rounding(model, root)
    return branch_and_bound(model, root, incumbent, **kwargs)


class TestIteratedRounding:
    def test_two_points(self):
        inst = Instance("pair", (Point(0, 0), Point(3, 4)))
        sol = rounded(inst, Problem.MATCHING, AXIS)
        assert sol.k == 1
        assert sol.edges == (Segment(0, 1),)
        assert sol.method is Method.ROUNDING

    def test_unit_square_matching(self, unit_square):
        sol = rounded(unit_square, Problem.MATCHING, AXIS)
        assert sol.k == 2
        verify_solution(unit_square, sol)
        assert float(sol.lower_bound) == pytest.approx(1.5, abs=1e-6)

    def test_three_collinear_tree(self, collinear3):
        sol = rounded(collinear3, Problem.SPANNING_TREE, AXIS)
        assert sol.k == 2
        verify_solution(collinear3, sol)

    @pytest.mark.parametrize("problem", [Problem.MATCHING, Problem.SPANNING_TREE])
    def test_always_feasible(self, problem):
        for seed in range(6):
            n = 8 if problem is Problem.MATCHING else 7
            inst = gen_random(n, 60, seed=seed)
            for fam in (AXIS, GENERAL):
                sol = rounded(inst, problem, fam)
                verify_solution(inst, sol)

    def test_odd_matching_rejected(self, collinear3):
        with pytest.raises(ModelError, match="even n"):
            rounded(collinear3, Problem.MATCHING, AXIS)


class TestBranchAndBound:
    def test_unit_square_matching(self, unit_square):
        sol = rounded_bnb(unit_square, Problem.MATCHING, AXIS)
        assert sol.k == 2
        assert sol.proven
        assert sol.method is Method.EXACT

    def test_unit_square_tree_matches_oracle(self, unit_square):
        # oracle over all 16 spanning trees pins the optimum at 3: every
        # K4 edge meets at least 3 of the 4 axis lines, so 3 edges make the
        # line totals sum to 9 > 2*4
        value, _ = brute_optimum(
            unit_square, Problem.SPANNING_TREE, AXIS, Objective.STABBING
        )
        assert value == 3
        sol = rounded_bnb(unit_square, Problem.SPANNING_TREE, AXIS)
        assert sol.k == value
        assert sol.proven

    @pytest.mark.parametrize("family", [AXIS, GENERAL])
    def test_matches_oracle_random_matchings(self, family):
        for seed in range(8):
            inst = gen_random(10, 100, seed=400 + seed)
            sol = rounded_bnb(inst, Problem.MATCHING, family)
            value, _ = brute_optimum(inst, Problem.MATCHING, family, Objective.STABBING)
            assert sol.k == value
            assert sol.proven
            verify_solution(inst, sol)

    @pytest.mark.parametrize("family", [AXIS, GENERAL])
    def test_matches_oracle_random_trees(self, family):
        for seed in range(6):
            inst = gen_random(7, 100, seed=500 + seed)
            sol = rounded_bnb(inst, Problem.SPANNING_TREE, family)
            value, _ = brute_optimum(
                inst, Problem.SPANNING_TREE, family, Objective.STABBING
            )
            assert sol.k == value
            assert sol.proven

    def test_sandwich(self):
        for seed in range(6):
            inst = gen_random(8, 80, seed=600 + seed)
            for fam in (AXIS, GENERAL):
                model, root = relaxed(inst, Problem.MATCHING, fam)
                heuristic = iterated_rounding(model, root)
                exact = branch_and_bound(model, root, heuristic)
                lb = float(exact.lower_bound)
                assert math.ceil(lb - 1e-6) <= exact.k <= heuristic.k

    def test_time_limit_returns_incumbent(self, unit_square):
        sol = rounded_bnb(unit_square, Problem.MATCHING, AXIS, time_limit=1)
        assert sol.k >= 2
        verify_solution(unit_square, sol)

    @pytest.mark.parametrize(
        "problem, family",
        [(Problem.SPANNING_TREE, AXIS), (Problem.MATCHING, GENERAL)],
        ids=["wrong_problem", "wrong_family"],
    )
    def test_rejects_incumbent_of_another_model(self, problem, family):
        inst = gen_random(8, 60, seed=77)
        incumbent = rounded(inst, Problem.MATCHING, AXIS)
        with pytest.raises(SolveError, match="incumbent solves"):
            branch_and_bound(*relaxed(inst, problem, family), incumbent)

    def test_rejects_incumbent_with_wrong_k(self):
        inst = gen_random(8, 60, seed=77)
        model, root = relaxed(inst, Problem.MATCHING, AXIS)
        incumbent = iterated_rounding(model, root)
        lying = dataclasses.replace(incumbent, k=incumbent.k - 1)
        with pytest.raises(SolveError, match="incumbent claims"):
            branch_and_bound(model, root, lying)

    def test_rejects_infeasible_incumbent(self):
        inst = gen_random(8, 60, seed=77)
        model, root = relaxed(inst, Problem.MATCHING, AXIS)
        incumbent = iterated_rounding(model, root)
        partial = dataclasses.replace(incumbent, edges=incumbent.edges[1:])
        with pytest.raises(SolveError, match="perfect matching"):
            branch_and_bound(model, root, partial)

    @pytest.mark.parametrize(
        "problem, n", [(Problem.MATCHING, 10), (Problem.SPANNING_TREE, 8)]
    )
    def test_leaves_caller_model_unchanged(self, problem, n, monkeypatch):
        # seed 406 rounds above the root's ceiling at both sizes, so the
        # search solves nodes and grows its cut pool
        model, root = relaxed(gen_random(n, 100, seed=406), problem, AXIS)
        before = (
            model.lp,
            set(model.fixed_ones),
            set(model.fixed_zeros),
            set(model.cut_keys),
        )
        node_solves = []
        solve = minstab.solve.solve_relaxation

        def counted(work, *args):
            node_solves.append(work)
            return solve(work, *args)

        heuristic = iterated_rounding(model, root)
        monkeypatch.setattr(minstab.solve, "solve_relaxation", counted)
        exact = branch_and_bound(model, root, heuristic)
        assert exact.proven
        assert node_solves
        after = (
            model.lp,
            model.fixed_ones,
            model.fixed_zeros,
            model.cut_keys,
        )
        assert after == before
        assert model.lp is before[0]

    def test_rejects_model_with_fixings(self):
        model, root = relaxed(gen_random(8, 60, seed=77), Problem.MATCHING, AXIS)
        incumbent = iterated_rounding(model, root)
        fix_edge(model, incumbent.edges[0], 1)
        with pytest.raises(SolveError, match="without fixings"):
            branch_and_bound(model, root, incumbent)

    def test_value_independent_of_rerun(self):
        inst = gen_random(8, 60, seed=77)
        a = rounded_bnb(inst, Problem.MATCHING, AXIS)
        b = rounded_bnb(inst, Problem.MATCHING, AXIS)
        assert a.k == b.k
        assert a.edges == b.edges


class TestWarmResolves:
    def test_every_solve_after_the_root_warm_starts(self, monkeypatch):
        # gen_random(12, 100, 2) general tree: rounding fixes 11 edges and the
        # search solves nodes, each from its parent's basis
        solves = []
        solve = minstab.models.lp_solve

        def recorded(lp, warm_basis=None, **kwargs):
            result = solve(lp, warm_basis, **kwargs)
            solves.append((warm_basis, result))
            return result

        monkeypatch.setattr(minstab.models, "lp_solve", recorded)
        model, root = relaxed(gen_random(12, 100, 2), Problem.SPANNING_TREE, GENERAL)
        incumbent = iterated_rounding(model, root)
        before_search = len(solves)
        exact = branch_and_bound(model, root, incumbent)
        assert exact.proven
        assert len(solves) > before_search
        assert not solves[0][1].warm_started
        for warm, result in solves[1:]:
            assert warm is not None
            assert result.warm_started


class TestMinLengthMatching:
    def test_four_collinear(self):
        inst = Instance(
            "col4", (Point(0, 0), Point(1, 0), Point(2, 0), Point(3, 0))
        )
        sol = min_length_matching(inst, "euclidean")
        assert sol.edges == (Segment(0, 1), Segment(2, 3))
        assert sol.method is Method.MIN_LENGTH

    def test_unit_square_lexicographic_tie(self, unit_square):
        sol = min_length_matching(unit_square, "euclidean")
        assert sol.edges == (Segment(0, 1), Segment(2, 3))

    def test_two_points(self):
        inst = Instance("pair", (Point(0, 0), Point(5, 5)))
        sol = min_length_matching(inst, "euclidean")
        assert sol.edges == (Segment(0, 1),)

    def test_matches_oracle_totals(self):
        from minstab.geom import euclidean_total, manhattan_total
        from minstab.oracle import enum_perfect_matchings

        for seed in range(5):
            inst = gen_random(8, 50, seed=700 + seed)
            sol_e = min_length_matching(inst, "euclidean")
            best_e = min(
                euclidean_total(m, inst.points) for m in enum_perfect_matchings(8)
            )
            assert euclidean_total(sol_e.edges, inst.points) == pytest.approx(best_e)
            sol_m = min_length_matching(inst, "manhattan")
            best_m = min(
                manhattan_total(m, inst.points) for m in enum_perfect_matchings(8)
            )
            assert manhattan_total(sol_m.edges, inst.points) == best_m

    def test_odd_rejected(self, collinear3):
        with pytest.raises(SolveError):
            min_length_matching(collinear3, "euclidean")


class TestMinLengthTree:
    def test_three_collinear_path(self, collinear3):
        sol = min_length_tree(collinear3, "euclidean")
        assert sol.edges == (Segment(0, 1), Segment(1, 2))

    def test_unit_square_manhattan(self, unit_square):
        sol = min_length_tree(unit_square, "manhattan")
        from minstab.geom import manhattan_total

        assert manhattan_total(sol.edges, unit_square.points) == 3
        # lexicographic Kruskal picks the first three unit sides
        assert sol.edges == (Segment(0, 1), Segment(0, 2), Segment(1, 3))

    def test_two_points(self):
        inst = Instance("pair", (Point(0, 0), Point(4, 1)))
        sol = min_length_tree(inst, "euclidean")
        assert sol.edges == (Segment(0, 1),)

    def test_matches_oracle(self):
        from minstab.geom import euclidean_total
        from minstab.oracle import enum_spanning_trees

        for seed in range(4):
            inst = gen_random(6, 40, seed=800 + seed)
            sol = min_length_tree(inst, "euclidean")
            best = min(
                euclidean_total(t, inst.points) for t in enum_spanning_trees(6)
            )
            assert euclidean_total(sol.edges, inst.points) == pytest.approx(best)
