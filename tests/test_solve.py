import dataclasses
import math
import random
from fractions import Fraction
from types import SimpleNamespace

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
from minstab.lp import OBJ_TOL, LinearProgram
from minstab.models import ModelError, fix_edges
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


def forest_components(n, edges):
    """Each vertex's component label in the forest of these edges."""
    label = list(range(n))
    for _ in range(n):
        for e in edges:
            label[e.a] = label[e.b] = min(label[e.a], label[e.b])
    return label


class TestDeadEdges:
    @pytest.mark.parametrize("seed", range(1, 7))
    def test_every_free_tree_edge_joins_two_components(self, seed):
        # once _dead_edges are fixed to zero no free edge lies inside a
        # component of the fixed forest, so the edge rounding picks and the
        # edge branching fixes to one never close a cycle
        rng = random.Random(seed)
        inst = gen_random(9, 100, seed)
        model = build_model(inst, Problem.SPANNING_TREE, GENERAL)
        assert minstab.solve._dead_edges(model, ()) == set()  # nothing to fix yet
        ones, zeros = [], set()
        for e in rng.sample(model.edges, len(model.edges)):
            label = forest_components(inst.n, ones)
            if len(ones) < inst.n // 2 and rng.random() < 0.25 and label[e.a] != label[e.b]:
                ones.append(e)
            elif rng.random() < 0.1:
                zeros.add(e)
        # as a branch-and-bound node fixes them: the edges about to be fixed
        # to one count as fixed, and one fix_edges call takes them all
        dead = minstab.solve._dead_edges(model, ones)
        assert not dead & (zeros | set(ones))
        fix_edges(model, ones, zeros | dead)
        assert minstab.solve._dead_edges(model, ()) == set()
        label = forest_components(inst.n, ones)
        assert model.fixed_ones == set(ones)
        assert all(label[e.a] == label[e.b] for e in model.fixed_zeros - zeros)
        free = [e for e in model.edges if e not in model.fixed_ones | model.fixed_zeros]
        assert free and all(label[e.a] != label[e.b] for e in free)
        x = {e: rng.random() for e in model.edges}
        pick = minstab.solve._pick_edge(model, x, Problem.SPANNING_TREE)
        assert pick in free and x[pick] == max(x[e] for e in free)


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

    def test_expired_search_still_proves_an_incumbent_at_the_bound(self, monkeypatch):
        # the clock passes the deadline right after the search sets it; the
        # root's bound, ceil 2, still proves an incumbent with k = 2 optimal,
        # while one with k = 3 comes back unproven without a node solve
        inst = gen_random(10, 100, 1)
        model, root = relaxed(inst, Problem.MATCHING, AXIS)
        assert math.ceil(root.k_frac - OBJ_TOL) == 2
        at_bound, above = iterated_rounding(model, root), min_length_matching(inst, AXIS)
        assert (at_bound.k, above.k) == (2, 3)
        for incumbent, proven in ((at_bound, True), (above, False)):
            clock = iter([0.0])
            expired = SimpleNamespace(monotonic=lambda: next(clock, 10.0))
            monkeypatch.setattr(minstab.solve, "time", expired)
            monkeypatch.setattr(minstab.solve, "solve_relaxation", None)  # no node may solve
            sol = branch_and_bound(model, root, incumbent, time_limit=1)
            assert (sol.k, sol.edges, sol.proven) == (incumbent.k, incumbent.edges, proven)
            assert next(clock, None) is None  # the search set its deadline

    def test_negative_time_limit_raises(self, unit_square):
        with pytest.raises(SolveError, match="time limit -5 ms is negative"):
            rounded_bnb(unit_square, Problem.MATCHING, AXIS, time_limit=-5)

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
            model.lp.keys,
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
            model.lp.keys,
        )
        assert after == before
        assert model.lp is before[0]

    def test_rejects_model_with_fixings(self):
        model, root = relaxed(gen_random(8, 60, seed=77), Problem.MATCHING, AXIS)
        incumbent = iterated_rounding(model, root)
        fix_edges(model, ones=[incumbent.edges[0]])
        with pytest.raises(SolveError, match="without fixings"):
            branch_and_bound(model, root, incumbent)

    @pytest.mark.parametrize("value", [0, 1])
    def test_rejects_model_whose_bounds_pin_an_edge(self, value):
        # a fixing is an edge bound: one set through with_bounds alone counts
        model, root = relaxed(gen_random(8, 60, seed=77), Problem.MATCHING, AXIS)
        incumbent = iterated_rounding(model, root)
        idx = model.edge_index[incumbent.edges[0]]
        model.lp = model.lp.with_bounds({idx: (value, value)})
        assert not model.free_edges[idx]
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


def record_lifecycle(monkeypatch):
    """The search's and rounding's steps, in order: ("bounds", variables) for
    each LinearProgram.with_bounds call, ("solve", keys before, keys after)
    for each solve_relaxation call that solve makes, with after None when it
    raises."""
    events = []
    with_bounds = LinearProgram.with_bounds
    solve = minstab.solve.solve_relaxation

    def recorded_bounds(lp, bounds):
        events.append(("bounds", frozenset(bounds)))
        return with_bounds(lp, bounds)

    def recorded_solve(work, *args):
        before = work.lp.keys
        events.append(["solve", before, None])
        result = solve(work, *args)
        events[-1][2] = work.lp.keys
        return result

    monkeypatch.setattr(LinearProgram, "with_bounds", recorded_bounds)
    monkeypatch.setattr(minstab.solve, "solve_relaxation", recorded_solve)
    return events


class TestLifecycle:
    def test_a_rounding_step_fixes_in_one_copy(self, monkeypatch):
        # gen_random(12, 100, 2) general tree: rounding fixes 11 edges, each
        # with its dead edges in one fix_edges call; refinement's k cap is the
        # only other bound change
        model, root = relaxed(gen_random(12, 100, 2), Problem.SPANNING_TREE, GENERAL)
        events = record_lifecycle(monkeypatch)
        steps = []
        sol = iterated_rounding(model, root, on_iteration=steps.append)
        fixings = [e for e in events if e[0] == "solve" or model.k_index not in e[1]]
        kinds = [e[0] for e in fixings]
        assert kinds == ["bounds", "solve"] * (len(steps) - 1) + ["bounds"]
        assert len(steps) == len(sol.edges) == 11
        for step, (_, fixed) in zip(steps, fixings[::2]):
            assert model.edge_index[step["chosen"]] in fixed
        assert sum(len(fixed) for _, fixed in fixings[::2]) > len(steps)  # dead edges too

    @pytest.mark.parametrize("problem, n", [(Problem.MATCHING, 10), (Problem.SPANNING_TREE, 8)])
    def test_a_node_fixes_in_one_copy_and_hands_its_rows_to_the_pool(
        self, monkeypatch, problem, n
    ):
        # seed 406 rounds above the root's ceiling at both sizes, so the
        # search solves nodes
        model, root = relaxed(gen_random(n, 100, seed=406), problem, AXIS)
        incumbent = iterated_rounding(model, root)
        events = record_lifecycle(monkeypatch)
        assert branch_and_bound(model, root, incumbent).proven
        solves = events[1::2]
        assert solves and [e[0] for e in events] == ["bounds", "solve"] * len(solves)
        # each node starts from the pool: the root's keys and every key the
        # nodes before it appended, none lost
        assert solves[0][1] == model.lp.keys
        for (_, before, after), (_, following, _) in zip(solves, solves[1:]):
            assert following == (before if after is None else after)
            assert after is None or after >= before
        assert any(after is not None and after > before for _, before, after in solves)


def rounding_pivots(monkeypatch, inst, problem, family, *, warm_refinement):
    """Float pivots of iterated rounding on inst and the rounded solution;
    without warm_refinement every refinement starts from the k basis."""
    pivots = []
    solve = minstab.models.lp_solve
    refine = minstab.solve.lexicographic_refine

    def recorded(lp, warm_basis=None, **kwargs):
        result = solve(lp, warm_basis, **kwargs)
        pivots.append(result.pivots)
        return result

    def from_k_basis(model, result, length_basis=None):
        return refine(model, result)

    model, root = relaxed(inst, problem, family)
    with monkeypatch.context() as patch:
        patch.setattr(minstab.models, "lp_solve", recorded)
        if not warm_refinement:
            patch.setattr(minstab.solve, "lexicographic_refine", from_k_basis)
        sol = iterated_rounding(model, root)
    return sum(pivots), sol


class TestWarmRefinement:
    @pytest.mark.parametrize(
        "n, seed, problem",
        [(12, 2, Problem.SPANNING_TREE), (16, 1, Problem.MATCHING)],
    )
    def test_each_refinement_starts_from_the_previous_one(
        self, monkeypatch, n, seed, problem
    ):
        solves = []
        refinements = []  # (length_basis offered, its first solve, refined basis)
        solve = minstab.models.lp_solve
        refine = minstab.solve.lexicographic_refine

        def recorded_solve(lp, warm_basis=None, **kwargs):
            result = solve(lp, warm_basis, **kwargs)
            solves.append((warm_basis, result))
            return result

        def recorded_refine(model, result, length_basis=None):
            start = len(solves)
            refined = refine(model, result, length_basis)
            refinements.append((length_basis, solves[start], refined.basis))
            return refined

        monkeypatch.setattr(minstab.models, "lp_solve", recorded_solve)
        monkeypatch.setattr(minstab.solve, "lexicographic_refine", recorded_refine)
        iterated_rounding(*relaxed(gen_random(n, 100, seed), problem, GENERAL))
        assert len(refinements) > 2
        assert refinements[0][0] is None
        for (_, _, previous), (offered, (warm, first), _) in zip(refinements, refinements[1:]):
            assert offered is previous
            assert warm is previous
            assert first.warm_started

    @pytest.mark.parametrize("n", [12, 16])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_same_rounding_as_refining_from_the_k_basis(self, monkeypatch, n, seed):
        inst = gen_random(n, 100, seed)
        for problem in (Problem.MATCHING, Problem.SPANNING_TREE):
            for family in (AXIS, GENERAL):
                _, warm = rounding_pivots(monkeypatch, inst, problem, family, warm_refinement=True)
                _, cold = rounding_pivots(monkeypatch, inst, problem, family, warm_refinement=False)
                assert warm.edges == cold.edges
                assert warm.k == cold.k

    def test_warm_refinement_takes_fewer_pivots(self, monkeypatch):
        inst = gen_random(16, 100, 1)
        warm, _ = rounding_pivots(monkeypatch, inst, Problem.MATCHING, GENERAL, warm_refinement=True)
        cold, _ = rounding_pivots(monkeypatch, inst, Problem.MATCHING, GENERAL, warm_refinement=False)
        assert warm < cold


class TestSearchStabbingRows:
    def test_nodes_add_rows_the_pool_keeps_without_duplicates(self, monkeypatch):
        # gen_random(12, 100, 2) general tree: the search solves nodes whose
        # fixings violate stabbing rows the root never needed
        model, root = relaxed(gen_random(12, 100, 2), Problem.SPANNING_TREE, GENERAL)
        incumbent = iterated_rounding(model, root)
        nodes = []
        solve = minstab.solve.solve_relaxation

        def recorded(work, *args):
            start = work.lp.rows
            result = solve(work, *args)
            nodes.append((start, work.lp.rows, result))
            return result

        monkeypatch.setattr(minstab.solve, "solve_relaxation", recorded)
        assert branch_and_bound(model, root, incumbent).proven
        assert any(result.stab_rows_added for _, _, result in nodes)
        for _, rows, _ in nodes:
            assert len(set(rows)) == len(rows)
        # each node starts from the pool, which holds every row found before
        for (_, before, _), (start, _, _) in zip(nodes, nodes[1:]):
            assert start == before


def odd_clusters(seed):
    """Two clusters of 3 or 5 points in a box 4 to 16 units wide, 2**20 to
    2**30 apart."""
    rng = random.Random(seed)
    size = rng.choice((3, 5))
    width = rng.randint(4, 16)
    gap = 2 ** rng.randint(20, 30)
    pts = []
    for cx, cy in ((0, 0), (gap, rng.randrange(-gap, gap))):
        cells = rng.sample(range(width * width), size)
        pts += [Point(cx + v // width, cy + v % width) for v in cells]
    return tuple(pts)


class TestMinLengthMatching:
    def test_four_collinear(self):
        inst = Instance(
            "col4", (Point(0, 0), Point(1, 0), Point(2, 0), Point(3, 0))
        )
        sol = min_length_matching(inst, GENERAL)
        assert sol.edges == (Segment(0, 1), Segment(2, 3))
        assert sol.method is Method.MIN_LENGTH

    def test_unit_square_lexicographic_tie(self, unit_square):
        sol = min_length_matching(unit_square, GENERAL)
        assert sol.edges == (Segment(0, 1), Segment(2, 3))

    def test_two_points(self):
        inst = Instance("pair", (Point(0, 0), Point(5, 5)))
        sol = min_length_matching(inst, GENERAL)
        assert sol.edges == (Segment(0, 1),)

    def test_matches_oracle_totals(self):
        from minstab.geom import euclidean_total, manhattan_total
        from minstab.oracle import enum_perfect_matchings

        for seed in range(5):
            inst = gen_random(8, 50, seed=700 + seed)
            sol_e = min_length_matching(inst, GENERAL)
            best_e = min(
                euclidean_total(m, inst.points) for m in enum_perfect_matchings(8)
            )
            assert euclidean_total(sol_e.edges, inst.points) == pytest.approx(best_e)
            sol_m = min_length_matching(inst, AXIS)
            best_m = min(
                manhattan_total(m, inst.points) for m in enum_perfect_matchings(8)
            )
            assert manhattan_total(sol_m.edges, inst.points) == best_m

    def test_odd_rejected(self, collinear3):
        with pytest.raises(SolveError):
            min_length_matching(collinear3, GENERAL)

    @pytest.mark.parametrize("family", [AXIS, GENERAL])
    def test_exact_recheck_of_a_fractional_optimum(self, monkeypatch, family):
        # the first float optimum reads as fractional: the loop runs again in
        # exact mode, warm from that optimum's basis, and the matching is the
        # unpatched run's
        inst = gen_random(10, 100, seed=3)
        expected = min_length_matching(inst, family)
        integral, reads = minstab.solve._integral, []

        def fractional_once(x):
            reads.append(x)
            return None if len(reads) == 1 else integral(x)

        solve, exact_solves = minstab.models.lp_solve, []

        def recorded(lp, warm_basis=None, **kwargs):
            result = solve(lp, warm_basis, **kwargs)
            if kwargs.get("exact"):
                exact_solves.append((warm_basis, result))
            return result

        monkeypatch.setattr(minstab.solve, "_integral", fractional_once)
        monkeypatch.setattr(minstab.models, "lp_solve", recorded)
        sol = min_length_matching(inst, family)
        assert sol == expected
        assert len(reads) == 2 and all(isinstance(v, Fraction) for v in reads[1].values())
        assert exact_solves and all(warm is not None for warm, _ in exact_solves)
        assert exact_solves[0][1].warm_started and exact_solves[0][1].pivots == 0
        # an optimum that stays fractional gives up
        monkeypatch.setattr(minstab.solve, "_integral", lambda x: None)
        with pytest.raises(SolveError, match="stayed fractional after exact re-check"):
            min_length_matching(inst, family)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_enumeration_at_large_coordinates(self, seed):
        # lengths near 2**32 against the solver's absolute tolerances
        rng = random.Random(seed)
        lo, hi = (2**30, 2**31) if seed % 2 == 0 else (-(2**31) + 1, 2**31)
        assert_shortest_matching(
            tuple(Point(rng.randrange(lo, hi), rng.randrange(lo, hi)) for _ in range(8))
        )

    @pytest.mark.parametrize("far", [10**6, 2**31 - 1])
    def test_matches_enumeration_with_a_far_pair(self, far):
        # the optimum, 3, is far below the longest length: a cap slack in
        # scaled units would admit {01, 23, 45}, 2*sqrt(2) + 1 long
        assert_shortest_matching(
            (Point(0, 0), Point(1, 1), Point(1, 0), Point(0, 1), Point(far, 0), Point(far, 1))
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_enumeration_for_clusters_far_apart(self, seed):
        # two clusters of 4 points in a 4 x 4 box, 2**30 or more apart: edges
        # a few units long decide the optimum against lengths near 2**31
        rng = random.Random(seed)
        centers = ((0, 0), (2**30, 0)) if seed % 2 == 0 else ((-(2**30), -(2**30)), (2**30, 2**30))
        pts = []
        for cx, cy in centers:
            pts += rng.sample([Point(cx + dx, cy + dy) for dx in range(4) for dy in range(4)], 4)
        assert_shortest_matching(tuple(pts))

    @pytest.mark.parametrize("seed", range(100))
    def test_within_obj_tol_of_the_minimum_for_odd_clusters(self, seed):
        # two clusters of an odd number of points force one long edge, and
        # which pair it joins changes the total by a few units in 2**20 to
        # 2**31: the lexicographic cap admits every matching within OBJ_TOL
        # relative of the minimum
        from minstab.geom import euclidean_total
        from minstab.oracle import enum_perfect_matchings

        pts = odd_clusters(seed)
        sol = min_length_matching(Instance("pts", pts), GENERAL)
        best = min(euclidean_total(m, pts) for m in enum_perfect_matchings(len(pts)))
        length = euclidean_total(sol.edges, pts)
        assert best * (1 - 1e-12) <= length <= best + OBJ_TOL * max(1.0, best) * (1 + 1e-12)


def assert_shortest_matching(pts):
    """min_length_matching's total length is the least over every perfect
    matching of pts, within 1e-12 relative."""
    from minstab.geom import euclidean_total
    from minstab.oracle import enum_perfect_matchings

    sol = min_length_matching(Instance("pts", pts), GENERAL)
    best = min(euclidean_total(m, pts) for m in enum_perfect_matchings(len(pts)))
    assert euclidean_total(sol.edges, pts) == pytest.approx(best, rel=1e-12)


class TestMinLengthTree:
    def test_three_collinear_path(self, collinear3):
        sol = min_length_tree(collinear3, GENERAL)
        assert sol.edges == (Segment(0, 1), Segment(1, 2))

    def test_unit_square_manhattan(self, unit_square):
        sol = min_length_tree(unit_square, AXIS)
        from minstab.geom import manhattan_total

        assert manhattan_total(sol.edges, unit_square.points) == 3
        # lexicographic Kruskal picks the first three unit sides
        assert sol.edges == (Segment(0, 1), Segment(0, 2), Segment(1, 3))

    def test_two_points(self):
        inst = Instance("pair", (Point(0, 0), Point(4, 1)))
        sol = min_length_tree(inst, GENERAL)
        assert sol.edges == (Segment(0, 1),)

    def test_matches_oracle(self):
        from minstab.geom import euclidean_total
        from minstab.oracle import enum_spanning_trees

        for seed in range(4):
            inst = gen_random(6, 40, seed=800 + seed)
            sol = min_length_tree(inst, GENERAL)
            best = min(
                euclidean_total(t, inst.points) for t in enum_spanning_trees(6)
            )
            assert euclidean_total(sol.edges, inst.points) == pytest.approx(best)
