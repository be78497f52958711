import math
from fractions import Fraction
from itertools import combinations

import pytest
from test_lp import scipy_solve

import minstab.models as models
from minstab import (
    Instance,
    LineFamily,
    Point,
    Segment,
    build_matching_model,
    build_tree_model,
    certify_relaxation,
    gen_random,
    lexicographic_refine,
    solve_relaxation,
)
from minstab.cuts import SUPPORT_EPS
from minstab.geom import StabLine, is_crossing_pair, representative_lines, stabs
from minstab.lp import NO_BASIS, LpResult, LpStatus
from minstab.models import (
    InfeasibleRelaxationError,
    ModelError,
    cut_key,
    fix_edge,
)

AXIS = LineFamily.AXIS_PARALLEL
GENERAL = LineFamily.GENERAL


def stab_row_of(model):
    """The model's stabbing rows, one per representative line, in line order;
    they follow the degree rows (matching) or the total row (tree)."""
    lines = representative_lines(model.inst.points, model.family)
    rows = [r for r in model.lp.rows if r.rel == "<="]
    assert len(rows) == len(lines)
    return dict(zip(lines, rows))


def min_odd_cut(x, n):
    """Independent oracle: smallest odd-set cut value by enumeration."""
    return min(
        sum(w for e, w in x.items() if (e.a in members) != (e.b in members))
        for size in range(1, n, 2)
        for members in map(set, combinations(range(n), size))
    )


class TestBuildMatchingModel:
    def test_unit_square_structure(self, unit_square):
        model = build_matching_model(unit_square, AXIS)
        assert model.lp.num_vars == 7  # 6 edges + k
        assert len(stab_row_of(model)) == 4
        degree_rows = [r for r in model.lp.rows if r.rel == "="]
        stab_rows = [r for r in model.lp.rows if r.rel == "<="]
        assert len(degree_rows) == 4
        assert len(stab_rows) == 4

    def test_two_points(self):
        inst = Instance("pair", (Point(0, 0), Point(5, 3)))
        model = build_matching_model(inst, AXIS)
        assert model.lp.num_vars == 2
        res = solve_relaxation(model)
        assert res.x[Segment(0, 1)] == pytest.approx(1)

    def test_stab_row_supports_match_predicate(self, unit_square):
        for family in (AXIS, GENERAL):
            model = build_matching_model(unit_square, family)
            for line, row in stab_row_of(model).items():
                support = {idx for idx, coef in row.coeffs if coef == 1}
                expected = {
                    i
                    for i, e in enumerate(model.edges)
                    if stabs(line, e, unit_square.points)
                }
                assert support == expected
                assert dict(row.coeffs)[model.k_index] == -1

    def test_x0_row_support(self, unit_square):
        model = build_matching_model(unit_square, AXIS)
        line = StabLine.vertical(0)
        support = {
            model.edges[i]
            for i, coef in stab_row_of(model)[line].coeffs
            if i != model.k_index
        }
        assert support == {
            Segment(0, 1),
            Segment(0, 2),
            Segment(0, 3),
            Segment(1, 2),
            Segment(2, 3),
        }

    def test_odd_n_rejected(self, collinear3):
        with pytest.raises(ModelError):
            build_matching_model(collinear3, AXIS)


class TestBuildTreeModel:
    def test_three_collinear(self, collinear3):
        model = build_tree_model(collinear3, AXIS)
        assert model.lp.num_vars == 4  # 3 edges + k
        total = [r for r in model.lp.rows if r.rel == "="]
        assert len(total) == 1
        assert total[0].rhs == 2

    def test_unit_square_total(self, unit_square):
        model = build_tree_model(unit_square, AXIS)
        total = [r for r in model.lp.rows if r.rel == "="][0]
        assert total.rhs == 3
        assert len([i for i, _ in total.coeffs]) == 6

    def test_single_point_rejected(self):
        inst = Instance("one", (Point(0, 0),))
        with pytest.raises(ModelError):
            build_tree_model(inst, AXIS)


class TestSolveRelaxation:
    def test_unit_square_value(self, unit_square):
        model = build_matching_model(unit_square, AXIS)
        res = solve_relaxation(model)
        assert res.k_frac == pytest.approx(1.5, abs=1e-6)
        sides = [Segment(0, 1), Segment(0, 2), Segment(1, 3), Segment(2, 3)]
        for e in sides:
            assert res.x[e] == pytest.approx(0.5, abs=1e-6)

    def test_unit_square_exact_value(self, unit_square):
        model = build_matching_model(unit_square, AXIS)
        res = solve_relaxation(model)
        assert certify_relaxation(model, res) == Fraction(3, 2)

    def test_two_point_matching(self):
        inst = Instance("pair", (Point(0, 0), Point(7, 2)))
        model = build_matching_model(inst, GENERAL)
        assert solve_relaxation(model).k_frac == pytest.approx(1)

    def test_two_far_triangles_needs_blossoms(self):
        pts = (
            Point(0, 0), Point(2, 0), Point(1, 2),
            Point(100, 100), Point(102, 100), Point(101, 102),
        )
        inst = Instance("tri2", pts)
        model = build_matching_model(inst, AXIS)
        res = solve_relaxation(model)
        assert res.cuts_added >= 1
        # final x satisfies every odd-set inequality
        assert min_odd_cut(res.x, 6) >= 1 - 1e-6

    def test_infeasible_fixings_carry_sets(self, unit_square):
        model = build_matching_model(unit_square, AXIS)
        fix_edge(model, Segment(0, 1), 1)
        fix_edge(model, Segment(0, 2), 1)  # vertex 0 twice: infeasible
        with pytest.raises(InfeasibleRelaxationError) as err:
            solve_relaxation(model)
        assert Segment(0, 1) in err.value.fixed_ones

    def test_relaxation_bounds_integral_optimum(self):
        from minstab.oracle import Objective, brute_optimum
        from minstab.instance import Problem

        for seed in range(5):
            inst = gen_random(8, 60, seed=seed)
            for fam in (AXIS, GENERAL):
                model = build_matching_model(inst, fam)
                res = solve_relaxation(model)
                opt, _ = brute_optimum(inst, Problem.MATCHING, fam, Objective.STABBING)
                assert res.k_frac <= opt + 1e-6
                assert math.ceil(res.k_frac - 1e-6) <= opt

    def test_odd_set_hidden_from_equivalent_flow_tree(self):
        # the first LP optimum has the odd set {1, 4, 7} at cut value 1/2,
        # which a tree with only the pairwise flow values fails to expose;
        # missing it reported k_frac = 7/4
        inst = gen_random(10, 100, seed=74)
        model = build_matching_model(inst, AXIS)
        res = solve_relaxation(model)
        assert res.k_frac == pytest.approx(2, abs=1e-6)
        assert min_odd_cut(res.x, inst.n) >= 1 - 1e-7
        assert certify_relaxation(model, res) == Fraction(2)

    def test_lp_optima_satisfy_every_odd_set_inequality(self):
        for n in (8, 10, 12):
            for seed in range(8):
                inst = gen_random(n, 100, seed=seed)
                for family in (AXIS, GENERAL):
                    model = build_matching_model(inst, family)
                    res = solve_relaxation(model)
                    assert min_odd_cut(res.x, n) >= 1 - 1e-7, (n, seed, family)
                    refined = lexicographic_refine(model, res)
                    assert min_odd_cut(refined.x, n) >= 1 - 1e-7, (n, seed, family)


class TestWarmReoptimization:
    @pytest.mark.parametrize(
        "build, seed", [(build_matching_model, 1), (build_tree_model, 4)]
    )
    def test_every_round_after_a_cut_starts_warm(self, monkeypatch, build, seed):
        results = []
        real = models.lp_solve

        def spy(lp, warm_basis=None, **kwargs):
            res = real(lp, warm_basis, **kwargs)
            results.append(res)
            return res

        monkeypatch.setattr(models, "lp_solve", spy)
        model = build(gen_random(24, 100, seed), GENERAL)
        relax = solve_relaxation(model)
        assert relax.lp_iterations == len(results) >= 2
        assert not results[0].warm_started
        assert all(r.warm_started for r in results[1:])
        ref = scipy_solve(model.lp)
        assert ref.status == 0
        assert relax.k_frac == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)


class TestLexicographicRefine:
    def test_unit_square_no_diagonals(self, unit_square):
        model = build_matching_model(unit_square, AXIS)
        res = solve_relaxation(model)
        refined = lexicographic_refine(model, res)
        assert refined.k_frac == pytest.approx(res.k_frac)
        assert refined.x[Segment(0, 3)] == pytest.approx(0, abs=1e-7)
        assert refined.x[Segment(1, 2)] == pytest.approx(0, abs=1e-7)

    def test_integral_optimum_unchanged(self):
        inst = Instance("pair", (Point(0, 0), Point(3, 1)))
        model = build_matching_model(inst, AXIS)
        res = solve_relaxation(model)
        refined = lexicographic_refine(model, res)
        assert refined.x[Segment(0, 1)] == pytest.approx(1)

    @pytest.mark.parametrize("family", [AXIS, GENERAL])
    def test_no_crossing_support_on_random_instances(self, family):
        for seed in range(12):
            inst = gen_random(8, 50, seed=100 + seed)
            model = build_matching_model(inst, family)
            refined = lexicographic_refine(model, solve_relaxation(model))
            support = [e for e, w in refined.x.items() if w > SUPPORT_EPS]
            for i, e in enumerate(support):
                for f in support[i + 1 :]:
                    assert not is_crossing_pair(e, f, inst.points)

    def _report_infeasible_once(self, monkeypatch, model):
        """Make the next solve of a program without k's objective come back
        infeasible; returns the injected calls, and the (warm_basis, result)
        pairs of the k-program solves that follow them."""
        real = models.lp_solve
        k_objective = model.lp.objective
        injected, k_solves = [], []

        def spy(lp, warm_basis=None, **kwargs):
            if lp.objective != k_objective and not injected:
                injected.append(lp)
                return LpResult(LpStatus.INFEASIBLE, None, [], NO_BASIS)
            result = real(lp, warm_basis, **kwargs)
            if injected and lp.objective == k_objective:
                k_solves.append((warm_basis, result))
            return result

        monkeypatch.setattr(models, "lp_solve", spy)
        return injected, k_solves

    def _assert_k_program_kept(self, model, built, refined):
        # k's objective and bounds are back, the rows only grew, and every
        # row past the built ones is a cut the model keys
        assert model.lp.objective == built.objective
        assert (model.lp.lo, model.lp.hi) == (built.lo, built.hi)
        assert model.lp.rows[: len(built.rows)] == built.rows
        assert len(model.cut_keys) == len(model.lp.rows) - len(built.rows)
        assert refined.cuts_added > 0

    def test_keeps_k_program_and_its_cuts(self, monkeypatch):
        # at this seed the length program finds blossom cuts phase 1 missed
        inst = gen_random(8, 100, seed=5)
        model = build_matching_model(inst, AXIS)
        built = model.lp
        root = solve_relaxation(model)
        before = len(model.lp.rows)
        refined = lexicographic_refine(model, root)
        self._assert_k_program_kept(model, built, refined)
        assert len(model.lp.rows) == before + refined.cuts_added

        # retry path: the first length solve reports infeasible, so phase 1
        # is re-solved on the k program before the length program runs again
        model = build_matching_model(inst, AXIS)
        root = solve_relaxation(model)
        injected, k_solves = self._report_infeasible_once(monkeypatch, model)
        retried = lexicographic_refine(model, root)
        assert len(injected) == 1
        # the retry re-solves the k program warm, from the basis it was given
        assert k_solves and k_solves[0][0] is root.basis
        assert all(result.warm_started for _, result in k_solves)
        self._assert_k_program_kept(model, built, retried)
        assert retried.k_frac == pytest.approx(root.k_frac)
        assert retried.x == pytest.approx(refined.x)

    def test_restores_k_program_when_retry_raises(self):
        model = build_matching_model(gen_random(8, 100, seed=5), AXIS)
        root = solve_relaxation(model)
        fix_edge(model, Segment(0, 1), 1)
        fix_edge(model, Segment(0, 2), 1)  # vertex 0 twice: infeasible
        fixed = model.lp
        with pytest.raises(InfeasibleRelaxationError):
            lexicographic_refine(model, root)
        assert model.lp == fixed

    def test_heavy_edge_bounds(self):
        for seed in range(8):
            inst = gen_random(8, 50, seed=200 + seed)
            m = build_matching_model(inst, AXIS)
            rm = lexicographic_refine(m, solve_relaxation(m))
            assert max(rm.x.values()) >= 0.2 - 1e-6
            t = build_tree_model(inst, AXIS)
            rt = lexicographic_refine(t, solve_relaxation(t))
            assert max(rt.x.values()) >= 1 / 3 - 1e-6


class TestCutKey:
    def test_complement_collapses(self):
        assert cut_key(frozenset({0, 1}), 6) == cut_key(frozenset({2, 3, 4, 5}), 6)

    def test_balanced_tie_uses_zero_side(self):
        key = cut_key(frozenset({2, 3}), 4)
        assert key == frozenset({0, 1})


class TestFixEdge:
    def test_fix_reflected_in_bounds(self, unit_square):
        model = build_matching_model(unit_square, AXIS)
        e = Segment(0, 1)
        fix_edge(model, e, 1)
        idx = model.edge_index[e]
        assert model.lp.lo[idx] == model.lp.hi[idx] == 1
        res = solve_relaxation(model)
        assert res.x[e] == pytest.approx(1)
        assert res.x[Segment(2, 3)] == pytest.approx(1)
        assert res.k_frac == pytest.approx(2)

    def test_bad_value_rejected(self, unit_square):
        model = build_matching_model(unit_square, AXIS)
        with pytest.raises(ModelError):
            fix_edge(model, Segment(0, 1), 2)
