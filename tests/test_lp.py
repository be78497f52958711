import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from minstab import (
    LineFamily,
    build_matching_model,
    build_tree_model,
    gen_random,
    solve_relaxation,
)
from minstab.lp import (
    FEAS_TOL,
    OBJ_TOL,
    LinearProgram,
    LpError,
    LpStatus,
    lp_fix_variable,
    lp_solve,
    make_lp,
    make_row,
)


def k_example():
    """min k s.t. x1 + x2 = 1, x1 + x2 <= k."""
    return make_lp(
        3,
        {2: 1},
        [make_row({0: 1, 1: 1}, "=", 1), make_row({0: 1, 1: 1, 2: -1}, "<=", 0)],
    )


def scipy_solve(lp):
    """Reference solve of the same program with scipy's HiGHS."""
    n = lp.num_vars
    c = np.zeros(n)
    for j, v in lp.objective:
        c[j] = v
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for r in lp.rows:
        arr = np.zeros(n)
        for j, v in r.coeffs:
            arr[j] = v
        if r.rel == "<=":
            a_ub.append(arr)
            b_ub.append(r.rhs)
        elif r.rel == ">=":
            a_ub.append(-arr)
            b_ub.append(-r.rhs)
        else:
            a_eq.append(arr)
            b_eq.append(r.rhs)
    return linprog(
        c,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=b_ub or None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=b_eq or None,
        bounds=list(zip(lp.lo, lp.hi)),
        method="highs",
    )


class TestLpSolve:
    def test_simple_lower_bound(self):
        lp = make_lp(1, {0: 1}, [make_row({0: 1}, ">=", 3)])
        res = lp_solve(lp)
        assert res.status is LpStatus.OPTIMAL
        assert res.objective_value == pytest.approx(3)

    def test_k_example(self):
        res = lp_solve(k_example())
        assert res.status is LpStatus.OPTIMAL
        assert res.objective_value == pytest.approx(1)

    def test_infeasible(self):
        lp = make_lp(1, {}, [make_row({0: 1}, "<=", -1)])
        assert lp_solve(lp).status is LpStatus.INFEASIBLE

    def test_unbounded(self):
        lp = make_lp(1, {0: -1})
        assert lp_solve(lp).status is LpStatus.UNBOUNDED

    def test_no_rows_picks_bounds(self):
        lp = make_lp(2, {0: 1, 1: -1}, bounds=[(0, 4), (0, 4)])
        res = lp_solve(lp)
        assert res.primal == pytest.approx([0, 4])

    def test_objective_consistent_with_primal(self):
        res = lp_solve(k_example())
        coeffs = {2: 1}
        obj = sum(coeffs.get(j, 0) * v for j, v in enumerate(res.primal))
        assert abs(obj - res.objective_value) <= OBJ_TOL

    def test_feasibility_tolerances(self):
        lp = k_example()
        res = lp_solve(lp)
        x = res.primal
        assert abs(x[0] + x[1] - 1) <= FEAS_TOL
        assert x[0] + x[1] - x[2] <= FEAS_TOL
        for j, v in enumerate(x):
            assert lp.lo[j] - 1e-9 <= v <= lp.hi[j] + 1e-9


class TestExactMode:
    def test_returns_fractions(self):
        res = lp_solve(k_example(), exact=True)
        assert res.objective_value == Fraction(1)
        assert all(isinstance(v, Fraction) for v in res.primal)

    def test_agrees_with_float(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(1, 5)
            rows = []
            for _ in range(rng.randint(0, 5)):
                coeffs = {j: rng.randint(-3, 3) for j in range(n)}
                coeffs = {j: c for j, c in coeffs.items() if c}
                if not coeffs:
                    continue
                rows.append(
                    make_row(coeffs, rng.choice(["<=", ">=", "="]), rng.randint(-4, 4))
                )
            lp = make_lp(
                n,
                {j: rng.randint(-3, 3) for j in range(n)},
                rows,
                bounds=[(0, rng.choice([1, 3, math.inf])) for _ in range(n)],
            )
            a = lp_solve(lp)
            b = lp_solve(lp, exact=True)
            assert a.status is b.status
            if a.status is LpStatus.OPTIMAL:
                assert abs(a.objective_value - float(b.objective_value)) <= 1e-6

    def test_warm_start_from_float_basis(self):
        lp = k_example()
        res = lp_solve(lp)
        exact = lp_solve(lp, warm_basis=res.basis, exact=True)
        assert exact.status is LpStatus.OPTIMAL
        assert exact.objective_value == Fraction(1)


class TestAddRows:
    def test_non_binding_row_keeps_objective(self):
        lp = k_example()
        prior = lp_solve(lp)
        res = lp_solve(lp.with_rows([make_row({0: 1}, "<=", 5)]), warm_basis=prior.basis)
        assert res.objective_value == pytest.approx(prior.objective_value)

    def test_binding_row_matches_cold_solve(self):
        lp = k_example()
        prior = lp_solve(lp)
        row = make_row({0: 1}, ">=", 0.5)
        warm = lp_solve(lp.with_rows([row]), warm_basis=prior.basis)
        cold = lp_solve(lp.with_rows([row]))
        assert warm.status is LpStatus.OPTIMAL
        assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-6)
        assert warm.objective_value == pytest.approx(1)

    def test_contradictory_rows_infeasible(self):
        lp = k_example()
        prior = lp_solve(lp)
        rows = [make_row({0: 1}, ">=", 2), make_row({0: 1}, "<=", 1)]
        res = lp_solve(lp.with_rows(rows), warm_basis=prior.basis)
        assert res.status is LpStatus.INFEASIBLE


class TestDualReoptimize:
    def test_binding_row_reoptimizes_warm(self):
        lp = make_lp(2, {0: 1, 1: 2}, [make_row({0: 1, 1: 1}, ">=", 2)], [(0, 3), (0, 3)])
        prior = lp_solve(lp)
        assert prior.objective_value == pytest.approx(2)
        cut = lp.with_rows([make_row({0: 1}, "<=", 1)])
        warm = lp_solve(cut, warm_basis=prior.basis)
        cold = lp_solve(cut)
        assert warm.warm_started and not cold.warm_started
        assert warm.status is cold.status is LpStatus.OPTIMAL
        assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-9)
        assert warm.objective_value == pytest.approx(scipy_solve(cut).fun, abs=1e-9)
        assert warm.objective_value == pytest.approx(3)

    def test_nonbasic_at_upper_bound_is_restored(self):
        # x0 and x1 sit at their upper bound 1 at the optimum; put back at their
        # lower bound their reduced costs are dual infeasible and the warm start
        # could only fall back to a cold solve
        lp = make_lp(
            3,
            {0: -1, 1: -1, 2: -1},
            [make_row({0: 1, 1: 1, 2: 2}, "<=", 3)],
            [(0, 1)] * 3,
        )
        prior = lp_solve(lp)
        assert prior.objective_value == pytest.approx(-2.5)
        assert {0, 1} <= prior.basis.at_upper
        cut = lp.with_rows([make_row({2: 1}, "<=", 0.25)])
        warm = lp_solve(cut, warm_basis=prior.basis)
        assert warm.warm_started
        assert warm.objective_value == pytest.approx(-2.25)
        assert warm.primal == pytest.approx([1, 1, 0.25])

    def test_contradictory_rows_left_to_phase_one(self):
        lp = k_example()
        prior = lp_solve(lp)
        rows = [make_row({0: 1}, ">=", 2), make_row({0: 1}, "<=", 1)]
        res = lp_solve(lp.with_rows(rows), warm_basis=prior.basis)
        assert res.status is LpStatus.INFEASIBLE
        assert not res.warm_started

    def test_counts_pivots_on_both_paths(self):
        lp = k_example()
        for exact in (False, True):
            cold = lp_solve(lp, exact=exact)
            assert cold.pivots > 0 and not cold.warm_started
            again = lp_solve(lp, warm_basis=cold.basis, exact=exact)
            assert again.warm_started and again.pivots == 0

    def test_fuzz_rows_and_fixings_against_cold_and_scipy(self):
        rng = random.Random(2005)
        warm_optimal = optimal = 0
        for _ in range(200):
            n = rng.randint(2, 7)
            hi = [rng.choice([1, 2, 5]) for _ in range(n)]
            point = [rng.uniform(0, h) for h in hi]

            def random_row(feasible_at_point: bool):
                coeffs = {j: rng.randint(-4, 4) for j in range(n) if rng.random() < 0.7}
                coeffs = {j: c for j, c in coeffs.items() if c} or {0: 1}
                rel = rng.choice(["<=", ">="])
                if feasible_at_point:
                    act = sum(c * point[j] for j, c in coeffs.items())
                    rhs = math.floor(act) + 1 if rel == "<=" else math.ceil(act) - 1
                else:
                    rhs = rng.randint(-6, 6)
                return make_row(coeffs, rel, rhs)

            lp = make_lp(
                n,
                {j: rng.randint(-5, 5) for j in range(n)},
                [random_row(True) for _ in range(rng.randint(1, 6))],
                [(0, h) for h in hi],
            )
            prior = lp_solve(lp)
            assert prior.status is LpStatus.OPTIMAL
            changed = lp
            if rng.random() < 0.8:
                changed = changed.with_rows(
                    [random_row(False) for _ in range(rng.randint(1, 3))]
                )
            if changed is lp or rng.random() < 0.5:
                var = rng.randrange(n)
                changed = lp_fix_variable(changed, var, rng.choice([0, hi[var]]))
            warm = lp_solve(changed, warm_basis=prior.basis)
            cold = lp_solve(changed)
            ref = scipy_solve(changed)
            expected = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE}[ref.status]
            assert warm.status is cold.status is expected
            if expected is LpStatus.OPTIMAL:
                optimal += 1
                warm_optimal += warm.warm_started
                assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-6)
                assert warm.objective_value == pytest.approx(ref.fun, abs=1e-6)
        # the prior optimum stays dual feasible under added rows and fixings,
        # so no feasible case may fall back to a cold solve
        assert optimal > 50
        assert warm_optimal == optimal


class TestFixVariable:
    def test_fix_forces_value(self):
        lp = lp_fix_variable(k_example(), 0, 1)
        res = lp_solve(lp)
        assert res.primal[0] == pytest.approx(1)
        assert res.primal[1] == pytest.approx(0)
        assert res.objective_value == pytest.approx(1)

    def test_fix_twice_idempotent(self):
        lp = lp_fix_variable(k_example(), 0, 1)
        again = lp_fix_variable(lp, 0, 1)
        assert again.lo[0] == again.hi[0] == 1

    def test_fix_outside_bounds_errors(self):
        lp = make_lp(1, {}, bounds=[(0, 1)])
        with pytest.raises(LpError):
            lp_fix_variable(lp, 0, 2)


class TestWarmVsCold:
    def test_same_program_agrees(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(2, 6)
            rows = [
                make_row(
                    {j: rng.randint(1, 3) for j in rng.sample(range(n), k=min(2, n))},
                    rng.choice(["<=", ">="]),
                    rng.randint(1, 5),
                )
                for _ in range(rng.randint(1, 4))
            ]
            lp = make_lp(
                n,
                {j: rng.randint(0, 4) for j in range(n)},
                rows,
                bounds=[(0, rng.choice([1, 5, math.inf])) for _ in range(n)],
            )
            cold = lp_solve(lp)
            if cold.status is not LpStatus.OPTIMAL:
                continue
            warm = lp_solve(lp, warm_basis=cold.basis)
            assert warm.status is LpStatus.OPTIMAL
            assert abs(warm.objective_value - cold.objective_value) <= 1e-6


class TestAgainstScipy:
    def test_randomized(self):
        rng = random.Random(4242)
        for _ in range(150):
            n = rng.randint(1, 7)
            bounds = [
                (rng.choice([0, 0, 1]), rng.choice([1, 2, 5, math.inf]))
                for _ in range(n)
            ]
            bounds = [(lo, max(lo, hi)) for lo, hi in bounds]
            obj = {j: rng.randint(-5, 5) for j in range(n)}
            rows = []
            for _ in range(rng.randint(0, 7)):
                coeffs = {
                    j: rng.randint(-4, 4) for j in range(n) if rng.random() < 0.7
                }
                coeffs = {j: c for j, c in coeffs.items() if c}
                if coeffs:
                    rows.append(
                        make_row(
                            coeffs, rng.choice(["<=", ">=", "="]), rng.randint(-6, 6)
                        )
                    )
            lp = make_lp(n, obj, rows, bounds)
            mine = lp_solve(lp)

            ref = scipy_solve(lp)
            expected = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}[
                ref.status
            ]
            assert mine.status is expected
            if expected is LpStatus.OPTIMAL:
                assert mine.objective_value == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)


class TestRatioTestStability:
    @pytest.mark.parametrize("build", [build_matching_model, build_tree_model])
    def test_general_lines_n24(self, build):
        # many rows tie in the ratio test on this instance; taking the lowest
        # basis index among them picked pivots as small as 1e-8 and the
        # tableau drifted until the row check at the optimum failed
        model = build(gen_random(24, 100, seed=6), LineFamily.GENERAL)
        res = solve_relaxation(model)
        ref = scipy_solve(model.lp)
        assert ref.status == 0
        assert res.k_frac == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)


class TestValidation:
    def test_bad_bounds(self):
        with pytest.raises(LpError):
            make_lp(1, {}, bounds=[(2, 1)])

    def test_bad_index(self):
        with pytest.raises(LpError):
            make_lp(1, {}, [make_row({3: 1}, "<=", 0)])

    def test_bad_relation(self):
        with pytest.raises(LpError):
            make_row({0: 1}, "<", 0)
