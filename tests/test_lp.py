import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

import minstab.lp
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
    Basis,
    LinearProgram,
    LpError,
    LpStatus,
    Row,
    _ExactCheck,
    _FloatSimplex,
    _State,
    lp_solve,
    make_lp,
)
from minstab.models import ModelError, cut_row, fix_edges, stab_rows


def rows_block(num_vars, specs):
    """Rows and their float64 coefficient block from (coefficients, rel, rhs)
    specs, each coefficients a {variable: value} dict."""
    block = np.zeros((len(specs), num_vars))
    for i, (coeffs, _, _) in enumerate(specs):
        for j, value in coeffs.items():
            block[i, j] = value
    return [Row(rel, rhs) for _, rel, rhs in specs], block


def program(num_vars, objective, specs=(), bounds=None):
    """The program of these row specs (see rows_block)."""
    return make_lp(num_vars, objective, *rows_block(num_vars, specs), bounds)


def add_rows(lp, specs):
    """lp with the rows of these specs appended (see rows_block)."""
    return lp.with_rows(*rows_block(lp.num_vars, specs))


def k_example():
    """min k s.t. x1 + x2 = 1, x1 + x2 <= k."""
    return program(3, {2: 1}, [({0: 1, 1: 1}, "=", 1), ({0: 1, 1: 1, 2: -1}, "<=", 0)])


def full_program(model):
    """model.lp plus every stabbing row of the model's pool not yet in it: the
    whole relaxation with the cuts found so far."""
    rest = [i for i in range(len(model.line_sides)) if i not in model.lp.keys]
    return model.lp.with_rows([Row("<=", 0, key=i) for i in rest], stab_rows(model, rest))


def inverse_error(lp, basis):
    """max |B^-1 A_B - I| of basis's kept inverse on lp's basic columns,
    slacks included; the inverse must be m x m."""
    m = len(lp.rows)
    Binv = basis.Binv
    assert Binv.shape == (m, m)
    A_B = _FloatSimplex(lp).A[:, list(basis.basic)]
    return float(np.abs(Binv @ A_B - np.eye(m)).max())


def with_inverse(basis, Binv):
    """basis with Binv in place of its kept inverse, for the same rows."""
    return dataclasses.replace(basis, Binv=Binv)


@pytest.fixture
def finish_failures(monkeypatch):
    """The messages of the LpErrors that _FloatSimplex._finish raises, in order."""
    failures = []
    finish = _FloatSimplex._finish

    def recorded(self, state, status):
        try:
            return finish(self, state, status)
        except LpError as exc:
            failures.append(str(exc))
            raise

    monkeypatch.setattr(_FloatSimplex, "_finish", recorded)
    return failures


def exact_solution(result):
    """An exact result's objective value and primal, which must be Fractions."""
    assert all(isinstance(v, Fraction) for v in [result.objective_value, *result.primal])
    return result.objective_value, result.primal


def scipy_solve(lp):
    """Reference solve of the same program with scipy's HiGHS."""
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for r, arr in zip(lp.rows, lp.matrix):
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
        lp.cost,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=b_ub or None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=b_eq or None,
        bounds=list(zip(lp.lo, lp.hi)),
        method="highs",
    )


# scipy's linprog status codes as statuses
SCIPY_STATUS = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}


class TestLpSolve:
    def test_simple_lower_bound(self):
        lp = program(1, {0: 1}, [({0: 1}, ">=", 3)])
        res = lp_solve(lp)
        assert res.status is LpStatus.OPTIMAL
        assert res.objective_value == pytest.approx(3)

    def test_k_example(self):
        res = lp_solve(k_example())
        assert res.status is LpStatus.OPTIMAL
        assert res.objective_value == pytest.approx(1)

    def test_infeasible(self):
        lp = program(1, {}, [({0: 1}, "<=", -1)])
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
        # values and statuses come from scipy's HiGHS; the exact path proves
        # the float verdict, and raises on an unbounded program
        rng = random.Random(7)
        statuses = []
        for _ in range(40):
            n = rng.randint(1, 5)
            rows = []
            for _ in range(rng.randint(0, 5)):
                coeffs = {j: rng.randint(-3, 3) for j in range(n)}
                coeffs = {j: c for j, c in coeffs.items() if c}
                if not coeffs:
                    continue
                rows.append((coeffs, rng.choice(["<=", ">=", "="]), rng.randint(-4, 4)))
            lp = program(
                n,
                {j: rng.randint(-3, 3) for j in range(n)},
                rows,
                bounds=[(0, rng.choice([1, 3, math.inf])) for _ in range(n)],
            )
            a = lp_solve(lp)
            ref = scipy_solve(lp)
            expected = SCIPY_STATUS[ref.status]
            assert a.status is expected
            statuses.append(expected)
            if expected is LpStatus.UNBOUNDED:
                with pytest.raises(LpError, match="unbounded"):
                    lp_solve(lp, exact=True)
                continue
            b = lp_solve(lp, exact=True)
            assert b.status is expected
            if expected is LpStatus.OPTIMAL:
                assert abs(a.objective_value - float(b.objective_value)) <= 1e-6
                assert float(b.objective_value) == pytest.approx(ref.fun, abs=1e-6)
            # offered the float basis, the exact path gives the same answer
            checked = lp_solve(lp, warm_basis=a.basis, exact=True)
            assert (checked.status, checked.objective_value) == (b.status, b.objective_value)
        assert set(statuses) == set(LpStatus)

    def test_warm_start_from_float_basis(self):
        # offered a float basis, the exact path re-solves the float program
        # from it without a pivot and certifies its optimum in exact
        # arithmetic; without one it solves cold first
        lp = k_example()
        res = lp_solve(lp)
        exact = lp_solve(lp, warm_basis=res.basis, exact=True)
        cold = lp_solve(lp, exact=True)
        assert exact.warm_started and exact.pivots == 0 and not cold.warm_started
        assert cold.pivots == res.pivots > 0
        assert exact.basis == res.basis and exact.basis.Binv is not None
        assert exact_solution(exact) == exact_solution(cold) == (Fraction(1), [1, 0, 1])

    def test_warm_start_keeps_nonbasic_at_upper(self):
        # x0 and x1 sit at their upper bound 1 at the float optimum; put back
        # at their lower bound, x2 = 3/2 would break its bound and fail the check
        lp = program(3, {0: -1, 1: -1, 2: -1}, [({0: 1, 1: 1, 2: 2}, "<=", 3)], [(0, 1)] * 3)
        prior = lp_solve(lp)
        assert {0, 1} <= prior.basis.at_upper
        grown = add_rows(lp, [({0: 1, 2: 1}, "<=", 2)])
        warm = lp_solve(grown, warm_basis=prior.basis, exact=True)
        cold = lp_solve(grown, exact=True)
        assert warm.warm_started and not cold.warm_started
        assert {0, 1} <= warm.basis.at_upper
        assert exact_solution(warm) == exact_solution(cold)
        assert warm.objective_value == Fraction(-5, 2)

    def test_check_rejects_an_optimum_off_within_tolerance(self):
        # min (1 + 2**-40) x0 + x1 s.t. x0 + x1 = 1: the float simplex stops
        # with x0 = 1, since x0's reduced cost at its upper bound, 2**-40, is
        # below PIVOT_TOL. The optimum is x1 = 1, so the check rejects the
        # basis, and the exact path raises rather than certify it
        lp = program(2, {0: 1 + 2**-40, 1: 1}, [({0: 1, 1: 1}, "=", 1)], [(0, 1)] * 2)
        floated = lp_solve(lp)
        assert floated.primal == [1, 0]
        assert _ExactCheck(lp).check(floated.basis) is None
        for warm_basis in (floated.basis, None):
            with pytest.raises(LpError, match="exact check failed to certify the float optimal"):
                lp_solve(lp, warm_basis=warm_basis, exact=True)

    def test_check_rejects_a_basis_that_breaks_a_bound(self):
        # min -x0 s.t. x0 + x1 <= 2, x0 <= 1: with x0 basic, x0 = 2 breaks its
        # bound while y = -1 prices x1 and the slack out, so only the bound
        # test tells this basis from the optimum x0 = 1 at its upper bound
        lp = program(2, {0: -1}, [({0: 1, 1: 1}, "<=", 2)], [(0, 1), (0, math.inf)])
        wrong = Basis((0,), frozenset(), lp.rows, np.array([[1.0]]))
        assert _ExactCheck(lp).check(wrong) is None
        floated = lp_solve(lp)
        assert (floated.basis.basic, floated.basis.at_upper) == ((2,), {0})
        assert exact_solution(_ExactCheck(lp).check(floated.basis)) == (-1, [1, 0])

    def test_damaged_inverse_never_certifies_a_wrong_optimum(self, finish_failures, monkeypatch):
        lp = k_example()
        prior = lp_solve(lp)
        damaged = with_inverse(prior.basis, 3 * prior.basis.Binv)
        # iterative refinement through 3 B^-1 doubles the error each round
        assert _ExactCheck(lp).check(damaged) is None
        cut = add_rows(lp, [({1: 1}, ">=", 0.75)])
        res = lp_solve(cut, warm_basis=damaged, exact=True)
        # the float re-solve fails its checks and solves cold; the check
        # certifies that optimum
        assert finish_failures and not res.warm_started
        assert res.primal == [Fraction(1, 4), Fraction(3, 4), 1]
        assert float(res.objective_value) == pytest.approx(scipy_solve(cut).fun, abs=1e-9)
        # a damaged inverse that reaches the check raises
        solve = _FloatSimplex.solve

        def damaging(self, warm_basis):
            result = solve(self, warm_basis)
            damaged = with_inverse(result.basis, 3 * result.basis.Binv)
            return dataclasses.replace(result, basis=damaged)

        monkeypatch.setattr(_FloatSimplex, "solve", damaging)
        with pytest.raises(LpError, match="exact check failed"):
            lp_solve(cut, exact=True)

    def test_float_failure_raises(self, monkeypatch):
        # the exact path has no second solver: the float solve's error is its own
        def failing(self):
            raise LpError("cycling guard tripped")

        monkeypatch.setattr(_FloatSimplex, "_slack_state", failing)
        with pytest.raises(LpError, match="cycling guard tripped"):
            lp_solve(k_example(), exact=True)

    @pytest.mark.parametrize("rhs", [1, -1])
    def test_redundant_equality_row_is_certified_by_the_check(self, rhs):
        # the 2-point matching's shape: both degree rows read x0 = rhs, so
        # row 2's slack (variable 3), fixed to [0, 0], stays basic at 0
        lp = program(2, {0: 1, 1: 1}, [({0: rhs}, "=", rhs), ({0: rhs}, "=", rhs)], [(0, 1)] * 2)
        floated = lp_solve(lp)
        assert floated.basis.basic == (0, 3)
        A_B = np.array([[rhs, 0.0], [rhs, 1.0]])
        assert np.array_equal(floated.basis.Binv @ A_B, np.eye(2))
        assert not floated.basis.Binv.flags.writeable
        certified = _ExactCheck(lp).check(floated.basis)
        assert exact_solution(certified) == (1, [1, 0])
        for warm_basis in (None, floated.basis):
            res = lp_solve(lp, warm_basis=warm_basis, exact=True)
            assert exact_solution(res) == (1, [1, 0])
            assert res.basis.basic == (0, 3)
            assert res.warm_started is (warm_basis is not None)
        # a float warm solve offered that basis re-solves warm, to the cold
        # solve's optimum
        grown = add_rows(lp, [({1: 1}, ">=", 0.5)])
        warm = lp_solve(grown, warm_basis=floated.basis)
        cold = lp_solve(grown)
        assert warm.warm_started and not cold.warm_started
        assert (warm.status, warm.primal, warm.basis) == (cold.status, cold.primal, cold.basis)
        assert warm.objective_value == cold.objective_value
        assert warm.objective_value == pytest.approx(scipy_solve(grown).fun, abs=1e-9)
        exact = lp_solve(grown, warm_basis=floated.basis, exact=True)
        assert exact.objective_value == Fraction(3, 2)

    def test_nearly_redundant_row_inconsistent_by_a_hair_raises(self):
        # x0 = 1 and x0 = 1 + 2**-40: x0 enters in the second row, which
        # leaves the first row's slack basic at -2**-40, within FEAS_TOL of
        # its bounds [0, 0], so the float path calls the program feasible;
        # the check holds the slack to exactly 0
        lp = program(1, {0: 1}, [({0: 1}, "=", 1), ({0: 1}, "=", 1 + 2**-40)], [(0, 2)])
        floated = lp_solve(lp)
        assert floated.status is LpStatus.OPTIMAL and floated.basis.basic == (1, 0)
        assert _ExactCheck(lp).check(floated.basis) is None
        with pytest.raises(LpError, match="failed to certify the float optimal"):
            lp_solve(lp, exact=True)

    def test_program_without_rows_is_certified_by_the_check(self):
        lp = make_lp(3, {0: 1, 1: -1, 2: 0.5}, bounds=[(0, 4), (1, 4), (2, math.inf)])
        floated = lp_solve(lp)
        assert floated.basis.basic == () and floated.basis.Binv.shape == (0, 0)
        certified = _ExactCheck(lp).check(floated.basis)
        assert exact_solution(certified) == (-3, [0, 4, 2])
        assert exact_solution(lp_solve(lp, exact=True)) == (-3, [0, 4, 2])
        assert scipy_solve(lp).fun == pytest.approx(-3)

    def test_infeasible_verdict_carries_a_checked_farkas_certificate(self, monkeypatch):
        # x0 + x1 >= 3 with x0, x1 <= 1: y = (1) gives max y A x = 2 < 3
        lp = program(2, {0: 1}, [({0: 1, 1: 1}, ">=", 3)], [(0, 1)] * 2)
        floated = lp_solve(lp)
        assert floated.status is LpStatus.INFEASIBLE and len(floated.farkas) == 1
        res = lp_solve(lp, exact=True)
        assert res.status is LpStatus.INFEASIBLE and res.objective_value is None
        assert all(type(v) is Fraction for v in res.farkas)
        assert _ExactCheck(lp).farkas(res.farkas).farkas == res.farkas
        # either direction certifies: -y puts the smallest -y A x above -y b
        assert _ExactCheck(lp).farkas([-v for v in res.farkas]) is not None
        # a certificate that proves nothing raises instead of an uncertified verdict
        assert _ExactCheck(lp).farkas([0.0]) is None
        # x0 >= 3 is feasible: y = 1 bounds y A x only by x0's infinite upper bound
        feasible = program(1, {0: 1}, [({0: 1}, ">=", 3)])
        assert _ExactCheck(feasible).farkas([1.0]) is None
        assert _ExactCheck(feasible).farkas([-1.0]) is None
        solve = _FloatSimplex.solve

        def blank(self, warm_basis):
            return dataclasses.replace(solve(self, warm_basis), farkas=[0.0])

        monkeypatch.setattr(_FloatSimplex, "solve", blank)
        with pytest.raises(LpError, match="failed to certify the float infeasible"):
            lp_solve(lp, exact=True)

    def test_terms_are_the_nonzeros_of_the_standard_form(self):
        # the exact path reads the float path's form: each row's nonzeros in
        # column order, slacks included, each an exact Fraction
        rng = random.Random(11)
        programs = [
            program(
                3,
                {2: 1},
                [
                    ({0: 0.5, 1: -3}, "<=", 2),
                    ({1: 1, 2: 0.25}, ">=", 1),
                    ({0: 1, 2: -1}, "=", 0),
                ],
            ).with_rows([Row(">=", 0)], np.array([[0.0, 2.0**-30, 5.0]]))
        ]
        for _ in range(20):
            n = rng.randint(1, 6)
            rows = [
                (
                    {j: rng.randint(-3, 3) / 4 for j in range(n) if rng.random() < 0.6},
                    rng.choice(["<=", ">=", "="]),
                    rng.randint(-4, 4),
                )
                for _ in range(rng.randint(1, 6))
            ]
            programs.append(program(n, {}, rows))
        for lp in programs:
            simplex, form = _ExactCheck(lp), lp.form
            assert simplex.N == form.N
            assert len(simplex.terms) == len(lp.rows)
            for i, terms in enumerate(simplex.terms):
                assert [j for j, _ in terms] == form.A[i].nonzero()[0].tolist()
                assert all(type(a) is Fraction and a == form.A[i, j] for j, a in terms)
        first = _ExactCheck(programs[0])
        assert [terms[-1] for terms in first.terms] == [(3, 1), (4, -1), (5, 1), (6, -1)]
        assert first.terms[3] == [(1, Fraction(1, 2**30)), (2, 5), (6, -1)]


class TestAddRows:
    def test_non_binding_row_keeps_objective(self):
        lp = k_example()
        prior = lp_solve(lp)
        res = lp_solve(add_rows(lp, [({0: 1}, "<=", 5)]), warm_basis=prior.basis)
        assert res.objective_value == pytest.approx(prior.objective_value)

    def test_binding_row_matches_cold_solve(self):
        lp = k_example()
        prior = lp_solve(lp)
        grown = add_rows(lp, [({0: 1}, ">=", 0.5)])
        warm = lp_solve(grown, warm_basis=prior.basis)
        cold = lp_solve(grown)
        assert warm.status is LpStatus.OPTIMAL
        assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-6)
        assert warm.objective_value == pytest.approx(1)

    def test_contradictory_rows_infeasible(self):
        lp = k_example()
        prior = lp_solve(lp)
        rows = [({0: 1}, ">=", 2), ({0: 1}, "<=", 1)]
        res = lp_solve(add_rows(lp, rows), warm_basis=prior.basis)
        assert res.status is LpStatus.INFEASIBLE


class TestDualReoptimize:
    def test_binding_row_reoptimizes_warm(self):
        lp = program(2, {0: 1, 1: 2}, [({0: 1, 1: 1}, ">=", 2)], [(0, 3), (0, 3)])
        prior = lp_solve(lp)
        assert prior.objective_value == pytest.approx(2)
        cut = add_rows(lp, [({0: 1}, "<=", 1)])
        warm = lp_solve(cut, warm_basis=prior.basis)
        cold = lp_solve(cut)
        assert warm.warm_started and not cold.warm_started
        assert warm.status is cold.status is LpStatus.OPTIMAL
        assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-9)
        assert warm.objective_value == pytest.approx(scipy_solve(cut).fun, abs=1e-9)
        assert warm.objective_value == pytest.approx(3)

    def test_steepest_edge_row_leaves_first(self, monkeypatch):
        # min -x0 - x1 s.t. x0 <= 4, x1 <= 4 ends at (4, 4) with B^-1 = I.
        # Appended, 3 x0 <= 9 is violated by 3 and x1 <= 2 by 2; their rows
        # of the extended inverse are [-3, 0, 1] and [0, -1, 1], so dual
        # steepest edge scores them 9 / 10 and 4 / 2: the second row leaves
        # first, not the one with the largest violation
        lp = program(2, {0: -1, 1: -1}, [({0: 1}, "<=", 4), ({1: 1}, "<=", 4)])
        prior = lp_solve(lp)
        assert prior.primal == [4, 4]
        cut = add_rows(lp, [({0: 3}, "<=", 9), ({1: 1}, "<=", 2)])
        leaving = []
        pivot = _FloatSimplex._pivot

        def recorded(self, state, r, j, d):
            leaving.append(r)
            pivot(self, state, r, j, d)

        monkeypatch.setattr(_FloatSimplex, "_pivot", recorded)
        warm = lp_solve(cut, prior.basis)
        assert warm.warm_started
        assert leaving[0] == 3
        cold = lp_solve(cut)
        assert warm.primal == pytest.approx(cold.primal) == [3, 2]
        assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-9)
        assert warm.objective_value == pytest.approx(scipy_solve(cut).fun, abs=1e-9)

    def test_nonbasic_at_upper_bound_is_restored(self):
        # x0 and x1 sit at their upper bound 1 at the optimum; put back at their
        # lower bound their reduced costs are dual infeasible and the warm start
        # could only fall back to a cold solve
        lp = program(3, {0: -1, 1: -1, 2: -1}, [({0: 1, 1: 1, 2: 2}, "<=", 3)], [(0, 1)] * 3)
        prior = lp_solve(lp)
        assert prior.objective_value == pytest.approx(-2.5)
        assert {0, 1} <= prior.basis.at_upper
        cut = add_rows(lp, [({2: 1}, "<=", 0.25)])
        warm = lp_solve(cut, warm_basis=prior.basis)
        assert warm.warm_started
        assert warm.objective_value == pytest.approx(-2.25)
        assert warm.primal == pytest.approx([1, 1, 0.25])

    def test_contradictory_rows_left_to_the_cold_solve(self):
        # the warm dual simplex finds no entering column, and only the cold
        # solve declares the program infeasible, with its Farkas certificate
        lp = k_example()
        prior = lp_solve(lp)
        rows = [({0: 1}, ">=", 2), ({0: 1}, "<=", 1)]
        grown = add_rows(lp, rows)
        res = lp_solve(grown, warm_basis=prior.basis)
        assert res.status is LpStatus.INFEASIBLE
        assert not res.warm_started
        assert res.farkas == lp_solve(grown).farkas
        assert _ExactCheck(grown).farkas(res.farkas) is not None

    def test_counts_pivots_on_both_paths(self):
        lp = k_example()
        cold = lp_solve(lp)
        assert cold.pivots > 0 and not cold.warm_started
        again = lp_solve(lp, warm_basis=cold.basis)
        assert again.warm_started and again.pivots == 0
        # exact: the float solve's pivots and warm_started
        exact = lp_solve(lp, exact=True)
        assert exact.pivots == cold.pivots and not exact.warm_started
        checked = lp_solve(lp, warm_basis=exact.basis, exact=True)
        assert checked.warm_started and checked.pivots == 0

    def test_fuzz_rows_and_fixings_against_cold_and_scipy(self, monkeypatch):
        # the dual pivots update the reduced costs; kept dual feasible, a
        # warm basis is optimal once primal feasible, and the primal simplex
        # that follows a successful warm dual loop makes no pivot (a cold
        # dual loop runs on max(c, 0), so a negative cost leaves it pivots)
        primal_after_dual = []
        kept_state, dual_loop, loop = (
            _FloatSimplex._kept_state,
            _FloatSimplex._dual_loop,
            _FloatSimplex._loop,
        )

        def recorded_kept_state(self, warm):
            self.warm_state = kept_state(self, warm)
            return self.warm_state

        def recorded_dual_loop(self, state, cost):
            r = dual_loop(self, state, cost)
            self.dual_done = r < 0 and state is getattr(self, "warm_state", None)
            return r

        def recorded_loop(self, state):
            before = self.pivots
            status = loop(self, state)
            if getattr(self, "dual_done", False):
                primal_after_dual.append(self.pivots - before)
            return status

        # every leaving row of the dual loop is the dual steepest-edge row:
        # the largest violation^2 / ||e_r^T B^-1||^2 among the violated rows
        choices = []
        leaving_row = _FloatSimplex._leaving_row

        def recorded_leaving_row(state):
            r = leaving_row(state)
            lo, hi = state.lo[state.basis], state.hi[state.basis]
            viol = np.maximum(lo - state.xB, state.xB - hi)
            violated = np.flatnonzero(viol > FEAS_TOL)
            if not len(violated):
                assert r == -1
                return r
            assert r in violated
            scores = {i: viol[i] ** 2 / np.sum(state.Binv[i] ** 2) for i in violated.tolist()}
            assert scores[r] >= (1 - 1e-9) * max(scores.values())
            choices.append(r != violated[np.argmax(viol[violated])])
            return r

        # every pivot keeps the basic variables' bounds current
        pivot = _FloatSimplex._pivot
        pivots_checked = []

        def checked_pivot(self, state, r, j, d):
            pivot(self, state, r, j, d)
            assert np.array_equal(state.lo_B, state.lo[state.basis])
            assert np.array_equal(state.hi_B, state.hi[state.basis])
            pivots_checked.append(r)

        # every warm solve starts from the prior basis's kept inverse, and no
        # optimum reached from it fails a check
        warm_attempts = []
        run = _FloatSimplex._run

        def recorded_run(self, state, dual_cost):
            if state is not getattr(self, "warm_state", None):
                return run(self, state, dual_cost)
            warm_attempts.append("raised")  # replaced unless a check raises
            result = run(self, state, dual_cost)
            warm_attempts[-1] = result.status is not LpStatus.INFEASIBLE
            return result

        monkeypatch.setattr(_FloatSimplex, "_kept_state", recorded_kept_state)
        monkeypatch.setattr(_FloatSimplex, "_run", recorded_run)
        monkeypatch.setattr(_FloatSimplex, "_dual_loop", recorded_dual_loop)
        monkeypatch.setattr(_FloatSimplex, "_loop", recorded_loop)
        monkeypatch.setattr(_FloatSimplex, "_leaving_row", staticmethod(recorded_leaving_row))
        monkeypatch.setattr(_FloatSimplex, "_pivot", checked_pivot)
        rng = random.Random(2005)
        warm_optimal = optimal = 0
        for _ in range(200):
            n = rng.randint(2, 7)
            hi = [rng.choice([1, 2, 5]) for _ in range(n)]
            point = [rng.uniform(0, h) for h in hi]

            def random_row(feasible_at_point: bool):
                coeffs = {j: rng.randint(-4, 4) for j in range(n) if rng.random() < 0.7}
                coeffs = {j: c for j, c in coeffs.items() if c} or {0: 1}
                rel = rng.choice(["<=", ">="] if feasible_at_point else ["<=", ">=", "="])
                if feasible_at_point:
                    act = sum(c * point[j] for j, c in coeffs.items())
                    rhs = math.floor(act) + 1 if rel == "<=" else math.ceil(act) - 1
                else:
                    rhs = rng.randint(-6, 6)
                return coeffs, rel, rhs

            lp = program(
                n,
                {j: rng.randint(-5, 5) for j in range(n)},
                [random_row(True) for _ in range(rng.randint(1, 6))],
                [(0, h) for h in hi],
            )
            prior = lp_solve(lp)
            assert prior.status is LpStatus.OPTIMAL
            assert inverse_error(lp, prior.basis) < 1e-9
            changed = lp
            if rng.random() < 0.8:
                changed = add_rows(changed, [random_row(False) for _ in range(rng.randint(1, 3))])
            if changed is lp or rng.random() < 0.5:
                var = rng.randrange(n)
                value = rng.choice([0, hi[var]])
                changed = changed.with_bounds({var: (value, value)})
            attempts = len(warm_attempts)
            warm = lp_solve(changed, warm_basis=prior.basis)
            cold = lp_solve(changed)
            ref = scipy_solve(changed)
            expected = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE}[ref.status]
            assert warm.status is cold.status is expected
            # every appended row has a slack, equality rows too, so the prior
            # inverse is extended
            assert warm_attempts[attempts:] == [warm.warm_started]
            if expected is LpStatus.OPTIMAL:
                optimal += 1
                assert inverse_error(changed, warm.basis) < 1e-9
                assert inverse_error(changed, cold.basis) < 1e-9
                warm_optimal += warm.warm_started
                assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-6)
                assert warm.objective_value == pytest.approx(ref.fun, abs=1e-6)
        # the prior optimum stays dual feasible under added rows and fixings,
        # so no feasible case may fall back to a cold solve
        assert optimal > 50
        assert warm_optimal == optimal
        assert len(primal_after_dual) >= optimal and not any(primal_after_dual)
        assert len(pivots_checked) > 200
        # some leaving rows are not the most violated ones
        assert len(choices) > 100 and any(choices)


class TestFixVariable:
    def test_fix_forces_value(self):
        lp = k_example().with_bounds({0: (1, 1)})
        res = lp_solve(lp)
        assert res.primal[0] == pytest.approx(1)
        assert res.primal[1] == pytest.approx(0)
        assert res.objective_value == pytest.approx(1)

    def test_fix_twice_idempotent(self):
        lp = k_example().with_bounds({0: (1, 1)})
        again = lp.with_bounds({0: (1, 1)})
        assert again.lo[0] == again.hi[0] == 1

    def test_fix_outside_bounds_errors(self, unit_square):
        # a fixing must fit the edge's bounds: fix_edges checks them, not
        # with_bounds, which only checks the bounds it sets
        model = build_matching_model(unit_square, LineFamily.AXIS_PARALLEL)
        edge = model.edges[0]
        fix_edges(model, zeros=[edge])
        fixed = model.lp
        with pytest.raises(ModelError, match="cannot fix"):
            fix_edges(model, ones=[edge])
        assert model.lp is fixed and not model.fixed_ones


class TestWarmVsCold:
    def test_same_program_agrees(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(2, 6)
            rows = [
                (
                    {j: rng.randint(1, 3) for j in rng.sample(range(n), k=min(2, n))},
                    rng.choice(["<=", ">="]),
                    rng.randint(1, 5),
                )
                for _ in range(rng.randint(1, 4))
            ]
            lp = program(
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


def random_programs(seed, count):
    """count programs of up to 7 variables and 7 random rows."""
    rng = random.Random(seed)
    for _ in range(count):
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
                rows.append((coeffs, rng.choice(["<=", ">=", "="]), rng.randint(-6, 6)))
        yield program(n, obj, rows, bounds)


class TestAgainstScipy:
    def test_randomized(self):
        for lp in random_programs(4242, 150):
            mine = lp_solve(lp)

            ref = scipy_solve(lp)
            expected = SCIPY_STATUS[ref.status]
            assert mine.status is expected
            if expected is LpStatus.OPTIMAL:
                assert mine.objective_value == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)

    def test_exact_mode_certifies_or_raises(self):
        # the same programs: an exact optimum is HiGHS's, an infeasible
        # verdict carries a Farkas certificate that passes the check, and an
        # unbounded program raises
        seen = []
        for lp in random_programs(4242, 150):
            ref = scipy_solve(lp)
            expected = SCIPY_STATUS[ref.status]
            seen.append(expected)
            if expected is LpStatus.UNBOUNDED:
                with pytest.raises(LpError, match="unbounded"):
                    lp_solve(lp, exact=True)
                continue
            res = lp_solve(lp, exact=True)
            assert res.status is expected
            if expected is LpStatus.OPTIMAL:
                assert float(res.objective_value) == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)
                assert exact_solution(res)
            else:
                assert res.farkas and all(type(v) is Fraction for v in res.farkas)
                assert _ExactCheck(lp).farkas(res.farkas) is not None
        counts = {status: seen.count(status) for status in LpStatus}
        assert min(counts.values()) >= 10, counts


class TestRatioTestStability:
    @pytest.mark.parametrize("build", [build_matching_model, build_tree_model])
    def test_general_lines_n24(self, build):
        # many rows tie in the ratio test on this instance; taking the lowest
        # basis index among them picked pivots as small as 1e-8 and the
        # float state drifted until the row check at the optimum failed
        model = build(gen_random(24, 100, seed=6), LineFamily.GENERAL)
        res = solve_relaxation(model)
        ref = scipy_solve(full_program(model))
        assert ref.status == 0
        assert res.k_frac == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)


class TestValidation:
    def test_bad_bounds(self):
        with pytest.raises(LpError):
            make_lp(1, {}, bounds=[(2, 1)])

    def test_bad_index(self):
        # a block's columns are the variables and its rows the program's
        with pytest.raises(LpError, match="does not match the rows"):
            make_lp(1, {}, [Row("<=", 0)], np.zeros((1, 4)))
        with pytest.raises(LpError, match="does not match the rows"):
            make_lp(1, {}, [Row("<=", 0)], np.zeros((2, 1)))

    def test_bad_relation(self):
        with pytest.raises(LpError):
            Row("<", 0)

    @pytest.mark.parametrize("index", [-1, 3])
    def test_bad_index_in_appended_row(self, index):
        # a block whose last column is variable index: none at -1, and one
        # past the program's three variables at 3
        block = np.ones((2, index + 1))
        with pytest.raises(LpError, match="does not match the rows"):
            k_example().with_rows([Row(">=", 0), Row("<=", 0)], block)
        with pytest.raises(LpError, match="does not match the rows"):
            make_lp(3, {}, [Row("<=", 0)], block[:1])

    @pytest.mark.parametrize("coef", [Fraction(1, 3), 2**53 + 1, 10**400, math.inf])
    def test_coefficient_float64_cannot_hold_is_rejected(self, coef):
        # both simplex paths read the float matrix, and the exact path
        # converts it back: a block must be float64, so that nothing is
        # rounded on the way in, and finite. Fraction(1, 3) and 10**400 make
        # an object block, 2**53 + 1 an int64 one and inf a float64 one
        block = np.array([[coef]])
        assert block.dtype == {math.inf: np.float64, 2**53 + 1: np.int64}.get(coef, object)
        message = "not finite" if block.dtype == np.float64 else "not float64"
        with pytest.raises(LpError, match=message):
            make_lp(1, {}, [Row("<=", 1)], block)
        with pytest.raises(LpError, match=message):
            make_lp(1, {0: 1}).with_rows([Row("<=", 1)], block)
        # a float64 coefficient passes, and the exact path reads 0.5 back as 1/2
        half = make_lp(1, {0: 1}, [Row(">=", 1)], np.array([[0.5]]))
        assert _ExactCheck(half).terms[0][0] == (0, Fraction(1, 2))
        assert lp_solve(half, exact=True).objective_value == 2

    @pytest.mark.parametrize("rhs", [math.nan, math.inf, -math.inf, 10**400])
    def test_right_hand_side_without_finite_float64_value_is_rejected(self, rhs):
        # a NaN or infinite right-hand side would reach the cold start of
        # the float path and Fraction() on the exact one
        with pytest.raises(LpError, match="no finite float64 value"):
            Row(">=", rhs)
        with pytest.raises(LpError, match="no finite float64 value"):
            Row("=", rhs, key=0)
        with pytest.raises(LpError, match="no finite float64 value"):
            Row("<=", Fraction(1, 3))

    @pytest.mark.parametrize("rhs", [2**53 + 1, Fraction(1, 3)])
    def test_right_hand_side_float64_cannot_hold_exactly_is_rejected(self, rhs):
        # the float path would round it and the exact path would not, so the
        # two would solve different programs
        with pytest.raises(LpError, match="no finite float64 value"):
            Row(">=", rhs)
        with pytest.raises(LpError, match="no finite float64 value"):
            Row("<=", rhs, key=0)
        # a value float64 holds enters as that float
        for held in (2**53, Fraction(1, 2), 3):
            row = Row(">=", held)
            assert type(row.rhs) is float and row.rhs == held

    @pytest.mark.parametrize("value", [Fraction(1, 3), 2**53 + 1, 10**400, math.nan])
    def test_bound_float64_cannot_hold_exactly_is_rejected(self, value):
        with pytest.raises(LpError, match="no exact float64 value"):
            make_lp(1, {0: 1}, bounds=[(value, math.inf)])
        with pytest.raises(LpError, match="no exact float64 value"):
            make_lp(1, {0: 1}, bounds=[(0, value)])
        lp = make_lp(2, {0: 1})
        with pytest.raises(LpError, match="no exact float64 value"):
            lp.with_bounds({1: (value, value)})
        with pytest.raises(LpError, match="no exact float64 value"):
            lp.with_bounds({0: (0, 1), 1: (0, value)})
        with pytest.raises(LpError, match="no exact float64 value"):
            LinearProgram(2, lp.cost, (), [0, value], lp.hi)

    @pytest.mark.parametrize("value", [Fraction(1, 3), 2**53 + 1, 10**400, math.nan])
    def test_cost_float64_cannot_hold_exactly_is_rejected(self, value):
        with pytest.raises(LpError, match="no exact float64 value"):
            make_lp(2, {1: value})
        lp = make_lp(2, {0: 1})
        with pytest.raises(LpError, match="no exact float64 value"):
            lp.with_cost([1, value])
        with pytest.raises(LpError, match="no exact float64 value"):
            LinearProgram(2, [value, 0], (), lp.lo, lp.hi)
        if value is math.nan:
            with pytest.raises(LpError, match="cost must be finite"):
                lp.with_cost(np.array([1.0, value]))
            with pytest.raises(LpError, match="upper bounds must not be nan"):
                LinearProgram(2, lp.cost, (), lp.lo, np.array([1.0, value]))

    def test_non_finite_cost_and_lower_bound_are_rejected(self):
        lp = make_lp(2, {0: 1})
        for cost in ([math.inf, 0], [0, -math.inf]):
            with pytest.raises(LpError, match="cost must be finite"):
                lp.with_cost(cost)
            with pytest.raises(LpError, match="cost must be finite"):
                LinearProgram(2, cost, (), lp.lo, lp.hi)
        with pytest.raises(LpError, match="^lower bounds must be finite$"):
            make_lp(2, bounds=[(0, 1), (-math.inf, 1)])
        with pytest.raises(LpError, match="^variable 0: lo 1.0 > hi -inf$"):
            lp.with_bounds({0: (1, -math.inf)})
        with pytest.raises(LpError, match="must have 2 values, one per variable"):
            make_lp(2, bounds=[(0, 1)])

    def test_program_numbers_are_read_only_float64_vectors(self):
        # the float path and the exact path read the same vectors, and the
        # exact path reads each as the rational the float path reads
        lp = program(2, {0: 2**53, 1: Fraction(1, 2)}, [({0: 1, 1: 1}, ">=", 3)], [(1, 2**53), (0, 1)])
        for vector in (lp.cost, lp.lo, lp.hi):
            assert vector.dtype == np.float64 and vector.shape == (2,)
            assert not vector.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                vector[0] = 7.0
        assert lp.cost.tolist() == [2**53, 0.5]
        assert (lp.lo.tolist(), lp.hi.tolist()) == ([1, 0], [2**53, 1])
        exact = _ExactCheck(lp)
        assert exact.cost[:2] == [2**53, Fraction(1, 2)]
        assert (exact.lo[:2], exact.hi[:2]) == ([1, 0], [2**53, 1])
        assert exact.b == [3]
        # min x s.t. x >= 2**53 solves to the same value on both paths
        big = program(1, {0: 1}, [({0: 1}, ">=", 2**53)])
        assert lp_solve(big).objective_value == 2**53 == lp_solve(big, exact=True).objective_value
        # a caller's array is copied, so editing it later changes no program
        cost = np.array([1.0, 2.0])
        own = lp.with_cost(cost)
        cost[0] = 7.0
        assert own.cost.tolist() == [1, 2]
        # an int64 array is read value by value, exactly
        assert lp.with_cost(np.array([1, 2**53])).cost.tolist() == [1, 2**53]
        with pytest.raises(LpError, match="no exact float64 value"):
            lp.with_cost(np.array([1, 2**53 + 1]))

    def test_programs_compare_by_identity(self):
        # like its rows, a program equals only itself: its vectors have no
        # single truth value to compare by
        lp = k_example()
        same = LinearProgram(lp.num_vars, lp.cost, lp.rows, lp.lo, lp.hi, lp.matrix)
        assert lp == lp and same != lp
        assert lp.with_bounds({}) is lp and lp.with_rows(()) is lp
        assert lp.with_bounds({0: (0, 1)}) != lp

    def test_rows_without_coefficients_need_their_matrix(self):
        # a row's coefficients live only in its program's matrix: rows enter
        # a program with their block, and a program with rows and no block
        # raises
        row = Row("=", 1)
        with pytest.raises(LpError, match="rows need their coefficient block"):
            make_lp(3, {2: 1}, [row])
        lp = make_lp(3, {2: 1}, [row], np.array([[1.0, 1.0, 0.0]]))
        with pytest.raises(LpError, match="rows need their coefficient block"):
            lp.with_rows([Row("<=", 0)])
        with pytest.raises(LpError, match="rows need their coefficient block"):
            LinearProgram(3, lp.cost, lp.rows, lp.lo, lp.hi)
        grown = lp.with_rows([Row("<=", 0)], np.array([[1.0, 1.0, -1.0]]))
        assert np.array_equal(grown.matrix, [[1, 1, 0], [1, 1, -1]])
        assert grown.rows[0] is row
        rebuilt = LinearProgram(3, grown.cost, grown.rows, grown.lo, grown.hi, grown.matrix)
        assert np.array_equal(rebuilt.form.A, grown.form.A)
        # no rows need no block
        assert make_lp(3, {2: 1}).matrix.shape == (0, 3)
        with pytest.raises(LpError, match="not finite"):
            lp.with_rows([Row("<=", 0)], np.array([[np.nan, 1.0, 0.0]]))


class TestSharedMatrix:
    def test_copies_share_the_standard_form_of_their_rows(self):
        # a program builds the standard form of its rows once; the copies
        # that keep the rows share it, read-only, and solve on it
        lp = k_example()
        form = lp.form
        cold = lp_solve(lp)
        assert lp.form is form
        fixed = lp.with_bounds({0: (0.25, 0.25)})
        warm = lp_solve(fixed, cold.basis)
        assert warm.warm_started
        for other in (fixed, fixed.with_cost([1, 0, 0]), lp.with_bounds({2: (0, 5)})):
            assert other.form is form
        assert _FloatSimplex(fixed).A is form.A
        for array in (form.A, form.b, form.le, form.ge, form.slack):
            assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            form.A[0, 0] = 2.0
        # no rows appended: the program itself, form and all
        assert lp.with_rows(()) is lp
        assert lp.with_rows([], np.zeros((0, 3))) is lp
        fresh = LinearProgram(
            fixed.num_vars, fixed.cost, fixed.rows, fixed.lo, fixed.hi, fixed.matrix
        )
        again = lp_solve(fresh)
        assert fresh.form is not form
        assert (warm.primal, warm.objective_value) == (again.primal, again.objective_value)
        assert warm.primal == pytest.approx([0.25, 0.75, 1])
        # appended rows get a new form whose first rows are the old one's;
        # row i's slack is variable num_vars + i
        grown = add_rows(lp, [({0: 1}, ">=", 0.5), ({1: 1}, "=", 0.5)])
        assert grown.form is not form and lp.form is form
        assert np.array_equal(grown.form.A[:2, : form.N], form.A)
        assert not grown.form.A[:2, form.N :].any()
        assert grown.form.A[2].tolist() == [1, 0, 0, 0, 0, -1, 0]
        assert grown.form.A[3].tolist() == [0, 1, 0, 0, 0, 0, 1]
        assert grown.form.slack.tolist() == [1, 1, -1, 1]
        assert grown.form.b.tolist() == [1, 0, 0.5, 0.5]
        assert grown.form.le.tolist() == [False, True, False, False]
        assert grown.form.ge.tolist() == [False, False, True, False]
        # dataclasses.replace rebuilds an equal form from the coefficients
        replaced = dataclasses.replace(grown, cost=[1, 0, 0])
        assert replaced.form is not grown.form
        for name in ("A", "b", "le", "ge", "slack"):
            assert np.array_equal(getattr(replaced.form, name), getattr(grown.form, name)), name
        assert replaced.form.N == grown.form.N == 7

    def test_copies_keep_the_matrix_of_their_rows(self):
        lp = k_example()
        grown = add_rows(lp, [({0: 2, 2: 1}, ">=", 1)])
        assert np.array_equal(grown.matrix[:2], lp.matrix)
        assert grown.with_bounds({0: (0, 0)}).matrix is grown.matrix
        assert grown.with_cost([1, 0, 0]).matrix is grown.matrix
        # the matrix is the form's read-only view of the coefficients
        assert grown.matrix.base is grown.form.A
        assert np.array_equal(grown.matrix, grown.form.A[:, :3])
        assert not grown.matrix.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            grown.matrix[0, 0] = 2.0
        # a caller's array is copied, so editing it later changes no program
        coefficients = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, -1.0]])
        own = LinearProgram(3, lp.cost, lp.rows, lp.lo, lp.hi, coefficients)
        appended = np.array([[0.0, 1.0, 0.0]])
        longer = own.with_rows([Row("<=", 0.5)], appended)
        coefficients[0, 0] = appended[0, 0] = 7.0
        assert not np.shares_memory(own.matrix, coefficients)
        assert not np.shares_memory(longer.matrix, appended)
        assert own.matrix.tolist() == [[1, 1, 0], [1, 1, -1]]
        assert longer.matrix[2].tolist() == [0, 1, 0]
        assert lp_solve(own).objective_value == pytest.approx(1)

    def test_tableau_equals_one_built_from_scratch(self):
        # a cut row, a fixing and an objective swap, as rounding and
        # refinement apply them, against the same program's rows written out
        # edge by edge from their definitions
        model = build_matching_model(gen_random(8, 100, seed=3), LineFamily.AXIS_PARALLEL)
        members = frozenset({0, 1, 2})
        row, coeffs = cut_row(model, members)
        model.lp = model.lp.with_rows([row], coeffs[None])
        fix_edges(model, ones=[model.edges[4]])
        lengths = [float(i + 1) for i in range(len(model.edges))] + [0.0]
        lp = dataclasses.replace(model.lp, cost=lengths)
        fresh = LinearProgram(lp.num_vars, lp.cost, lp.rows, lp.lo, lp.hi, lp.matrix.copy())
        shared, scratch = _FloatSimplex(lp), _FloatSimplex(fresh)
        for name in ("A", "b", "lo", "hi", "cost", "slack", "le", "ge"):
            assert np.array_equal(getattr(shared, name), getattr(scratch, name)), name
        distinct = stab_rows(model, np.flatnonzero(model.stab_distinct))
        scale = 2.0 ** -math.ceil(math.log2(len(distinct)))
        reference = [[float(v in e) for e in model.edges] + [0.0] for v in range(model.inst.n)]
        reference.append((distinct.sum(axis=0) * scale).tolist())
        reference.append([float((e.a in members) != (e.b in members)) for e in model.edges] + [0.0])
        assert [r.rel for r in lp.rows] == ["="] * 8 + ["<=", ">="]
        assert np.array_equal(shared.A[:, : lp.num_vars], reference)

    def test_copies_check_only_what_they_change(self, monkeypatch):
        checked = []
        check = minstab.lp._bounds

        def recorded(lo, hi, var):
            checked.append(var.tolist())
            return check(lo, hi, var)

        monkeypatch.setattr(minstab.lp, "_bounds", recorded)
        lp = k_example()
        assert checked == [[0, 1, 2]]  # a program constructed directly checks all
        fixed = lp.with_bounds({0: (1, 1)})
        capped = fixed.with_cost([1, 0, 0]).with_bounds({2: (0, 5)})
        assert checked == [[0, 1, 2], [0], [2]]
        assert (capped.lo.tolist(), capped.hi.tolist()) == ([1, 0, 0], [1, math.inf, 5])
        assert capped.cost.tolist() == [1, 0, 0] and capped.matrix is lp.matrix
        # several bounds change in one copy, and each is checked once
        both = lp.with_bounds({2: (0, 5), 0: (1, 1)})
        assert checked == [[0, 1, 2], [0], [2], [2, 0]]
        assert np.array_equal(both.lo, capped.lo) and np.array_equal(both.hi, capped.hi)
        assert both.form is lp.form
        # the copies leave the vectors they were made from as they were
        assert (lp.lo.tolist(), lp.hi.tolist()) == ([0, 0, 0], [math.inf] * 3)
        assert lp.cost.tolist() == [0, 0, 1]
        with pytest.raises(LpError, match="must be finite"):
            lp.with_bounds({2: (math.inf, math.inf)})
        with pytest.raises(LpError, match=r"^variable 0: lo 2\.0 > hi 1\.0$"):
            lp.with_bounds({0: (2, 1)})
        with pytest.raises(LpError, match="out of range"):
            lp.with_bounds({3: (0, 1)})
        with pytest.raises(LpError, match="one per variable"):
            lp.with_cost([1, 0])
        with pytest.raises(LpError, match="cost index 3"):
            make_lp(3, {3: 1})

    def test_warm_solve_without_pivots_factors_once(self, monkeypatch, finish_failures):
        # the cold solve forms the only inverse: a warm solve extends it and
        # the optimum's checks read x_B and y through it, while a basis
        # without a usable inverse solves cold. No float solve, cold, warm,
        # from a damaged inverse or without one, inverts a matrix or runs a
        # linear solve
        lp = k_example()
        calls = []
        solve, inv = np.linalg.solve, np.linalg.inv

        def recorded(a, b):
            calls.append(("solve", np.shape(a), np.shape(b)))
            return solve(a, b)

        def recorded_inv(a):
            calls.append(("inv", np.shape(a)))
            return inv(a)

        monkeypatch.setattr(np.linalg, "solve", recorded)
        monkeypatch.setattr(np.linalg, "inv", recorded_inv)
        cold = lp_solve(lp)
        warm = lp_solve(lp, cold.basis)
        assert warm.warm_started
        assert warm.pivots == 0
        assert warm.primal == cold.primal
        assert cold.primal[1] == 0
        cut = add_rows(lp, [({1: 1}, ">=", 0.75)])
        moved = lp_solve(cut, cold.basis)
        assert moved.warm_started and moved.pivots > 0
        assert moved.primal == pytest.approx([0.25, 0.75, 1])
        # without a kept inverse the basis solves cold
        cut_cold = lp_solve(cut)
        bare = lp_solve(cut, dataclasses.replace(cold.basis, Binv=None))
        assert not bare.warm_started
        assert bare == cut_cold
        assert bare.primal == pytest.approx(moved.primal)
        # an inverse scaled by 3 fails the optimum's checks and solves cold
        damaged = lp_solve(cut, with_inverse(cold.basis, 3 * cold.basis.Binv))
        assert finish_failures
        assert not damaged.warm_started
        assert damaged.primal == cut_cold.primal
        assert not calls

    def test_tableau_of_other_rows_is_not_reused(self):
        lp = k_example()
        cold = lp_solve(lp)
        # the same shape with equal rows, and with other coefficients
        shifted = program(3, {2: 1}, [({0: 1, 1: 2}, "=", 1), ({0: 2, 1: 1, 2: -1}, "<=", 0)])
        for other in (k_example(), shifted):
            kept = lp_solve(other).basis
            assert kept.Binv.shape == cold.basis.Binv.shape
            res = lp_solve(lp, dataclasses.replace(cold.basis, rows=kept.rows, Binv=kept.Binv))
            assert not res.warm_started
            assert res == cold

    def test_damaged_tableau_is_caught_and_solved_cold(self, finish_failures):
        # min -x0 s.t. x0 + x1 <= 2 ends with x0 basic and B^-1 = [1]; under
        # -x0 - 2 x1 the inverse [3] prices x1 at -2 + 3 = 1, so the kept
        # basis looks optimal
        lp = program(2, {0: -1}, [({0: 1, 1: 1}, "<=", 2)])
        prior = lp_solve(lp)
        kept = prior.basis
        assert prior.basis.basic == (0,)
        assert np.array_equal(kept.Binv, [[1]])
        assert not kept.Binv.flags.writeable
        damaged_Binv = kept.Binv.copy()
        damaged_Binv[0, 0] = 3
        swapped = lp.with_cost([-1, -2])
        res = lp_solve(swapped, with_inverse(prior.basis, damaged_Binv))
        # _finish catches the damaged inverse, and the cold solve follows
        assert len(finish_failures) == 1 and finish_failures[0].startswith("basis residual ")
        assert not res.warm_started
        cold = lp_solve(swapped)
        assert res == cold
        assert res.objective_value == pytest.approx(scipy_solve(swapped).fun, abs=1e-9)
        assert res.primal == pytest.approx([0, 2])
        # the intact inverse reaches the same optimum without a fallback
        intact = lp_solve(swapped, prior.basis)
        assert intact.warm_started
        assert intact.primal == pytest.approx([0, 2])
        assert len(finish_failures) == 1

    def test_residual_check_catches_a_damaged_inverse(self, finish_failures):
        # min -3 x0 - x1 s.t. x0 - x1 <= 0, x0 + x1 <= 4 ends at x = (2, 2)
        # with B^-1 = [[.5, .5], [-.5, .5]]. Moving B^-1[0, 0] by 1e-3 leaves
        # x_B exact (row 0's rhs is 0) and every reduced cost of the right
        # sign, so no pivot runs and the row and pricing checks pass; only
        # |c_B - y A_B| of the refined duals, about 3e-6, exceeds FEAS_TOL
        lp = program(2, {0: -3, 1: -1}, [({0: 1, 1: -1}, "<=", 0), ({0: 1, 1: 1}, "<=", 4)])
        prior = lp_solve(lp)
        kept = prior.basis
        assert prior.basis.basic == (0, 1)
        assert np.allclose(kept.Binv, [[0.5, 0.5], [-0.5, 0.5]])
        damaged_Binv = kept.Binv.copy()
        damaged_Binv[0, 0] += 1e-3
        res = lp_solve(lp, with_inverse(prior.basis, damaged_Binv))
        assert not res.warm_started
        assert len(finish_failures) == 1 and finish_failures[0].startswith("basis residual ")
        cold = lp_solve(lp)
        assert res == cold
        assert res.primal == pytest.approx([2, 2])
        assert res.objective_value == pytest.approx(scipy_solve(lp).fun, abs=1e-9)
        assert np.abs(res.basis.Binv - kept.Binv).max() < 1e-12

    def test_row_check_names_first_violated_row(self):
        # x0 <= 1 by its bound; the basis puts x0 = 2, and once x0 is clipped
        # to its bound rows 1 and 2 both fail
        rows = [({0: 1}, "<=", 5), ({0: 1}, ">=", 2), ({0: 1}, ">=", 3)]
        simplex = _FloatSimplex(program(1, {0: 1}, rows, [(0, 1)]))
        basis = np.array([1, 0, 3])
        state = _State(
            np.linalg.inv(simplex.A[:, basis]),
            simplex.A,
            basis,
            np.zeros(3),
            np.zeros(4, dtype=bool),
            simplex.lo.copy(),
            simplex.hi.copy(),
        )
        with pytest.raises(LpError, match=r"^row 1 violated at optimum: 1\.0 < 2\.0$"):
            simplex._finish(state, "optimal")

    def test_dual_check_names_a_column_that_prices_in(self):
        # x0 basic is feasible for min -x0 - 2 x1 s.t. x0 + x1 <= 2, but the
        # duals of A_B^T y = c_B leave x1 a reduced cost of -1
        simplex = _FloatSimplex(program(2, {0: -1, 1: -2}, [({0: 1, 1: 1}, "<=", 2)]))
        state = _State(
            np.array([[1.0]]),
            simplex.A,
            np.array([0]),
            np.array([2.0]),
            np.zeros(3, dtype=bool),
            simplex.lo.copy(),
            simplex.hi.copy(),
        )
        with pytest.raises(LpError, match=r"^column 1 prices in at optimum: reduced cost -1\.0$"):
            simplex._finish(state, "optimal")
