import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from test_lp import full_program, scipy_solve

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
from minstab.geom import (
    StabLine,
    is_crossing_pair,
    representative_lines,
    stabbing_number,
    stabs,
)
from minstab.lp import FEAS_TOL, NO_BASIS, LinearProgram, LpResult, LpStatus, Row, lp_solve
from minstab.models import (
    InfeasibleRelaxationError,
    ModelError,
    cut_key,
    fix_edges,
    stab_rows,
)

AXIS = LineFamily.AXIS_PARALLEL
GENERAL = LineFamily.GENERAL


def stab_row_of(model):
    """The model's stabbing rows' coefficients, one per representative line,
    in line order; stab_rows derives them from the line pool, and model.lp
    holds only those appended so far."""
    lines = representative_lines(model.inst.points, model.family)
    assert len(model.line_sides) == len(lines)
    return dict(zip(lines, stab_rows(model, range(len(lines)))))


def near_limit_instance():
    big = 2**31 - 1
    pts = (
        Point(-big, -big), Point(big, big - 1), Point(big - 2, -big),
        Point(-big + 3, big), Point(0, 1), Point(1, -big + 5),
    )
    return Instance("big", pts)


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
        # the program starts with the degree rows and the surrogate row: the
        # 4 distinct pool rows summed and scaled by 2**-2, so that edges
        # 01, 02, 13, 23 count 3 stabs and the diagonals 4, against 4 k
        assert [r.rel for r in model.lp.rows] == ["="] * 4 + ["<="]
        assert model.lp.rows[4].rhs == 0
        assert model.lp.matrix[4].tolist() == [0.75, 0.75, 1.0, 1.0, 0.75, 0.75, -1.0]

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
                support = set(np.flatnonzero(row == 1).tolist())
                expected = {
                    i
                    for i, e in enumerate(model.edges)
                    if stabs(line, e, unit_square.points)
                }
                assert support == expected
                assert row[model.k_index] == -1
                assert np.count_nonzero(row) == len(expected) + 1

    def test_stab_rows_exact_near_the_coordinate_limit(self, monkeypatch):
        # a*x + b*y - c overflows 64-bit integers here; the pool must still
        # agree with the exact predicate on every line and edge
        inst = near_limit_instance()
        pts = inst.points
        dtypes = []
        outer = np.outer

        def recorded(a, b):
            dtypes.append(a.dtype)
            return outer(a, b)

        monkeypatch.setattr(np, "outer", recorded)
        model = build_matching_model(inst, GENERAL)
        monkeypatch.undo()
        # the side signs are summed in Python ints, not int64
        assert dtypes and all(dtype == object for dtype in dtypes)
        for line, row in stab_row_of(model).items():
            support = {idx for idx in np.flatnonzero(row).tolist() if idx != model.k_index}
            assert support == {
                i for i, e in enumerate(model.edges) if stabs(line, e, pts)
            }

    @pytest.mark.parametrize("family", [AXIS, GENERAL])
    def test_int64_and_object_side_signs_agree(self, monkeypatch, family):
        rng = random.Random(20)
        for trial in range(5):
            pts = tuple(
                Point(rng.randint(-(2**20), 2**20), rng.randint(-(2**20), 2**20))
                for _ in range(10)
            )
            inst = Instance(f"wide{trial}", pts)
            pools = []
            # inf forces int64 sums, 0 forces Python ints
            for limit in (math.inf, 0):
                monkeypatch.setattr(models, "SIDE_INT64_LIMIT", limit)
                model = build_matching_model(inst, family)
                pools.append((model.line_sides, model.stab_distinct, model.lp.matrix))
            for arrays64, arrays_obj in zip(*pools):
                assert np.array_equal(arrays64, arrays_obj)

    @pytest.mark.parametrize("family", [AXIS, GENERAL])
    def test_pool_stabbing_number_matches_geometry(self, family):
        rng = random.Random(21)
        for inst in [gen_random(10, 100, seed) for seed in range(1, 5)] + [near_limit_instance()]:
            model = build_matching_model(inst, family)
            for size in (0, 1, 3, 5, len(model.edges)):
                edges = rng.sample(model.edges, size)
                k, _ = stabbing_number(edges, inst.points, family)
                assert models.pool_stabbing_number(model, edges) == k

    def test_x0_row_support(self, unit_square):
        model = build_matching_model(unit_square, AXIS)
        line = StabLine.vertical(0)
        support = {
            model.edges[i]
            for i in np.flatnonzero(stab_row_of(model)[line]).tolist()
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
        [total] = [i for i, r in enumerate(model.lp.rows) if r.rel == "="]
        assert model.lp.rows[total].rhs == 3
        assert np.count_nonzero(model.lp.matrix[total]) == 6

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
        fix_edges(model, ones=[Segment(0, 1), Segment(0, 2)])  # vertex 0 twice: infeasible
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


class TestCertification:
    @pytest.mark.parametrize("family", [AXIS, GENERAL])
    @pytest.mark.parametrize("build", [build_matching_model, build_tree_model])
    def test_check_certifies_every_exact_solve(self, monkeypatch, build, family):
        # certification offers each exact solve the float basis: the float
        # re-solve starts warm from its kept inverse, and the exact check
        # certifies that optimum
        exact_solves = []
        real = models.lp_solve

        def spy(lp, warm_basis=None, **kwargs):
            res = real(lp, warm_basis, **kwargs)
            if kwargs.get("exact"):
                exact_solves.append(res)
            return res

        monkeypatch.setattr(models, "lp_solve", spy)
        for n in (10, 12):
            for seed in (1, 2):
                model = build(gen_random(n, 100, seed), family)
                certify_relaxation(model, solve_relaxation(model))
        assert len(exact_solves) >= 4
        assert all(res.warm_started for res in exact_solves)


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
        ref = scipy_solve(full_program(model))
        assert ref.status == 0
        assert relax.k_frac == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)


def rows_kept(lp, keep):
    """lp with only the rows whose indices keep lists, in that order."""
    rows = tuple(lp.rows[i] for i in keep)
    return LinearProgram(lp.num_vars, lp.cost, rows, lp.lo, lp.hi, lp.matrix[keep])


def without_surrogate(model):
    """model with its program's surrogate row dropped: at build time the
    surrogate is the one row that is not an equation."""
    model.lp = rows_kept(model.lp, [i for i, row in enumerate(model.lp.rows) if row.rel == "="])
    return model


# the instances of the benchmark's bound-general workload
BOUND_GENERAL = [
    (build, n, seed)
    for seed in range(1, 7)
    for n in (24, 28)
    for build in (build_matching_model, build_tree_model)
]


@pytest.fixture(scope="module")
def bound_general_roots():
    """For each bound-general instance, the root relaxation's k_frac and
    float pivots with the surrogate row and without it."""
    roots = []
    real = models.lp_solve
    for build, n, seed in BOUND_GENERAL:
        row = {}
        for label, prepare in (("with", lambda m: m), ("without", without_surrogate)):
            pivots = []

            def spy(lp, warm_basis=None, **kwargs):
                result = real(lp, warm_basis, **kwargs)
                pivots.append(result.pivots)
                return result

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(models, "lp_solve", spy)
                relax = solve_relaxation(prepare(build(gen_random(n, 100, seed), GENERAL)))
            row[label] = (relax.k_frac, sum(pivots))
        roots.append(row)
    return roots


class TestSurrogateRow:
    @pytest.mark.parametrize("family", [AXIS, GENERAL])
    @pytest.mark.parametrize("build", [build_matching_model, build_tree_model])
    def test_is_the_scaled_sum_of_the_distinct_pool_rows(self, build, family):
        for seed in (1, 2, 3):
            model = build(gen_random(10, 100, seed), family)
            first = 10 if build is build_matching_model else 1
            assert [r.rel for r in model.lp.rows] == ["="] * first + ["<="]
            assert model.lp.rows[first].rhs == 0
            distinct = stab_rows(model, np.flatnonzero(model.stab_distinct))
            num_distinct = len(distinct)
            assert num_distinct >= 2
            p = math.ceil(math.log2(num_distinct))
            surrogate = model.lp.matrix[first]
            assert surrogate.tolist() == (distinct.sum(axis=0) / 2**p).tolist()
            assert surrogate[model.k_index] == -num_distinct / 2**p
            assert np.abs(surrogate).max() <= 1
            # each coefficient is an integer over 2**p, exact in float64
            assert np.array_equal(surrogate * 2**p, np.round(surrogate * 2**p))

    @pytest.mark.parametrize("build", [build_matching_model, build_tree_model])
    def test_absent_with_one_distinct_pool_row(self, build):
        model = build(Instance("pair", (Point(0, 0), Point(5, 3))), GENERAL)
        assert model.stab_distinct.sum() == 1
        assert all(row.rel == "=" for row in model.lp.rows)
        assert len(model.lp.rows) == (2 if build is build_matching_model else 1)

    def test_leaves_k_frac_unchanged_on_bound_general(self, bound_general_roots):
        for row in bound_general_roots:
            assert abs(row["with"][0] - row["without"][0]) <= 1e-9

    def test_takes_fewer_pivots_on_bound_general(self, bound_general_roots):
        with_surrogate = sum(row["with"][1] for row in bound_general_roots)
        without = sum(row["without"][1] for row in bound_general_roots)
        # 5,598 against 6,803 on the 24 root loops, 1 BLAS thread
        assert with_surrogate <= 5800 < without


class TestLazyStabbingRows:
    @pytest.mark.parametrize("seed", [1, 6])
    @pytest.mark.parametrize("build", [build_matching_model, build_tree_model])
    def test_optimum_satisfies_the_whole_pool(self, build, seed):
        model = build(gen_random(24, 100, seed), GENERAL)
        relax = solve_relaxation(model)
        lines = range(len(model.line_sides))
        assert 0 < relax.stab_rows_added < len(lines)
        x = np.array([relax.x[e] for e in model.edges] + [relax.k_frac])
        assert np.all(stab_rows(model, lines) @ x <= FEAS_TOL)
        ref = scipy_solve(full_program(model))
        assert ref.status == 0
        assert relax.k_frac == pytest.approx(ref.fun, abs=1e-6)

    @pytest.mark.parametrize("family", [AXIS, GENERAL])
    @pytest.mark.parametrize("build", [build_matching_model, build_tree_model])
    def test_certified_value_solves_the_full_program_exactly(self, build, family):
        # the certified value of the lazily grown program is the certified
        # optimum of the whole one, solved cold, and HiGHS's
        model = build(gen_random(10, 100, seed=3), family)
        certified = certify_relaxation(model, solve_relaxation(model))
        program = full_program(model)
        full = lp_solve(program, exact=True)
        assert full.status is LpStatus.OPTIMAL and not full.warm_started
        assert full.objective_value == certified
        assert float(certified) == pytest.approx(scipy_solve(program).fun, abs=1e-9)

    @pytest.mark.parametrize("build", [build_matching_model, build_tree_model])
    def test_exact_pool_check_sums_the_whole_pool(self, build):
        # the exact check multiplies only the primal's nonzero columns; it
        # must pick what the product over every column picks, in its order
        model = build(gen_random(12, 100, seed=5), GENERAL)
        rng = random.Random(7)
        primals = [lp_solve(model.lp, exact=True).primal]
        primals += [
            [Fraction(rng.randrange(4), rng.randrange(1, 7)) for _ in range(model.lp.num_vars)]
            for _ in range(3)
        ]
        lines = range(len(model.line_sides))
        held = range(0, len(lines), 5)
        model.lp = model.lp.with_rows([Row("<=", 0, key=i) for i in held], stab_rows(model, held))
        pool = stab_rows(model, lines).astype(int).astype(object)
        for primal in primals:
            assert 0 in primal
            activity = pool @ np.array(primal, dtype=object)
            expected = [
                i
                for i in lines
                if activity[i] > 0 and model.stab_distinct[i] and i not in held
            ]
            expected.sort(key=lambda i: (-activity[i], i))
            found = models._violated_stab_rows(model, primal, exact=True)
            assert found == expected[: models.STAB_BATCH]
            assert found

    def test_counts_cuts_and_stabbing_rows_apart(self):
        # this instance needs a blossom cut (see TestSolveRelaxation)
        model = build_matching_model(gen_random(10, 100, seed=74), AXIS)
        built = len(model.lp.rows)
        relax = solve_relaxation(model)
        cuts = [key for key in model.lp.keys if isinstance(key, frozenset)]
        assert relax.cuts_added == len(cuts) > 0
        assert relax.stab_rows_added == len(model.lp.keys) - len(cuts) > 0
        assert len(model.lp.rows) == built + relax.cuts_added + relax.stab_rows_added

    def test_rows_enter_once_and_duplicates_never(self):
        # two general lines through the diagonals of a square stab every edge,
        # so their pool rows are equal; only the first may enter
        model = build_matching_model(
            Instance("sq", (Point(0, 0), Point(4, 0), Point(0, 4), Point(4, 4))), GENERAL
        )
        rows = [row.tobytes() for row in stab_rows(model, range(len(model.line_sides)))]
        first = {}
        for i, row in enumerate(rows):
            first.setdefault(row, i)
        assert len(first) < len(rows)
        assert list(model.stab_distinct) == [first[row] == i for i, row in enumerate(rows)]
        solve_relaxation(model)
        # no two rows of the program have the same coefficients, relation and rhs
        lp = model.lp
        keys = {(row.rel, row.rhs, lp.matrix[i].tobytes()) for i, row in enumerate(lp.rows)}
        assert len(keys) == len(lp.rows)


def arrays_held(obj, depth=3):
    """The numpy arrays obj holds in its attributes, theirs and so on."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif depth and hasattr(obj, "__dict__"):
        for value in vars(obj).values():
            yield from arrays_held(value, depth - 1)


class TestLinePool:
    @pytest.mark.parametrize("build", [build_matching_model, build_tree_model])
    def test_keeps_side_signs_and_no_lines_by_edges_array(self, build):
        model = build(gen_random(96, 100, seed=1), GENERAL)
        lines = len(representative_lines(model.inst.points, GENERAL))
        assert model.line_sides.shape == (lines, 96)
        assert model.line_sides.dtype == np.int8
        held = list(arrays_held(model))
        assert any(array is model.lp.matrix for array in held)
        assert max(array.size for array in held) < lines * len(model.edges)

    @pytest.mark.parametrize("family", [AXIS, GENERAL])
    @pytest.mark.parametrize("build", [build_matching_model, build_tree_model])
    def test_stab_rows_equal_the_predicate_table(self, build, family):
        for inst in [gen_random(10, 100, seed) for seed in (1, 2)] + [near_limit_instance()]:
            model = build(inst, family)
            lines = representative_lines(inst.points, family)
            table = np.array(
                [
                    [float(stabs(line, e, inst.points)) for e in model.edges] + [-1.0]
                    for line in lines
                ]
            )
            assert np.array_equal(stab_rows(model, range(len(lines))), table)
            picked = [len(lines) - 1, 0, 2]
            assert np.array_equal(stab_rows(model, picked), table[picked])
            assert stab_rows(model, []).shape == (0, model.lp.num_vars)

    @pytest.mark.parametrize("chunk", [7, 256, 10**6])
    def test_build_marks_first_lines_whatever_the_chunk_size(self, monkeypatch, chunk):
        # the build reads the lines in chunks; the distinct mask and the
        # surrogate row must not depend on where the chunks end
        monkeypatch.setattr(models, "LINE_CHUNK", chunk)
        model = build_tree_model(gen_random(24, 100, seed=2), GENERAL)
        rows = stab_rows(model, range(len(model.line_sides)))
        assert len(rows) > 256
        first = {}
        for i, row in enumerate(rows):
            first.setdefault(row.tobytes(), i)
        expected = [first[row.tobytes()] == i for i, row in enumerate(rows)]
        assert list(model.stab_distinct) == expected
        surrogate = rows[model.stab_distinct].sum(axis=0) / 2 ** math.ceil(math.log2(len(first)))
        assert model.lp.matrix[1].tolist() == surrogate.tolist()

    @pytest.mark.parametrize("n", [12, 24])
    @pytest.mark.parametrize("build", [build_matching_model, build_tree_model])
    def test_float_pool_check_matches_the_dense_product(self, build, n):
        # the float check sums over the support of x only; its activities
        # match the dense product's, and so do its picks unless two of the
        # activities that decide them (or one and the tolerance) lie too
        # close to order the same: even equal sums may differ in the last bit
        model = build(gen_random(n, 100, seed=4), GENERAL)
        lines = range(len(model.line_sides))
        dense = stab_rows(model, lines)
        held = range(0, len(lines), 7)
        model.lp = model.lp.with_rows([Row("<=", 0, key=i) for i in held], stab_rows(model, held))
        rng = np.random.default_rng(n)
        compared = 0
        for _ in range(100):
            x = np.zeros(model.lp.num_vars)
            x[rng.choice(len(model.edges), size=2 * n, replace=False)] = rng.random(2 * n)
            x[model.k_index] = rng.uniform(0.3, 0.9) * (dense @ x).max()
            reference = dense @ x
            primal = x.tolist()
            activity = models._pool_activity(model, primal, exact=False)
            assert np.abs(activity - reference).max() <= 1e-12
            candidates = [
                i
                for i in lines
                if model.stab_distinct[i]
                and i not in held
                and reference[i] > models.STAB_TOL - 1e-12
            ]
            # the picks follow the order of the first STAB_BATCH + 1 of them,
            # down to the tolerance
            ranked = sorted(reference[candidates], reverse=True)[: models.STAB_BATCH + 1]
            ranked.append(models.STAB_TOL)
            if min(a - b for a, b in zip(ranked, ranked[1:])) <= 1e-12:
                continue
            expected = [i for i in candidates if reference[i] > models.STAB_TOL]
            expected.sort(key=lambda i: (-reference[i], i))
            found = models._violated_stab_rows(model, primal, exact=False)
            assert found == expected[: models.STAB_BATCH]
            assert expected
            compared += 1
        assert compared >= 30

    @pytest.mark.parametrize("build", [build_matching_model, build_tree_model])
    def test_exact_pool_check_with_numerators_past_int64(self, build):
        # over the common denominator of 70-bit denominators the numerators
        # pass 2**63, and the check sums Python ints
        model = build(gen_random(12, 100, seed=5), GENERAL)
        lines = range(len(model.line_sides))
        pool = stab_rows(model, lines).astype(int).astype(object)
        rng = random.Random(9)
        for _ in range(3):
            primal = [
                Fraction(rng.randrange(2**70), rng.randrange(1, 2**70))
                if rng.random() < 0.3
                else Fraction(0)
                for _ in range(model.lp.num_vars)
            ]
            primal[model.k_index] = Fraction(rng.randrange(1, 2**70), 2**70)
            activity = pool @ np.array(primal, dtype=object)
            expected = [i for i in lines if activity[i] > 0 and model.stab_distinct[i]]
            expected.sort(key=lambda i: (-activity[i], i))
            assert expected
            found = models._violated_stab_rows(model, primal, exact=True)
            assert found == expected[: models.STAB_BATCH]


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

    @pytest.mark.parametrize("build", [build_matching_model, build_tree_model])
    def test_same_optimum_near_the_coordinate_limit(self, build):
        # scaling by 2^24 and shifting by 2^30 keeps which edges each line
        # stabs and scales every length alike, so k and the refined optimum
        # stay; the length costs reach about 2^31, where one float64 step of
        # y A_B is above FEAS_TOL
        for seed in range(5):
            small = gen_random(8, 50, seed=100 + seed)
            big = Instance(
                "big",
                tuple(Point(2**30 + 2**24 * p.x, 2**30 + 2**24 * p.y) for p in small.points),
            )
            results = []
            for inst in (small, big):
                model = build(inst, GENERAL)
                results.append(lexicographic_refine(model, solve_relaxation(model)))
            want, got = results
            assert got.k_frac == pytest.approx(want.k_frac, rel=1e-9)
            for e, w in want.x.items():
                assert got.x[e] == pytest.approx(w, abs=1e-5)

    def _report_infeasible_once(self, monkeypatch, model):
        """Make the next solve of a program without k's objective come back
        infeasible; returns the injected calls, and the (warm_basis, result)
        pairs of the k-program solves that follow them."""
        real = models.lp_solve
        k_cost = model.lp.cost
        injected, k_solves = [], []

        def spy(lp, warm_basis=None, **kwargs):
            if not np.array_equal(lp.cost, k_cost) and not injected:
                injected.append(lp)
                return LpResult(LpStatus.INFEASIBLE, None, [], NO_BASIS)
            result = real(lp, warm_basis, **kwargs)
            if injected and np.array_equal(lp.cost, k_cost):
                k_solves.append((warm_basis, result))
            return result

        monkeypatch.setattr(models, "lp_solve", spy)
        return injected, k_solves

    def _assert_k_program_kept(self, model, built, refined):
        # k's objective and bounds are back, the rows only grew, and every
        # row past the built ones is a cut the model keys
        for name in ("cost", "lo", "hi"):
            assert np.array_equal(getattr(model.lp, name), getattr(built, name)), name
        assert model.lp.rows[: len(built.rows)] == built.rows
        assert len(model.lp.keys) == len(model.lp.rows) - len(built.rows)
        assert refined.cuts_added > 0

    def test_keeps_k_program_and_its_cuts(self, monkeypatch):
        # at this seed the length program finds blossom cuts phase 1 missed
        inst = gen_random(8, 100, seed=6)
        model = build_matching_model(inst, AXIS)
        built = model.lp
        root = solve_relaxation(model)
        before = len(model.lp.rows)
        refined = lexicographic_refine(model, root)
        self._assert_k_program_kept(model, built, refined)
        assert len(model.lp.rows) == before + refined.cuts_added + refined.stab_rows_added

        # retry path: the first length solve reports infeasible, so phase 1
        # is re-solved on the k program before the length program runs again
        model = build_matching_model(inst, AXIS)
        built = model.lp  # rows compare by identity: this model's own
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
        fix_edges(model, ones=[Segment(0, 1), Segment(0, 2)])  # vertex 0 twice: infeasible
        fixed = model.lp
        with pytest.raises(InfeasibleRelaxationError):
            lexicographic_refine(model, root)
        assert (model.lp.num_vars, model.lp.rows) == (fixed.num_vars, fixed.rows)
        for name in ("cost", "lo", "hi"):
            assert np.array_equal(getattr(model.lp, name), getattr(fixed, name)), name

    def test_heavy_edge_bounds(self):
        for seed in range(8):
            inst = gen_random(8, 50, seed=200 + seed)
            m = build_matching_model(inst, AXIS)
            rm = lexicographic_refine(m, solve_relaxation(m))
            assert max(rm.x.values()) >= 0.2 - 1e-6
            t = build_tree_model(inst, AXIS)
            rt = lexicographic_refine(t, solve_relaxation(t))
            assert max(rt.x.values()) >= 1 / 3 - 1e-6


class TestSupportQuality:
    def test_counts_only_proper_crossings(self, caplog):
        pts = [(0, 0), (4, 4), (0, 4), (4, 0), (6, 0), (10, 0), (8, 0), (12, 0)]
        model = build_matching_model(Instance("mix", tuple(Point(*p) for p in pts)), AXIS)
        support = [
            Segment(0, 1),  # crosses (2, 3) properly
            Segment(2, 3),
            Segment(0, 2),  # shares an endpoint with each diagonal
            Segment(4, 5),  # collinear overlap with (6, 7)
            Segment(6, 7),
            Segment(4, 6),  # shares an endpoint with, and overlaps, (4, 5)
        ]
        pairs = [(e, f) for e, f in combinations(support, 2) if is_crossing_pair(e, f, model.inst.points)]
        assert pairs == [(Segment(0, 1), Segment(2, 3))]
        with caplog.at_level("WARNING", logger="minstab.models"):
            models._log_support_quality(model, {e: 0.5 for e in support})
        assert [r.getMessage() for r in caplog.records] == [
            "refined matching free support contains 1 properly crossing pair(s)"
        ]


class TestRowKeys:
    @pytest.mark.parametrize("build, seed", [(build_matching_model, 6), (build_tree_model, 1)])
    def test_keys_name_every_row_the_loops_append(self, build, seed):
        # at these seeds the length program appends rows phase 1 did not;
        # the built rows have no key
        model = build(gen_random(8, 100, seed=seed), AXIS)
        built = model.lp
        assert built.keys == frozenset() and {row.key for row in built.rows} == {None}

        def appended_keys():
            # each appended row is keyed by its origin: a pool row by its
            # line, whose matrix row it holds, and a cut by its cut_key
            keys = []
            for i in range(len(built.rows), len(model.lp.rows)):
                key = model.lp.rows[i].key
                if isinstance(key, frozenset):
                    assert key == cut_key(key, model.inst.n)
                    row, coeffs = models.cut_row(model, key)
                    assert row.key == key and row.rel == ">=" and row.rhs == 1
                    assert np.array_equal(model.lp.matrix[i], coeffs)
                    crossing = [(e.a in key) != (e.b in key) for e in model.edges]
                    assert model.lp.matrix[i].tolist() == crossing + [0]
                else:
                    assert np.array_equal(model.lp.matrix[i], stab_rows(model, [key])[0])
                keys.append(key)
            assert len(set(keys)) == len(keys)
            return frozenset(keys)

        root = solve_relaxation(model)
        grown = [len(model.lp.rows)]
        assert model.lp.keys == appended_keys()
        lexicographic_refine(model, root)
        grown.append(len(model.lp.rows))
        assert model.lp.keys == appended_keys()
        certify_relaxation(model, root)
        assert model.lp.keys == appended_keys()
        assert len(built.rows) < grown[0] < grown[1]
        assert any(isinstance(key, int) for key in model.lp.keys)
        assert any(isinstance(key, frozenset) for key in model.lp.keys)


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
        fix_edges(model, ones=[e])
        idx = model.edge_index[e]
        assert model.lp.lo[idx] == model.lp.hi[idx] == 1
        res = solve_relaxation(model)
        assert res.x[e] == pytest.approx(1)
        assert res.x[Segment(2, 3)] == pytest.approx(1)
        assert res.k_frac == pytest.approx(2)

    def test_fixings_are_the_edge_bounds(self, unit_square):
        model = build_matching_model(unit_square, AXIS)
        assert model.free_edges.all() and not model.fixed_ones and not model.fixed_zeros
        one, zero = Segment(0, 1), Segment(0, 2)
        # bounds set through with_bounds alone are fixings too
        model.lp = model.lp.with_bounds({model.edge_index[one]: (1, 1)})
        assert (model.fixed_ones, model.fixed_zeros) == ({one}, set())
        fix_edges(model, zeros=[zero])
        assert (model.fixed_ones, model.fixed_zeros) == ({one}, {zero})
        free = [e for e, f in zip(model.edges, model.free_edges.tolist()) if f]
        assert free == [e for e in model.edges if e not in (one, zero)]
        # k's bounds are no fixing
        assert len(model.free_edges) == len(model.edges)

    def test_fixing_a_fork_leaves_its_parent_unfixed(self, unit_square):
        parent = build_matching_model(unit_square, AXIS)
        built = parent.lp
        child = parent.fork()
        fix_edges(child, ones=[Segment(0, 1)], zeros=[Segment(0, 2)])
        assert (child.fixed_ones, child.fixed_zeros) == ({Segment(0, 1)}, {Segment(0, 2)})
        assert not parent.fixed_ones and not parent.fixed_zeros
        assert parent.free_edges.all() and parent.lp is built
        # the fork copies no record of its own: its program is the parent's
        # until fix_edges replaces it
        assert parent.fork().lp is built

    def test_infeasible_relaxation_carries_the_bounds_fixings(self, unit_square):
        model = build_matching_model(unit_square, AXIS)
        ones = {Segment(0, 1), Segment(0, 2)}  # vertex 0 twice: infeasible
        model.lp = model.lp.with_bounds({model.edge_index[e]: (1, 1) for e in ones})
        fix_edges(model, zeros=[Segment(1, 3)])
        with pytest.raises(InfeasibleRelaxationError) as err:
            solve_relaxation(model)
        assert err.value.fixed_ones == ones
        assert err.value.fixed_zeros == {Segment(1, 3)}

    def test_bad_value_rejected(self, unit_square):
        model = build_matching_model(unit_square, AXIS)
        # an edge fixed to both values in one call
        with pytest.raises(ModelError, match="cannot fix"):
            fix_edges(model, ones=[Segment(0, 1)], zeros=[Segment(0, 1)])
