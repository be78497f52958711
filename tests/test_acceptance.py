"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The matching and tree benchmark suites (seeded random instances plus
collinear-rich grids) are computed once per session and shared by the
criteria that re-examine them.
"""

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional

import pytest

from minstab import (
    Instance,
    LineFamily,
    Problem,
    Segment,
    branch_and_bound,
    brute_optimum,
    build_matching_model,
    build_tree_model,
    certify_relaxation,
    gen_grid,
    gen_random,
    solve_relaxation,
    verify_solution,
)
from minstab.cuts import SUPPORT_EPS, separate_blossom, separate_connectivity
from minstab.geom import (
    collinear_segments,
    crossing_number,
    is_crossing_pair,
    representative_lines,
    segments_disjoint,
    stabbing_number,
    stabs,
)
from minstab.instance import SplitMix64
from minstab.oracle import Objective, enum_perfect_matchings, enum_spanning_trees
from minstab.solve import iterated_rounding

AXIS = LineFamily.AXIS_PARALLEL
GENERAL = LineFamily.GENERAL
FAMILIES = (AXIS, GENERAL)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {criterion}: {detail}"


@dataclass
class Record:
    inst: Instance
    family: LineFamily
    problem: Problem
    k_frac: float
    k_frac_exact: Fraction
    k_exact: int
    proven: bool
    k_rounding: int
    rounding_edges: tuple
    exact_edges: tuple
    iteration_max_weights: list = field(default_factory=list)
    iteration_crossings: list = field(default_factory=list)


def _run_instance(inst: Instance, problem: Problem, family: LineFamily) -> Record:
    build = build_matching_model if problem is Problem.MATCHING else build_tree_model
    model = build(inst, family)
    relax = solve_relaxation(model)
    exact_value = certify_relaxation(model, relax)

    trace = []
    rounded = iterated_rounding(inst, problem, family, on_iteration=trace.append)
    verify_solution(inst, rounded)
    exact = branch_and_bound(inst, problem, family, rounded)
    verify_solution(inst, exact)

    max_weights = []
    crossings = []
    for rec in trace:
        support = [e for e, w in rec["x"].items() if w > SUPPORT_EPS]
        max_weights.append(max(float(rec["x"][e]) for e in support))
        # planarity applies to the residual problem: the uncrossing shift
        # cannot move weight on edges already fixed to one
        free = [e for e in support if e not in rec["fixed_ones"]]
        count = 0
        for i, e in enumerate(free):
            for f in free[i + 1 :]:
                if is_crossing_pair(e, f, inst.points):
                    count += 1
        crossings.append(count)

    return Record(
        inst=inst,
        family=family,
        problem=problem,
        k_frac=float(relax.k_frac),
        k_frac_exact=exact_value,
        k_exact=exact.k,
        proven=exact.proven,
        k_rounding=rounded.k,
        rounding_edges=rounded.edges,
        exact_edges=exact.edges,
        iteration_max_weights=max_weights,
        iteration_crossings=crossings,
    )


MATCHING_GRIDS = [
    (2, 2, Fraction(1)),
    (2, 3, Fraction(1)),
    (2, 4, Fraction(1)),
    (3, 3, Fraction(8, 9)),
    (3, 4, Fraction(1)),
    (3, 4, Fraction(5, 6)),
    (2, 4, Fraction(3, 4)),
    (3, 3, Fraction(2, 3)),
    (3, 4, Fraction(1, 2)),
    (2, 3, Fraction(2, 3)),
]

TREE_GRIDS = [
    (2, 2, Fraction(1)),
    (2, 3, Fraction(1)),
    (2, 4, Fraction(1)),
    (3, 3, Fraction(7, 9)),
    (2, 4, Fraction(7, 8)),
    (2, 3, Fraction(5, 6)),
    (3, 3, Fraction(2, 3)),
    (2, 4, Fraction(3, 4)),
    (2, 2, Fraction(3, 4)),
    (2, 4, Fraction(5, 8)),
]


def _matching_instances() -> list[Instance]:
    out = [gen_random(10, 100, seed=s) for s in range(100)]
    for rows, cols, keep in MATCHING_GRIDS:
        for seed in (1, 2):
            inst = gen_grid(rows, cols, keep, seed=seed)
            assert inst.n % 2 == 0, inst.name
            out.append(inst)
    return out


def _tree_instances() -> list[Instance]:
    out = [gen_random(7, 100, seed=s) for s in range(100)]
    for rows, cols, keep in TREE_GRIDS:
        for seed in (1, 2):
            inst = gen_grid(rows, cols, keep, seed=seed)
            assert inst.n <= 8, inst.name
            out.append(inst)
    return out


@pytest.fixture(scope="session")
def matching_suite() -> tuple[list[Record], float]:
    start = time.perf_counter()
    records = []
    for inst in _matching_instances():
        for family in FAMILIES:
            records.append(_run_instance(inst, Problem.MATCHING, family))
    return records, time.perf_counter() - start


@pytest.fixture(scope="session")
def tree_suite() -> tuple[list[Record], float]:
    start = time.perf_counter()
    records = []
    for inst in _tree_instances():
        for family in FAMILIES:
            records.append(_run_instance(inst, Problem.SPANNING_TREE, family))
    return records, time.perf_counter() - start


class TestCriterion1:
    def test_matching_oracle_equivalence(self, matching_suite):
        records, elapsed = matching_suite
        mismatches = []
        for rec in records:
            value, _ = brute_optimum(
                rec.inst, Problem.MATCHING, rec.family, Objective.STABBING
            )
            if not rec.proven or rec.k_exact != value:
                mismatches.append((rec.inst.name, rec.family.value, rec.k_exact, value))
        report(
            "1",
            not mismatches,
            f"{len(records)} matching runs, {elapsed:.1f}s"
            + (f", mismatches: {mismatches[:3]}" if mismatches else ""),
        )


class TestCriterion2:
    def test_tree_oracle_equivalence(self, tree_suite):
        records, elapsed = tree_suite
        mismatches = []
        for rec in records:
            value, _ = brute_optimum(
                rec.inst, Problem.SPANNING_TREE, rec.family, Objective.STABBING
            )
            if not rec.proven or rec.k_exact != value:
                mismatches.append((rec.inst.name, rec.family.value, rec.k_exact, value))
        report(
            "2",
            not mismatches,
            f"{len(records)} tree runs, {elapsed:.1f}s"
            + (f", mismatches: {mismatches[:3]}" if mismatches else ""),
        )


class TestCriterion3:
    def test_sandwich(self, matching_suite, tree_suite):
        bad = []
        for rec in matching_suite[0] + tree_suite[0]:
            lo = math.ceil(rec.k_frac - 1e-6)
            if not lo <= rec.k_exact <= rec.k_rounding:
                bad.append((rec.inst.name, rec.family.value, lo, rec.k_exact, rec.k_rounding))
        report("3", not bad, f"checked {len(matching_suite[0]) + len(tree_suite[0])} runs"
               + (f", violations: {bad[:3]}" if bad else ""))


class TestCriterion4:
    def test_heavy_edges_and_planar_support(self, matching_suite, tree_suite):
        bad = []
        for rec, threshold in [(r, 0.2) for r in matching_suite[0]] + [
            (r, 1 / 3) for r in tree_suite[0]
        ]:
            for it, w in enumerate(rec.iteration_max_weights):
                if w < threshold - 1e-6:
                    bad.append(("weight", rec.inst.name, rec.family.value, it, w))
            for it, c in enumerate(rec.iteration_crossings):
                if c:
                    bad.append(("crossing", rec.inst.name, rec.family.value, it, c))
        total_iters = sum(
            len(r.iteration_max_weights) for r in matching_suite[0] + tree_suite[0]
        )
        report("4", not bad, f"{total_iters} rounding iterations"
               + (f", violations: {bad[:3]}" if bad else ""))


class TestCriterion5:
    @pytest.fixture(scope="class")
    def square(self) -> Instance:
        from minstab import Point

        return Instance("unit-square", (Point(0, 0), Point(1, 0), Point(0, 1), Point(1, 1)))

    def test_matching_lp_value(self, square):
        model = build_matching_model(square, AXIS)
        relax = solve_relaxation(model)
        exact = certify_relaxation(model, relax)
        ok = abs(relax.k_frac - 1.5) <= 1e-6 and exact == Fraction(3, 2)
        report("5.lp", ok, f"k_frac={relax.k_frac!r} exact={exact}")

    def test_exact_matching(self, square):
        rounded = iterated_rounding(square, Problem.MATCHING, AXIS)
        sol = branch_and_bound(square, Problem.MATCHING, AXIS, rounded)
        report("5.matching", sol.k == 2 and sol.proven, f"k={sol.k}")

    def test_exact_tree(self, square):
        # the optimum is 3, by counting: each K4 edge on the square meets at
        # least 3 of the 4 axis lines, so the 3 edges of any spanning tree
        # make at least 9 hits on 4 lines and some line gets 3
        lines = representative_lines(square.points, AXIS)
        hits = [
            sum(stabs(line, e, square.points) for line in lines)
            for e in square.all_edges()
        ]
        lower = math.ceil((square.n - 1) * min(hits) / len(lines))
        oracle, _ = brute_optimum(square, Problem.SPANNING_TREE, AXIS, Objective.STABBING)
        rounded = iterated_rounding(square, Problem.SPANNING_TREE, AXIS)
        sol = branch_and_bound(square, Problem.SPANNING_TREE, AXIS, rounded)
        ok = (
            len(lines) == 4
            and len(hits) == 6
            and lower == 3
            and oracle == 3
            and sol.k == 3
            and sol.proven
        )
        report("5.tree", ok, f"k={sol.k} proven={sol.proven} oracle={oracle} "
               f"lines={len(lines)} hits per edge={hits}")

    def test_triangulation_crossing(self, square):
        value, structures = brute_optimum(
            square, Problem.TRIANGULATION, AXIS, Objective.CROSSING
        )
        report(
            "5.triangulation",
            value == 3 and len(structures) == 2,
            f"crossing={value} optima={len(structures)}",
        )


def _enum_min_odd_cut(x, n):
    best = None
    for size in range(1, n, 2):
        for subset in combinations(range(n), size):
            members = set(subset)
            val = sum(w for e, w in x.items() if (e.a in members) != (e.b in members))
            if best is None or val < best:
                best = val
    return best


def _enum_min_cut(x, n):
    best = None
    for size in range(1, n):
        for subset in combinations(range(n), size):
            if 0 not in subset:
                continue
            members = set(subset)
            val = sum(w for e, w in x.items() if (e.a in members) != (e.b in members))
            if best is None or val < best:
                best = val
    return best


class TestCriterion6:
    def test_separation_agrees_with_enumeration(self):
        rng = SplitMix64(2024)
        sizes = (4, 6, 8, 10)
        checked = 0
        bad = []
        matchings_by_n = {n: list(enum_perfect_matchings(n)) for n in sizes}
        trees_by_n = {n: list(enum_spanning_trees(n)) for n in (4, 5, 6)}
        for trial in range(200):
            n = sizes[trial % len(sizes)]
            parts = 1 + rng.randrange(3)
            weights = [rng.randrange(1, 100) for _ in range(parts)]
            total = sum(weights)
            x = {}
            pool = matchings_by_n[n]
            for w in weights:
                for e in pool[rng.randrange(len(pool))]:
                    x[e] = x.get(e, 0.0) + w / total
            cuts = separate_blossom(x, n)
            true_min = _enum_min_odd_cut(x, n)
            if bool(cuts) != (true_min < 1 - 1e-7):
                bad.append(("blossom-detect", trial))
            elif cuts and abs(cuts[0].cut_value - true_min) > 1e-9:
                bad.append(("blossom-value", trial, cuts[0].cut_value, true_min))
            checked += 1

            tn = (4, 5, 6)[trial % 3]
            tpool = trees_by_n[tn]
            scale = rng.randrange(40, 130) / 100
            tx = {}
            for e in tpool[rng.randrange(len(tpool))]:
                tx[e] = scale
            ccuts = separate_connectivity(tx, tn)
            cmin = _enum_min_cut(tx, tn)
            if bool(ccuts) != (cmin < 1 - 1e-7):
                bad.append(("conn-detect", trial))
            elif ccuts and abs(ccuts[0].cut_value - cmin) > 1e-9:
                bad.append(("conn-value", trial))
            checked += 1
        report("6", not bad, f"{checked} separation calls"
               + (f", failures: {bad[:3]}" if bad else ""))


class TestCriterion7:
    def test_average_stabbing_equals_length_argmins(self):
        bad = []
        count = 0
        for seed in range(50):
            n = (4, 6, 8)[seed % 3]
            inst = gen_random(n, 50, seed=9000 + seed)
            for problem in (Problem.MATCHING, Problem.SPANNING_TREE):
                if problem is Problem.SPANNING_TREE and n > 8:
                    continue
                for family, _metric in ((AXIS, "manhattan"), (GENERAL, "euclidean")):
                    _, avg_set = brute_optimum(
                        inst, problem, family, Objective.AVERAGE_STABBING
                    )
                    _, len_set = brute_optimum(inst, problem, family, Objective.LENGTH)
                    count += 1
                    if avg_set != len_set:
                        bad.append((inst.name, problem.value, family.value))
        report("7", not bad, f"{count} argmin-set comparisons"
               + (f", mismatches: {bad[:3]}" if bad else ""))


class TestCriterion8:
    def test_planar_matchings_coincide(self, matching_suite):
        records, _ = matching_suite
        checked = 0
        bad = []
        for rec in records:
            for edges in (rec.rounding_edges, rec.exact_edges):
                pairs = list(combinations(edges, 2))
                planar = all(
                    segments_disjoint(e, f, rec.inst.points) for e, f in pairs
                ) and all(
                    not collinear_segments(e, f, rec.inst.points) for e, f in pairs
                )
                if not planar:
                    continue
                checked += 1
                for family in FAMILIES:
                    cn = crossing_number(edges, rec.inst.points, family)
                    sn, _ = stabbing_number(edges, rec.inst.points, family)
                    if cn != sn:
                        bad.append((rec.inst.name, family.value, cn, sn))
        report("8", not bad and checked > 0, f"{checked} planar matchings checked"
               + (f", mismatches: {bad[:3]}" if bad else ""))


class TestCriterion9:
    def test_float_lp_values_certified(self, matching_suite, tree_suite):
        bad = []
        for rec in matching_suite[0] + tree_suite[0]:
            if abs(rec.k_frac - float(rec.k_frac_exact)) > 1e-6:
                bad.append((rec.inst.name, rec.family.value, rec.k_frac, rec.k_frac_exact))
        report("9", not bad, f"{len(matching_suite[0]) + len(tree_suite[0])} certifications"
               + (f", gaps: {bad[:3]}" if bad else ""))
