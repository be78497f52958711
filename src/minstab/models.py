"""Stabbing LPs for matchings and spanning trees, the cutting-plane loop, and
the length-lexicographic refinement that steers fractional optima toward
planar support.

A model's program starts with the degree rows (matching) or the total row
(tree) and one surrogate row. Every representative line has a stabbing row,
and the cutting-plane loop separates them lazily like blossom and
connectivity cuts: each round appends the most violated of them, and
separates cuts only once no stabbing row is violated. The model keeps the
line pool compactly, as each line's side signs at the points (lines x points
int8); a row, an activity or a stab count is derived from the signs over the
edges it needs, so no lines x edges array is kept.
Each appended row carries its key, a pool row's line index or a cut's
cut_key, so model.lp.keys is the one record of what the program holds.
Fixings are edge bounds only, set by fix_edges in one program copy per call.

The surrogate row is the sum of the pool's distinct rows, scaled by a power
of two (Glover, "Surrogate constraints", Operations Research 16(4), 1968).
The pool implies it, so it leaves the relaxation's value unchanged; it bounds
k from the first solve, which otherwise has no stabbing row and k = 0, and
so shortens the loop's vertex path."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import compress
from typing import Optional, Union

import numpy as np

from .cuts import SUPPORT_EPS, Cut, separate_blossom, separate_connectivity
from .geom import (
    LineFamily,
    Segment,
    euclidean_length,
    is_crossing_pair,
    representative_lines,
)
from .instance import Instance, Problem
from .lp import (
    OBJ_TOL,
    Basis,
    LinearProgram,
    LpStatus,
    Row,
    lp_solve,
    make_lp,
)

logger = logging.getLogger(__name__)

# Stabbing rows appended per round, most violated first. Fewer rounds of
# larger batches grow the program with rows that are never tight; appending
# every violated row at once made bound-general slower than no pool at all.
STAB_BATCH = 20
# A pool row counts as violated above this, well inside the 9 decimals that
# k_frac is printed with.
STAB_TOL = 1e-9
# Side signs are summed in int64 when |a|*|x| + |b|*|y| + |c|, over the largest
# coefficients and coordinates, stays below this; otherwise in Python ints.
SIDE_INT64_LIMIT = 2**62
# The build derives the distinct lines and the surrogate row from the side
# signs this many lines at a time, a LINE_CHUNK x edges table per chunk.
LINE_CHUNK = 256


class ModelError(RuntimeError):
    pass


class InfeasibleRelaxationError(ModelError):
    """The relaxation has no solution; only inconsistent fixings cause this."""

    def __init__(self, model: StabModel) -> None:
        self.fixed_ones, self.fixed_zeros = model.fixed_ones, model.fixed_zeros
        super().__init__(
            f"infeasible relaxation under fixings ones={sorted(self.fixed_ones)} "
            f"zeros={sorted(self.fixed_zeros)}"
        )


@dataclass
class StabModel:
    """LP over edge variables plus the bound variable k.

    Owned by a single solve loop: the loop solves lp and appends every
    violated stabbing row and cut row to it, and fix_edges replaces it with
    tightened bounds. lp starts with the degree rows or the total row and,
    when the pool has at least two distinct rows, the surrogate row
    sum(c_e x_e) - L k <= 0 scaled by 2**-ceil(log2 L): L is the number of
    distinct pool rows and c_e how many of them stab edge e. Every
    coefficient is exact in float64 and at most 1 in magnitude, and lives
    only in lp.matrix: each row set is built as a float64 block over
    edge_ends (degree_rows, the total and surrogate rows in the build,
    cut_row, stab_rows) sized by lp's variables, and enters lp with it.

    line_sides holds, for every representative line in line order, the sign
    of a*x + b*y - c at each point (lines x points int8, 0 on the line); it
    is built once and never written. It is stored column-major, so that one
    point's signs at every line lie together for the edge gathers that read
    them (line_sides.T is C-contiguous). A line stabs edge (u, v) when
    side[u] * side[v] <= 0, and its stabbing row is 1 on those edges and -1
    on k, with rhs 0. stab_rows derives the block of the rows the loop
    appends, each with a Row("<=", 0) of its own.
    stab_distinct marks the lines whose stabbed-edge set is no earlier
    line's, the only ones the loop appends. edge_ends holds each edge's two
    point indices (edges x 2). Every row appended to lp carries its key, so
    lp.keys names them all: a stabbing row its line's index, a cut row the
    canonical side of its vertex set (cut_key).

    Fixings live only in lp's bounds (fixed_ones, fixed_zeros, free_edges).
    length_cost is the Euclidean length cost vector of lexicographic
    refinement, built by its first call and shared by later forks.
    """

    problem: Problem
    family: LineFamily
    inst: Instance
    edges: tuple[Segment, ...]
    edge_index: dict[Segment, int]
    k_index: int
    lp: LinearProgram
    line_sides: np.ndarray
    stab_distinct: np.ndarray
    edge_ends: np.ndarray
    length_cost: Optional[np.ndarray] = None

    def fork(self) -> StabModel:
        """A copy that shares lp, fixings and all, until either replaces it."""
        return replace(self)

    @property
    def free_edges(self) -> np.ndarray:
        """Which edges are fixed neither to one nor to zero, in edge order."""
        return (self.lp.lo[: len(self.edges)] != 1) & (self.lp.hi[: len(self.edges)] != 0)

    @property
    def fixed_ones(self) -> frozenset[Segment]:
        """The edges fixed to one: lo == 1."""
        return frozenset(compress(self.edges, self.lp.lo[: len(self.edges)] == 1))

    @property
    def fixed_zeros(self) -> frozenset[Segment]:
        """The edges fixed to zero: hi == 0."""
        return frozenset(compress(self.edges, self.lp.hi[: len(self.edges)] == 0))


@dataclass
class RelaxationResult:
    k_frac: Union[float, Fraction]
    x: dict[Segment, Union[float, Fraction]]
    cuts_added: int  # blossom and connectivity cuts
    stab_rows_added: int  # stabbing rows appended from the pool
    lp_iterations: int
    basis: Basis


def _build(inst: Instance, family: LineFamily, problem: Problem) -> StabModel:
    n = inst.n
    edges = tuple(inst.all_edges())
    edge_index = {e: i for i, e in enumerate(edges)}
    num_edges = len(edges)
    k_index = num_edges
    num_vars = num_edges + 1
    ends = _edge_ends(edges)
    if problem is Problem.MATCHING:
        bounds = [(0, 1)] * num_edges + [(0, math.inf)]
        rows, block = degree_rows(n, ends, num_vars)
    else:
        # no upper bound on tree edge weights: the relaxation only has the
        # nonnegativity bound, which is what lets weight shift off a crossing
        # pair even when a neighbor edge already carries weight one
        bounds = None  # make_lp's [0, inf) for every variable
        rows, block = [Row("=", n - 1)], np.zeros((1, num_vars))
        block[0, :num_edges] = 1.0
    sides = _line_sides(inst, representative_lines(inst.points, family))
    distinct, counts = _distinct_lines(sides, ends)
    num_distinct = int(distinct.sum())
    # the surrogate row (see StabModel); of a single distinct row it would be
    # that very row, which the loop appends when it is violated
    if num_distinct >= 2:
        scale = math.ldexp(1.0, -(num_distinct - 1).bit_length())
        rows.append(Row("<=", 0))
        block = np.vstack([block, np.append(counts, -num_distinct) * scale])
    lp = make_lp(num_vars, {k_index: 1}, rows, block, bounds)
    return StabModel(
        problem=problem,
        family=family,
        inst=inst,
        edges=edges,
        edge_index=edge_index,
        k_index=k_index,
        lp=lp,
        line_sides=sides,
        stab_distinct=distinct,
        edge_ends=ends,
    )


def degree_rows(n: int, ends: np.ndarray, num_vars: int) -> tuple[list[Row], np.ndarray]:
    """A perfect matching's degree rows, the edges at each vertex summing to
    1, and their block over num_vars variables: edge j is ends[j]."""
    block = np.zeros((n, num_vars))
    cols = np.arange(len(ends))
    block[ends[:, 0], cols] = block[ends[:, 1], cols] = 1.0
    return [Row("=", 1) for _ in range(n)], block


def _edge_ends(edges) -> np.ndarray:
    """Each edge's two point indices, edges x 2."""
    return np.array(edges, dtype=np.intp).reshape(len(edges), 2)


def _line_sides(inst: Instance, lines) -> np.ndarray:
    """The sign of a*x + b*y - c at each point, for each line: lines x points
    int8, 0 where the point lies on the line, column-major (see StabModel)."""
    a, b, c = zip(*((ln.a, ln.b, ln.c) for ln in lines))
    xs = [p.x for p in inst.points]
    ys = [p.y for p in inst.points]
    # a*x + b*y - c can pass 2**63 near the coordinate limit: Python ints then
    size = max(map(abs, a)) * max(map(abs, xs)) + max(map(abs, b)) * max(map(abs, ys))
    dtype = np.int64 if size + max(map(abs, c)) < SIDE_INT64_LIMIT else object
    a, b, c, xs, ys = (np.array(v, dtype=dtype) for v in (a, b, c, xs, ys))
    return np.sign(np.outer(xs, a) + np.outer(ys, b) - c).astype(np.int8).T


def _stabbed(sides: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Which of these lines (sides, lines x points) meets each of these edges
    (ends, edges x 2), as an edges x lines table: an endpoint on the line
    counts."""
    points = sides.T
    return points.take(ends[:, 0], axis=0) * points.take(ends[:, 1], axis=0) <= 0


def _distinct_lines(sides: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which lines stab an edge set no earlier line stabs, and how many of
    those distinct lines stab each edge; LINE_CHUNK lines at a time."""
    distinct = np.zeros(len(sides), dtype=bool)
    counts = np.zeros(len(ends), dtype=np.int64)
    seen = set()
    for start in range(0, len(sides), LINE_CHUNK):
        stabbed = _stabbed(sides[start : start + LINE_CHUNK], ends)
        for i, bits in enumerate(np.packbits(stabbed, axis=0).T):
            key = bits.tobytes()
            if key not in seen:
                seen.add(key)
                distinct[start + i] = True
        counts += stabbed[:, distinct[start : start + LINE_CHUNK]].sum(axis=1)
    return distinct, counts


def stab_rows(model: StabModel, lines) -> np.ndarray:
    """The float stabbing rows of these pool lines over model.lp's variables:
    1 on each edge the line stabs, -1 on k."""
    sides = model.line_sides[np.asarray(lines, dtype=np.intp)]
    rows = np.zeros((len(sides), model.lp.num_vars))
    rows[:, : len(model.edges)] = _stabbed(sides, model.edge_ends).T
    rows[:, model.k_index] = -1.0
    return rows


def build_matching_model(inst: Instance, family: LineFamily) -> StabModel:
    if inst.n % 2 != 0:
        raise ModelError(f"matching requires even n, got {inst.n}")
    if inst.n < 2:
        raise ModelError("matching model needs n >= 2")
    return _build(inst, family, Problem.MATCHING)


def build_tree_model(inst: Instance, family: LineFamily) -> StabModel:
    if inst.n < 2:
        raise ModelError("tree model needs n >= 2")
    return _build(inst, family, Problem.SPANNING_TREE)


def pool_stabbing_number(model: StabModel, edges) -> int:
    """The stabbing number of these edges, read off the model's line pool:
    the most of them one representative line meets."""
    cols = [model.edge_index[e] for e in edges]
    return int(_stabbed(model.line_sides, model.edge_ends[cols]).sum(axis=0).max())


def fix_edges(model: StabModel, ones=(), zeros=()) -> None:
    """Pin the edges in ones to 1 and those in zeros to 0 by writing their
    bounds, the model's only record of fixings, in one program copy. An edge
    whose bounds exclude its value raises ModelError: one fixed the other
    way before, or in both collections."""
    bounds = {}
    for value, edges in ((1, ones), (0, zeros)):
        for seg in edges:
            idx = model.edge_index[seg]
            lo, hi = bounds.get(idx, (model.lp.lo[idx], model.lp.hi[idx]))
            if not lo <= value <= hi:
                raise ModelError(f"cannot fix edge {seg} to {value}: its bounds are [{lo}, {hi}]")
            bounds[idx] = (value, value)
    model.lp = model.lp.with_bounds(bounds)


def cut_row(model: StabModel, members: frozenset[int]) -> tuple[Row, np.ndarray]:
    """The cut row x(delta(members)) >= 1, keyed by its cut_key, and its
    coefficients over model.lp's variables."""
    inside = np.zeros(model.inst.n, dtype=bool)
    inside[list(members)] = True
    coeffs = np.zeros(model.lp.num_vars)
    ends = model.edge_ends
    coeffs[: len(ends)] = inside[ends[:, 0]] != inside[ends[:, 1]]
    return Row(">=", 1, cut_key(members, model.inst.n)), coeffs


def cut_key(members: frozenset[int], n: int) -> frozenset[int]:
    """Canonical side of a cut: S and its complement induce the same row."""
    comp = frozenset(range(n)) - members
    if len(members) != len(comp):
        return members if len(members) < len(comp) else comp
    return members if 0 in members else comp


def _separate(model: StabModel, x, *, exact: bool) -> list[Cut]:
    kwargs = dict(support_eps=0, violation_eps=0) if exact else {}
    if model.problem is Problem.MATCHING:
        return separate_blossom(x, model.inst.n, **kwargs)
    return separate_connectivity(x, model.inst.n, **kwargs)


def _pool_activity(model: StabModel, primal: list, *, exact: bool) -> np.ndarray:
    """Each pool line's stabbing row times primal, summed over the edges
    where primal is nonzero. The exact activity is an int: the row times the
    primal's integer numerators over their common denominator, which scales
    every activity by the same positive number."""
    num_edges = len(model.edges)
    k = primal[model.k_index]
    if not exact:
        x = np.fromiter(primal, float, num_edges)
        support = np.flatnonzero(x)
        return x[support] @ _stabbed(model.line_sides, model.edge_ends[support]) - k
    support = [j for j in range(num_edges) if primal[j]]
    stabbed = _stabbed(model.line_sides, model.edge_ends[support])
    den = math.lcm(k.denominator, *(primal[j].denominator for j in support))
    nums = [primal[j].numerator * (den // primal[j].denominator) for j in support]
    k_num = k.numerator * (den // k.denominator)
    dtype = np.int64 if sum(map(abs, nums)) + abs(k_num) < 2**63 else object
    return np.array(nums, dtype=dtype) @ stabbed.astype(dtype) - k_num


def _violated_stab_rows(model: StabModel, primal: list, *, exact: bool) -> list[int]:
    """Indices of the distinct pool lines not in model.lp whose stabbing rows
    primal violates, at most STAB_BATCH of them, most violated first and ties
    to the lowest index. The exact check has no tolerance."""
    activity = _pool_activity(model, primal, exact=exact)
    found = np.flatnonzero((activity > (0 if exact else STAB_TOL)) & model.stab_distinct)
    found = found[np.lexsort((found, -activity[found]))].tolist()
    # only the violated lines are looked up: a program holds many more keys
    return [i for i in found if i not in model.lp.keys][:STAB_BATCH]


def _run_loop(
    model: StabModel, *, exact: bool, warm_basis: Optional[Basis]
) -> RelaxationResult:
    """Solve model.lp, append the violated stabbing rows of the pool, or once
    none is violated the violated cut rows, to model.lp, and repeat until
    clean; k_frac is the value of model.lp's objective.

    Terminates because each pool row and each distinct vertex set enters at
    most once.
    """
    n = model.inst.n
    iterations = 0
    cuts_added = 0
    stab_rows_added = 0
    while True:
        result = lp_solve(model.lp, warm_basis=warm_basis, exact=exact)
        iterations += 1
        if result.status is LpStatus.INFEASIBLE:
            raise InfeasibleRelaxationError(model)
        if result.status is not LpStatus.OPTIMAL:
            raise ModelError(f"relaxation came back {result.status.value}")
        warm_basis = result.basis
        lines = _violated_stab_rows(model, result.primal, exact=exact)
        if lines:
            # stab_rows gives the coefficients; each row is its own Row
            rows = [Row("<=", 0, key=i) for i in lines]
            model.lp = model.lp.with_rows(rows, stab_rows(model, lines))
            stab_rows_added += len(lines)
            continue
        x = {e: result.primal[i] for i, e in enumerate(model.edges)}
        # both sides of a cut share one key, and so one row: the key's own
        keys = dict.fromkeys(cut_key(c.members, n) for c in _separate(model, x, exact=exact))
        cuts = [cut_row(model, key) for key in keys if key not in model.lp.keys]
        if not cuts:
            return RelaxationResult(
                k_frac=result.objective_value,
                x=x,
                cuts_added=cuts_added,
                stab_rows_added=stab_rows_added,
                lp_iterations=iterations,
                basis=result.basis,
            )
        rows, coeffs = zip(*cuts)
        model.lp = model.lp.with_rows(rows, np.array(coeffs))
        cuts_added += len(rows)


def solve_relaxation(
    model: StabModel, warm_basis: Optional[Basis] = None
) -> RelaxationResult:
    """Cutting-plane loop on the stabbing LP; returns the fractional optimum.

    warm_basis is the k-objective basis of an earlier solve whose rows are a
    prefix of model.lp's rows; the float LP then re-optimizes from it after
    the fixings, stabbing rows and cut rows added since (a rounding fixing, a
    branch-and-bound node, the refinement retry) instead of starting cold.
    """
    return _run_loop(model, exact=False, warm_basis=warm_basis)


def _set_objective(model: StabModel, cost: np.ndarray, k_hi: float) -> None:
    """Give model.lp this cost vector and this upper bound on k."""
    k = model.k_index
    model.lp = model.lp.with_cost(cost).with_bounds({k: (model.lp.lo[k], k_hi)})


def lexicographic_refine(
    model: StabModel, result: RelaxationResult, length_basis: Optional[Basis] = None
) -> RelaxationResult:
    """Phase 2: cap k at its optimum (within tolerance) and minimize total
    Euclidean edge length, re-running the separation loop.

    The cap is k's upper bound, so the length program has exactly model.lp's
    rows and the rows it appends stay in model.lp; its objective and k's bound
    are restored on return or raise.

    length_basis, when given, is the basis of an earlier refinement of this
    model (iterated rounding passes the previous one's): its rows are a prefix
    of model.lp's and it is dual feasible for the length objective, so the
    length program re-optimizes from it with dual pivots. Otherwise it starts
    from result's k-objective basis.

    Shifting weight off a properly crossing pair onto the sides of its convex
    quadrilateral strictly shortens the solution, so length-optimal supports
    are planar; this is checked and logged, never silently accepted.

    Cuts discovered while minimizing length can raise the true relaxation
    value past the cap; when that happens phase 1 is re-solved with the
    enlarged cut set and phase 2 retried from the new k-objective basis,
    which terminates because every retry consumes at least one fresh cut.
    """
    if model.length_cost is None:
        lengths = [euclidean_length(e, model.inst.points) for e in model.edges]
        model.length_cost = np.append(lengths, 0.0)  # k costs nothing
    k_cost, k_hi = model.lp.cost, model.lp.hi[model.k_index]
    k_frac = result.k_frac
    warm = result.basis
    length_warm = warm if length_basis is None else length_basis
    cuts_total = 0
    stab_total = 0
    iters_total = 0
    try:
        for _ in range(len(model.edges) * 4 + 64):
            _set_objective(model, model.length_cost, float(k_frac) + OBJ_TOL)
            try:
                refined = _run_loop(model, exact=False, warm_basis=length_warm)
            except InfeasibleRelaxationError:
                _set_objective(model, k_cost, k_hi)
                fresh = solve_relaxation(model, warm)  # raises if fixings truly infeasible
                k_frac = fresh.k_frac
                warm = length_warm = fresh.basis
                iters_total += fresh.lp_iterations
                cuts_total += fresh.cuts_added
                stab_total += fresh.stab_rows_added
                continue
            _log_support_quality(model, refined.x)
            return replace(
                refined,
                k_frac=k_frac,
                cuts_added=cuts_total + refined.cuts_added,
                stab_rows_added=stab_total + refined.stab_rows_added,
                lp_iterations=iters_total + refined.lp_iterations,
            )
        raise ModelError("length refinement failed to stabilize")
    finally:
        _set_objective(model, k_cost, k_hi)


def _log_support_quality(model: StabModel, x) -> None:
    support = [e for e, w in x.items() if w > SUPPORT_EPS]
    if not support:
        return
    max_w = max(x[e] for e in support)
    threshold = 0.2 if model.problem is Problem.MATCHING else 1 / 3
    fixed_ones = model.fixed_ones
    if not fixed_ones and max_w < threshold - OBJ_TOL:
        logger.warning(
            "refined %s solution has max edge weight %.6f below %.3f",
            model.problem.value,
            max_w,
            threshold,
        )
    # planarity is a property of the residual problem: fixed edges are part
    # of the environment and the uncrossing shift cannot touch them
    free = [e for e in support if e not in fixed_ones]
    points = model.inst.points
    boxes = sorted(
        (
            min(points[e.a].x, points[e.b].x),
            max(points[e.a].x, points[e.b].x),
            min(points[e.a].y, points[e.b].y),
            max(points[e.a].y, points[e.b].y),
            e,
        )
        for e in free
    )
    # a proper crossing lies inside both segments' bounding boxes and at no
    # shared endpoint, so only pairs whose boxes meet are tested: in order of
    # the left edge x0, the scan for e stops at the first box right of e's
    crossings = 0
    for i, (_, x1, y0, y1, e) in enumerate(boxes):
        for fx0, _, fy0, fy1, f in boxes[i + 1 :]:
            if fx0 > x1:
                break
            if fy0 > y1 or fy1 < y0 or e.a in f or e.b in f:
                continue
            if is_crossing_pair(e, f, points):
                crossings += 1
    if crossings:
        logger.warning(
            "refined %s free support contains %d properly crossing pair(s)",
            model.problem.value,
            crossings,
        )


def certify_relaxation(model: StabModel, result: RelaxationResult) -> Fraction:
    """Exact rational optimum of the relaxation, re-separated with zero
    tolerances. Each exact solve is offered the float basis: the float
    re-solve starts warm from it, and lp_solve's exact check proves that
    optimum optimal in exact arithmetic or raises LpError. Raises if the
    exact loop cannot confirm the float value within the objective
    tolerance."""
    value = _run_loop(model, exact=True, warm_basis=result.basis).k_frac
    assert isinstance(value, Fraction)
    if abs(float(value) - float(result.k_frac)) > OBJ_TOL:
        raise ModelError(
            f"float relaxation {result.k_frac} disagrees with exact {value}"
        )
    return value
