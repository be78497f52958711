"""Integral solution generators: iterated rounding, exact branch-and-bound,
and minimum-length structures."""

from __future__ import annotations

import heapq
import logging
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Callable, Optional, Sequence

import numpy as np

from .cuts import separate_blossom  # noqa: F401  perfbench/spans.py wraps this name
from .geom import (
    LineFamily,
    Segment,
    euclidean_length,
    euclidean_length_sq,
    manhattan_length,
    stabbing_number,
)
from .instance import Instance, Method, Problem, Solution, UnionFind, structure_defect
from .lp import OBJ_TOL, Basis, make_lp
from .lp import lp_solve  # noqa: F401  perfbench/spans.py wraps this name
from .models import (
    InfeasibleRelaxationError,
    RelaxationResult,
    StabModel,
    _edge_ends,
    _run_loop,
    build_matching_model,
    build_tree_model,
    degree_rows,
    fix_edges,
    lexicographic_refine,
    pool_stabbing_number,
    solve_relaxation,
)

logger = logging.getLogger(__name__)

INT_TOL = 1e-6
# min_length_matching scales lengths below 2**LENGTH_BITS: coordinates up to
# 100 give such lengths, the range the solver's absolute tolerances are tested at
LENGTH_BITS = 8


class SolveError(RuntimeError):
    pass


@dataclass(frozen=True)
class BnbNode:
    fixed_ones: frozenset[Segment]
    fixed_zeros: frozenset[Segment]
    bound: float
    warm: Basis  # the parent's k-objective basis; the node solve starts from it


def _rationalized(value: float) -> Fraction:
    return Fraction(value).limit_denominator(10**6)


def build_model(inst: Instance, problem: Problem, family: LineFamily) -> StabModel:
    if problem is Problem.MATCHING:
        return build_matching_model(inst, family)
    if problem is Problem.SPANNING_TREE:
        return build_tree_model(inst, family)
    raise SolveError(f"no LP model for problem {problem.value}")


def _structure_size(inst: Instance, problem: Problem) -> int:
    return inst.n // 2 if problem is Problem.MATCHING else inst.n - 1


def iterated_rounding(
    model: StabModel,
    root: RelaxationResult,
    on_iteration: Optional[Callable[[dict], None]] = None,
) -> Solution:
    """Fix a heaviest refined edge to one and re-solve until the structure is
    complete. Ties go to the lexicographically smallest segment; for trees,
    the free edges that would close a cycle with the fixed ones are fixed to
    zero with it (_dead_edges), so each step is one fix_edges call.

    root is model's solved relaxation, refined for the first fixing; the
    fixings go on a fork of model. Each later k re-solve starts warm from the
    previous one's k-objective basis (not the length-refined one), and each
    later refinement from the previous refinement's basis: either program
    differs from its start only by the new fixings, a k cap no lower and
    appended rows. The rounded edges' stabbing number is read off the
    model's stabbing pool.

    on_iteration, when given, receives one record per LP round (refined
    weights, chosen edge) for instrumentation.
    """
    inst, problem, family = model.inst, model.problem, model.family
    work = model.fork()
    if work.fixed_ones:  # a model fixed before may hold dead edges already
        fix_edges(work, zeros=_dead_edges(work, ()))
    target = _structure_size(inst, problem)
    relax = root
    length_basis = None
    while True:
        refined = lexicographic_refine(work, relax, length_basis)
        length_basis = refined.basis
        choice = _pick_edge(work, refined.x, problem)
        if on_iteration is not None:
            on_iteration(
                {
                    "iteration": len(work.fixed_ones),
                    "k_frac": float(relax.k_frac),
                    "x": dict(refined.x),
                    "fixed_ones": work.fixed_ones,
                    "chosen": choice,
                }
            )
        fix_edges(work, ones=[choice], zeros=_dead_edges(work, [choice]))
        if len(work.fixed_ones) >= target:
            break
        relax = solve_relaxation(work, relax.basis)
    edges = tuple(sorted(work.fixed_ones))
    _assert_feasible(edges, inst, problem)
    return Solution(
        problem=problem,
        family=family,
        edges=edges,
        k=pool_stabbing_number(model, edges),
        lower_bound=_rationalized(float(root.k_frac)),
        method=Method.ROUNDING,
    )


def _dead_edges(model: StabModel, extra_ones) -> set[Segment]:
    """The free edges no integral completion can use once the edges in
    extra_ones are fixed to one too.

    For trees these are the edges closing a cycle with the fixed forest (the
    self-loops of the contracted residual problem); leaving them free lets the
    relaxation park weight on them, which breaks the planar-support argument.
    Matching degree rows already force edges at matched vertices to zero, so
    the set is empty there.
    """
    if model.problem is not Problem.SPANNING_TREE:
        return set()
    ones = model.fixed_ones.union(extra_ones)
    uf = UnionFind(model.inst.n)
    for e in ones:
        uf.union(e.a, e.b)
    return {
        e
        for e in compress(model.edges, model.free_edges)
        if e not in ones and uf.find(e.a) == uf.find(e.b)
    }


def _pick_edge(model: StabModel, x: dict, problem: Problem) -> Segment:
    """A heaviest free edge, ties to the smallest segment. For trees every
    free edge joins two components of the fixed forest, since
    the others are fixed to zero (_dead_edges); for matchings an edge at a
    matched vertex is skipped."""
    candidates = list(compress(model.edges, model.free_edges))
    if problem is Problem.MATCHING:
        matched = {v for e in model.fixed_ones for v in e}
        candidates = [e for e in candidates if e.a not in matched and e.b not in matched]
    if not candidates:
        raise SolveError("no candidate edge left to fix; structure incomplete")
    best_w = max(float(x[e]) for e in candidates)
    tied = [e for e in candidates if float(x[e]) >= best_w - 1e-9]
    return min(tied)


def _assert_feasible(edges: Sequence[Segment], inst: Instance, problem: Problem) -> None:
    defect = structure_defect(edges, inst.n, problem)
    if defect:
        raise SolveError(defect)


def _integral(x: dict) -> Optional[list[Segment]]:
    """The edges at weight one when x is integral, otherwise None."""
    chosen = []
    for e, w in x.items():
        v = float(w)
        if abs(v - 1) <= INT_TOL:
            chosen.append(e)
        elif v > INT_TOL:
            return None
    return sorted(chosen)


def branch_and_bound(
    model: StabModel,
    root: RelaxationResult,
    incumbent: Solution,
    time_limit: int = 0,
) -> Solution:
    """Best-first search over LP bounds; branch on the most fractional edge.

    model has no fixings and root, its solved relaxation, is the root node.
    Other nodes solve forks of a pool copy of model that gathers the
    stabbing and cut rows they append, warm from their parent's k-objective
    basis: the pool's rows only grow, so that basis covers a prefix of every
    later node's rows.

    incumbent is a feasible solution of the same problem and family, usually
    from iterated_rounding; its k is re-evaluated by geom.stabbing_number, and
    the search only accepts strictly better ones. An integral node's stabbing
    number is read off the model's stabbing pool.
    time_limit is in milliseconds and bounds the search, not the incumbent's
    construction; 0 means unlimited, and a negative one raises. On expiry
    the best incumbent is returned with proven=False instead of raising,
    unless the best open bound already proves it optimal.
    """
    inst, problem, family = model.inst, model.problem, model.family
    if time_limit < 0:
        raise SolveError(f"time limit {time_limit} ms is negative")
    if not model.free_edges.all():
        raise SolveError("branch-and-bound needs a model without fixings")
    if incumbent.problem is not problem or incumbent.family is not family:
        raise SolveError(
            f"incumbent solves {incumbent.problem.value}/{incumbent.family.value}, "
            f"not {problem.value}/{family.value}"
        )
    _assert_feasible(incumbent.edges, inst, problem)
    k, _ = stabbing_number(incumbent.edges, inst.points, family)
    if k != incumbent.k:
        raise SolveError(f"incumbent claims k={incumbent.k}, its edges give {k}")
    deadline = time.monotonic() + time_limit / 1000 if time_limit else None
    best_edges = incumbent.edges
    best_k = incumbent.k

    pool = model.fork()
    root_bound = float(root.k_frac)
    counter = 0
    heap: list[tuple[float, int, BnbNode]] = []
    start = BnbNode(frozenset(), frozenset(), root_bound, root.basis)
    heapq.heappush(heap, (start.bound, counter, start))
    proven = True

    while heap:
        bound, _, node = heapq.heappop(heap)
        if math.ceil(bound - OBJ_TOL) >= best_k:
            break  # best-first: every remaining node is at least as bad
        if deadline is not None and time.monotonic() > deadline:
            proven = False
            break
        work = pool.fork()
        if node is start:
            relax = root
        else:
            fix_edges(work, node.fixed_ones, node.fixed_zeros | _dead_edges(work, node.fixed_ones))
            try:
                relax = solve_relaxation(work, node.warm)
            except InfeasibleRelaxationError:
                continue
            # stabbing and cut rows hold at every node: hand the new ones,
            # with their coefficients and keys, to the pool
            m = len(pool.lp.rows)
            pool.lp = pool.lp.with_rows(work.lp.rows[m:], work.lp.matrix[m:])
        k_frac = float(relax.k_frac)
        node_bound = math.ceil(k_frac - OBJ_TOL)
        if node_bound >= best_k:
            continue
        integral = _integral(relax.x)
        if integral is not None:
            _assert_feasible(integral, inst, problem)
            k_int = pool_stabbing_number(model, integral)
            if k_int < best_k:
                best_k = k_int
                best_edges = tuple(integral)
            continue
        branch_edge = _most_fractional(work, relax.x)
        for value in (1, 0):
            ones = node.fixed_ones | {branch_edge} if value else node.fixed_ones
            zeros = node.fixed_zeros if value else node.fixed_zeros | {branch_edge}
            # a tree's branch edge is free, so it joins two components of
            # the fixed forest (_dead_edges); a matching's is kept off
            # the matched vertices only by its weight passing INT_TOL
            if value and problem is Problem.MATCHING:
                touched = [v for e in ones for v in e]
                if len(touched) != len(set(touched)):
                    continue
            counter += 1
            child = BnbNode(ones, zeros, k_frac, relax.basis)
            heapq.heappush(heap, (child.bound, counter, child))

    return Solution(
        problem=problem,
        family=family,
        edges=tuple(sorted(best_edges)),
        k=best_k,
        lower_bound=_rationalized(root_bound),
        method=Method.EXACT,
        proven=proven,
    )


def _most_fractional(model: StabModel, x: dict) -> Segment:
    best: Optional[Segment] = None
    best_score = float("inf")
    for e in compress(model.edges, model.free_edges):
        w = float(x[e])
        if w <= INT_TOL or abs(w - 1) <= INT_TOL:
            continue
        score = abs(w - 0.5)
        if score < best_score - 1e-12 or (
            abs(score - best_score) <= 1e-12 and (best is None or e < best)
        ):
            best = e
            best_score = score
    if best is None:
        raise SolveError("no fractional edge to branch on")
    return best


# ---------------------------------------------------------------------------
# minimum-length structures


def min_length_matching(inst: Instance, family: LineFamily) -> Solution:
    """Minimum-total-length perfect matching via the matching polytope LP,
    under the family's metric: Manhattan for axis lines, Euclidean for
    general ones.

    Degree equalities plus lazily separated odd-set cuts make every vertex of
    the feasible region integral; integrality is asserted, and a fractional
    float optimum is re-checked before giving up: the loop runs again in
    exact mode from its basis, each optimum certified in rationals and the
    cuts separated exactly. Ties between optimal
    matchings are broken toward the lexicographically smallest edge list by
    greedy fixing: an edge stays fixed to one when the optimum under the
    fixing stays within an optimal-length cap, and is fixed to zero otherwise.

    The cap lies OBJ_TOL * max(1, optimum) above the optimum, so the result
    is within OBJ_TOL (1e-6) relative of the minimum length, not always the
    minimum itself: at large coordinates, matchings whose lengths differ by
    less than that count as ties.
    """
    if inst.n % 2 != 0:
        raise SolveError(f"matching requires even n, got {inst.n}")
    edges = tuple(inst.all_edges())
    # the average-stabbing equivalence: axis lines pair with the Manhattan
    # metric, general lines with the Euclidean one
    metric = manhattan_length if family is LineFamily.AXIS_PARALLEL else euclidean_length
    lengths = [metric(e, inst.points) for e in edges]
    # The solver's tolerances are absolute: lengths past 2**LENGTH_BITS are
    # scaled below it by a power of two, which keeps each float exact
    exponent = max(0, math.frexp(max(lengths))[1] - LENGTH_BITS)
    if exponent:
        lengths = [math.ldexp(length, -exponent) for length in lengths]
    # the cutting-plane loop needs only edges and the degree and cut rows:
    # an empty line pool, no k column and the length objective
    ends = _edge_ends(edges)
    model = StabModel(
        problem=Problem.MATCHING,
        family=family,
        inst=inst,
        edges=edges,
        edge_index={e: i for i, e in enumerate(edges)},
        k_index=-1,
        lp=make_lp(
            len(edges),
            dict(enumerate(lengths)),
            *degree_rows(inst.n, ends, len(edges)),
            bounds=[(0, 1)] * len(edges),
        ),
        line_sides=np.zeros((0, inst.n), dtype=np.int8),
        stab_distinct=np.zeros(0, dtype=bool),
        edge_ends=ends,
    )

    result = _run_loop(model, exact=False, warm_basis=None)
    if _integral(result.x) is None:
        logger.info("fractional matching optimum; re-checking with exact solver")
        result = _run_loop(model, exact=True, warm_basis=result.basis)
        if _integral(result.x) is None:
            raise SolveError(
                "matching LP stayed fractional after exact re-check; "
                "blossom separation is incomplete"
            )
    optimum = float(result.k_frac)  # the objective value: total scaled length

    # lexicographic selection among optimal matchings: a fixing stays when
    # the optimum under it is within OBJ_TOL * max(1, optimum) of the
    # optimum, in unscaled lengths; no edge longer than that budget fits
    budget = optimum + OBJ_TOL * max(math.ldexp(1.0, -exponent), abs(optimum))
    fix_edges(model, zeros=[e for e, length in zip(edges, lengths) if length > budget])
    matched: set[int] = set()
    warm = result.basis
    for i, e in enumerate(edges):
        if e.a in matched or e.b in matched or model.lp.hi[i] == 0:
            continue
        trial = model.fork()
        fix_edges(trial, ones=[e])
        try:
            fixed = _run_loop(trial, exact=False, warm_basis=warm)
        except InfeasibleRelaxationError:
            fixed = None
        if fixed is None or fixed.k_frac > budget:
            # the rejected trial's cut rows and keys go with its fork
            fix_edges(model, zeros=[e])
            continue
        model, warm = trial, fixed.basis
        matched.update(e)
    out = tuple(sorted(model.fixed_ones))
    if len(out) != inst.n // 2:
        raise SolveError("lexicographic fixing failed to complete a matching")
    k, _ = stabbing_number(out, inst.points, family)
    return Solution(
        problem=Problem.MATCHING,
        family=family,
        edges=out,
        k=k,
        lower_bound=None,
        method=Method.MIN_LENGTH,
    )


def min_length_tree(inst: Instance, family: LineFamily) -> Solution:
    """Minimum spanning tree under the family's metric (see
    min_length_matching); Kruskal with lexicographic tie-breaking (squared
    lengths keep Euclidean comparisons exact)."""
    if inst.n < 2:
        raise SolveError("spanning tree needs n >= 2")
    metric = manhattan_length if family is LineFamily.AXIS_PARALLEL else euclidean_length_sq
    keyed = sorted((metric(e, inst.points), e) for e in inst.all_edges())
    uf = UnionFind(inst.n)
    chosen = []
    for _, e in keyed:
        if uf.union(e.a, e.b):
            chosen.append(e)
            if len(chosen) == inst.n - 1:
                break
    out = tuple(sorted(chosen))
    k, _ = stabbing_number(out, inst.points, family)
    return Solution(
        problem=Problem.SPANNING_TREE,
        family=family,
        edges=out,
        k=k,
        lower_bound=None,
        method=Method.MIN_LENGTH,
    )
