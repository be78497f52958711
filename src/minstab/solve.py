"""Integral solution generators: iterated rounding, exact branch-and-bound,
and minimum-length structures."""

from __future__ import annotations

import heapq
import logging
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

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
from .lp import OBJ_TOL, Basis, LinearProgram, make_lp, make_row
from .lp import lp_solve  # noqa: F401  perfbench/spans.py wraps this name
from .models import (
    InfeasibleRelaxationError,
    RelaxationResult,
    StabModel,
    _run_loop,
    build_matching_model,
    build_tree_model,
    fix_edge,
    lexicographic_refine,
    solve_relaxation,
)

logger = logging.getLogger(__name__)

INT_TOL = 1e-6


class SolveError(RuntimeError):
    pass


@dataclass(frozen=True)
class BnbNode:
    fixed_ones: frozenset[Segment]
    fixed_zeros: frozenset[Segment]
    bound: float
    depth: int
    warm: Basis  # the parent's k-objective basis; the node solve starts from it


def _forms_cycle(edges: Sequence[Segment], n: int) -> bool:
    uf = UnionFind(n)
    return any(not uf.union(e.a, e.b) for e in sorted(edges))


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
    cycle-closing candidates are skipped rather than fixed to zero.

    root is model's solved relaxation, refined for the first fixing; the
    fixings go on a fork of model. Each later relaxation re-solves warm from
    the previous one's k-objective basis (not the length-refined one): the
    program differs from it only by the new fixings and appended cut rows.

    on_iteration, when given, receives one record per LP round (refined
    weights, chosen edge) for instrumentation.
    """
    inst, problem, family = model.inst, model.problem, model.family
    work = model.fork()
    target = _structure_size(inst, problem)
    relax = root
    while True:
        refined = lexicographic_refine(work, relax)
        choice = _pick_edge(work, refined.x, inst, problem)
        if on_iteration is not None:
            on_iteration(
                {
                    "iteration": len(work.fixed_ones),
                    "k_frac": float(relax.k_frac),
                    "x": dict(refined.x),
                    "fixed_ones": frozenset(work.fixed_ones),
                    "chosen": choice,
                }
            )
        fix_edge(work, choice, 1)
        _fix_dead_edges(work, inst, problem)
        if len(work.fixed_ones) >= target:
            break
        relax = solve_relaxation(work, relax.basis)
    edges = tuple(sorted(work.fixed_ones))
    _assert_feasible(edges, inst, problem)
    k, _ = stabbing_number(edges, inst.points, family)
    return Solution(
        problem=problem,
        family=family,
        edges=edges,
        k=k,
        lower_bound=_rationalized(float(root.k_frac)),
        method=Method.ROUNDING,
    )


def _fix_dead_edges(model: StabModel, inst: Instance, problem: Problem) -> None:
    """Zero out free edges no integral completion can use.

    For trees these are the edges closing a cycle with the fixed forest (the
    self-loops of the contracted residual problem); leaving them free lets the
    relaxation park weight on them, which breaks the planar-support argument.
    Matching degree rows already force edges at matched vertices to zero, so
    nothing is needed there.
    """
    if problem is not Problem.SPANNING_TREE:
        return
    uf = UnionFind(inst.n)
    for e in sorted(model.fixed_ones):
        uf.union(e.a, e.b)
    for e in model.edges:
        if e in model.fixed_ones or e in model.fixed_zeros:
            continue
        if uf.find(e.a) == uf.find(e.b):
            fix_edge(model, e, 0)


def _pick_edge(
    model: StabModel, x: dict, inst: Instance, problem: Problem
) -> Segment:
    matched = {v for e in model.fixed_ones for v in e}
    candidates = []
    for e in model.edges:
        if e in model.fixed_ones or e in model.fixed_zeros:
            continue
        if problem is Problem.MATCHING and (e.a in matched or e.b in matched):
            continue
        candidates.append(e)
    if problem is Problem.SPANNING_TREE:
        uf = UnionFind(inst.n)
        for e in sorted(model.fixed_ones):
            uf.union(e.a, e.b)
        candidates = [e for e in candidates if uf.find(e.a) != uf.find(e.b)]
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
    Other nodes solve forks of a pool copy of model that gathers their cuts,
    warm from their parent's k-objective basis: the pool's rows only grow, so
    that basis covers a prefix of every later node's rows.

    incumbent is a feasible solution of the same problem and family, usually
    from iterated_rounding; the search only accepts strictly better ones.
    time_limit is in milliseconds and bounds the search, not the incumbent's
    construction; 0 means unlimited. On expiry the best incumbent is returned
    with proven=False instead of raising.
    """
    inst, problem, family = model.inst, model.problem, model.family
    if model.fixed_ones or model.fixed_zeros:
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
    start = BnbNode(frozenset(), frozenset(), root_bound, 0, root.basis)
    heapq.heappush(heap, (start.bound, counter, start))
    proven = True

    while heap:
        if deadline is not None and time.monotonic() > deadline:
            proven = False
            break
        bound, _, node = heapq.heappop(heap)
        if math.ceil(bound - OBJ_TOL) >= best_k:
            break  # best-first: every remaining node is at least as bad
        work = pool.fork()
        for e in sorted(node.fixed_ones):
            fix_edge(work, e, 1)
        for e in sorted(node.fixed_zeros):
            fix_edge(work, e, 0)
        _fix_dead_edges(work, inst, problem)
        if node is start:
            relax = root
        else:
            try:
                relax = solve_relaxation(work, node.warm)
            except InfeasibleRelaxationError:
                continue
            # cut rows hold at every node: hand the new ones to the pool
            pool.lp = pool.lp.with_rows(work.lp.rows[len(pool.lp.rows) :])
            pool.cut_keys = work.cut_keys
        k_frac = float(relax.k_frac)
        node_bound = math.ceil(k_frac - OBJ_TOL)
        if node_bound >= best_k:
            continue
        integral = _integral(relax.x)
        if integral is not None:
            _assert_feasible(integral, inst, problem)
            k_int, _ = stabbing_number(integral, inst.points, family)
            if k_int < best_k:
                best_k = k_int
                best_edges = tuple(integral)
            continue
        branch_edge = _most_fractional(work, relax.x)
        for value in (1, 0):
            ones = set(node.fixed_ones)
            zeros = set(node.fixed_zeros)
            (ones if value else zeros).add(branch_edge)
            if value and problem is Problem.SPANNING_TREE and _forms_cycle(ones, inst.n):
                continue
            if value and problem is Problem.MATCHING:
                touched = [v for e in ones for v in e]
                if len(touched) != len(set(touched)):
                    continue
            counter += 1
            child = BnbNode(
                frozenset(ones), frozenset(zeros), k_frac, node.depth + 1, relax.basis
            )
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
    for e in model.edges:
        if e in model.fixed_ones or e in model.fixed_zeros:
            continue
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


def _metric_length(seg: Segment, inst: Instance, metric: str):
    if metric == "euclidean":
        return euclidean_length(seg, inst.points)
    if metric == "manhattan":
        return manhattan_length(seg, inst.points)
    raise SolveError(f"unknown metric {metric!r}")


def _metric_family(metric: str) -> LineFamily:
    # the average-stabbing equivalence: axis lines pair with the
    # Manhattan metric, general lines with the Euclidean one
    return LineFamily.AXIS_PARALLEL if metric == "manhattan" else LineFamily.GENERAL


def min_length_matching(inst: Instance, metric: str = "euclidean") -> Solution:
    """Minimum-total-length perfect matching via the matching polytope LP.

    Degree equalities plus lazily separated odd-set cuts make every vertex of
    the feasible region integral; integrality is asserted and re-checked with
    the exact rational solver before giving up. Ties between optimal
    matchings are broken toward the lexicographically smallest edge list by
    greedy fixing under an optimal-length cap.
    """
    if inst.n % 2 != 0:
        raise SolveError(f"matching requires even n, got {inst.n}")
    family = _metric_family(metric)
    edges = tuple(inst.all_edges())
    lengths = [_metric_length(e, inst, metric) for e in edges]
    # the cutting-plane loop needs only edges, cut rows and cut keys: no
    # stabbing rows and no k column
    model = StabModel(
        problem=Problem.MATCHING,
        family=family,
        inst=inst,
        edges=edges,
        edge_index={e: i for i, e in enumerate(edges)},
        k_index=-1,
        lp=_matching_polytope_lp(inst, edges, lengths),
    )

    result = _run_loop(model, exact=False, warm_basis=None)
    if _integral(result.x) is None:
        logger.info("fractional matching optimum; re-checking with exact solver")
        result = _run_loop(model, exact=True, warm_basis=None)
        if _integral(result.x) is None:
            raise SolveError(
                "matching LP stayed fractional after exact re-check; "
                "blossom separation is incomplete"
            )
    optimum = float(result.k_frac)  # the objective value: total length

    # lexicographic selection among optimal matchings
    budget = optimum + OBJ_TOL * max(1.0, abs(optimum))
    model.lp = model.lp.with_rows([make_row(dict(enumerate(lengths)), "<=", budget)])
    matched: set[int] = set()
    warm = result.basis
    for e in edges:
        if e.a in matched or e.b in matched:
            continue
        trial = model.fork()
        fix_edge(trial, e, 1)
        try:
            warm = _run_loop(trial, exact=False, warm_basis=warm).basis
        except InfeasibleRelaxationError:
            # the rejected trial's cut rows and keys go with its fork
            fix_edge(model, e, 0)
            continue
        model = trial
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


def _matching_polytope_lp(inst, edges, lengths) -> LinearProgram:
    """Degree equalities over the edges with a length objective; no k column."""
    index = {e: i for i, e in enumerate(edges)}
    rows = []
    for v in range(inst.n):
        rows.append(make_row({index[e]: 1 for e in edges if v in e}, "=", 1))
    return make_lp(
        len(edges), dict(enumerate(lengths)), rows, [(0, 1)] * len(edges)
    )


def min_length_tree(inst: Instance, metric: str = "euclidean") -> Solution:
    """Minimum spanning tree under the metric; Kruskal with lexicographic
    tie-breaking (squared lengths keep Euclidean comparisons exact)."""
    if inst.n < 2:
        raise SolveError("spanning tree needs n >= 2")
    if metric == "euclidean":
        keyed = sorted(
            (euclidean_length_sq(e, inst.points), e) for e in inst.all_edges()
        )
    elif metric == "manhattan":
        keyed = sorted(
            (manhattan_length(e, inst.points), e) for e in inst.all_edges()
        )
    else:
        raise SolveError(f"unknown metric {metric!r}")
    uf = UnionFind(inst.n)
    chosen = []
    for _, e in keyed:
        if uf.union(e.a, e.b):
            chosen.append(e)
            if len(chosen) == inst.n - 1:
                break
    out = tuple(sorted(chosen))
    family = _metric_family(metric)
    k, _ = stabbing_number(out, inst.points, family)
    return Solution(
        problem=Problem.SPANNING_TREE,
        family=family,
        edges=out,
        k=k,
        lower_bound=None,
        method=Method.MIN_LENGTH,
    )
