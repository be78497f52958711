"""Stabbing LPs for matchings and spanning trees, the cutting-plane loop, and
the length-lexicographic refinement that steers fractional optima toward
planar support."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Union

from .cuts import (
    SUPPORT_EPS,
    ConnCut,
    OddSetCut,
    separate_blossom,
    separate_connectivity,
)
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
    lp_fix_variable,
    lp_solve,
    make_lp,
    make_row,
)

logger = logging.getLogger(__name__)

Cut = Union[OddSetCut, ConnCut]


class ModelError(RuntimeError):
    pass


class InfeasibleRelaxationError(ModelError):
    """The relaxation has no solution; only inconsistent fixings cause this."""

    def __init__(self, fixed_ones: frozenset, fixed_zeros: frozenset) -> None:
        super().__init__(
            f"infeasible relaxation under fixings ones={sorted(fixed_ones)} "
            f"zeros={sorted(fixed_zeros)}"
        )
        self.fixed_ones = fixed_ones
        self.fixed_zeros = fixed_zeros


@dataclass
class StabModel:
    """LP over edge variables plus the bound variable k.

    Owned by a single solve loop: the loop solves lp and appends every
    violated cut row to it, and fixings replace it with tightened bounds.
    """

    problem: Problem
    family: LineFamily
    inst: Instance
    edges: tuple[Segment, ...]
    edge_index: dict[Segment, int]
    k_index: int
    lp: LinearProgram
    fixed_ones: set[Segment] = field(default_factory=set)
    fixed_zeros: set[Segment] = field(default_factory=set)
    cut_keys: set[frozenset[int]] = field(default_factory=set)

    def fork(self) -> StabModel:
        """A copy with its own fixings and cut keys; the immutable lp is
        shared until either side replaces it."""
        return replace(
            self,
            fixed_ones=set(self.fixed_ones),
            fixed_zeros=set(self.fixed_zeros),
            cut_keys=set(self.cut_keys),
        )


@dataclass
class RelaxationResult:
    k_frac: Union[float, Fraction]
    x: dict[Segment, Union[float, Fraction]]
    cuts_added: int
    lp_iterations: int
    basis: Basis


def _build(inst: Instance, family: LineFamily, problem: Problem) -> StabModel:
    n = inst.n
    edges = tuple(inst.all_edges())
    edge_index = {e: i for i, e in enumerate(edges)}
    num_edges = len(edges)
    k_index = num_edges
    inf = float("inf")
    rows: list[Row] = []
    if problem is Problem.MATCHING:
        bounds = [(0, 1)] * num_edges + [(0, inf)]
        for v in range(n):
            coeffs = {edge_index[e]: 1 for e in edges if v in e}
            rows.append(make_row(coeffs, "=", 1))
    else:
        # no upper bound on tree edge weights: the relaxation only has the
        # nonnegativity bound, which is what lets weight shift off a crossing
        # pair even when a neighbor edge already carries weight one
        bounds = [(0, inf)] * num_edges + [(0, inf)]
        rows.append(make_row({i: 1 for i in range(num_edges)}, "=", n - 1))
    for line in representative_lines(inst.points, family):
        sides = [line.side(p) for p in inst.points]
        coeffs = {
            edge_index[e]: 1 for e in edges if sides[e.a] * sides[e.b] <= 0
        }
        coeffs[k_index] = -1
        rows.append(make_row(coeffs, "<=", 0))
    lp = make_lp(num_edges + 1, {k_index: 1}, rows, bounds)
    return StabModel(
        problem=problem,
        family=family,
        inst=inst,
        edges=edges,
        edge_index=edge_index,
        k_index=k_index,
        lp=lp,
    )


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


def fix_edge(model: StabModel, seg: Segment, value: int) -> None:
    """Pin an edge variable to 0 or 1 via its bounds; stabbing rows follow."""
    if value not in (0, 1):
        raise ModelError(f"edges can only be fixed to 0 or 1, got {value}")
    idx = model.edge_index[seg]
    model.lp = lp_fix_variable(model.lp, idx, value)
    (model.fixed_ones if value == 1 else model.fixed_zeros).add(seg)


def cut_row(model: StabModel, members: frozenset[int]) -> Row:
    coeffs = {
        i: 1
        for i, e in enumerate(model.edges)
        if (e.a in members) != (e.b in members)
    }
    return make_row(coeffs, ">=", 1)


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


def _run_loop(
    model: StabModel, *, exact: bool, warm_basis: Optional[Basis]
) -> RelaxationResult:
    """Solve model.lp, separate, append the violated cut rows to model.lp,
    repeat until clean; k_frac is the value of model.lp's objective.

    Terminates because each distinct vertex set enters at most once.
    """
    n = model.inst.n
    iterations = 0
    cuts_added = 0
    while True:
        result = lp_solve(model.lp, warm_basis=warm_basis, exact=exact)
        iterations += 1
        if result.status is LpStatus.INFEASIBLE:
            raise InfeasibleRelaxationError(
                frozenset(model.fixed_ones), frozenset(model.fixed_zeros)
            )
        if result.status is not LpStatus.OPTIMAL:
            raise ModelError(f"relaxation came back {result.status.value}")
        x = {e: result.primal[i] for i, e in enumerate(model.edges)}
        rows = []
        for c in _separate(model, x, exact=exact):
            key = cut_key(c.members, n)
            if key not in model.cut_keys:
                model.cut_keys.add(key)
                rows.append(cut_row(model, c.members))
        if not rows:
            return RelaxationResult(
                k_frac=result.objective_value,
                x=x,
                cuts_added=cuts_added,
                lp_iterations=iterations,
                basis=result.basis,
            )
        model.lp = model.lp.with_rows(rows)
        cuts_added += len(rows)
        warm_basis = result.basis


def solve_relaxation(
    model: StabModel, warm_basis: Optional[Basis] = None
) -> RelaxationResult:
    """Cutting-plane loop on the stabbing LP; returns the fractional optimum.

    warm_basis is the k-objective basis of an earlier solve whose rows are a
    prefix of model.lp's rows; the float LP then re-optimizes from it after
    the fixings and cut rows added since (a rounding fixing, a branch-and-bound
    node, the refinement retry) instead of starting cold.
    """
    return _run_loop(model, exact=False, warm_basis=warm_basis)


def _set_objective(model: StabModel, objective, k_hi) -> None:
    """Give model.lp this objective and this upper bound on k."""
    hi = list(model.lp.hi)
    hi[model.k_index] = k_hi
    model.lp = replace(model.lp, objective=objective, hi=tuple(hi))


def lexicographic_refine(model: StabModel, result: RelaxationResult) -> RelaxationResult:
    """Phase 2: cap k at its optimum (within tolerance) and minimize total
    Euclidean edge length, re-running the separation loop.

    The cap is k's upper bound, so the length program has exactly model.lp's
    rows and the cuts it finds stay in model.lp; its objective and k's bound
    are restored on return or raise.

    Shifting weight off a properly crossing pair onto the sides of its convex
    quadrilateral strictly shortens the solution, so length-optimal supports
    are planar; this is checked and logged, never silently accepted.

    Cuts discovered while minimizing length can raise the true relaxation
    value past the cap; when that happens phase 1 is re-solved with the
    enlarged cut set and phase 2 retried, which terminates because every
    retry consumes at least one fresh cut.
    """
    lengths = tuple(
        (i, euclidean_length(e, model.inst.points)) for i, e in enumerate(model.edges)
    )
    k_objective, k_hi = model.lp.objective, model.lp.hi[model.k_index]
    k_frac = result.k_frac
    warm = result.basis
    cuts_total = 0
    iters_total = 0
    try:
        for _ in range(len(model.edges) * 4 + 64):
            _set_objective(model, lengths, float(k_frac) + OBJ_TOL)
            try:
                refined = _run_loop(model, exact=False, warm_basis=warm)
            except InfeasibleRelaxationError:
                _set_objective(model, k_objective, k_hi)
                fresh = solve_relaxation(model, warm)  # raises if fixings truly infeasible
                k_frac = fresh.k_frac
                warm = fresh.basis
                iters_total += fresh.lp_iterations
                cuts_total += fresh.cuts_added
                continue
            _log_support_quality(model, refined.x)
            return replace(
                refined,
                k_frac=k_frac,
                cuts_added=cuts_total + refined.cuts_added,
                lp_iterations=iters_total + refined.lp_iterations,
            )
        raise ModelError("length refinement failed to stabilize")
    finally:
        _set_objective(model, k_objective, k_hi)


def _log_support_quality(model: StabModel, x) -> None:
    support = [e for e, w in x.items() if w > SUPPORT_EPS]
    if not support:
        return
    max_w = max(x[e] for e in support)
    threshold = 0.2 if model.problem is Problem.MATCHING else 1 / 3
    if not model.fixed_ones and max_w < threshold - OBJ_TOL:
        logger.warning(
            "refined %s solution has max edge weight %.6f below %.3f",
            model.problem.value,
            max_w,
            threshold,
        )
    # planarity is a property of the residual problem: fixed edges are part
    # of the environment and the uncrossing shift cannot touch them
    free = [e for e in support if e not in model.fixed_ones]
    crossings = 0
    for i, e in enumerate(free):
        for f in free[i + 1 :]:
            if is_crossing_pair(e, f, model.inst.points):
                crossings += 1
    if crossings:
        logger.warning(
            "refined %s free support contains %d properly crossing pair(s)",
            model.problem.value,
            crossings,
        )


def certify_relaxation(model: StabModel, result: RelaxationResult) -> Fraction:
    """Exact rational optimum of the relaxation, warm-started from the float
    basis and re-separated with zero tolerances; raises if the exact loop
    cannot confirm the float value within the objective tolerance."""
    value = _run_loop(model, exact=True, warm_basis=result.basis).k_frac
    assert isinstance(value, Fraction)
    if abs(float(value) - float(result.k_frac)) > OBJ_TOL:
        raise ModelError(
            f"float relaxation {result.k_frac} disagrees with exact {value}"
        )
    return value
