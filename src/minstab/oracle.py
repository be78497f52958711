"""Brute-force enumeration of matchings, spanning trees, and triangulations
for ground-truth optima at tiny scale.

Matchings and trees are enumerated as edge bitmasks (cached per n) so that
objective evaluation vectorizes; the public generators yield plain segment
tuples in a fixed deterministic order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterator, Optional, Sequence

import numpy as np

from .geom import (
    LineFamily,
    Point,
    Segment,
    admissible_edges,
    bounding_box,
    crossing_number,
    euclidean_length_sq,
    manhattan_length,
    orient,
    representative_lines,
    segments_compatible,
    sqrt_decompose,
    stabbing_number,
)
from .instance import Instance, Problem

MATCHING_N_CAP = 14
TREE_N_CAP = 8
TRIANGULATION_N_CAP = 9

_MP_DPS = 80


class EnumerationError(ValueError):
    pass


class EnumerationCapError(EnumerationError):
    """Raised when an enumeration would exceed its budget; never partial."""


@dataclass(frozen=True)
class EnumBudget:
    max_structures: int = 1_000_000


class Objective(Enum):
    STABBING = "stabbing"
    CROSSING = "crossing"
    AVERAGE_STABBING = "average"
    LENGTH = "length"


def _all_edges(n: int) -> list[Segment]:
    return [Segment(i, j) for i in range(n) for j in range(i + 1, n)]


def _edge_bit(n: int) -> dict[Segment, int]:
    return {e: idx for idx, e in enumerate(_all_edges(n))}


@lru_cache(maxsize=8)
def _matching_masks(n: int) -> tuple[int, ...]:
    bit = _edge_bit(n)
    masks: list[int] = []

    def rec(remaining: tuple[int, ...], acc: int) -> None:
        if not remaining:
            masks.append(acc)
            return
        first = remaining[0]
        rest = remaining[1:]
        for idx, partner in enumerate(rest):
            nxt = rest[:idx] + rest[idx + 1 :]
            rec(nxt, acc | (1 << bit[Segment(first, partner)]))

    rec(tuple(range(n)), 0)
    return tuple(masks)


def enum_perfect_matchings(n: int) -> Iterator[tuple[Segment, ...]]:
    """Every perfect matching of K_n exactly once, deterministic order."""
    if n % 2 != 0:
        raise EnumerationError(f"perfect matchings need even n, got {n}")
    if not 2 <= n <= MATCHING_N_CAP:
        raise EnumerationCapError(f"matching enumeration capped at n <= {MATCHING_N_CAP}")
    edges = _all_edges(n)
    for mask in _matching_masks(n):
        yield _mask_to_edges(mask, edges)


@lru_cache(maxsize=8)
def _tree_masks(n: int) -> tuple[int, ...]:
    bit = _edge_bit(n)
    if n == 2:
        return (1 << bit[Segment(0, 1)],)
    masks = []
    for seq in product(range(n), repeat=n - 2):
        masks.append(_pruefer_mask(seq, n, bit))
    return tuple(masks)


def _pruefer_mask(seq: Sequence[int], n: int, bit: dict[Segment, int]) -> int:
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    mask = 0
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for v in seq:
        mask |= 1 << bit[Segment.of(leaf, v)]
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    mask |= 1 << bit[Segment.of(leaf, n - 1)]
    return mask


def enum_spanning_trees(n: int) -> Iterator[tuple[Segment, ...]]:
    """Every labeled spanning tree of K_n exactly once (Pruefer bijection)."""
    if not 2 <= n <= TREE_N_CAP:
        raise EnumerationCapError(f"tree enumeration capped at 2 <= n <= {TREE_N_CAP}")
    edges = _all_edges(n)
    for mask in _tree_masks(n):
        yield _mask_to_edges(mask, edges)


def _mask_to_edges(mask: int, edges: Sequence[Segment]) -> tuple[Segment, ...]:
    return tuple(e for idx, e in enumerate(edges) if mask >> idx & 1)


def enum_triangulations(inst: Instance) -> Iterator[tuple[Segment, ...]]:
    """Every maximal compatible edge set on the point set, exactly once.

    Candidates are segments with no instance point in their open interior;
    compatibility means disjoint relative interiors. Backtracking over the
    lexicographic candidate order with a cover prune: an excluded edge must
    conflict with a chosen one, now or later.
    """
    n = inst.n
    if n > TRIANGULATION_N_CAP:
        raise EnumerationCapError(
            f"triangulation enumeration capped at n <= {TRIANGULATION_N_CAP}"
        )
    pts = inst.points
    if n < 3 or all(orient(pts[0], pts[1], p) == 0 for p in pts[2:]):
        raise EnumerationError("no triangulation exists: all points collinear")
    cand = admissible_edges(pts)
    m = len(cand)
    conflict = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if not segments_compatible(cand[i], cand[j], pts):
                conflict[i] |= 1 << j
                conflict[j] |= 1 << i
    later = [((1 << m) - 1) ^ ((1 << (i + 1)) - 1) for i in range(m)]

    def rec(idx: int, chosen: int, uncovered: tuple[int, ...]):
        if idx == m:
            if not uncovered:
                yield chosen
            return
        bit = 1 << idx
        if conflict[idx] & chosen == 0:
            new_chosen = chosen | bit
            still = tuple(u for u in uncovered if conflict[u] & new_chosen == 0)
            yield from rec(idx + 1, new_chosen, still)
            # exclude branch: idx must be covered later
            if conflict[idx] & later[idx]:
                new_unc = uncovered + (idx,)
                if all(conflict[u] & later[idx] for u in uncovered):
                    yield from rec(idx + 1, chosen, new_unc)
        else:
            yield from rec(idx + 1, chosen, uncovered)

    for mask in rec(0, 0, ()):
        yield _mask_to_edges(mask, cand)


class RadicalSum:
    """Exact total of integer square roots, Σ f_i * sqrt(s_i), s_i squarefree.

    Equality is exact (independence of square roots of distinct squarefree
    integers); ordering uses 80-digit interval-free evaluation, far beyond
    the separations that lattice instances at this scale can produce.
    """

    __slots__ = ("terms", "_value")

    def __init__(self, terms: Sequence[tuple[int, int]]) -> None:
        acc: dict[int, int] = {}
        for s, f in terms:
            acc[s] = acc.get(s, 0) + f
        self.terms = tuple(sorted((s, f) for s, f in acc.items() if f))
        self._value = None

    @classmethod
    def of_edges(cls, edges: Sequence[Segment], points: Sequence[Point]) -> "RadicalSum":
        acc: dict[int, int] = {}
        for e in edges:
            f, s = sqrt_decompose(euclidean_length_sq(e, points))
            acc[s] = acc.get(s, 0) + f
        return cls(tuple(acc.items()))

    @property
    def value(self):
        if self._value is None:
            import mpmath  # loaded on first use: nothing else in minstab needs it

            with mpmath.workdps(_MP_DPS):
                self._value = mpmath.fsum(
                    f * mpmath.sqrt(s) for s, f in self.terms
                )
        return self._value

    def __eq__(self, other) -> bool:
        return isinstance(other, RadicalSum) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __lt__(self, other: "RadicalSum") -> bool:
        if self.terms == other.terms:
            return False
        import mpmath

        with mpmath.workdps(_MP_DPS):
            return self.value < other.value

    def __float__(self) -> float:
        return float(self.value)


def _structure_masks(inst: Instance, problem: Problem, budget: EnumBudget):
    n = inst.n
    if problem is Problem.MATCHING:
        if n % 2 != 0:
            raise EnumerationError(f"perfect matchings need even n, got {n}")
        if n > MATCHING_N_CAP:
            raise EnumerationCapError(f"matching enumeration capped at n <= {MATCHING_N_CAP}")
        count = 1
        for k in range(n - 1, 0, -2):
            count *= k
        if count > budget.max_structures:
            raise EnumerationCapError(f"{count} matchings exceed the budget")
        return _matching_masks(n)
    if problem is Problem.SPANNING_TREE:
        if not 2 <= n <= TREE_N_CAP:
            raise EnumerationCapError(f"tree enumeration capped at 2 <= n <= {TREE_N_CAP}")
        if n ** max(n - 2, 0) > budget.max_structures:
            raise EnumerationCapError(f"{n ** (n - 2)} trees exceed the budget")
        return _tree_masks(n)
    raise EnumerationError(f"no mask enumeration for {problem.value}")


def _line_masks(inst: Instance, family: LineFamily) -> list[int]:
    edges = _all_edges(inst.n)
    masks = set()
    for line in representative_lines(inst.points, family):
        sides = [line.side(p) for p in inst.points]
        m = 0
        for idx, e in enumerate(edges):
            if sides[e.a] * sides[e.b] <= 0:
                m |= 1 << idx
        masks.add(m)
    return sorted(masks)


def _lanes(masks: Sequence[int], num_bits: int) -> list[np.ndarray]:
    """Split python-int bitmasks into 63-bit uint64 lanes for vectorization."""
    lane_count = (num_bits + 62) // 63
    out = []
    for lane in range(lane_count):
        shift = 63 * lane
        out.append(
            np.array([(m >> shift) & ((1 << 63) - 1) for m in masks], dtype=np.uint64)
        )
    return out


def _lane_split(value: int, num_bits: int) -> list[np.uint64]:
    lane_count = (num_bits + 62) // 63
    return [
        np.uint64((value >> (63 * lane)) & ((1 << 63) - 1))
        for lane in range(lane_count)
    ]


def brute_optimum(
    inst: Instance,
    problem: Problem,
    family: LineFamily,
    objective: Objective,
    budget: Optional[EnumBudget] = None,
):
    """Exact optimum value and ALL optimal structures.

    For Length and the general-family AverageStabbing the metric follows the
    family (axis-parallel pairs with Manhattan, general with Euclidean);
    exact radical arithmetic keeps argmin sets trustworthy. Values: int for
    Stabbing/Crossing and Manhattan Length, Fraction for axis-parallel
    AverageStabbing, float for the Euclidean objectives.
    """
    budget = budget or EnumBudget()
    if problem is Problem.TRIANGULATION:
        return _brute_triangulation(inst, family, objective, budget)
    masks = _structure_masks(inst, problem, budget)
    edges = _all_edges(inst.n)
    num_edges = len(edges)
    lanes = _lanes(masks, num_edges)

    if objective is Objective.STABBING:
        best = np.zeros(len(masks), dtype=np.uint8)
        for lm in _line_masks(inst, family):
            lane_masks = _lane_split(lm, num_edges)
            counts = np.zeros(len(masks), dtype=np.uint8)
            for lane, lane_mask in zip(lanes, lane_masks):
                counts += np.bitwise_count(lane & lane_mask).astype(np.uint8)
            np.maximum(best, counts, out=best)
        value = int(best.min())
        idxs = np.flatnonzero(best == value)
        return value, _collect(masks, idxs, edges)

    if objective is Objective.CROSSING:
        values = [
            crossing_number(_mask_to_edges(m, edges), inst.points, family)
            for m in masks
        ]
        value = min(values)
        idxs = [i for i, v in enumerate(values) if v == value]
        return value, _collect(masks, idxs, edges)

    # additive length objectives
    if family is LineFamily.AXIS_PARALLEL:
        totals = np.zeros(len(masks), dtype=np.int64)
        for idx, e in enumerate(edges):
            lane = lanes[idx // 63]
            bit = np.uint64(idx % 63)
            totals += manhattan_length(e, inst.points) * (
                (lane >> bit) & np.uint64(1)
            ).astype(np.int64)
        best_total = int(totals.min())
        idxs = np.flatnonzero(totals == best_total)
        structures = _collect(masks, idxs, edges)
        if objective is Objective.LENGTH:
            return best_total, structures
        x0, y0, x1, y1 = bounding_box(inst.points)
        d = max(x1 - x0, y1 - y0)
        if d == 0:
            raise EnumerationError("degenerate instance: zero bounding box")
        return Fraction(best_total, 2 * d), structures

    # general family: Euclidean metric, float prefilter then exact radicals
    totals = np.zeros(len(masks))
    for idx, e in enumerate(edges):
        lane = lanes[idx // 63]
        bit = np.uint64(idx % 63)
        totals += float(np.sqrt(euclidean_length_sq(e, inst.points))) * (
            (lane >> bit) & np.uint64(1)
        ).astype(float)
    near = np.flatnonzero(totals <= totals.min() + 1e-6 * max(1.0, float(totals.min())))
    keyed = []
    for i in near:
        struct = _mask_to_edges(masks[int(i)], edges)
        keyed.append((RadicalSum.of_edges(struct, inst.points), struct))
    best_key = min(k for k, _ in keyed)
    structures = tuple(sorted(s for k, s in keyed if k == best_key))
    value = float(best_key)
    if objective is Objective.AVERAGE_STABBING:
        x0, y0, x1, y1 = bounding_box(inst.points)
        diag = float(np.hypot(x1 - x0, y1 - y0))
        if diag == 0:
            raise EnumerationError("degenerate instance: zero bounding box")
        value = value / (np.pi * diag)
    return value, structures


def _collect(masks, idxs, edges) -> tuple[tuple[Segment, ...], ...]:
    return tuple(sorted(_mask_to_edges(masks[int(i)], edges) for i in idxs))


def _brute_triangulation(
    inst: Instance, family: LineFamily, objective: Objective, budget: EnumBudget
):
    best_value = None
    best: list[tuple[Segment, ...]] = []
    count = 0
    for struct in enum_triangulations(inst):
        count += 1
        if count > budget.max_structures:
            raise EnumerationCapError("triangulation count exceeds the budget")
        if objective is Objective.STABBING:
            value = stabbing_number(struct, inst.points, family)[0]
        elif objective is Objective.CROSSING:
            value = crossing_number(struct, inst.points, family)
        else:
            raise EnumerationError(
                f"objective {objective.value} not defined for triangulations"
            )
        if best_value is None or value < best_value:
            best_value = value
            best = [struct]
        elif value == best_value:
            best.append(struct)
    if best_value is None:
        raise EnumerationError("no structures enumerated")
    return best_value, tuple(sorted(best))
