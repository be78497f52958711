"""Exact integer geometry: predicates, stabbing lines, and edge-set evaluation.

Every yes/no decision here is made in exact integer (or rational) arithmetic.
Floats appear only in convenience outputs such as Euclidean lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence


class GeometryError(ValueError):
    """Invalid geometric input (empty instance, bad indices, degenerate data)."""


# Coordinates are kept inside the 32-bit signed range. A coordinate difference
# then reaches 2^32 - 2 and a 3-point orientation determinant about 2^65, more
# than 64-bit signed arithmetic holds: the predicates are exact only because
# they compute in Python ints. models._line_sides sums in int64 only when its
# bound from the largest coefficients and coordinates stays below 2^62, and in
# Python-int object arrays otherwise.
COORD_LIMIT = 2**31


@dataclass(frozen=True, order=True)
class Point:
    x: int
    y: int

    def __post_init__(self) -> None:
        for v in (self.x, self.y):
            if not isinstance(v, int):
                raise GeometryError(f"coordinates must be integers, got {v!r}")
            if not -COORD_LIMIT < v < COORD_LIMIT:
                raise GeometryError(f"coordinate out of 32-bit range: {v}")


class Segment(NamedTuple):
    """Pair of point indices into an instance, canonically ordered a < b."""

    a: int
    b: int

    @classmethod
    def of(cls, i: int, j: int) -> "Segment":
        if i == j:
            raise GeometryError(f"degenerate segment ({i}, {j})")
        return cls(i, j) if i < j else cls(j, i)


class LineFamily(Enum):
    AXIS_PARALLEL = "axis"
    GENERAL = "general"


@dataclass(frozen=True)
class StabLine:
    """Oriented line a*x + b*y = c in canonical integer form.

    Canonical means gcd(a, b, c) = 1 and (a > 0, or a = 0 and b > 0), so two
    equal lines always compare (and hash) equal.
    """

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        a, b, c = self.a, self.b, self.c
        if a == 0 and b == 0:
            raise GeometryError("line must have a nonzero normal")
        g = math.gcd(a, b, c)
        if g > 1:
            a, b, c = a // g, b // g, c // g
        if a < 0 or (a == 0 and b < 0):
            a, b, c = -a, -b, -c
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @classmethod
    def vertical(cls, x: int) -> "StabLine":
        return cls(1, 0, x)

    @classmethod
    def horizontal(cls, y: int) -> "StabLine":
        return cls(0, 1, y)

    @classmethod
    def through(cls, p: Point, q: Point) -> "StabLine":
        if p == q:
            raise GeometryError("cannot build a line through two equal points")
        a = q.y - p.y
        b = p.x - q.x
        return cls(a, b, a * p.x + b * p.y)

    def side(self, p: Point) -> int:
        """Sign of a*x + b*y - c: which side of the line p lies on (0 = on)."""
        v = self.a * p.x + self.b * p.y - self.c
        return (v > 0) - (v < 0)

    def __str__(self) -> str:  # compact form for reports and SVG labels
        return f"{self.a}x+{self.b}y={self.c}"


def orient(p: Point, q: Point, r: Point) -> int:
    """Sign of the cross product (q - p) x (r - p): +1 ccw, -1 cw, 0 collinear."""
    v = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
    return (v > 0) - (v < 0)


def _check_edges(edges: Sequence[Segment], points: Sequence[Point]) -> None:
    n = len(points)
    for e in edges:
        if not (0 <= e.a < n and 0 <= e.b < n and e.a != e.b):
            raise GeometryError(f"edge {tuple(e)} invalid for instance of size {n}")


def stabs(line: StabLine, seg: Segment, points: Sequence[Point]) -> bool:
    """True iff the closed segment meets the line, endpoint touches included."""
    sa = line.side(points[seg.a])
    sb = line.side(points[seg.b])
    return sa * sb <= 0


def representative_lines(points: Sequence[Point], family: LineFamily) -> list[StabLine]:
    """Finite line family whose maximum realizes the stabbing number.

    Axis-parallel: one vertical line per distinct x and one horizontal per
    distinct y. General: every line through a pair of points, plus the whole
    axis-parallel set (a safe superset), deduplicated by canonical form.
    """
    if not points:
        raise GeometryError("empty instance")
    lines: list[StabLine] = []
    for x in sorted({p.x for p in points}):
        lines.append(StabLine.vertical(x))
    for y in sorted({p.y for p in points}):
        lines.append(StabLine.horizontal(y))
    if family is LineFamily.GENERAL:
        seen = set(lines)
        n = len(points)
        for i in range(n):
            for j in range(i + 1, n):
                ln = StabLine.through(points[i], points[j])
                if ln not in seen:
                    seen.add(ln)
                    lines.append(ln)
    return lines


def stabbing_number(
    edges: Sequence[Segment],
    points: Sequence[Point],
    family: LineFamily,
) -> tuple[int, Optional[StabLine]]:
    """Maximum number of edges met by one line of the family, with a witness.

    Vertex lines dominate: the stab count is piecewise constant between
    coordinate events and a segment counted in an open interval adjacent to a
    vertex coordinate also contains that coordinate, so the representative
    family is exact. Returns (0, None) for an empty edge set.
    """
    _check_edges(edges, points)
    if not edges:
        return 0, None
    best = -1
    witness: Optional[StabLine] = None
    for line in representative_lines(points, family):
        sides = [line.side(p) for p in points]
        count = sum(1 for e in edges if sides[e.a] * sides[e.b] <= 0)
        if count > best:
            best = count
            witness = line
    return best, witness


def crossing_eval_lines(points: Sequence[Point], family: LineFamily) -> list[StabLine]:
    """Evaluation family for crossing numbers.

    All representative lines, plus: for axis-parallel, one line strictly
    between each pair of consecutive distinct coordinates (coordinates are
    doubled so midlines stay integral); for general, two parallel copies of
    every line offset by half a lattice step into the adjacent cells. The
    offset copies are a documented heuristic superset; only the axis-parallel
    family is exact.
    """
    lines = representative_lines(points, family)
    extra: list[StabLine] = []
    if family is LineFamily.AXIS_PARALLEL:
        xs = sorted({p.x for p in points})
        ys = sorted({p.y for p in points})
        for lo, hi in zip(xs, xs[1:]):
            extra.append(StabLine(2, 0, lo + hi))
        for lo, hi in zip(ys, ys[1:]):
            extra.append(StabLine(0, 2, lo + hi))
    else:
        for ln in lines:
            extra.append(StabLine(2 * ln.a, 2 * ln.b, 2 * ln.c - 1))
            extra.append(StabLine(2 * ln.a, 2 * ln.b, 2 * ln.c + 1))
    seen = set(lines)
    for ln in extra:
        if ln not in seen:
            seen.add(ln)
            lines.append(ln)
    return lines


def _line_component_count(
    line: StabLine, edges: Sequence[Segment], points: Sequence[Point]
) -> int:
    """Connected components of the line's intersection with the edge union.

    Positions along the line are parametrized by t = b*x - a*y (monotone along
    the direction vector (b, -a)); point hits and collinear overlaps become
    exact rational intervals which are merged when they touch.
    """
    a, b, c = line.a, line.b, line.c
    intervals: list[tuple[Fraction, Fraction]] = []
    for e in edges:
        p, q = points[e.a], points[e.b]
        sp = a * p.x + b * p.y - c
        sq = a * q.x + b * q.y - c
        tp = b * p.x - a * p.y
        tq = b * q.x - a * q.y
        if sp == 0 and sq == 0:
            lo, hi = (tp, tq) if tp <= tq else (tq, tp)
            intervals.append((Fraction(lo), Fraction(hi)))
        elif sp == 0:
            intervals.append((Fraction(tp), Fraction(tp)))
        elif sq == 0:
            intervals.append((Fraction(tq), Fraction(tq)))
        elif (sp > 0) != (sq > 0):
            t = Fraction(sp * tq - sq * tp, sp - sq)
            intervals.append((t, t))
    if not intervals:
        return 0
    intervals.sort()
    components = 0
    cur_end: Optional[Fraction] = None
    for lo, hi in intervals:
        if cur_end is None or lo > cur_end:
            components += 1
            cur_end = hi
        elif hi > cur_end:
            cur_end = hi
    return components


def crossing_number(
    edges: Sequence[Segment], points: Sequence[Point], family: LineFamily
) -> int:
    """Maximum over the evaluation family of intersection component counts."""
    _check_edges(edges, points)
    if not edges:
        return 0
    return max(
        _line_component_count(line, edges, points)
        for line in crossing_eval_lines(points, family)
    )


def is_crossing_pair(e1: Segment, e2: Segment, points: Sequence[Point]) -> bool:
    """Proper crossing: an intersection point interior to both segments.

    Shared endpoints and collinear overlaps do not count.
    """
    if e1 == e2:
        raise GeometryError("is_crossing_pair needs two distinct segments")
    p1, p2 = points[e1.a], points[e1.b]
    q1, q2 = points[e2.a], points[e2.b]
    d1 = orient(p1, p2, q1)
    d2 = orient(p1, p2, q2)
    d3 = orient(q1, q2, p1)
    d4 = orient(q1, q2, p2)
    return d1 * d2 < 0 and d3 * d4 < 0


def segments_disjoint(e1: Segment, e2: Segment, points: Sequence[Point]) -> bool:
    """True iff the two closed segments share no point at all."""
    p1, p2 = points[e1.a], points[e1.b]
    q1, q2 = points[e2.a], points[e2.b]
    d1 = orient(p1, p2, q1)
    d2 = orient(p1, p2, q2)
    d3 = orient(q1, q2, p1)
    d4 = orient(q1, q2, p2)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return False
    for (u, v), w in (
        ((p1, p2), q1),
        ((p1, p2), q2),
        ((q1, q2), p1),
        ((q1, q2), p2),
    ):
        if orient(u, v, w) == 0 and _in_box(u, v, w):
            return False
    return True


def _in_box(u: Point, v: Point, w: Point) -> bool:
    return (
        min(u.x, v.x) <= w.x <= max(u.x, v.x)
        and min(u.y, v.y) <= w.y <= max(u.y, v.y)
    )


def collinear_segments(e1: Segment, e2: Segment, points: Sequence[Point]) -> bool:
    """True iff both segments lie on one common supporting line."""
    p1, p2 = points[e1.a], points[e1.b]
    q1, q2 = points[e2.a], points[e2.b]
    return orient(p1, p2, q1) == 0 and orient(p1, p2, q2) == 0


def bounding_box(points: Sequence[Point]) -> tuple[int, int, int, int]:
    if not points:
        raise GeometryError("empty instance")
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    return min(xs), min(ys), max(xs), max(ys)


def manhattan_length(seg: Segment, points: Sequence[Point]) -> int:
    p, q = points[seg.a], points[seg.b]
    return abs(p.x - q.x) + abs(p.y - q.y)


def euclidean_length_sq(seg: Segment, points: Sequence[Point]) -> int:
    p, q = points[seg.a], points[seg.b]
    return (p.x - q.x) ** 2 + (p.y - q.y) ** 2


def euclidean_length(seg: Segment, points: Sequence[Point]) -> float:
    return math.sqrt(euclidean_length_sq(seg, points))


def manhattan_total(edges: Sequence[Segment], points: Sequence[Point]) -> int:
    return sum(manhattan_length(e, points) for e in edges)


def euclidean_total(edges: Sequence[Segment], points: Sequence[Point]) -> float:
    return sum(euclidean_length(e, points) for e in edges)


def sqrt_decompose(m: int) -> tuple[int, int]:
    """Write m = f**2 * s with s squarefree; returns (f, s). m must be >= 1."""
    if m < 1:
        raise GeometryError(f"sqrt_decompose needs a positive integer, got {m}")
    f, s = 1, m
    d = 2
    while d * d <= s:
        while s % (d * d) == 0:
            s //= d * d
            f *= d
        d += 1
    return f, s


def average_stabbing(
    edges: Sequence[Segment], points: Sequence[Point], family: LineFamily
):
    """Mean stab count under a uniform distribution of lines of the family.

    Axis-parallel: exact Fraction (Σ|Δx| + Σ|Δy|) / (2 D) with D the larger
    bounding-box extent (a common intercept interval for both orientations).
    General: float Σ length / (π * diag), a Cauchy-Crofton normalization over
    the bounding disk. The normalizer is an instance constant, so argmins
    over structures are unaffected by its choice.
    """
    _check_edges(edges, points)
    x0, y0, x1, y1 = bounding_box(points)
    w, h = x1 - x0, y1 - y0
    if family is LineFamily.AXIS_PARALLEL:
        d = max(w, h)
        if d == 0:
            raise GeometryError("degenerate instance: zero bounding box")
        return Fraction(manhattan_total(edges, points), 2 * d)
    diag = math.hypot(w, h)
    if diag == 0:
        raise GeometryError("degenerate instance: zero bounding box")
    return euclidean_total(edges, points) / (math.pi * diag)


def point_in_open_segment(w: Point, u: Point, v: Point) -> bool:
    """True iff w lies strictly between u and v on their segment."""
    if orient(u, v, w) != 0 or w == u or w == v:
        return False
    return _in_box(u, v, w)


def admissible_edges(points: Sequence[Point]) -> list[Segment]:
    """Candidate triangulation edges: no instance point in the open interior."""
    n = len(points)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            u, v = points[i], points[j]
            if any(
                point_in_open_segment(points[k], u, v)
                for k in range(n)
                if k != i and k != j
            ):
                continue
            out.append(Segment(i, j))
    return out


def segments_compatible(e1: Segment, e2: Segment, points: Sequence[Point]) -> bool:
    """Triangulation compatibility: relative interiors disjoint.

    Rules out proper crossings and collinear overlaps of positive length;
    shared endpoints are fine.
    """
    if is_crossing_pair(e1, e2, points):
        return False
    if collinear_segments(e1, e2, points):
        p1, p2 = points[e1.a], points[e1.b]
        q1, q2 = points[e2.a], points[e2.b]
        if p1.x != p2.x:
            lo1, hi1 = sorted((p1.x, p2.x))
            lo2, hi2 = sorted((q1.x, q2.x))
        else:
            lo1, hi1 = sorted((p1.y, p2.y))
            lo2, hi2 = sorted((q1.y, q2.y))
        if max(lo1, lo2) < min(hi1, hi2):
            return False
    else:
        # A vertex of one edge interior to the other also breaks compatibility.
        for e, other in ((e1, e2), (e2, e1)):
            u, v = points[e.a], points[e.b]
            for idx in other:
                if point_in_open_segment(points[idx], u, v):
                    return False
    return True

