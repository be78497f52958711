"""Instance and solution data model, file formats, and seeded generators."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence, Union

from .geom import (
    COORD_LIMIT,
    GeometryError,
    LineFamily,
    Point,
    Segment,
    stabbing_number,
)


class InstanceError(ValueError):
    """Malformed instance data or file."""


class SolutionError(ValueError):
    """Malformed or inconsistent solution data."""


class Problem(Enum):
    MATCHING = "matching"
    SPANNING_TREE = "tree"
    TRIANGULATION = "triangulation"


class Method(Enum):
    LP_BOUND = "lp_bound"
    ROUNDING = "rounding"
    EXACT = "exact"
    BRUTE = "brute"
    MIN_LENGTH = "min_length"


@dataclass(frozen=True)
class Instance:
    """Named finite set of distinct integer points; immutable once built."""

    name: str
    points: tuple[Point, ...]

    def __post_init__(self) -> None:
        if len(self.points) < 1:
            raise InstanceError("instance needs at least one point")
        seen: dict[Point, int] = {}
        for idx, p in enumerate(self.points):
            if p in seen:
                raise InstanceError(
                    f"duplicate point ({p.x}, {p.y}) at positions {seen[p]} and {idx}"
                )
            seen[p] = idx

    @property
    def n(self) -> int:
        return len(self.points)

    def drop_last(self) -> "Instance":
        """Explicit odd-n fix for matchings: a copy without the final point."""
        if self.n < 2:
            raise InstanceError("cannot drop the only point")
        return Instance(self.name + "-droplast", self.points[:-1])

    def all_edges(self) -> list[Segment]:
        return [
            Segment(i, j) for i in range(self.n) for j in range(i + 1, self.n)
        ]


@dataclass(frozen=True)
class Solution:
    """Edge structure plus objective metadata.

    ``proven`` is False unless solve.branch_and_bound proves k optimal; it is
    in-memory only (report surface), and the file format below does not carry it.
    """

    problem: Problem
    family: LineFamily
    edges: tuple[Segment, ...]
    k: int
    lower_bound: Optional[Fraction]
    method: Method
    proven: bool = field(default=False, compare=False)


def parse_instance(data: Union[str, bytes], name: str = "instance") -> Instance:
    """Parse the native point format or the TSPLIB NODE_COORD_SECTION subset."""
    if isinstance(data, bytes):
        data = data.decode("ascii")
    if "NODE_COORD_SECTION" in data:
        return _parse_tsplib(data, name)
    return _parse_native(data, name)


def _parse_native(text: str, name: str) -> Instance:
    count: Optional[int] = None
    points: list[Point] = []
    seen: dict[Point, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if count is None:
            try:
                count = int(line)
            except ValueError:
                raise InstanceError(f"line {lineno}: expected point count, got {line!r}")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InstanceError(f"line {lineno}: expected 'x y', got {line!r}")
        try:
            p = Point(int(parts[0]), int(parts[1]))
        except (ValueError, GeometryError) as exc:
            raise InstanceError(f"line {lineno}: {exc}") from exc
        if p in seen:
            raise InstanceError(f"duplicate point at line {lineno}")
        seen[p] = lineno
        points.append(p)
    if count is None:
        raise InstanceError("empty instance file")
    if count != len(points):
        raise InstanceError(f"header says {count} points, file has {len(points)}")
    return Instance(name, tuple(points))


def _parse_tsplib(text: str, name: str) -> Instance:
    lines = text.splitlines()
    header_name = name
    coords: list[tuple[int, Decimal, Decimal]] = []  # (line number, x, y)
    in_coords = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if not in_coords:
            if line.upper().startswith("NAME"):
                _, _, value = line.partition(":")
                if value.strip():
                    header_name = value.strip()
            elif line.upper().startswith("NODE_COORD_SECTION"):
                in_coords = True
            continue
        if line.upper() == "EOF":
            break
        parts = line.split()
        if len(parts) != 3:
            raise InstanceError(f"line {lineno}: expected 'index x y', got {line!r}")
        try:
            x, y = Decimal(parts[1]), Decimal(parts[2])
            finite = x.is_finite() and y.is_finite()  # Decimal parses nan and inf
        except ArithmeticError:
            finite = False
        if not finite:
            raise InstanceError(f"line {lineno}: bad coordinate in {line!r}")
        coords.append((lineno, x, y))
    if not coords:
        raise InstanceError("TSPLIB file has no coordinates")
    decimals = 0
    for _, x, y in coords:
        for v in (x, y):
            exp = -v.as_tuple().exponent
            decimals = max(decimals, min(int(exp), 4) if exp > 0 else 0)
    scale = 10**decimals
    points = []
    seen: dict[Point, int] = {}
    for lineno, x, y in coords:
        p = Point(_scaled(x, scale, lineno), _scaled(y, scale, lineno))
        if p in seen:
            raise InstanceError(f"duplicate point at line {lineno} after scaling")
        seen[p] = lineno
        points.append(p)
    if decimals > 0:
        header_name = f"{header_name}-x{scale}"
    return Instance(header_name, tuple(points))


def _scaled(v: Decimal, scale: int, lineno: int) -> int:
    """v * scale rounded to an integer, which must be a valid coordinate. The
    range is checked before int(): converting a Decimal like 1e999999 takes
    seconds, and a larger exponent overflows the decimal context."""
    try:
        v = (v * scale).to_integral_value()
    except ArithmeticError:
        v = None
    if v is None or not -COORD_LIMIT < v < COORD_LIMIT:
        raise InstanceError(f"line {lineno}: coordinate out of range")
    return int(v)


def serialize_instance(inst: Instance) -> str:
    lines = [str(inst.n)]
    lines.extend(f"{p.x} {p.y}" for p in inst.points)
    return "\n".join(lines) + "\n"


def solution_to_json(sol: Solution) -> str:
    """Single-document solution format; field order is part of the contract."""
    lb = None
    if sol.lower_bound is not None:
        lb = f"{sol.lower_bound.numerator}/{sol.lower_bound.denominator}"
    doc = {
        "problem": sol.problem.value,
        "family": sol.family.value,
        "k": sol.k,
        "lower_bound": lb,
        "method": sol.method.value,
        "edges": [[e.a, e.b] for e in sorted(sol.edges)],
    }
    return json.dumps(doc) + "\n"


def parse_solution(data: Union[str, bytes]) -> Solution:
    """The solution in a document of solution_to_json's format. One that is
    not a JSON object, lacks a field, gives k or a vertex index that is not
    a JSON integer, or a lower bound that is no fraction p/q raises
    SolutionError."""
    if isinstance(data, bytes):
        data = data.decode("ascii")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise SolutionError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SolutionError("bad solution document: not a JSON object")
    try:
        problem = Problem(doc["problem"])
        family = LineFamily(doc["family"])
        k = _json_int(doc["k"])
        raw_lb = doc["lower_bound"]
        lb = None
        if raw_lb is not None:
            num, _, den = str(raw_lb).partition("/")
            lb = Fraction(int(num), int(den) if den else 1)
        method = Method(doc["method"])
        edges = tuple(Segment.of(_json_int(i), _json_int(j)) for i, j in doc["edges"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError, GeometryError) as exc:
        raise SolutionError(f"bad solution document: {exc}") from exc
    return Solution(problem, family, edges, k, lb, method)


def _json_int(value) -> int:
    # JSON true and false load as bools, which are ints to isinstance
    if type(value) is not int:
        raise ValueError(f"{value!r} is not an integer")
    return value


class UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> bool:
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return False
        self.parent[ri] = rj
        return True


def structure_defect(
    edges: Sequence[Segment], n: int, problem: Problem
) -> Optional[str]:
    """Why edges on points 0..n-1 are not a perfect matching (MATCHING) or a
    spanning tree (SPANNING_TREE), or None when they are one. n - 1 acyclic
    edges on n points always connect them."""
    if problem is Problem.MATCHING:
        if sorted(v for e in edges for v in e) != list(range(n)):
            return "edges do not form a perfect matching"
        return None
    uf = UnionFind(n)
    if len(edges) != n - 1 or not all(uf.union(e.a, e.b) for e in edges):
        return "edges do not form a spanning tree"
    return None


def verify_solution(inst: Instance, sol: Solution) -> None:
    """Check structural feasibility and that k matches the stabbing number."""
    n = inst.n
    for e in sol.edges:
        if not (0 <= e.a < n and 0 <= e.b < n):
            raise SolutionError(f"edge {tuple(e)} out of range for n={n}")
    if sol.problem in (Problem.MATCHING, Problem.SPANNING_TREE):
        defect = structure_defect(sol.edges, n, sol.problem)
        if defect:
            raise SolutionError(defect)
    else:
        from .geom import admissible_edges, segments_compatible

        present = set(sol.edges)
        cand = admissible_edges(inst.points)
        if not present.issubset(cand):
            raise SolutionError("triangulation uses an inadmissible edge")
        for i, e in enumerate(sol.edges):
            for f in sol.edges[i + 1 :]:
                if not segments_compatible(e, f, inst.points):
                    raise SolutionError("triangulation edges are not compatible")
        for c in cand:
            if c not in present and all(
                segments_compatible(c, e, inst.points) for e in sol.edges
            ):
                raise SolutionError("triangulation is not maximal")
    k, _ = stabbing_number(sol.edges, inst.points, sol.family)
    if k != sol.k:
        raise SolutionError(f"stored k={sol.k} but edges have stabbing number {k}")


class SplitMix64:
    """Tiny fixed PRNG so generated instances never depend on stdlib details.

    State update s += 0x9E3779B97F4A7C15; output is the standard splitmix64
    finalizer. Same seed, same stream, forever.
    """

    MASK = (1 << 64) - 1

    def __init__(self, seed: int) -> None:
        self._state = seed & self.MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & self.MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def randrange(self, start: int, stop: Optional[int] = None) -> int:
        if stop is None:
            start, stop = 0, start
        n = stop - start
        if n <= 0:
            raise ValueError("randrange needs a nonempty range")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return start + v % n

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]


def gen_random(n: int, bbox: int, seed: int) -> Instance:
    """n distinct uniform lattice points in [0, bbox]^2, deterministic in seed.

    Requires bbox + 1 >= n as a distinctness margin (which also guarantees
    enough cells).
    """
    if n < 1:
        raise InstanceError("need n >= 1")
    if bbox < 0 or bbox + 1 < n:
        raise InstanceError(f"bbox {bbox} too small for {n} distinct points")
    rng = SplitMix64(seed)
    side = bbox + 1
    chosen: list[Point] = []
    seen: set[Point] = set()
    attempts = 0
    while len(chosen) < n:
        attempts += 1
        if attempts > 100 * n + 1000:
            raise InstanceError(f"cannot place {n} distinct points in [0,{bbox}]^2")
        p = Point(rng.randrange(side), rng.randrange(side))
        if p not in seen:
            seen.add(p)
            chosen.append(p)
    return Instance(f"random-n{n}-b{bbox}-s{seed}", tuple(chosen))


def gen_grid(rows: int, cols: int, keep_fraction: Fraction, seed: int) -> Instance:
    """rows x cols lattice grid with a seeded uniform subset removed."""
    keep_fraction = Fraction(keep_fraction)
    if rows < 1 or cols < 1:
        raise InstanceError("grid needs rows >= 1 and cols >= 1")
    if not 0 < keep_fraction <= 1:
        raise InstanceError("keep_fraction must be in (0, 1]")
    total = rows * cols
    m = int(total * keep_fraction)
    if m == 0:
        raise InstanceError("resulting instance empty")
    cells = [Point(c, r) for r in range(rows) for c in range(cols)]
    rng = SplitMix64(seed)
    order = list(range(total))
    rng.shuffle(order)
    kept = sorted(order[:m])
    points = tuple(cells[i] for i in kept)
    name = (
        f"grid-{rows}x{cols}-k{keep_fraction.numerator}_"
        f"{keep_fraction.denominator}-s{seed}"
    )
    return Instance(name, points)
