"""Separation oracles for the cutting-plane loop.

Violated blossom inequalities come from minimum odd cuts read off a
Gomory-Hu tree (with degree equalities every vertex is an odd terminal, so
tree cuts suffice); violated connectivity cuts come from a global minimum
cut. All routines work unchanged on float or Fraction weights, which is what
lets the exact certification path reuse them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

from .geom import Segment

SUPPORT_EPS = 1e-7
VIOLATION_EPS = 1e-7
MAX_CUTS_PER_ROUND = 10

Weight = Union[int, float, "Fraction"]


class CutError(ValueError):
    """Invalid separation input."""


@dataclass(frozen=True)
class WeightedSupportGraph:
    """Edges carrying weight above the support threshold; simple graph."""

    n: int
    edges: tuple[tuple[int, int, Weight], ...]


@dataclass(frozen=True)
class OddSetCut:
    members: frozenset[int]
    cut_value: Weight

    def __post_init__(self) -> None:
        if len(self.members) % 2 == 0 or not self.members:
            raise CutError("odd-set cut needs a nonempty odd vertex set")

    @property
    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))


@dataclass(frozen=True)
class ConnCut:
    members: frozenset[int]
    cut_value: Weight

    def __post_init__(self) -> None:
        if not self.members:
            raise CutError("connectivity cut needs a nonempty vertex set")

    @property
    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))


def support_graph(
    n: int, x: Mapping[Segment, Weight], eps: Weight = SUPPORT_EPS
) -> WeightedSupportGraph:
    """Drop edges at or below eps so float noise cannot fake connectivity."""
    edges = tuple(
        (e.a, e.b, w) for e, w in sorted(x.items()) if w > eps
    )
    return WeightedSupportGraph(n, edges)


def max_flow_min_cut(
    n: int,
    edges: Sequence[tuple[int, int, Weight]],
    s: int,
    t: int,
    eps: Weight = 0,
) -> tuple[Weight, frozenset[int]]:
    """Max s-t flow on an undirected graph; returns (value, source side).

    Shortest augmenting paths (Edmonds-Karp): each BFS over the arcs whose
    residual exceeds eps finds a path with the fewest arcs, and the flow is
    augmented by its bottleneck until no path is left. The source side is
    what s still reaches over such arcs, the minimal minimum cut; with exact
    weights and eps = 0 it is the same for every maximum flow.
    """
    if s == t:
        raise CutError("source equals sink")
    head: list[list[int]] = [[] for _ in range(n)]
    to: list[int] = []
    res: list[Weight] = []
    for u, v, w in edges:
        head[u].append(len(to))
        to.append(v)
        res.append(w)
        head[v].append(len(to))
        to.append(u)
        res.append(w)

    def bfs() -> Optional[list[int]]:
        parent_arc = [-1] * n
        parent_arc[s] = -2
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for arc in head[u]:
                v = to[arc]
                if parent_arc[v] == -1 and res[arc] > eps:
                    parent_arc[v] = arc
                    if v == t:
                        path = []
                        w_ = v
                        while w_ != s:
                            path.append(parent_arc[w_])
                            w_ = to[parent_arc[w_] ^ 1]
                        return path
                    queue.append(v)
        return None

    total: Weight = 0
    while (path := bfs()) is not None:
        push = min(res[arc] for arc in path)
        for arc in path:
            res[arc] -= push
            res[arc ^ 1] += push
        total = total + push

    seen = [False] * n
    seen[s] = True
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for arc in head[u]:
            v = to[arc]
            if not seen[v] and res[arc] > eps:
                seen[v] = True
                queue.append(v)
    return total, frozenset(i for i in range(n) if seen[i])


@dataclass(frozen=True)
class GomoryHuTree:
    """Cut tree: each tree edge value is the max-flow between its endpoints,
    any pairwise max-flow is the minimum value on the tree path, and the
    child side of each tree edge is a minimum cut of exactly that value."""

    n: int
    parent: tuple[int, ...]  # parent[0] == -1
    value: tuple[Weight, ...]  # value[0] unused

    def cut_candidates(self) -> list[tuple[frozenset[int], Weight]]:
        """One vertex set per tree edge: the side containing the child."""
        children: list[list[int]] = [[] for _ in range(self.n)]
        for i in range(1, self.n):
            children[self.parent[i]].append(i)
        out = []
        for i in range(1, self.n):
            side = []
            stack = [i]
            while stack:
                u = stack.pop()
                side.append(u)
                stack.extend(children[u])
            out.append((frozenset(side), self.value[i]))
        return out

    def min_pair_value(self, u: int, v: int) -> Weight:
        depth = [0] * self.n
        for i in range(1, self.n):
            j, d = i, 0
            while j != 0:
                j = self.parent[j]
                d += 1
            depth[i] = d
        best: Optional[Weight] = None
        a, b = u, v
        while a != b:
            if depth[a] < depth[b]:
                a, b = b, a
            if best is None or self.value[a] < best:
                best = self.value[a]
            a = self.parent[a]
        if best is None:
            raise CutError("min_pair_value needs two distinct vertices")
        return best


def gomory_hu(g: WeightedSupportGraph, eps: Weight = 0) -> GomoryHuTree:
    """Gusfield's cut-tree construction: n-1 max-flow calls on the original
    graph.

    Every vertex hanging off the sink on the source side is re-parented, not
    only the later ones: re-parenting only j > i keeps the pairwise flow
    values but loses the cut property that blossom separation relies on.
    """
    n = g.n
    if n < 2:
        raise CutError("Gomory-Hu tree needs at least two vertices")
    parent = [0] * n
    parent[0] = -1
    value: list[Weight] = [0] * n
    for i in range(1, n):
        target = parent[i]
        flow, side = max_flow_min_cut(n, g.edges, i, target, eps=eps)
        value[i] = flow
        for j in range(n):
            if j != i and parent[j] == target and j in side:
                parent[j] = i
        if parent[target] != -1 and parent[target] in side:
            parent[i] = parent[target]
            parent[target] = i
            value[i] = value[target]
            value[target] = flow
    return GomoryHuTree(n, tuple(parent), tuple(value))


def _thresholded(
    x: Mapping[Segment, Weight], eps: Weight
) -> dict[Segment, Weight]:
    return {e: w for e, w in x.items() if w > eps}


def _cut_weight(x: Mapping[Segment, Weight], members: frozenset[int]) -> Weight:
    total: Weight = 0
    for e, w in x.items():
        if (e.a in members) != (e.b in members):
            total = total + w
    return total


def separate_blossom(
    x: Mapping[Segment, Weight],
    n: int,
    *,
    support_eps: Weight = SUPPORT_EPS,
    violation_eps: Weight = VIOLATION_EPS,
) -> list[OddSetCut]:
    """All violated tree-induced odd-set cuts, most violated first.

    Assumes x satisfies the degree equalities, which makes every vertex an
    odd terminal: the minimum odd cut is then realized by a Gomory-Hu tree
    edge whose lighter side has odd cardinality. An empty list certifies
    that no blossom inequality is violated.
    """
    if n % 2 != 0:
        raise CutError("matching requires even n")
    if n < 2:
        raise CutError("separation needs n >= 2")
    xt = _thresholded(x, support_eps)
    tree = gomory_hu(support_graph(n, x, support_eps), eps=0 if support_eps == 0 else 1e-12)
    cuts = []
    seen = set()
    everyone = frozenset(range(n))
    for members, _ in tree.cut_candidates():
        if len(members) % 2 == 0:
            continue  # with n even the complement is even too
        val = _cut_weight(xt, members)
        if val < 1 - violation_eps:
            # both sides of the tree edge are violated odd sets (same row)
            for side in (members, everyone - members):
                if side not in seen and 0 < len(side) < n:
                    seen.add(side)
                    cuts.append(OddSetCut(side, val))
    cuts.sort(key=lambda c: (c.cut_value, c.sorted_members))
    return cuts[:MAX_CUTS_PER_ROUND]


def separate_connectivity(
    x: Mapping[Segment, Weight],
    n: int,
    *,
    support_eps: Weight = SUPPORT_EPS,
    violation_eps: Weight = VIOLATION_EPS,
) -> list[ConnCut]:
    """Global minimum cut if violated; per-component cuts when disconnected."""
    if n < 2:
        raise CutError("separation needs n >= 2")
    xt = _thresholded(x, support_eps)
    comps = _components(n, xt)
    if len(comps) > 1:
        cuts = [
            ConnCut(frozenset(c), _cut_weight(xt, frozenset(c))) for c in comps
        ]
        cuts.sort(key=lambda c: (c.cut_value, c.sorted_members))
        return cuts[:MAX_CUTS_PER_ROUND]
    value, side = stoer_wagner(n, xt)
    if value < 1 - violation_eps:
        return [ConnCut(side, value)]
    return []


def _components(n: int, x: Mapping[Segment, Weight]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for e in x:
        adj[e.a].append(e.b)
        adj[e.b].append(e.a)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        comp = []
        queue = deque([start])
        seen[start] = True
        while queue:
            u = queue.popleft()
            comp.append(u)
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        comps.append(sorted(comp))
    return comps


def stoer_wagner(
    n: int, x: Mapping[Segment, Weight]
) -> tuple[Weight, frozenset[int]]:
    """Global minimum cut of the weighted support graph (graph connected).

    Classic minimum-cut-phase algorithm; ties broken by lowest vertex index
    so results are deterministic.
    """
    if n < 2:
        raise CutError("global minimum cut needs n >= 2")
    w = [[0] * n for _ in range(n)]
    for e, wt in x.items():
        w[e.a][e.b] = w[e.a][e.b] + wt
        w[e.b][e.a] = w[e.b][e.a] + wt
    groups: list[list[int]] = [[i] for i in range(n)]
    active = list(range(n))
    best_value: Optional[Weight] = None
    best_side: Optional[frozenset[int]] = None
    while len(active) > 1:
        a0 = active[0]
        conn = {v: w[a0][v] for v in active if v != a0}
        order = [a0]
        while conn:
            # conn lists active vertices in ascending order and only loses
            # keys, so max takes the lowest index among ties
            nxt = max(conn, key=conn.__getitem__)
            order.append(nxt)
            del conn[nxt]
            for v in conn:
                conn[v] = conn[v] + w[nxt][v]
        t = order[-1]
        s = order[-2]
        cut_of_phase: Weight = 0
        for v in active:
            if v != t:
                cut_of_phase = cut_of_phase + w[t][v]
        side = frozenset(groups[t])
        if best_value is None or cut_of_phase < best_value:
            best_value = cut_of_phase
            best_side = side
        # merge t into s
        groups[s] = groups[s] + groups[t]
        for v in active:
            if v != s and v != t:
                w[s][v] = w[s][v] + w[t][v]
                w[v][s] = w[v][s] + w[t][v]
        active.remove(t)
    assert best_value is not None and best_side is not None
    return best_value, best_side
