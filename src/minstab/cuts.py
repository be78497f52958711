"""Separation oracles for the cutting-plane loop.

Both cut families come from one Gomory-Hu tree per call: blossom rows
x(delta(S)) >= 1 for odd S (matchings) and connectivity rows x(delta(S)) >= 1
for every proper S (trees). The tree is built on the support graph after
every edge of weight >= 1 - violation_eps (>= 1 in exact mode) is
contracted: a cut separating the ends of such an edge weighs at least that
much and cannot be violated, so every violated cut survives contraction with
its value (Padberg & Rinaldi 1990, "An efficient algorithm for the minimum
capacity cut problem").

The minimum cut is one of the tree's fundamental cuts. So is a minimum odd
cut: label a contracted node odd when it holds an odd number of original
vertices; some tree edge crossing a minimum odd cut has a fundamental cut
that is odd too, and no heavier (Padberg & Rao 1982, "Odd minimum cut-sets
and b-matchings"). Blossom separation keeps the odd fundamental cuts,
connectivity separation keeps all of them. Only a fundamental cut whose
tree value is below 1 - violation_eps + UNWEIGHED_MARGIN is weighed on the
support: a cut weighs at least its flow, so no heavier one is violated.

Gusfield's construction makes n - 1 max flows on one graph, so `gomory_hu`
builds its arcs once, as a FlowGraph, and each flow starts from a fresh copy
of their capacities (Gusfield 1990, "Very simple methods for all pairs
network flow analysis").

`separate_blossom` and `separate_connectivity` stay two names over the one
routine, and `gomory_hu` looks `max_flow_min_cut` up as a module global, so
each can be wrapped on its own where it is called. All routines work
unchanged on float or Fraction weights, which is what lets the exact
certification path reuse them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from .geom import Segment
from .instance import UnionFind

SUPPORT_EPS = 1e-7
VIOLATION_EPS = 1e-7
MAX_CUTS_PER_ROUND = 10
# A fundamental cut whose tree value is at least 1 - violation_eps by this
# margin is never weighed: the cut weighs at least its flow, and the margin
# covers the float rounding of the flow's sum
UNWEIGHED_MARGIN = 1e-9

Weight = Union[int, float, "Fraction"]


class CutError(ValueError):
    """Invalid separation input."""


@dataclass(frozen=True)
class Cut:
    """A vertex set S for the row x(delta(S)) >= 1, and x(delta(S))."""

    members: frozenset[int]
    cut_value: Weight

    def __post_init__(self) -> None:
        if not self.members:
            raise CutError("a cut needs a nonempty vertex set")


@dataclass(frozen=True)
class FlowGraph:
    """The arcs of an undirected graph on vertices 0..n-1, built once for
    every max flow on it: edge k = (u, v, w) is arc 2k from u to v and arc
    2k + 1 back, each of capacity w; head[u] lists the arcs leaving u. A max
    flow reads the lists and never changes them. They stay lists: one
    tuple per vertex would fill the interpreter's per-size tuple free lists
    and grow the resident set over many trees."""

    n: int
    head: list[list[int]]
    to: list[int]
    cap: list[Weight]

    @classmethod
    def of(cls, n: int, edges: Sequence[tuple[int, int, Weight]]) -> "FlowGraph":
        head: list[list[int]] = [[] for _ in range(n)]
        to: list[int] = []
        cap: list[Weight] = []
        for u, v, w in edges:
            head[u].append(len(to))
            to.append(v)
            head[v].append(len(to))
            to.append(u)
            cap += (w, w)
        return cls(n, head, to, cap)


def max_flow_min_cut(
    graph: FlowGraph, s: int, t: int, eps: Weight = 0
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
    head, to = graph.head, graph.to
    res: list[Weight] = list(graph.cap)
    total: Weight = 0
    while (parent_arc := _search(head, to, res, s, t, eps))[t] != -1:
        path = []
        v = t
        while v != s:
            path.append(parent_arc[v])
            v = to[parent_arc[v] ^ 1]
        push = min(res[arc] for arc in path)
        for arc in path:
            res[arc] -= push
            res[arc ^ 1] += push
        total = total + push
    seen = _search(head, to, res, s, -1, eps)
    return total, frozenset(i for i in range(graph.n) if seen[i] != -1)


def _search(
    head: Sequence[Sequence[int]],
    to: Sequence[int],
    res: Sequence[Weight],
    s: int,
    t: int,
    eps: Weight,
) -> list[int]:
    """Breadth-first search from s over the arcs whose residual exceeds
    eps, stopped once t is reached: the arc each vertex was reached by, -2
    for s and -1 for a vertex not reached."""
    parent_arc = [-1] * len(head)
    parent_arc[s] = -2
    queue = [s]
    for u in queue:  # the list grows behind the loop, first in first out
        for arc in head[u]:
            v = to[arc]
            if parent_arc[v] == -1 and res[arc] > eps:
                parent_arc[v] = arc
                if v == t:
                    return parent_arc
                queue.append(v)
    return parent_arc


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


def gomory_hu(
    n: int, edges: Sequence[tuple[int, int, Weight]], eps: Weight = 0
) -> GomoryHuTree:
    """Gusfield's cut-tree construction: n-1 max-flow calls on the original
    graph, whose arcs are built once and handed to every call.

    Every vertex hanging off the sink on the source side is re-parented, not
    only the later ones: re-parenting only j > i keeps the pairwise flow
    values but loses the cut property that separation relies on.
    """
    if n < 2:
        raise CutError("Gomory-Hu tree needs at least two vertices")
    graph = FlowGraph.of(n, edges)
    parent = [0] * n
    parent[0] = -1
    value: list[Weight] = [0] * n
    for i in range(1, n):
        target = parent[i]
        flow, side = max_flow_min_cut(graph, i, target, eps=eps)
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


def _cut_weight(x: Mapping[Segment, Weight], members: frozenset[int]) -> Weight:
    total: Weight = 0
    for e, w in x.items():
        if (e.a in members) != (e.b in members):
            total = total + w
    return total


def _tree_cuts(
    x: Mapping[Segment, Weight],
    n: int,
    support_eps: Weight,
    violation_eps: Weight,
    *,
    odd: bool,
) -> list[Cut]:
    """Violated fundamental cuts of one Gomory-Hu tree on the contracted
    support, both sides of each, most violated first; only the sides with an
    odd number of vertices when odd is set."""
    if n < 2:
        raise CutError("separation needs n >= 2")
    # edges at or below support_eps are dropped so float noise cannot fake
    # connectivity; cut values are weighed in what is left
    xt = {e: w for e, w in x.items() if w > support_eps}
    uf = UnionFind(n)
    for e, w in xt.items():
        if w >= 1 - violation_eps:
            uf.union(e.a, e.b)
    by_root: dict[int, list[int]] = {}
    for v in range(n):
        by_root.setdefault(uf.find(v), []).append(v)
    if len(by_root) == 1:
        return []
    groups = list(by_root.values())  # node i stands for groups[i]
    node = {v: i for i, group in enumerate(groups) for v in group}
    edges: dict[tuple[int, int], Weight] = {}
    for e, w in sorted(xt.items()):
        a, b = sorted((node[e.a], node[e.b]))
        if a != b:
            edges[a, b] = edges.get((a, b), 0) + w
    tree = gomory_hu(
        len(groups),
        [(a, b, w) for (a, b), w in edges.items()],
        eps=0 if support_eps == 0 else 1e-12,
    )
    cuts = []
    everyone = frozenset(range(n))
    limit = 1 - violation_eps
    for nodes, value in tree.cut_candidates():
        if value >= limit + UNWEIGHED_MARGIN:
            continue  # a cut weighs at least its flow, so it holds
        members = frozenset(v for i in nodes for v in groups[i])
        if odd and len(members) % 2 == 0:
            continue  # with n even the complement is even too
        val = _cut_weight(xt, members)
        if val < limit:
            # both sides of the tree edge are violated (same row); distinct
            # tree edges split the vertices differently
            cuts += [Cut(members, val), Cut(everyone - members, val)]
    cuts.sort(key=lambda c: (c.cut_value, sorted(c.members)))
    return cuts[:MAX_CUTS_PER_ROUND]


def separate_blossom(
    x: Mapping[Segment, Weight],
    n: int,
    *,
    support_eps: Weight = SUPPORT_EPS,
    violation_eps: Weight = VIOLATION_EPS,
) -> list[Cut]:
    """All violated tree-induced odd-set cuts, most violated first.

    Assumes x satisfies the degree equalities, which makes every vertex an
    odd terminal. An empty list certifies that no blossom inequality is
    violated.
    """
    if n % 2 != 0:
        raise CutError("matching requires even n")
    return _tree_cuts(x, n, support_eps, violation_eps, odd=True)


def separate_connectivity(
    x: Mapping[Segment, Weight],
    n: int,
    *,
    support_eps: Weight = SUPPORT_EPS,
    violation_eps: Weight = VIOLATION_EPS,
) -> list[Cut]:
    """All violated tree-induced cuts, most violated first; an empty list
    certifies that every cut carries at least 1."""
    return _tree_cuts(x, n, support_eps, violation_eps, odd=False)
