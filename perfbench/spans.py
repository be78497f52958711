"""In-memory spans around minstab's public functions, and the per-layer table.

Wrappers are installed at the names callers look functions up by (for
example ``minstab.models.lp_solve``, not ``minstab.lp.lp_solve``, which no
caller in the pipeline reaches through its own module). Each call records a
span (name, start, end, parent); counters come only from public
arguments and return values. Self time is a span's duration minus the time
covered by its direct children.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from functools import wraps
from typing import Callable, Optional, Union

# layer -> fields reported; ".s" and ".self_s" are times, the rest counters
LAYERS: dict[str, tuple[str, ...]] = {
    "cli.main": ("self_s",),
    "instance.parse_instance": ("s", "self_s"),
    "models.build": ("calls", "s", "self_s", "rows_mean"),
    "geom.representative_lines": ("calls", "s", "self_s"),
    "lp.float": ("calls", "s", "self_s", "share", "warm_offered", "rows_mean", "cells_computed"),
    "lp.exact": ("calls", "s", "self_s", "share", "warm_offered", "rows_mean"),
    "models.solve_relaxation": ("calls", "s", "self_s", "rounds", "cuts"),
    "models.lexicographic_refine": ("calls", "s", "self_s"),
    "models.certify_relaxation": ("calls", "s", "self_s"),
    "cuts.separate_blossom": ("calls", "s", "self_s", "cuts", "useful_ratio"),
    "cuts.separate_connectivity": ("calls", "s", "self_s", "cuts", "useful_ratio"),
    "cuts.max_flow_min_cut": ("calls", "s", "self_s"),
    "solve.iterated_rounding": ("calls", "s", "self_s", "iters"),
    "solve.branch_and_bound": ("calls", "s", "self_s", "nodes"),
    "geom.stabbing_number": ("calls", "s", "self_s"),
    "oracle.brute_optimum": ("calls", "s", "self_s"),
}

# field -> (unit, better); totals are divided by the number of timed ops
FIELDS = {
    "calls": ("count/op", "lower"),
    "s": ("s/op", "lower"),
    "self_s": ("s/op", "lower"),
    "share": ("ratio", "lower"),
    "warm_offered": ("count/op", "higher"),
    "rows_mean": ("rows", "lower"),
    "cells_computed": ("cells/op", "lower"),
    "rounds": ("count/op", "lower"),
    "cuts": ("count/op", "lower"),
    "useful_ratio": ("ratio", "higher"),
    "iters": ("count/op", "lower"),
    "nodes": ("count/op", "lower"),
}

TRACED_OPS_PER_S = "trace.ops_per_s"

# layers the benchmark's untimed checks also run (oracle, exact certification)
CHECK_LAYERS = ("oracle.brute_optimum.", "lp.exact.", "models.certify_relaxation.")


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [(TRACED_OPS_PER_S, "1/s", "higher")]
    for layer, fields in LAYERS.items():
        specs += [(f"{layer}.{f}", *FIELDS[f]) for f in fields]
    return specs


class Tracer:
    """Span store plus counters; one per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(
        self,
        name: Union[str, Callable[[tuple, dict], str]],
        fn: Callable,
        count: Optional[Callable[[str, tuple, dict, object], None]] = None,
    ) -> Callable:
        """fn with a span per call; name may depend on the call's arguments."""

        @wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            idx = len(self.start)
            self.name.append(self._name_id(label))
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(label, args, kwargs, result)
            return result

        return traced

    def add(self, key: str, value: float = 1) -> None:
        self.counters[key] += value

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, s (sum of durations) and self_s."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names
        }
        for i in range(n):
            t = out[self.names[self.name[i]]]
            t["calls"] += 1
            t["s"] += dur[i]
            t["self_s"] += dur[i] - covered[i]
        return out

    def bnb_nodes(self) -> int:
        """Relaxations solved directly by branch-and-bound, less its root."""
        if "solve.branch_and_bound" not in self._ids:
            return 0
        bnb = self._ids["solve.branch_and_bound"]
        relax = self._ids.get("models.solve_relaxation", -1)
        children = sum(
            1
            for i in range(len(self.start))
            if self.name[i] == relax and self.parent[i] >= 0 and self.name[self.parent[i]] == bnb
        )
        return children - sum(1 for i in range(len(self.start)) if self.name[i] == bnb)


def install(tracer: Tracer) -> None:
    """Wrap minstab's public functions where their callers look them up."""
    import minstab.cli as cli
    import minstab.cuts as cuts
    import minstab.geom as geom
    import minstab.models as models
    import minstab.oracle as oracle
    import minstab.solve as solve

    def lp_name(args, kwargs) -> str:
        return "lp.exact" if kwargs.get("exact") else "lp.float"

    def lp_count(label, args, kwargs, result) -> None:
        lp = args[0]
        rows = len(lp.rows)
        tracer.add(f"{label}.rows", rows)
        warm = args[1] if len(args) > 1 else kwargs.get("warm_basis")
        tracer.add(f"{label}.warm_offered", warm is not None)
        if label == "lp.float":
            # computed from array sizes: the m x (vars + slacks) constraint matrix
            slacks = sum(1 for r in lp.rows if r.rel != "=")
            tracer.add("lp.float.cells_computed", rows * (lp.num_vars + slacks))

    def build_count(label, args, kwargs, result) -> None:
        tracer.add("models.build.rows", len(result.lp.rows))

    def relax_count(label, args, kwargs, result) -> None:
        tracer.add("models.solve_relaxation.rounds", result.lp_iterations)
        tracer.add("models.solve_relaxation.cuts", result.cuts_added)

    def sep_count(label, args, kwargs, result) -> None:
        tracer.add(f"{label}.cuts", len(result))
        tracer.add(f"{label}.useful", bool(result))

    def rounding_count(label, args, kwargs, result) -> None:
        # one fixing per iteration, and the returned edges are the fixed ones
        tracer.add("solve.iterated_rounding.iters", len(result.edges))

    plan = [
        (cli, "main", "cli.main", None),
        (oracle, "brute_optimum", "oracle.brute_optimum", None),
        (models, "lp_solve", lp_name, lp_count),
        (solve, "lp_solve", lp_name, lp_count),
        (models, "separate_blossom", "cuts.separate_blossom", sep_count),
        (solve, "separate_blossom", "cuts.separate_blossom", sep_count),
        (models, "separate_connectivity", "cuts.separate_connectivity", sep_count),
        (cuts, "max_flow_min_cut", "cuts.max_flow_min_cut", None),
        (models, "representative_lines", "geom.representative_lines", None),
        (geom, "representative_lines", "geom.representative_lines", None),
        (models, "solve_relaxation", "models.solve_relaxation", relax_count),
        (solve, "solve_relaxation", "models.solve_relaxation", relax_count),
        (cli, "solve_relaxation", "models.solve_relaxation", relax_count),
        (solve, "lexicographic_refine", "models.lexicographic_refine", None),
        (cli, "lexicographic_refine", "models.lexicographic_refine", None),
        (cli, "certify_relaxation", "models.certify_relaxation", None),
        (solve, "iterated_rounding", "solve.iterated_rounding", rounding_count),
        (cli, "iterated_rounding", "solve.iterated_rounding", rounding_count),
        (cli, "branch_and_bound", "solve.branch_and_bound", None),
        (solve, "stabbing_number", "geom.stabbing_number", None),
        (cli, "stabbing_number", "geom.stabbing_number", None),
        (cli, "parse_instance", "instance.parse_instance", None),
    ]
    for module in (solve, cli):
        for builder in ("build_matching_model", "build_tree_model"):
            plan.append((module, builder, "models.build", build_count))
    for module, attr, name, count in plan:
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), count))


def layer_metrics(tracer: Tracer, num_ops: int, op_seconds: float) -> dict[str, float]:
    """Per-layer values, totals divided by the timed ops; op_seconds is their sum."""
    totals = tracer.totals()
    c = tracer.counters
    nodes = tracer.bnb_nodes()
    values: dict[str, float] = {}
    for layer, fields in LAYERS.items():
        t = totals.get(layer, {"calls": 0, "s": 0.0, "self_s": 0.0})
        calls = t["calls"]
        extra = {
            "share": t["self_s"] / op_seconds if op_seconds else 0.0,
            "warm_offered": c[f"{layer}.warm_offered"] / num_ops,
            "rows_mean": c[f"{layer}.rows"] / calls if calls else 0.0,
            "cells_computed": c[f"{layer}.cells_computed"] / num_ops,
            "rounds": c[f"{layer}.rounds"] / num_ops,
            "cuts": c[f"{layer}.cuts"] / num_ops,
            "useful_ratio": c[f"{layer}.useful"] / calls if calls else 0.0,
            "iters": c[f"{layer}.iters"] / num_ops,
            "nodes": nodes / num_ops,
        }
        for f in fields:
            value = t[f] / num_ops if f in t else extra[f]
            values[f"{layer}.{f}"] = value
    return values
