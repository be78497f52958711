"""Workloads, the closed-loop client and the output checks of the benchmark.

An operation is one ``minstab`` CLI invocation on one instance file, driven
in-process through ``minstab.cli.main(argv)`` with stdout captured. This
module imports nothing from minstab at import time: the caller pins the BLAS
threads and puts the checkout's ``src`` on ``sys.path`` first, then passes the
CLI entry point in.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

BBOX = 100
REL_TOL = 1e-6


@dataclass(frozen=True)
class Op:
    command: str  # "bound" or "report"
    n: int
    gen_seed: int
    problem: str  # "matching" or "tree"
    family: str  # "axis" or "general"
    exact_check: bool = False

    @property
    def instance(self) -> str:
        # the same name gen_random gives; the CLI prints the file stem
        return f"random-n{self.n}-b{BBOX}-s{self.gen_seed}"

    def argv(self, path: Path) -> list[str]:
        argv = [self.command, str(path), "--problem", self.problem, "--family", self.family]
        return argv + (["--exact-check"] if self.exact_check else [])

    def label(self) -> str:
        flag = " --exact-check" if self.exact_check else ""
        return f"{self.command} {self.instance} {self.problem} {self.family}{flag}"


def _ladder(command, sizes, seeds, families, exact_check=False) -> tuple[Op, ...]:
    return tuple(
        Op(command, n, s, p, f, exact_check)
        for s in seeds
        for n in sizes
        for p in ("matching", "tree")
        for f in families
    )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    should_not_move: str
    ladder: tuple[Op, ...]


# Instance seeds are the first positive ones, in order, for every ladder.
# Per-instance cost varies 2-5x and a run fits 24-32 operations, so the
# ladder is fixed and the run seed orders it (see README.md). certify gets
# 32 ops because one exact op's time varies most from run to run.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bound-general",
            "float root LP on the largest dense tableaux (general lines, n=24/28): "
            "lazy stabbing rows and LP-kernel work show here",
            "rounding, branch-and-bound and exact certification never run here",
            _ladder("bound", (24, 28), range(1, 7), ("general",)),
        ),
        Workload(
            "report-small",
            "report pipeline (n=12/16): many small warm and cold float re-solves "
            "after cuts and fixings, rounding and branch-and-bound; known optima",
            "exact certification never runs here",
            _ladder("report", (12, 16), range(1, 4), ("axis", "general")),
        ),
        Workload(
            "certify",
            "bound --exact-check (n=10/12): the Fraction simplex dominates, so exact "
            "basis verification shows here and nowhere else",
            "float-only changes (float LP is under 2% of op time here)",
            _ladder("bound", (10, 12), range(1, 5), ("axis", "general"), exact_check=True),
        ),
    )
}


def warmup_op(workload: Workload) -> Op:
    """One tiny op of the workload's kind, on the same instance in every run.

    A warm-up instance drawn from the run seed made set-up time depend on the
    seed: at n=8, the report op on one seed's instance took 1.5x as long as
    on another's.
    """
    first = workload.ladder[0]
    return Op(first.command, 8, 1, first.problem, first.family, first.exact_check)


# ---------------------------------------------------------------------------
# running one operation


@dataclass
class OpResult:
    op: Op
    seconds: float
    stdout: str
    error: str = ""  # why the op failed; empty when it succeeded
    wrong: bool = False  # the output broke a check
    values: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return bool(self.error)


def run_op(main: Callable[[list[str]], int], op: Op, path: Path) -> OpResult:
    """Time one CLI call; any exception or nonzero exit makes the op failed."""
    out, err = io.StringIO(), io.StringIO()
    code: Optional[int] = None
    raised = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(op.argv(path))
    except Exception as exc:  # the client keeps going; the op counts as failed
        raised = f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    result = OpResult(op, seconds, out.getvalue())
    if raised:
        result.error = raised
    elif code != 0:
        last = err.getvalue().strip().splitlines()
        result.error = f"exit {code}: {last[-1] if last else ''}"
    else:
        for problem in check_output(op, result):
            fail(result, problem)
    return result


# ---------------------------------------------------------------------------
# output checks: invariants only, never pinned values


def parse_output(text: str) -> dict[str, str]:
    """key=value tokens; ``bound`` prints several on its first line."""
    values = {}
    for line in text.splitlines():
        for token in line.split():
            key, sep, value = token.partition("=")
            if sep:
                values[key] = value
    return values


def check_output(op: Op, result: OpResult) -> list[str]:
    """Invariant checks on one op's stdout; fills result.values."""
    v = parse_output(result.stdout)
    keys = ["instance", "problem", "family", "k_frac", "ceil_bound", "cuts_added"]
    if op.command == "report":
        keys += ["k_rounding", "k_exact", "ratio"]
    if op.exact_check:
        keys.append("k_frac_exact")
    missing = [k for k in keys if k not in v]
    if missing:
        return [f"missing {', '.join(missing)}"]
    problems = []
    for key, want in (("instance", op.instance), ("problem", op.problem), ("family", op.family)):
        if v[key] != want:
            problems.append(f"{key}={v[key]} expected {want}")
    try:
        k_frac = float(v["k_frac"])
        ceil_bound = int(v["ceil_bound"])
        cuts = int(v["cuts_added"])
        exact = Fraction(v["k_frac_exact"]) if op.exact_check else None
        k_round = int(v["k_rounding"]) if op.command == "report" else None
        k_exact = int(v["k_exact"]) if op.command == "report" else None
    except ValueError as exc:
        return problems + [f"unparsable value: {exc}"]
    if not (k_frac > 0 and math.isfinite(k_frac)):
        problems.append(f"k_frac={k_frac} not positive")
    if ceil_bound != math.ceil(k_frac - REL_TOL):
        problems.append(f"ceil_bound={ceil_bound} is not ceil(k_frac)")
    if cuts < 0:
        problems.append(f"cuts_added={cuts}")
    if exact is not None and abs(k_frac - float(exact)) > REL_TOL:
        problems.append(f"k_frac={k_frac} but k_frac_exact={exact}")
    if k_exact is not None:
        if not ceil_bound <= k_exact <= k_round:
            problems.append(
                f"not ceil_bound <= k_exact <= k_rounding: {ceil_bound}, {k_exact}, {k_round}"
            )
        if k_frac > k_exact + REL_TOL:
            problems.append(f"k_frac={k_frac} above k_exact={k_exact}")
        result.values = {"k_frac": k_frac, "k_exact": k_exact, "k_rounding": k_round}
    return problems


def fail(result: OpResult, problem: str, wrong: bool = True) -> None:
    """Mark an op failed, and its output wrong unless told otherwise.

    Keeps any earlier reason it failed.
    """
    result.wrong = result.wrong or wrong
    result.error = (result.error + "; " if result.error else "check failed: ") + problem


# ---------------------------------------------------------------------------
# the closed loop


def closed_loop(
    main: Callable[[list[str]], int],
    ladder: tuple[Op, ...],
    paths: dict[Op, Path],
    seed: int,
    seconds: float,
) -> tuple[list[OpResult], float]:
    """One client, one op at a time, in whole passes over the ladder.

    Each pass visits every op once in an order drawn from the seed; passes
    repeat until ``seconds`` have elapsed. Whole passes keep every run's mix
    of ops the same, whatever the order. Returns the results and the wall
    time of the loop.
    """
    rng = random.Random(seed)
    results: list[OpResult] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        order = list(ladder)
        rng.shuffle(order)
        for op in order:
            results.append(run_op(main, op, paths[op]))
    return results, time.perf_counter() - start


def check_repeats(results: list[OpResult], first: dict[Op, str]) -> None:
    """stdout is promised byte-reproducible: every repeat must match the first."""
    for r in results:
        if r.op not in first:
            first[r.op] = r.stdout
        elif r.stdout != first[r.op]:
            fail(r, "stdout differs from the first pass")


# ---------------------------------------------------------------------------
# end-to-end figures


def hd_quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta-weighted mean of all order statistics. With 24-32 ops a run, and
    one op's time varying by 6-17% from run to run, it is much steadier than
    the single order statistic a plain percentile picks.
    """
    import mpmath

    xs = sorted(samples)
    n = len(xs)
    if p >= 1:
        return xs[-1]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def tail_percentile(n: int) -> float:
    """Highest percentile with at least 10 of n samples beyond it (100 if n <= 10)."""
    return 100.0 * (n - 10) / n if n > 10 else 100.0


def quality(results: list[OpResult]) -> dict[str, float]:
    """report-only gaps over the distinct instances that succeeded."""
    seen = {}
    for r in results:
        if not r.failed and r.values and r.op not in seen:
            seen[r.op] = r.values
    if not seen:
        return {}
    vals = list(seen.values())
    return {
        "root_gap": statistics.fmean((v["k_exact"] - v["k_frac"]) / v["k_exact"] for v in vals),
        "rounding_gap": statistics.fmean(v["k_rounding"] / v["k_exact"] for v in vals),
    }
