"""Command-line surface.

Exit codes: 0 success, 1 usage or input error, 2 solver error. All output on
stdout is byte-reproducible for identical arguments and seed; wall-clock
timings go to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .cuts import CutError
from .geom import (
    GeometryError,
    LineFamily,
    average_stabbing,
    crossing_number,
    stabbing_number,
)
from .instance import (
    Instance,
    InstanceError,
    Method,
    Problem,
    Solution,
    SolutionError,
    gen_grid,
    gen_random,
    parse_instance,
    parse_solution,
    serialize_instance,
    solution_to_json,
    verify_solution,
)
from .lp import OBJ_TOL, LpError
from .models import ModelError, certify_relaxation, lexicographic_refine, solve_relaxation
# unused here, but perfbench/spans.py wraps these names on this module
from .models import build_matching_model, build_tree_model  # noqa: F401
from .oracle import EnumerationError, Objective, brute_optimum
from .render import RenderError, render_svg
from .solve import (
    SolveError,
    branch_and_bound,
    build_model,
    iterated_rounding,
    min_length_matching,
    min_length_tree,
)

USAGE_ERRORS = (
    InstanceError,
    SolutionError,
    GeometryError,
    RenderError,
    ValueError,
    OSError,
)
SOLVER_ERRORS = (LpError, ModelError, SolveError, CutError, EnumerationError)

FAMILIES = {"axis": LineFamily.AXIS_PARALLEL, "general": LineFamily.GENERAL}
PROBLEMS = {
    "matching": Problem.MATCHING,
    "tree": Problem.SPANNING_TREE,
    "triangulation": Problem.TRIANGULATION,
}
TIME_LIMIT_HELP = "milliseconds for branch-and-bound after rounding, 0 = unlimited"


def milliseconds(text: str) -> int:
    """A --time-limit value; argparse reports one that is not a
    nonnegative int as a usage error."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if not hasattr(args, "func"):
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SOLVER_ERRORS as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged
    and no option has a mutable default."""
    parser = argparse.ArgumentParser(
        prog="minstab",
        description="Minimum stabbing number matchings and spanning trees",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen", help="generate an instance (random or grid)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--random", type=int, metavar="N", help="random instance size")
    group.add_argument("--grid", metavar="RxC", help="grid dimensions, e.g. 3x4")
    p.add_argument("--bbox", type=int, default=100, help="bounding box side (random)")
    p.add_argument("--keep", default="1", help="kept fraction p/q (grid)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("eval", help="re-evaluate a solution file")
    _common_instance(p)
    p.add_argument("--edges", required=True, help="solution JSON path")
    p.add_argument(
        "--objective",
        choices=["stabbing", "crossing", "average"],
        default="stabbing",
    )
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bound", help="LP relaxation lower bound only")
    _common_instance(p)
    _common_model(p)
    p.add_argument("--exact-check", action="store_true")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("round", help="iterated rounding heuristic")
    _common_instance(p)
    _common_model(p)
    p.add_argument("-o", "--output", help="write the solution JSON here")
    p.set_defaults(func=_cmd_round)

    p = sub.add_parser("exact", help="branch and bound to proven optimality")
    _common_instance(p)
    _common_model(p)
    p.add_argument("--time-limit", type=milliseconds, default=0, help=TIME_LIMIT_HELP)
    p.add_argument("--exact-check", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("minlen", help="minimum-length structure")
    _common_instance(p)
    _common_model(p)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_minlen)

    p = sub.add_parser("render", help="render instance/solution as SVG")
    _common_instance(p)
    p.add_argument("--edges", help="solution JSON to draw")
    p.add_argument("--lp", action="store_true", help="draw the fractional LP optimum")
    p.add_argument("--problem", choices=["matching", "tree"], default="matching")
    p.add_argument("--family", choices=["axis", "general"], default="axis")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("oracle", help="brute-force ground truth")
    _common_instance(p)
    p.add_argument("--problem", choices=list(PROBLEMS), required=True)
    p.add_argument("--family", choices=list(FAMILIES), default="axis")
    p.add_argument(
        "--objective",
        choices=[o.value for o in Objective],
        default="stabbing",
    )
    p.add_argument("-o", "--output", help="write one optimal solution here")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("report", help="bound + rounding + exact in one run")
    _common_instance(p)
    _common_model(p)
    p.add_argument("--time-limit", type=milliseconds, default=0, help=TIME_LIMIT_HELP)
    p.add_argument("--exact-check", action="store_true")
    p.set_defaults(func=_cmd_report)

    return parser


def _common_instance(p: argparse.ArgumentParser) -> None:
    p.add_argument("instance", help="instance file (native or TSPLIB subset)")
    p.add_argument(
        "--drop-last",
        action="store_true",
        help="drop the final point (explicit odd-n fix for matchings)",
    )


def _common_model(p: argparse.ArgumentParser) -> None:
    p.add_argument("--problem", choices=["matching", "tree"], required=True)
    p.add_argument("--family", choices=["axis", "general"], default="axis")


def _load_instance(args) -> Instance:
    path = Path(args.instance)
    inst = parse_instance(path.read_bytes(), name=path.stem)
    if getattr(args, "drop_last", False):
        inst = inst.drop_last()
    return inst


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        Path(output).write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)


def _solve_root(inst: Instance, args):
    """The one model of a command, and its root relaxation solved once."""
    model = build_model(inst, PROBLEMS[args.problem], FAMILIES[args.family])
    return model, solve_relaxation(model)


def _cmd_gen(args) -> int:
    if args.random is not None:
        inst = gen_random(args.random, args.bbox, args.seed)
    else:
        try:
            rows, cols = (int(v) for v in args.grid.lower().split("x"))
        except ValueError:
            raise InstanceError(f"bad grid spec {args.grid!r}, expected RxC")
        num, _, den = args.keep.partition("/")
        if den and int(den) == 0:
            raise InstanceError(f"bad keep fraction {args.keep!r}: zero denominator")
        keep = Fraction(int(num), int(den) if den else 1)
        inst = gen_grid(rows, cols, keep, args.seed)
    _emit(serialize_instance(inst), args.output)
    return 0


def _cmd_eval(args) -> int:
    inst = _load_instance(args)
    sol = parse_solution(Path(args.edges).read_bytes())
    verify_solution(inst, sol)
    if args.objective == "stabbing":
        value, witness = stabbing_number(sol.edges, inst.points, sol.family)
        print(f"objective=stabbing value={value} stored_k={sol.k}")
        if witness is not None:
            print(f"witness={witness}")
        if value != sol.k:
            raise SolveError(f"recomputed stabbing {value} != stored k {sol.k}")
    elif args.objective == "crossing":
        value = crossing_number(sol.edges, inst.points, sol.family)
        print(f"objective=crossing value={value} stored_k={sol.k}")
    else:
        value = average_stabbing(sol.edges, inst.points, sol.family)
        print(f"objective=average value={value} stored_k={sol.k}")
    return 0


def _cmd_bound(args) -> int:
    inst = _load_instance(args)
    start = time.perf_counter()
    model, relax = _solve_root(inst, args)
    elapsed = time.perf_counter() - start
    k_frac = float(relax.k_frac)
    print(f"instance={inst.name} problem={args.problem} family={args.family}")
    print(f"k_frac={k_frac:.9f}")
    print(f"ceil_bound={math.ceil(k_frac - OBJ_TOL)}")
    print(f"cuts_added={relax.cuts_added}")
    if args.exact_check:
        exact = certify_relaxation(model, relax)
        print(f"k_frac_exact={exact.numerator}/{exact.denominator}")
    print(f"time_lp_s={elapsed:.3f}", file=sys.stderr)
    return 0


def _solution_summary(sol: Solution) -> str:
    lines = [
        f"problem={sol.problem.value}",
        f"family={sol.family.value}",
        f"k={sol.k}",
        f"method={sol.method.value}",
        f"proven={'yes' if sol.proven else 'no'}",
    ]
    if sol.lower_bound is not None:
        lines.insert(
            3, f"lower_bound={sol.lower_bound.numerator}/{sol.lower_bound.denominator}"
        )
    return "\n".join(lines) + "\n"


def _cmd_round(args) -> int:
    model, root = _solve_root(_load_instance(args), args)
    sol = iterated_rounding(model, root)
    _emit(solution_to_json(sol), args.output)
    sys.stdout.write(_solution_summary(sol))
    return 0


def _cmd_exact(args) -> int:
    model, root = _solve_root(_load_instance(args), args)
    rounded = iterated_rounding(model, root)
    sol = branch_and_bound(model, root, rounded, time_limit=args.time_limit)
    if args.exact_check:
        sol = dataclasses.replace(sol, lower_bound=certify_relaxation(model, root))
    _emit(solution_to_json(sol), args.output)
    sys.stdout.write(_solution_summary(sol))
    return 0


def _cmd_minlen(args) -> int:
    inst = _load_instance(args)
    minimum = min_length_matching if PROBLEMS[args.problem] is Problem.MATCHING else min_length_tree
    sol = minimum(inst, FAMILIES[args.family])
    _emit(solution_to_json(sol), args.output)
    sys.stdout.write(_solution_summary(sol))
    return 0


def _cmd_render(args) -> int:
    inst = _load_instance(args)
    if args.edges and args.lp:
        raise InstanceError("--edges and --lp are mutually exclusive")
    if args.edges:
        sol = parse_solution(Path(args.edges).read_bytes())
        verify_solution(inst, sol)
        svg = render_svg(
            inst, edges=sol.edges, annotation=f"k={sol.k} ({sol.family.value})"
        )
    elif args.lp:
        model, relax = _solve_root(inst, args)
        refined = lexicographic_refine(model, relax)
        svg = render_svg(
            inst,
            weights=refined.x,
            annotation=f"k_frac={float(relax.k_frac):.4f} ({args.family})",
        )
    else:
        svg = render_svg(inst, annotation=inst.name)
    _emit(svg, args.output)
    return 0


def _cmd_oracle(args) -> int:
    inst = _load_instance(args)
    problem = PROBLEMS[args.problem]
    family = FAMILIES[args.family]
    objective = Objective(args.objective)
    value, structures = brute_optimum(inst, problem, family, objective)
    print(f"objective={objective.value} value={value} optima={len(structures)}")
    if args.output:
        edges = structures[0]
        k = (
            int(value)
            if objective is Objective.STABBING
            else stabbing_number(edges, inst.points, family)[0]
        )
        sol = Solution(problem, family, tuple(edges), k, None, Method.BRUTE)
        _emit(solution_to_json(sol), args.output)
    return 0


def _cmd_report(args) -> int:
    inst = _load_instance(args)

    t0 = time.perf_counter()
    model, relax = _solve_root(inst, args)
    t_lp = time.perf_counter() - t0
    k_frac = float(relax.k_frac)
    ceil_bound = math.ceil(k_frac - OBJ_TOL)

    t0 = time.perf_counter()
    rounded = iterated_rounding(model, relax)
    t_round = time.perf_counter() - t0

    t0 = time.perf_counter()
    exact_sol = branch_and_bound(model, relax, rounded, time_limit=args.time_limit)
    t_exact = time.perf_counter() - t0

    print(f"instance={inst.name}")
    print(f"problem={args.problem}")
    print(f"family={args.family}")
    print(f"k_frac={k_frac:.9f}")
    if args.exact_check:
        exact_val = certify_relaxation(model, relax)
        print(f"k_frac_exact={exact_val.numerator}/{exact_val.denominator}")
    print(f"ceil_bound={ceil_bound}")
    print(f"k_rounding={rounded.k}")
    print(f"k_exact={exact_sol.k if exact_sol.proven else 'not proven'}")
    denominator = max(exact_sol.k if exact_sol.proven else 0, ceil_bound)
    print(f"ratio={rounded.k / denominator:.6f}" if denominator else "ratio=nan")
    print(f"cuts_added={relax.cuts_added}")
    print(
        f"time_lp_s={t_lp:.3f} time_rounding_s={t_round:.3f} time_exact_s={t_exact:.3f}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
