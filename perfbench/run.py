"""minstab benchmark: one closed-loop client driving the CLI in-process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bound-general --seed 1 --seconds 20 --trace 0

Prints each op, every metric with its unit and the failing instances, then,
as the last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
ones with ``--trace 1``). Workloads and checks are in harness.py, spans in
spans.py; README.md says what each number means.
"""

from __future__ import annotations

import os

# Pinned before anything imports numpy: OpenBLAS reads these once, at load.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402
import selftest  # noqa: E402
import spans  # noqa: E402

SETUP_SAMPLES = 10  # fresh processes, half before the timed loop and half after
CHILD_TIMEOUT_S = 120


def _parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="also write the full run record (JSON) to this file")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _source_root() -> Path:
    """The checkout's src/ directory; the benchmark never uses an installed copy."""
    src = Path.cwd() / "src"
    if not (src / "minstab" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no minstab sources under {src}; run from a checkout root")
    return src


def _set_up(workload: harness.Workload, workdir: Path):
    """Import the CLI, write the ladder's instance files and run one warm-up op.

    Returns (the cli module, instance paths, warm-up result, seconds taken).
    """
    start = time.perf_counter()
    sys.path.insert(0, str(_source_root()))
    import minstab.cli as cli
    from minstab.instance import gen_random, serialize_instance

    warm = harness.warmup_op(workload)
    paths = {}
    for op in (warm,) + workload.ladder:
        path = workdir / f"{op.instance}.pts"
        if not path.exists():
            path.write_text(serialize_instance(gen_random(op.n, harness.BBOX, op.gen_seed)))
        paths[op] = path
    warm_result = harness.run_op(cli.main, warm, paths[warm])
    return cli, paths, warm_result, time.perf_counter() - start


def _setup_in_fresh_process(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _environment() -> dict:
    import numpy as np

    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        **{k: os.environ.get(k) for k in PINNED_ENV},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpus": os.cpu_count(),
    }


def _oracle_checks(results: list[harness.OpResult]) -> None:
    """report-small matching ops at n=12: k_exact must equal the brute-force optimum."""
    import minstab.oracle as oracle
    from minstab.geom import LineFamily
    from minstab.instance import Problem, gen_random

    families = {"axis": LineFamily.AXIS_PARALLEL, "general": LineFamily.GENERAL}
    truth = {}
    for r in results:
        op = r.op
        if r.failed or op.command != "report" or op.problem != "matching" or op.n != 12:
            continue
        if op not in truth:
            inst = gen_random(op.n, harness.BBOX, op.gen_seed)
            value, _ = oracle.brute_optimum(
                inst, Problem.MATCHING, families[op.family], oracle.Objective.STABBING
            )
            truth[op] = int(value)
        if r.values["k_exact"] != truth[op]:
            harness.fail(r, f"k_exact={r.values['k_exact']} but brute force gives {truth[op]}")


def _certify_checks(main, results: list[harness.OpResult], paths) -> None:
    """report-small axis matching ops at n=12: certify the relaxation exactly.

    Runs ``bound --exact-check`` on the same instance, untimed. Its exact
    value must match its float one (checked in harness), and its k_frac the
    report's. This also keeps the exact layers in report-small's trace.
    """
    done = {}
    for r in results:
        op = r.op
        if r.failed or (op.command, op.problem, op.family, op.n) != ("report", "matching", "axis", 12):
            continue
        if op not in done:
            exact = harness.Op("bound", op.n, op.gen_seed, op.problem, op.family, exact_check=True)
            done[op] = harness.run_op(main, exact, paths[op])
        check = done[op]
        if check.failed:
            # a solver error (exit 2) fails the op; only a broken check makes it wrong
            harness.fail(r, f"certification: {check.error}", wrong=check.wrong)
        elif abs(float(harness.parse_output(check.stdout)["k_frac"]) - r.values["k_frac"]) > harness.REL_TOL:
            harness.fail(r, "k_frac differs from the certified bound's")


def _replay(main, results, paths, seed: int, first: dict) -> harness.OpResult:
    """Byte-stability check that does not depend on the loop repeating an op."""
    op = random.Random(seed).choice(sorted({r.op for r in results}, key=harness.Op.label))
    replay = harness.run_op(main, op, paths[op])
    harness.check_repeats([replay], first)
    return replay


def _emit(name: str, value, unit: str, note: str = "") -> None:
    print(f"  {name:<40} {value!r:>24} {unit}{'  ' + note if note else ''}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    workload = harness.WORKLOADS[args.workload]
    _source_root()  # fail before any work when the sources are missing
    problems = selftest.run()
    if problems:
        print("perfbench: harness self-test failed: " + "; ".join(problems), file=sys.stderr)
        return 3

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=Path.cwd()) as tmp:
        cli, paths, warm, setup_here = _set_up(workload, Path(tmp))
        if args.setup_probe:
            print(setup_here)
            return 0
        # Samples come only from fresh processes, all in the same state; this
        # process's own set-up came first and may have compiled the sources.
        # The host's speed drifts over tens of seconds, so half the samples are
        # taken after the loop: the median then spans the run, as the loop's do.
        setup_samples = [_setup_in_fresh_process(args) for _ in range(SETUP_SAMPLES // 2)]

        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            spans.install(tracer)

        results, wall = harness.closed_loop(
            cli.main, workload.ladder, paths, args.seed, args.seconds
        )
        # the timed loop's own peak, before the untimed checks allocate
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_samples += [_setup_in_fresh_process(args) for _ in range(SETUP_SAMPLES // 2)]
        layer = None
        if tracer:
            layer = spans.layer_metrics(tracer, len(results), sum(r.seconds for r in results))

        first: dict = {}
        harness.check_repeats(results, first)
        _oracle_checks(results)
        _certify_checks(cli.main, results, paths)
        if tracer:
            # layers that also run in the untimed checks: count those too
            after = spans.layer_metrics(tracer, len(results), sum(r.seconds for r in results))
            for name in after:
                if name.startswith(spans.CHECK_LAYERS):
                    layer[name] = after[name]
        replay = _replay(cli.main, results, paths, args.seed, first)

    timed = [r.seconds for r in results]
    # one time per ladder op (its median over passes), so the quantiles are
    # read off the same number of samples whether a run fits one pass or two
    passes: dict = {}
    for r in results:
        passes.setdefault(r.op, []).append(r.seconds)
    op_times = [statistics.median(v) for v in passes.values()]
    attempted = len(results) + 1  # the warm-up op counts, untimed
    failed_ops = [r for r in [warm] + results if r.failed]
    pct = harness.tail_percentile(len(op_times))
    e2e = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (len(results) / wall, "1/s"),
        "op_s_p50": (harness.hd_quantile(op_times, 0.5), "s"),
        "op_s_tail": (harness.hd_quantile(op_times, pct / 100), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    quality = harness.quality(results)
    env = _environment()

    print(f"workload {workload.name} seed={args.seed} trace={args.trace}: {workload.why}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"ops (closed loop, 1 client, {len(results)} timed in {wall:.3f} s):")
    for i, r in enumerate(results):
        status = f"FAILED {r.error}" if r.failed else "ok"
        print(f"  {i:3d} {r.seconds:9.4f} s  {r.op.label()}  {status}")
    print("end-to-end (untraced)" if not tracer else "end-to-end (traced; overhead inflates times)")
    for name, (value, unit) in e2e.items():
        note = f"p{pct:.2f} of {len(op_times)} ops, {len(timed)} samples" if name == "op_s_tail" else ""
        if name == "setup_s":
            note = "median of " + ", ".join(f"{s:.4f}" for s in setup_samples)
        _emit(name, value, unit, note)
    _emit("fail_rate", len(failed_ops) / attempted, "ratio", f"{len(failed_ops)} of {attempted}")
    for name, value in quality.items():
        _emit(name, value, "ratio", "mean over distinct instances")
    for r in failed_ops:
        print(f"  failed: {r.op.label()}: {r.error}")
    if tracer:
        print("per-layer (traced, per timed op):")
        layer[spans.TRACED_OPS_PER_S] = len(results) / wall
        for name, unit, _better in spans.metric_specs():
            _emit(name, layer[name], unit)

    if tracer:
        units = {name: unit for name, unit, _ in spans.metric_specs()}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    summary = {
        "correct": not any(r.wrong for r in [warm, replay] + results),
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": metrics,
    }
    if args.record:
        record = {
            **summary,
            "workload": workload.name,
            "seed": args.seed,
            "trace": args.trace,
            "environment": env,
            "tail_percentile": pct,
            "timed_ops": len(timed),
            "setup_samples": setup_samples,
            "fail_rate": len(failed_ops) / attempted,
            "failures": [f"{r.op.label()}: {r.error}" for r in failed_ops],
            "quality": quality,
            "ops": [[r.op.label(), r.seconds, r.error] for r in results],
        }
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
