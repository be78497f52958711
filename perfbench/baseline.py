"""Run every workload over a range of seeds and write the baseline record.

    python3 perfbench/baseline.py --seeds 1-10 --traced-seeds 1 --out perfbench/baseline.json

Runs run.py one process at a time: untraced for each seed, and traced right
after the untraced run of each traced seed. Then it reports per workload the
median and quartile spread of every end-to-end metric against its bound in
BENCHMARK.json, the failing instances, the report-only quality gaps, the
traced per-layer table and the tracing overhead. The overhead is the median
over traced seeds of untraced ops_per_s over traced ops_per_s, minus one;
pairing adjacent runs keeps the machine's drift over minutes out of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import harness
import spans

RUN = Path(__file__).resolve().with_name("run.py")
RUN_TIMEOUT_S = 180


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, trace: int, seconds: int, record: Path) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--record", str(record)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(record.read_text())


def spread(values: list[float]) -> float:
    """Quartile distance over the median, as the acceptance rule takes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(bench: dict, untraced: list[dict], traced: list[dict]) -> dict:
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    e2e = {}
    for name, spec in bounds.items():
        values = [r["metrics"][name]["value"] for r in untraced]
        e2e[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "median": statistics.median(values),
            "spread": spread(values),
            "values": values,
        }
    layer = {
        name: {"unit": unit, "better": better,
               "median": statistics.median(r["metrics"][name]["value"] for r in traced)}
        for name, unit, better in spans.metric_specs()
    }
    by_seed = {r["seed"]: r["metrics"]["ops_per_s"]["value"] for r in untraced}
    overhead = statistics.median(
        by_seed[r["seed"]] / r["metrics"][spans.TRACED_OPS_PER_S]["value"] - 1 for r in traced
    )
    failures = sorted({f for r in untraced for f in r["failures"]})
    quality = {
        k: statistics.median(r["quality"][k] for r in untraced)
        for k in (untraced[0]["quality"] or {})
    }
    return {
        "seeds": [r["seed"] for r in untraced],
        "traced_seeds": [r["seed"] for r in traced],
        "correct": all(r["correct"] for r in untraced + traced),
        "attempted": sum(r["attempted"] for r in untraced),
        "failed": sum(r["failed"] for r in untraced),
        "fail_rate_median": statistics.median(r["fail_rate"] for r in untraced),
        "failures": failures,
        "tail_percentile": untraced[0]["tail_percentile"],
        "timed_ops_per_run": sorted({r["timed_ops"] for r in untraced}),
        "end_to_end": e2e,
        "quality_medians": quality,
        "tracing_overhead": overhead,
        "per_layer": layer,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="untraced seeds, e.g. 1-10")
    p.add_argument("--traced-seeds", default="1", help="a subset of --seeds")
    p.add_argument("--workloads", help="default: the workloads in BENCHMARK.json")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    if declared != spans.metric_specs():
        raise SystemExit("BENCHMARK.json per_layer does not match spans.metric_specs()")

    git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    out = {"commit": git.stdout.strip(), "run_seconds": bench["run_seconds"], "workloads": {}}
    gated = [w["name"] for w in bench["workloads"]]
    names = args.workloads.split(",") if args.workloads else gated
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=Path.cwd()) as tmp:
        for name in names:
            runs = {0: [], 1: []}
            traced = set(_seeds(args.traced_seeds))
            for seed in _seeds(args.seeds):
                for trace in (0, 1) if seed in traced else (0,):
                    rec = _run(name, seed, trace, bench["run_seconds"], Path(tmp) / "r.json")
                    runs[trace].append(rec)
                    print(f"{name} seed={seed} trace={trace} failed={rec['failed']} "
                          f"correct={rec['correct']}", flush=True)
            w = harness.WORKLOADS[name]
            out["environment"] = runs[0][0]["environment"]
            out["workloads"][name] = {
                "gated": name in gated,
                "why": w.why,
                "should_not_move": w.should_not_move,
                "ladder": [op.label() for op in w.ladder],
                **summarize(bench, runs[0], runs[1]),
            }
            for metric, s in out["workloads"][name]["end_to_end"].items():
                flag = "ok" if s["spread"] < s["bound"] / 3 else "WIDE"
                print(f"  {metric:<14} median={s['median']:.6g} {s['unit']} "
                      f"spread={s['spread']:.4f} bound={s['bound']} {flag}", flush=True)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
