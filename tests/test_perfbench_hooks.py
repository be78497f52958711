"""The benchmark's tracer wraps minstab functions by name; a rename in the
library must fail here rather than in ``perfbench/run.py --trace 1``."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import spans
tracer = spans.Tracer()
spans.install(tracer)
"""

# general lines at n = 10: seed 4's matching takes four cut rounds, and seed
# 1's tree needs connectivity cuts that max flows find
BOUND_RUN = """
import contextlib, io, json
from pathlib import Path
import minstab.cli as cli
from minstab.instance import gen_random, serialize_instance
path = Path({tmp!r}) / "inst.pts"
path.write_text(serialize_instance(gen_random(10, 100, {seed})))
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["bound", str(path), "--problem", {problem!r}, "--family", "general"])
assert code == 0, code
calls = {{name: t["calls"] for name, t in tracer.totals().items()}}
print(json.dumps([dict(tracer.counters), calls]))
"""


def _run(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )


def _prelude() -> str:
    return SCRIPT.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"))


def test_tracer_installs_on_every_hooked_name():
    proc = _run(_prelude())
    assert proc.returncode == 0, proc.stderr


def _traced_bound(tmp_path, problem: str, seed: int) -> tuple[dict, dict]:
    """Counters and span calls per name of one traced bound run."""
    run = BOUND_RUN.format(tmp=str(tmp_path), problem=problem, seed=seed)
    proc = _run(_prelude() + run)
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout.splitlines()[-1]))


def test_traced_bound_counts_warm_offers_and_rounds(tmp_path):
    # the warm basis must still reach lp_solve where the tracer reads it
    counters, _ = _traced_bound(tmp_path, "matching", 4)
    assert counters["lp.float.warm_offered"] > 0
    assert counters["models.solve_relaxation.rounds"] >= 2


def test_traced_tree_bound_spans_max_flows(tmp_path):
    # connectivity separation runs its max flows through the wrapped name
    counters, calls = _traced_bound(tmp_path, "tree", 1)
    assert counters["cuts.separate_connectivity.cuts"] > 0
    assert calls["cuts.max_flow_min_cut"] > 0
