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

# a general-line matching that takes four cut rounds at n = 10
BOUND_RUN = """
import contextlib, io, json
from pathlib import Path
import minstab.cli as cli
from minstab.instance import gen_random, serialize_instance
path = Path({tmp!r}) / "inst.pts"
path.write_text(serialize_instance(gen_random(10, 100, 4)))
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["bound", str(path), "--problem", "matching", "--family", "general"])
assert code == 0, code
print(json.dumps(dict(tracer.counters)))
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


def test_traced_bound_counts_warm_offers_and_rounds(tmp_path):
    # the warm basis must still reach lp_solve where the tracer reads it
    proc = _run(_prelude() + BOUND_RUN.format(tmp=str(tmp_path)))
    assert proc.returncode == 0, proc.stderr
    counters = json.loads(proc.stdout.splitlines()[-1])
    assert counters["lp.float.warm_offered"] > 0
    assert counters["models.solve_relaxation.rounds"] >= 2
