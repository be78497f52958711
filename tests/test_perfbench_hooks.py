"""The benchmark's tracer wraps minstab functions by name; a rename in the
library must fail here rather than in ``perfbench/run.py --trace 1``."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import spans
spans.install(spans.Tracer())
"""


def test_tracer_installs_on_every_hooked_name():
    code = SCRIPT.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
