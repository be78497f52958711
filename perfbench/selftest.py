"""Self-test of the harness's failure accounting; every benchmark run calls run().

Fake CLI entry points stand in for minstab: an op that raises, one that exits
2, one whose output breaks an invariant and one that is fine. A solver error
in an untimed check fails the op without making its output wrong. Also runnable
on its own: ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import harness

OP = harness.Op("report", 12, 1, "matching", "axis")
GOOD = (
    f"instance={OP.instance}\nproblem=matching\nfamily=axis\nk_frac=2.500000000\n"
    "ceil_bound=3\nk_rounding=4\nk_exact=3\nratio=1.333333\ncuts_added=2\n"
)


def _raises(argv):
    raise RuntimeError("boom")


def _exits_2(argv):
    print("solver error: row 0 violated at optimum", file=sys.stderr)
    return 2


def _breaks_invariant(argv):
    print(GOOD.replace("k_exact=3", "k_exact=5"))  # k_exact above k_rounding
    return 0


def _good(argv):
    sys.stdout.write(GOOD)
    return 0


def run() -> list[str]:
    """Problems found; empty when the accounting is right."""
    problems = []
    path = Path("unused.pts")
    expect = {_raises: True, _exits_2: True, _breaks_invariant: True, _good: False}
    results = []
    for main, should_fail in expect.items():
        r = harness.run_op(main, OP, path)
        results.append(r)
        if r.failed != should_fail or r.wrong != (main is _breaks_invariant):
            problems.append(f"{main.__name__}: failed={r.failed}, error={r.error!r}")
    if sum(r.failed for r in results) != 3:
        problems.append("expected 3 failed of 4 attempted")
    changed = harness.run_op(_good, OP, path)
    changed.stdout += "extra\n"
    harness.check_repeats([results[-1], changed], {})
    if not changed.wrong:
        problems.append("a changed stdout on a repeated op was not flagged")
    untimed = harness.run_op(_good, OP, path)
    harness.fail(untimed, "certification: exit 2: solver error", wrong=False)
    if not untimed.failed or untimed.wrong:
        problems.append("a solver error in an untimed check made the output wrong")
    if harness.tail_percentile(24) != 100 * 14 / 24:
        problems.append("the tail of 24 samples is not the percentile with 10 beyond it")
    if abs(harness.hd_quantile([float(i) for i in range(1, 25)], 0.5) - 12.5) > 1e-9:
        problems.append("Harrell-Davis median of 1..24 is not 12.5")
    return problems


if __name__ == "__main__":
    found = run()
    print("\n".join(found) if found else "harness self-test passed")
    sys.exit(1 if found else 0)
