import pytest

from minstab import Instance, Point
from minstab.lp import _ExactSimplex


@pytest.fixture
def unit_square() -> Instance:
    return Instance("square", (Point(0, 0), Point(1, 0), Point(0, 1), Point(1, 1)))


@pytest.fixture
def collinear3() -> Instance:
    return Instance("col3", (Point(0, 0), Point(1, 0), Point(2, 0)))


@pytest.fixture
def fraction_runs(monkeypatch):
    """One entry per run of the Fraction simplex, in order."""
    runs = []
    solve = _ExactSimplex.solve

    def recorded(self, *args):
        runs.append(1)
        return solve(self, *args)

    monkeypatch.setattr(_ExactSimplex, "solve", recorded)
    return runs
