import pytest

from minstab import Instance, Point


@pytest.fixture
def unit_square() -> Instance:
    return Instance("square", (Point(0, 0), Point(1, 0), Point(0, 1), Point(1, 1)))


@pytest.fixture
def collinear3() -> Instance:
    return Instance("col3", (Point(0, 0), Point(1, 0), Point(2, 0)))

