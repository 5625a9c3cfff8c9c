import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from toricweights.pipeline import analyze
from toricweights.polytope import LatticePolytope, lattice_points

SEGMENT2 = [[0], [2]]
SEGMENT3 = [[0], [3]]
SQUARE = [[0, 0], [0, 1], [1, 0], [1, 1]]
DOUBLE_SIMPLEX = [[0, 0], [2, 0], [0, 2]]
UNIT_SIMPLEX = [[0, 0], [1, 0], [0, 1]]
NON_DELZANT = [[0, 0], [2, 0], [0, 1]]
CUBE = [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]
HEXAGON = [[0, 0], [1, 0], [0, 1], [2, 1], [1, 2], [2, 2]]


def config_of(vertices):
    return lattice_points(LatticePolytope.from_vertices(vertices))


@pytest.fixture(scope="session")
def segment():
    return analyze(SEGMENT2)


@pytest.fixture(scope="session")
def segment3():
    return analyze(SEGMENT3)


@pytest.fixture(scope="session")
def square():
    return analyze(SQUARE)


@pytest.fixture(scope="session")
def double_simplex():
    return analyze(DOUBLE_SIMPLEX)


@pytest.fixture(scope="session")
def cube():
    return analyze(CUBE)
