import sys

import pytest

from circlet.families import (
    crosspolytope_skeleton,
    finned_circlet,
    hypercube_skeleton,
    simplex_skeleton,
    triangular_grid,
)


def pytest_terminal_summary(terminalreporter):
    acceptance = sys.modules.get("test_acceptance")
    lines = getattr(acceptance, "RESULT_LINES", None)
    if not lines:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def delta52():
    return simplex_skeleton(6, 2)


@pytest.fixture(scope="session")
def delta42():
    return simplex_skeleton(5, 2)


@pytest.fixture(scope="session")
def tetra():
    return simplex_skeleton(4, 2)


@pytest.fixture(scope="session")
def octahedron():
    return crosspolytope_skeleton(3, 2)


@pytest.fixture(scope="session")
def cube():
    return hypercube_skeleton(3, 2)


@pytest.fixture(scope="session")
def c34():
    return finned_circlet(3, 4)


@pytest.fixture(scope="session")
def grid():
    return triangular_grid(3)
