import os

import numpy as np
import pytest

from klab import geometry
from klab import mesh as meshmod

PROBLEM_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "problems")
SRC_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir,
                                       "src"))
# The CLI tests run `python -m klab.cli` in subprocesses; they find the
# package the way this process does, also without an install.
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC_DIR, os.environ.get("PYTHONPATH")) if p)

# one line per acceptance criterion, echoed after the test summary
ACCEPTANCE_LINES = []


def problem_path(name: str) -> str:
    return os.path.abspath(os.path.join(PROBLEM_DIR, name))


def sample_directions(link, n: int, rng: np.random.Generator) -> np.ndarray:
    """n unit directions in a spherical polygon, drawn from its coarse
    triangles (not uniform on the sphere)."""
    tri = rng.integers(0, len(link.triangles), size=n)
    bary = rng.dirichlet(np.ones(3), size=n)
    pts = np.einsum("nk,nkd->nd", bary, link.triangles[tri])
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def square():
    return geometry.build_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


@pytest.fixture(scope="session")
def lshape():
    return geometry.build_polygon(geometry.L_SHAPE_VERTICES)


@pytest.fixture(scope="session")
def box():
    return geometry.build_polyhedron_3d("box")


@pytest.fixture(scope="session")
def l_prism():
    return geometry.build_polyhedron_3d("l_prism")


@pytest.fixture(scope="session")
def fichera():
    return geometry.build_polyhedron_3d("fichera")


@pytest.fixture(scope="session")
def square_mesh(square):
    return meshmod.build_mesh(square, 0.125)


@pytest.fixture(scope="session")
def lshape_mesh(lshape):
    return meshmod.build_mesh(lshape, 0.125)


@pytest.fixture(scope="session")
def box_mesh(box):
    return meshmod.build_mesh(box, 0.25)
