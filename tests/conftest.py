import numpy as np
import pytest

from spectra_shape import transforms
from spectra_shape.geometry import Mesh, build_box_mesh


@pytest.fixture(scope="session")
def cube_n2():
    return build_box_mesh((1.0, 1.0, 1.0), 2, "T")


@pytest.fixture(scope="session")
def cube_n3():
    return build_box_mesh((1.0, 1.0, 1.0), 3, "T")


@pytest.fixture(scope="session")
def cube_n4():
    return build_box_mesh((1.0, 1.0, 1.0), 4, "T")


@pytest.fixture(scope="session")
def two_box_mesh():
    """Two n = 2 unit boxes, all-T and all-N, the second shifted by 3 along
    x: a component with no constrained vertex beside one that has some. The
    all-N box's lowest-numbered vertex is 27."""
    a, b = build_box_mesh((1.0, 1.0, 1.0), 2, "T"), build_box_mesh((1.0, 1.0, 1.0), 2, "N")
    nv = len(a.vertices)
    return Mesh(np.vstack([a.vertices, b.vertices + [3.0, 0.0, 0.0]]),
                np.vstack([a.tets, b.tets + nv]),
                np.vstack([a.bfacet_vertices, b.bfacet_vertices + nv]),
                [*a.bfacet_tags, *b.bfacet_tags])


@pytest.fixture(scope="session")
def eye_eps():
    return transforms.AffineField(np.eye(3))


@pytest.fixture(scope="session")
def eye_mu():
    return transforms.AffineField(np.eye(3))


@pytest.fixture(scope="session")
def unit_nu():
    return transforms.AffineField(1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
