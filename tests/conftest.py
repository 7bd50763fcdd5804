import numpy as np
import pytest

from spectra_shape import transforms
from spectra_shape.geometry import build_box_mesh


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
