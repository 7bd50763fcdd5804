"""Pinned numbers of the lowest cluster over a grid of problems.

Problem x boundary partition x family at n=3, with non-constant
coefficients. Each case pins lambda_bar and the traces of the Rellich,
volume and surface matrices; traces do not depend on the eigenvector basis.
The values were computed before the finite-element space refactor and must
not move beyond round-off.
"""

import numpy as np
import pytest

from spectra_shape import hadamard as hd
from spectra_shape import helmholtz as hh
from spectra_shape import maxwell as mx
from spectra_shape import transforms as tf
from spectra_shape.geometry import build_box_mesh
from spectra_shape.perturbation import rellich_matrix
from spectra_shape.spectral import cluster_spectrum, solve_pencil

EPS = tf.AffineDiagonalCoefficient(
    np.array([1.0, 1.2, 0.9]),
    np.array([[0.3, 0.0, 0.1], [0.0, -0.2, 0.0], [0.1, 0.1, 0.25]]),
)
NU = tf.AffineScalarCoefficient(1.1, np.array([0.2, -0.1, 0.15]))
MU_INV = tf.ScalarAffineIdentityCoefficient(0.9, np.array([-0.1, 0.2, 0.05]))
MIXED = {"x0": "T", "x1": "N", "y0": "N", "y1": "T", "z0": "T", "z1": "N"}
FAMILIES = {
    "scaling": tf.scaling_family(),
    "bump-sin": tf.BumpFamily(
        tf.SinField(axis=0, depends_on=1, amplitude=0.08, frequency=1.0)
    ),
}

# (problem, partition, family): (lambda_bar, trace R, trace V, trace S)
PINNED = {
    ("helmholtz", "T", "scaling"): (
        40.91506514646852, -82.1447435114571, -82.14474351145708, -64.29846111297726),
    ("helmholtz", "T", "bump-sin"): (
        40.91506514646852, -0.09721097009588842, -0.0972109700958882, -0.2764042644784474),
    ("helmholtz", "mixed", "scaling"): (
        6.942215898042247, -14.632309874772385, -14.632309874772389, -12.264991069247184),
    ("helmholtz", "mixed", "bump-sin"): (
        6.942215898042247, 0.004152190950343748, 0.004152190950344012, -0.08904181003736235),
    ("helmholtz", "N", "scaling"): (
        9.547738373684112, -20.965003603403918, -20.965003603403915, -20.331832337251328),
    ("helmholtz", "N", "bump-sin"): (
        9.547738373684112, 0.011144374013315528, 0.011144374013315646, -0.0005388503021899471),
    ("maxwell", "T", "scaling"): (
        15.2748141412652, -31.702005600356095, -31.7020056003561, -16.89996117242042),
    ("maxwell", "T", "bump-sin"): (
        15.2748141412652, -0.09159217270918132, -0.09159217270918153, 0.17868474534289344),
    ("maxwell", "mixed", "scaling"): (
        6.530901293603004, -13.57990402388389, -13.57990402388389, -13.30528906282587),
    ("maxwell", "mixed", "bump-sin"): (
        6.530901293603004, -0.07282196621024328, -0.07282196621024337, -0.07409448842843554),
    ("maxwell", "N", "scaling"): (
        16.93292971201544, -35.78562694536021, -35.7856269453602, -38.13917455028826),
    ("maxwell", "N", "bump-sin"): (
        16.93292971201544, -0.2308661418885462, -0.2308661418885461, -0.24171566064200292),
}

ROUTES = {
    "helmholtz": (hh.assemble_helmholtz, hh.assemble_helmholtz_derivative,
                  hd.helmholtz_volume_matrix, hd.helmholtz_surface_matrix, NU),
    "maxwell": (mx.assemble_maxwell, mx.assemble_maxwell_derivative,
                hd.maxwell_volume_matrix, hd.maxwell_surface_matrix, MU_INV),
}


@pytest.fixture(scope="module")
def meshes():
    return {part: build_box_mesh((1, 1, 1), 3, MIXED if part == "mixed" else part)
            for part in ("T", "mixed", "N")}


@pytest.mark.parametrize("case", sorted(PINNED), ids=lambda c: "-".join(c))
def test_lowest_cluster_numbers_unchanged(meshes, case):
    problem, part, fname = case
    assemble, derivative, volume, surface, second = ROUTES[problem]
    mesh, fam = meshes[part], FAMILIES[fname]
    cl = cluster_spectrum(solve_pencil(assemble(mesh, fam, 0.0, EPS, second), count=1))[0]
    R = rellich_matrix(derivative(mesh, fam, 0.0, 1.0, EPS, second), cl).matrix
    V = volume(mesh, fam, 0.0, 1.0, EPS, second, cl)
    S = surface(mesh, fam, 0.0, 1.0, EPS, second, cl)
    got = (cl.lambda_bar, np.trace(R), np.trace(V), np.trace(S))
    lam = PINNED[case][0]
    # the absolute floor only matters for traces that cancel to near zero
    assert got == pytest.approx(PINNED[case], rel=1e-10, abs=1e-12 * lam)
