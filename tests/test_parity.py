"""Pinned numbers of the lowest cluster over a grid of problems.

Problem x boundary partition x family at n=3, with non-constant
coefficients. Each case pins lambda_bar and the traces of the Rellich,
volume and surface matrices; traces do not depend on the eigenvector basis.
The values were computed before the finite-element space refactor and must
not move beyond round-off.

At chi_bar = 0 both families are the identity map, so J = I there. The
cases at chi_bar = 0.2 pin a non-diagonal affine map and a bump whose
Jacobian varies in space; they were computed before the mapped geometry
was shared between the coefficients, the velocity field and the forms.

The bump-sin cases integrate at order 4. Their numbers were re-pinned when
order 4 moved from a 36-point collapsed Gauss rule to the symmetric
14-point rule; the 36-point numbers are kept, and the new ones must stay
within a quadrature bound of them. The scaling and affine cases have
polynomial integrands of degree <= 4, which both rules integrate exactly,
and did not move beyond round-off.
"""

import numpy as np
import pytest

from spectra_shape import hadamard as hd
from spectra_shape import helmholtz as hh
from spectra_shape import maxwell as mx
from spectra_shape import transforms as tf
from spectra_shape.fem_common import Discretisation
from spectra_shape.geometry import build_box_mesh
from spectra_shape.helmholtz import P1
from spectra_shape.maxwell import NEDELEC
from spectra_shape.perturbation import rellich_matrix
from spectra_shape.spectral import cluster_spectrum, solve_pencil

EPS = tf.matrix_coefficient_from_config({
    "kind": "affine-diagonal", "d0": [1.0, 1.2, 0.9],
    "D": [[0.3, 0.0, 0.1], [0.0, -0.2, 0.0], [0.1, 0.1, 0.25]],
})
NU = tf.AffineField(1.1, np.array([0.2, -0.1, 0.15]))
MU_INV = tf.matrix_coefficient_from_config(
    {"kind": "scalar-affine-identity", "c0": 0.9, "c": [-0.1, 0.2, 0.05]})
MIXED = {"x0": "T", "x1": "N", "y0": "N", "y1": "T", "z0": "T", "z1": "N"}
FAMILIES = {
    "scaling": tf.scaling_family(),
    "affine-A1": tf.Family(tf.AffineField(
        np.array([0.1, 0.0, -0.2]),
        np.array([[0.2, 0.1, 0.0], [0.0, -0.3, 0.05], [0.1, 0.0, 0.4]]),
    )),
    "bump-sin": tf.Family(
        tf.SinField(axis=0, depends_on=1, amplitude=0.08, frequency=1.0)
    ),
}

# (problem, partition, family): (lambda_bar, trace R, trace V, trace S)
PINNED = {
    ("helmholtz", "T", "scaling"): (
        40.91506514646852, -82.1447435114571, -82.14474351145708, -64.29846111297726),
    ("helmholtz", "T", "bump-sin"): (
        40.91506514646854, -0.0972106298703343, -0.0972106298703343, -0.2764042644784475),
    ("helmholtz", "mixed", "scaling"): (
        6.942215898042247, -14.632309874772385, -14.632309874772389, -12.264991069247184),
    ("helmholtz", "mixed", "bump-sin"): (
        6.942215898042249, 0.0041524579267872425, 0.0041524579267872355, -0.08904181003736256),
    ("helmholtz", "N", "scaling"): (
        9.547738373684112, -20.965003603403918, -20.965003603403915, -20.331832337251328),
    ("helmholtz", "N", "bump-sin"): (
        9.547738373684112, 0.01114465117678861, 0.011144651176788513, -0.0005388503021900443),
    ("maxwell", "T", "scaling"): (
        15.2748141412652, -31.702005600356095, -31.7020056003561, -16.89996117242042),
    ("maxwell", "T", "bump-sin"): (
        15.27481414126521, -0.09158384667345106, -0.0915838466734513, 0.17868474534289558),
    ("maxwell", "mixed", "scaling"): (
        6.530901293603004, -13.57990402388389, -13.57990402388389, -13.30528906282587),
    ("maxwell", "mixed", "bump-sin"): (
        6.530901293603003, -0.07282134997942762, -0.07282134997942755, -0.07409448842843624),
    ("maxwell", "N", "scaling"): (
        16.93292971201544, -35.78562694536021, -35.7856269453602, -38.13917455028826),
    ("maxwell", "N", "bump-sin"): (
        16.932929712015447, -0.23086471776576023, -0.23086471776575992, -0.24171566064199781),
}

# the same numbers at chi_bar = 0.2, mixed partition
PINNED_OFF_IDENTITY = {
    ("helmholtz", "mixed", "affine-A1"): (
        6.763177279114837, -0.48575531960719, -0.48575531960718976, -1.7941094929864398),
    ("helmholtz", "mixed", "bump-sin"): (
        6.944085020872631, 0.01452643262400704, 0.014526432624007116, -0.09132009162405275),
    ("maxwell", "mixed", "affine-A1"): (
        6.272117890653476, -0.9217952913301122, -0.9217952913301106, -1.059084130872237),
    ("maxwell", "mixed", "bump-sin"): (
        6.51578597655607, -0.07832918025175627, -0.078329180251756, -0.07776875589187182),
}

# the bump-sin numbers under the 36-point collapsed Gauss rule that order 4
# used before the 14-point rule, keyed (problem, partition, chi_bar)
PINNED_36_POINT = {
    ("helmholtz", "N", 0.0): (
        9.547738373684112, 0.011144374013315528, 0.011144374013315646, -0.0005388503021899471),
    ("helmholtz", "T", 0.0): (
        40.91506514646852, -0.09721097009588842, -0.0972109700958882, -0.2764042644784474),
    ("helmholtz", "mixed", 0.0): (
        6.942215898042247, 0.004152190950343748, 0.004152190950344012, -0.08904181003736235),
    ("helmholtz", "mixed", 0.2): (
        6.944084946935287, 0.014525962368094121, 0.014525962368094308, -0.0913200888294945),
    ("maxwell", "N", 0.0): (
        16.93292971201544, -0.2308661418885462, -0.2308661418885461, -0.24171566064200292),
    ("maxwell", "T", 0.0): (
        15.2748141412652, -0.09159217270918132, -0.09159217270918153, 0.17868474534289344),
    ("maxwell", "mixed", 0.0): (
        6.530901293603004, -0.07282196621024328, -0.07282196621024337, -0.07409448842843554),
    ("maxwell", "mixed", 0.2): (
        6.515785820145555, -0.07833012364519308, -0.0783301236451929, -0.07776877242778035),
}

# the space, the routes and the (stiffness, mass) coefficients of each problem
ROUTES = {
    "helmholtz": (P1, hh.assemble_helmholtz, hh.assemble_helmholtz_derivative,
                  hd.helmholtz_volume_matrix, hd.helmholtz_surface_matrix, (EPS, NU)),
    "maxwell": (NEDELEC, mx.assemble_maxwell, mx.assemble_maxwell_derivative,
                hd.maxwell_volume_matrix, hd.maxwell_surface_matrix, (MU_INV, EPS)),
}


@pytest.fixture(scope="module")
def meshes():
    return {part: build_box_mesh((1, 1, 1), 3, MIXED if part == "mixed" else part)
            for part in ("T", "mixed", "N")}


def _lowest_cluster_numbers(mesh, problem, fam, chi):
    space, assemble, derivative, volume, surface, coefficients = ROUTES[problem]
    disc = Discretisation(space, mesh, fam, *coefficients)
    cl = cluster_spectrum(solve_pencil(assemble(disc, chi), count=1))[0]
    R = rellich_matrix(derivative(disc, chi, 1.0), cl)
    V = volume(disc, chi, 1.0, [cl])[0]
    S = surface(disc, chi, 1.0, [cl])[0]
    return (cl.lambda_bar, np.trace(R), np.trace(V), np.trace(S))


@pytest.mark.parametrize("case", sorted(PINNED), ids=lambda c: "-".join(c))
def test_lowest_cluster_numbers_unchanged(meshes, case):
    problem, part, fname = case
    got = _lowest_cluster_numbers(meshes[part], problem, FAMILIES[fname], 0.0)
    lam = PINNED[case][0]
    # the absolute floor only matters for traces that cancel to near zero
    assert got == pytest.approx(PINNED[case], rel=1e-10, abs=1e-12 * lam)


@pytest.mark.parametrize("case", sorted(PINNED_OFF_IDENTITY), ids=lambda c: "-".join(c))
def test_lowest_cluster_numbers_away_from_identity(meshes, case):
    problem, part, fname = case
    got = _lowest_cluster_numbers(meshes[part], problem, FAMILIES[fname], 0.2)
    lam = PINNED_OFF_IDENTITY[case][0]
    assert got == pytest.approx(PINNED_OFF_IDENTITY[case], rel=1e-10, abs=1e-12 * lam)


@pytest.mark.parametrize("case", sorted(PINNED_36_POINT), ids=lambda c: "-".join(map(str, c)))
def test_bump_numbers_within_quadrature_bound_of_36_point_rule(meshes, case):
    """The order-4 rule moves the bump numbers by quadrature error only:
    1e-7 in lambda_bar and 2e-4 in the traces, relative, above a floor of
    1e-6 lambda_bar."""
    problem, part, chi = case
    got = _lowest_cluster_numbers(meshes[part], problem, FAMILIES["bump-sin"], chi)
    old = PINNED_36_POINT[case]
    assert got[0] == pytest.approx(old[0], rel=1e-7)
    assert got[1:] == pytest.approx(old[1:], rel=2e-4, abs=1e-6 * old[0])
