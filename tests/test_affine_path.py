"""The affine path: where the family's velocity g is an AffineField, the map
has one Jacobian, and J, det J, J^-1, J_Psi and div Psi carry a point axis
of length 1. Every matrix it assembles must equal, byte for byte, the one
that the same g evaluated at each point gives."""

from dataclasses import dataclass

import numpy as np
import pytest

from spectra_shape import fem_common
from spectra_shape import hadamard as hd
from spectra_shape import transforms as tf
from spectra_shape.errors import InadmissibleParameterError
from spectra_shape.fem_common import (Discretisation, assemble_derivative, assemble_pencil,
                                      default_quad_order)
from spectra_shape.geometry import build_box_mesh
from spectra_shape.helmholtz import P1
from spectra_shape.maxwell import NEDELEC
from spectra_shape.spectral import cluster_spectrum, solve_pencil

MIXED = {"x0": "T", "x1": "N", "y0": "N", "y1": "T", "z0": "T", "z1": "N"}
G1 = tf.AffineField(np.array([0.1, 0.0, -0.2]),
                    np.array([[0.2, 0.1, 0.0], [0.0, -0.3, 0.05], [0.1, 0.0, 0.4]]))
BASE = tf.AffineField(np.array([0.3, -0.2, 0.5]),
                      np.array([[1.1, 0.1, 0.0], [0.0, 0.9, 0.2], [0.05, 0.0, 1.2]]))
EYE = tf.AffineField(np.eye(3))
ONE = tf.AffineField(1.0)
NU = tf.AffineField(1.1, np.array([0.2, -0.1, 0.15]))
EPS = tf.matrix_coefficient_from_config({
    "kind": "affine-diagonal", "d0": [1.0, 1.2, 0.9],
    "D": [[0.3, 0.0, 0.1], [0.0, -0.2, 0.0], [0.1, 0.1, 0.25]]})
MU_INV = tf.matrix_coefficient_from_config(
    {"kind": "scalar-affine-identity", "c0": 0.9, "c": [-0.1, 0.2, 0.05]})


@dataclass(frozen=True)
class PerPointField:
    """An affine field that is not an AffineField: its gradient is evaluated
    at each point, so its family takes the per-point path."""

    g: tf.AffineField

    def value(self, X):
        return self.g.value(X)

    def gradient(self, X):
        return self.g.gradient(X)


def _arrays(A):
    """The arrays a matrix is made of: CSR data, indices and indptr, or itself."""
    return (A.data, A.indices, A.indptr) if hasattr(A, "indptr") else (A,)


def _same(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


CASES = {
    "helmholtz-T-constant": (P1, "T", tf.Family(G1), EYE, ONE),
    "helmholtz-mixed-nu": (P1, MIXED, tf.Family(G1), EYE, NU),
    "helmholtz-mixed-base": (P1, MIXED, tf.Family(G1, BASE), EPS, NU),
    "maxwell-mixed-constant": (NEDELEC, MIXED, tf.Family(G1, BASE), EYE, EYE),
    "maxwell-T-eps": (NEDELEC, "T", tf.Family(G1), EYE, EPS),
    "maxwell-mixed-mu": (NEDELEC, MIXED, tf.Family(G1, BASE), MU_INV, EYE),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_affine_path_equals_the_per_point_path(case, monkeypatch):
    """The pencil, its derivative and the volume and surface matrices of the
    lowest clusters along an affine family equal, byte for byte, those along
    the same g read at each point, on one quadrature rule."""
    space, partition, family, stiff, mass = CASES[case]
    assert family.affine
    per_point = tf.Family(PerPointField(family.g), family.base)
    assert not per_point.affine
    # one rule for both: the per-point family alone would take order 4
    order = default_quad_order(family, stiff, mass)
    monkeypatch.setattr(fem_common, "default_quad_order", lambda *args: order)
    mesh = build_box_mesh((1.0, 1.0, 1.0), 3, partition)
    discs = [Discretisation(space, mesh, fam, stiff, mass) for fam in (family, per_point)]
    chi, direction = 0.2, -1.3
    pencils = [assemble_pencil(disc, chi) for disc in discs]
    clusters = cluster_spectrum(solve_pencil(pencils[0], count=4))[:3]
    results = [(p.K, p.M, *vars(assemble_derivative(disc, chi, direction)).values(),
                *hd.volume_matrix(disc, chi, direction, clusters),
                *hd.surface_matrix(disc, chi, direction, clusters))
               for disc, p in zip(discs, pencils)]
    for affine, pointwise in zip(*results):
        for a, b in zip(_arrays(affine), _arrays(pointwise)):
            _same(a, b)


def test_affine_map_has_one_jacobian():
    """J, det J, J^-1, J_Psi and div Psi of an affine family have one column;
    Phi(x) and Psi(x) are per point."""
    X = np.random.default_rng(3).uniform(0.0, 1.0, (50, 3))
    geo = tf.map_points(tf.Family(G1, BASE), 0.2, X)
    assert geo.J.shape == geo.Jinv.shape == (3, 3, 1) and geo.det.shape == (1,)
    assert geo.y.shape == (50, 3)
    v = tf.psi_on_physical(tf.Family(G1, BASE), 1.0, geo)
    assert v.jpsi.shape == (1, 3, 3) and v.div_psi.shape == (1,) and v.psi.shape == (50, 3)


def test_folded_stretch_names_the_first_rule_point_of_tet_0():
    """Every point of a folded affine map fails alike: the message names the
    first reference point of the first block, the rule's first point on tet 0."""
    mesh = build_box_mesh((1.0, 1.0, 1.0), 3, MIXED)
    disc = Discretisation(P1, mesh, tf.stretch_family(0), EYE, ONE)
    first = disc.points(slice(0, 1))[0, 0]
    with pytest.raises(InadmissibleParameterError) as err:
        assemble_pencil(disc, -1.5)
    assert str(err.value) == (f"det J_Phi <= 0 at parameter -1.5 (reference point "
                              f"{first.tolist()}, det -0.5)")
