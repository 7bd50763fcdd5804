"""P1 Helmholtz assembly: exact affine identities, FD of matrices, spectra."""

import numpy as np
import pytest

from spectra_shape import helmholtz as hh
from spectra_shape import transforms as tf
from spectra_shape.errors import DegenerateProblemError
from spectra_shape.fem_common import Discretisation, free_dofs
from spectra_shape.geometry import build_box_mesh
from spectra_shape.helmholtz import P1
from spectra_shape.spectral import solve_pencil

# g = 0: Phi_chi(x) = x for every chi
IDENTITY = tf.Family(tf.AffineField(np.zeros(3)))

PI2_3 = 3 * np.pi**2


class TestDofs:
    def test_all_dirichlet_counts(self, cube_n3):
        free, dof_of = free_dofs(hh.P1, cube_n3)
        assert len(free) == (3 - 1) ** 3
        assert np.all(dof_of[free] == np.arange(len(free)))

    def test_no_free_dofs_raises(self):
        mesh = build_box_mesh((1, 1, 1), 1, "T")
        with pytest.raises(DegenerateProblemError):
            Discretisation(P1, mesh, IDENTITY, tf.AffineField(np.eye(3)), tf.AffineField(1.0))


class TestExactAffineIdentities:
    """For Phi_chi = (1+chi)x with constant unit coefficients the pencil is
    K(chi) = (1+chi) K(0) and M(chi) = (1+chi)^3 M(0); the derivatives at
    chi=0 are therefore dK = K and dM = 3M exactly."""

    def test_scaling_matrix_derivatives(self, cube_n3, eye_eps, unit_nu):
        fam = tf.scaling_family()
        disc = Discretisation(P1, cube_n3, fam, eye_eps, unit_nu)
        p = hh.assemble_helmholtz(disc, 0.0)
        d = hh.assemble_helmholtz_derivative(disc, 0.0, 1.0)
        np.testing.assert_allclose(d.dK.toarray(), p.K.toarray(), atol=1e-12 * np.abs(p.K).max())
        np.testing.assert_allclose(d.dM.toarray(), 3 * p.M.toarray(), atol=1e-12 * np.abs(p.M).max())

    def test_scaling_eigenvalue_law(self, cube_n3, eye_eps, unit_nu):
        disc = Discretisation(P1, cube_n3, tf.scaling_family(), eye_eps, unit_nu)
        lam0 = solve_pencil(hh.assemble_helmholtz(disc, 0.0)).eigenvalues[0]
        chi = 0.2
        lam = solve_pencil(hh.assemble_helmholtz(disc, chi)).eigenvalues[0]
        assert lam == pytest.approx(lam0 / (1 + chi) ** 2, rel=1e-13)

    def test_translation_leaves_pencil_unchanged(self, cube_n3, eye_eps, unit_nu):
        disc = Discretisation(P1, cube_n3, tf.translation_family((0.4, 0.1, -0.3)), eye_eps,
                              unit_nu)
        p0 = hh.assemble_helmholtz(disc, 0.0)
        p1 = hh.assemble_helmholtz(disc, 0.3)
        np.testing.assert_allclose(p1.K.toarray(), p0.K.toarray(), atol=1e-12)
        np.testing.assert_allclose(p1.M.toarray(), p0.M.toarray(), atol=1e-12)


class TestMatrixDerivativesVsFD:
    @pytest.mark.parametrize("family", [
        tf.scaling_family(),
        tf.Family(tf.SinField(axis=2, depends_on=0, amplitude=0.1, frequency=1.0)),
    ])
    def test_dK_dM_match_fd(self, cube_n2, family, eye_eps, unit_nu):
        h = 1e-5
        disc = Discretisation(P1, cube_n2, family, eye_eps, unit_nu)
        pp = hh.assemble_helmholtz(disc, h)
        pm = hh.assemble_helmholtz(disc, -h)
        d = hh.assemble_helmholtz_derivative(disc, 0.0, 1.0)
        np.testing.assert_allclose(d.dK.toarray(), (pp.K - pm.K).toarray() / (2 * h), atol=1e-8)
        np.testing.assert_allclose(d.dM.toarray(), (pp.M - pm.M).toarray() / (2 * h), atol=1e-8)


class TestSpectrum:
    def test_lowest_eigenvalue_bracket(self, cube_n4, eye_eps, unit_nu):
        p = hh.assemble_helmholtz(Discretisation(P1, cube_n4, IDENTITY, eye_eps, unit_nu), 0.0)
        lam1 = solve_pencil(p).eigenvalues[0]
        # P1 approximation from above; measured 1.2665 * 3pi^2 on this mesh
        assert PI2_3 < lam1 < 1.27 * PI2_3

    def test_matrices_spd(self, cube_n3, eye_eps, unit_nu):
        p = hh.assemble_helmholtz(Discretisation(P1, cube_n3, IDENTITY, eye_eps, unit_nu), 0.0)
        K, M = p.K.toarray(), p.M.toarray()
        np.testing.assert_allclose(K, K.T, atol=1e-14)
        np.testing.assert_allclose(M, M.T, atol=1e-14)
        assert np.all(np.linalg.eigvalsh(M) > 0)
        assert np.all(np.linalg.eigvalsh(K) > 0)
