"""Edge-element Maxwell assembly: gradient kernel, affine identities, spectra."""

import numpy as np
import pytest

from spectra_shape import maxwell as mx
from spectra_shape import transforms as tf
from spectra_shape.geometry import build_box_mesh
from spectra_shape.spectral import solve_pencil

PI2_2 = 2 * np.pi**2


def loop_gradient_basis(mesh):
    """Reference construction of the discrete gradient, one edge at a time."""
    free_edges, _ = mx.free_edge_dofs(mesh)
    free_verts, vert_dof = mx.free_vertex_dofs(mesh)
    G = np.zeros((len(free_edges), len(free_verts)))
    for row, e in enumerate(free_edges):
        a, b = mesh.edges[e]
        if vert_dof[a] >= 0:
            G[row, vert_dof[a]] -= 1.0
        if vert_dof[b] >= 0:
            G[row, vert_dof[b]] += 1.0
    return G


class TestGradientKernel:
    @pytest.mark.parametrize("partition", [
        "T", "N", {"x0": "T", "x1": "N", "y0": "T", "y1": "T", "z0": "N", "z1": "T"},
    ])
    def test_basis_matches_loop_reference(self, partition):
        mesh = build_box_mesh((1, 1, 1), 3, partition)
        G = mx.gradient_kernel_basis(mesh)
        np.testing.assert_array_equal(G.toarray(), loop_gradient_basis(mesh))

    def test_pencil_carries_the_basis(self, cube_n2, eye_eps, eye_mu):
        p = mx.assemble_maxwell(cube_n2, tf.AffineFamily(), 0.0, eye_eps, eye_mu)
        G = mx.gradient_kernel_basis(cube_n2)
        assert (p.kernel_basis != G).nnz == 0

    def test_gradients_lie_in_stiffness_kernel(self, cube_n2, eye_eps, eye_mu):
        p = mx.assemble_maxwell(cube_n2, tf.AffineFamily(), 0.0, eye_eps, eye_mu)
        G = mx.gradient_kernel_basis(cube_n2)
        assert np.abs(p.K @ G).max() < 1e-12 * np.abs(p.K).max()

    def test_kernel_dim_equals_gradient_count_all_t(self, cube_n3, eye_eps, eye_mu):
        p = mx.assemble_maxwell(cube_n3, tf.AffineFamily(), 0.0, eye_eps, eye_mu)
        dec = solve_pencil(p)
        G = mx.gradient_kernel_basis(cube_n3)
        # for an all-tangential boundary the free hat functions are linearly
        # independent, so the column count equals the rank
        assert np.linalg.matrix_rank(G.toarray()) == G.shape[1]
        assert dec.kernel_dim == G.shape[1]

    def test_kernel_dim_equals_gradient_rank_all_n(self, eye_eps, eye_mu):
        mesh = build_box_mesh((1, 1, 1), 2, "N")
        p = mx.assemble_maxwell(mesh, tf.AffineFamily(), 0.0, eye_eps, eye_mu)
        dec = solve_pencil(p)
        G = mx.gradient_kernel_basis(mesh)
        # with every vertex free the constant potential is in the nullspace
        # of the discrete gradient: rank = vertices - 1
        rank = np.linalg.matrix_rank(G.toarray())
        assert rank == G.shape[1] - 1
        assert dec.kernel_dim == rank


class TestExactAffineIdentities:
    """Scaling Phi_chi = (1+chi)x: K(chi) = K(0)/(1+chi) and
    M(chi) = (1+chi) M(0), so dK = -K and dM = M at chi=0."""

    def test_scaling_matrix_derivatives(self, cube_n2, eye_eps, eye_mu):
        fam = tf.scaling_family()
        p = mx.assemble_maxwell(cube_n2, fam, 0.0, eye_eps, eye_mu)
        d = mx.assemble_maxwell_derivative(cube_n2, fam, 0.0, 1.0, eye_eps, eye_mu)
        np.testing.assert_allclose(d.dK.toarray(), -p.K.toarray(), atol=1e-12 * np.abs(p.K).max())
        np.testing.assert_allclose(d.dM.toarray(), p.M.toarray(), atol=1e-12 * np.abs(p.M).max())

    def test_scaling_eigenvalue_law(self, cube_n2, eye_eps, eye_mu):
        fam = tf.scaling_family()
        lam0 = solve_pencil(
            mx.assemble_maxwell(cube_n2, fam, 0.0, eye_eps, eye_mu)
        ).eigenvalues[0]
        chi = 0.15
        lam = solve_pencil(
            mx.assemble_maxwell(cube_n2, fam, chi, eye_eps, eye_mu)
        ).eigenvalues[0]
        assert lam == pytest.approx(lam0 / (1 + chi) ** 2, rel=1e-12)


class TestMatrixDerivativesVsFD:
    @pytest.mark.parametrize("family", [
        tf.stretch_family(0),
        tf.BumpFamily(tf.SinField(axis=1, depends_on=2, amplitude=0.1, frequency=1.0)),
    ])
    def test_dK_dM_match_fd(self, cube_n2, family, eye_eps, eye_mu):
        h = 1e-5
        pp = mx.assemble_maxwell(cube_n2, family, h, eye_eps, eye_mu)
        pm = mx.assemble_maxwell(cube_n2, family, -h, eye_eps, eye_mu)
        d = mx.assemble_maxwell_derivative(cube_n2, family, 0.0, 1.0, eye_eps, eye_mu)
        np.testing.assert_allclose(d.dK.toarray(), (pp.K - pm.K).toarray() / (2 * h), atol=1e-7)
        np.testing.assert_allclose(d.dM.toarray(), (pp.M - pm.M).toarray() / (2 * h), atol=1e-7)


class TestSpectrum:
    def test_lowest_resonance_near_continuum(self, cube_n4, eye_eps, eye_mu):
        p = mx.assemble_maxwell(cube_n4, tf.AffineFamily(), 0.0, eye_eps, eye_mu)
        lam1 = solve_pencil(p).eigenvalues[0]
        assert abs(lam1 - PI2_2) / PI2_2 < 0.06

    def test_edge_count_dofs(self, cube_n2):
        free, dof_of = mx.free_edge_dofs(cube_n2)
        constrained = cube_n2.boundary_edge_set("T")
        assert len(free) + len(constrained) == cube_n2.num_edges()
