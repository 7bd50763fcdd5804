"""Eigensolver, resolvent, contour projector, subspace gap, clustering."""

import numpy as np
import pytest
import scipy.linalg as sla

from spectra_shape.errors import (
    ContourError,
    ContractViolationError,
    NearSingularError,
    PencilError,
)
from spectra_shape.fem_common import Pencil
from spectra_shape.spectral import (
    cluster_spectrum,
    resolvent_apply,
    riesz_projector,
    solve_pencil,
    subspace_gap,
)


def make_pencil(K, M=None):
    K = np.asarray(K, dtype=float)
    if M is None:
        M = np.eye(len(K))
    return Pencil(K, np.asarray(M, dtype=float))


def random_spd_pencil(rng, n=12):
    Q = sla.qr(rng.standard_normal((n, n)))[0]
    K = Q @ np.diag(rng.uniform(1.0, 20.0, n)) @ Q.T
    B = rng.standard_normal((n, n))
    M = B @ B.T + n * np.eye(n)
    return make_pencil(K, M)


class TestSolvePencil:
    def test_diagonal_pencil(self):
        dec = solve_pencil(make_pencil(np.diag([3.0, 1.0, 2.0])))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 2.0, 3.0])
        assert dec.kernel_dim == 0

    def test_kernel_deflation(self):
        dec = solve_pencil(make_pencil(np.diag([0.0, 0.0, 1.0, 2.0])))
        assert dec.kernel_dim == 2
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 2.0])

    def test_vectors_m_orthonormal(self, rng):
        p = random_spd_pencil(rng)
        dec = solve_pencil(p)
        G = dec.eigenvectors.T @ p.M @ dec.eigenvectors
        np.testing.assert_allclose(G, np.eye(p.size), atol=1e-10)

    def test_indefinite_mass_rejected(self):
        with pytest.raises(PencilError):
            solve_pencil(make_pencil(np.eye(2), np.diag([1.0, -1.0])))


class TestResolvent:
    def test_matches_spectral_decomposition(self, rng):
        p = random_spd_pencil(rng)
        dec = solve_pencil(p)
        b = rng.standard_normal(p.size)
        zeta = 0.5 * (dec.eigenvalues[2] + dec.eigenvalues[3])
        coeff = dec.eigenvectors.T @ p.M @ b / (dec.eigenvalues - zeta)
        oracle = dec.eigenvectors @ coeff
        np.testing.assert_allclose(
            resolvent_apply(p, zeta, b), oracle, atol=1e-10 * np.abs(oracle).max()
        )

    def test_near_spectrum_shift_rejected(self, rng):
        p = random_spd_pencil(rng)
        dec = solve_pencil(p)
        with pytest.raises(NearSingularError):
            resolvent_apply(p, dec.eigenvalues[0], np.ones(p.size))


def separated_pencil(rng, eigenvalues):
    """Generalized pencil with a prescribed, well-separated spectrum."""
    n = len(eigenvalues)
    B = rng.standard_normal((n, n))
    M = B @ B.T + n * np.eye(n)
    L = sla.cholesky(M, lower=True)
    Q = sla.qr(rng.standard_normal((n, n)))[0]
    K = L @ Q @ np.diag(eigenvalues) @ Q.T @ L.T
    return make_pencil(K, M)


class TestRieszProjector:
    def test_matches_spectral_projector(self, rng):
        p = separated_pencil(rng, [1.0, 2.0, 3.0, 10.0, 12.0, 15.0, 20.0, 24.0])
        dec = solve_pencil(p)
        lams = dec.eigenvalues
        center, radius = 2.0, 4.0
        P = riesz_projector(p, center, radius, nquad=64)
        inside = np.abs(lams - center) < radius
        V = dec.eigenvectors[:, inside]
        oracle = V @ V.T @ p.M
        assert np.abs(P - oracle).max() < 1e-8
        # idempotent to the same tolerance
        assert np.abs(P @ P - P).max() < 1e-8

    def test_quadrature_converges(self, rng):
        p = random_spd_pencil(rng)
        dec = solve_pencil(p)
        lams = dec.eigenvalues
        center, radius = lams[0], 0.4 * (lams[1] - lams[0])
        V = dec.eigenvectors[:, :1]
        oracle = V @ V.T @ p.M
        errs = [
            np.abs(riesz_projector(p, center, radius, nquad=nq) - oracle).max()
            for nq in (8, 16, 32)
        ]
        assert errs[1] < errs[0] and errs[2] < errs[1]

    def test_eigenvalue_on_contour_rejected(self, rng):
        p = random_spd_pencil(rng)
        dec = solve_pencil(p)
        lams = dec.eigenvalues
        with pytest.raises(ContourError):
            riesz_projector(p, lams[0], lams[1] - lams[0], nquad=16)


class TestSubspaceGap:
    def test_identical_spans_give_zero(self):
        U = np.eye(4)[:, :2]
        assert subspace_gap(U, U) <= 1e-12

    def test_orthogonal_spans_give_one(self):
        E = np.eye(4)
        assert subspace_gap(E[:, :1], E[:, 1:2]) == pytest.approx(1.0, abs=1e-12)

    def test_forty_five_degrees(self):
        E = np.eye(2)
        V = np.array([[1.0], [1.0]]) / np.sqrt(2)
        assert subspace_gap(E[:, :1], V) == pytest.approx(np.sqrt(2) / 2, abs=1e-12)

    def test_symmetric_in_arguments_with_unequal_dims(self):
        E = np.eye(3)
        U = E[:, :2]
        V = E[:, :1]
        assert subspace_gap(U, V) == pytest.approx(subspace_gap(V, U), abs=1e-14)

    def test_non_orthonormal_rejected(self):
        U = 2.0 * np.eye(3)[:, :1]
        with pytest.raises(ContractViolationError):
            subspace_gap(U, np.eye(3)[:, :1])

    def test_gap_shrinks_with_parameter_step(self):
        """Eigenspace blocks of a smoothly rotating pencil: halving the
        parameter step roughly halves the gap."""

        def basis(theta):
            c, s = np.cos(theta), np.sin(theta)
            Q = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
            K = Q @ np.diag([1.0, 5.0, 9.0]) @ Q.T
            return solve_pencil(make_pencil(K)).eigenvectors[:, :1]

        U0 = basis(0.0)
        gaps = [subspace_gap(U0, basis(d)) for d in (0.2, 0.1, 0.05)]
        assert gaps[1] < 0.75 * gaps[0]
        assert gaps[2] < 0.75 * gaps[1]


class TestClustering:
    def test_groups_near_degenerate(self):
        dec = solve_pencil(make_pencil(np.diag([1.0, 1.0 + 1e-8, 2.0, 2.0, 5.0])))
        clusters = cluster_spectrum(dec, 1e-6)
        assert [c.multiplicity for c in clusters] == [2, 2, 1]
        assert clusters[0].lambda_bar == pytest.approx(1.0, rel=1e-7)
        assert clusters[0].width <= 1e-8

    def test_cluster_vectors_match_indices(self, rng):
        p = random_spd_pencil(rng)
        dec = solve_pencil(p)
        clusters = cluster_spectrum(dec, 1e-6)
        total = sum(c.multiplicity for c in clusters)
        assert total == len(dec.eigenvalues)
