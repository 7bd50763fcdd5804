"""Sparse shift-invert path of solve_pencil against the dense oracle."""

import numpy as np
import pytest
import scipy.sparse as sp

from spectra_shape import helmholtz as hh
from spectra_shape import maxwell as mx
from spectra_shape import spectral
from spectra_shape import transforms as tf
from spectra_shape.errors import PencilError
from spectra_shape.fem_common import Pencil
from spectra_shape.geometry import build_box_mesh
from spectra_shape.spectral import cluster_spectrum, solve_pencil

EYE = tf.identity_matrix_coefficient()
ONE = tf.unit_scalar_coefficient()
MIXED = {"x0": "T", "x1": "N", "y0": "T", "y1": "T", "z0": "N", "z1": "T"}
PARTITIONS = {"T": "T", "N": "N", "mixed": MIXED}


def fem_pencil(problem, n, partition, family=None):
    mesh = build_box_mesh((1.0, 1.0, 1.0), n, PARTITIONS[partition])
    family = family or tf.stretch_family(0)
    if problem == "maxwell":
        return mx.assemble_maxwell(mesh, family, 0.0, EYE, EYE)
    return hh.assemble_helmholtz(mesh, family, 0.0, EYE, ONE)


@pytest.fixture
def dense_calls(monkeypatch):
    """Counts the dense solves made, so a test can tell which path ran."""
    calls = []
    original = spectral._solve_dense

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(spectral, "_solve_dense", spy)
    return calls


CASES = [
    (problem, n, partition)
    for problem, sizes in (("helmholtz", (4,)), ("maxwell", (3, 4)))
    for n in sizes
    for partition in PARTITIONS
]


@pytest.mark.parametrize("problem,n,partition", CASES)
@pytest.mark.parametrize("count,cluster_tol", [(1, 1e-6), (4, 0.08)])
def test_sparse_matches_dense_oracle(problem, n, partition, count, cluster_tol, dense_calls):
    p = fem_pencil(problem, n, partition)
    sparse = solve_pencil(p, count=count, cluster_tol=cluster_tol)
    assert dense_calls == []
    dense = solve_pencil(p)

    assert sparse.kernel_dim == dense.kernel_dim
    m = len(sparse.eigenvalues)
    assert m >= count
    np.testing.assert_allclose(sparse.eigenvalues, dense.eigenvalues[:m], rtol=1e-10)
    # complete clusters: the returned block ends where a dense cluster ends
    ends = [c.indices[-1] + 1 for c in cluster_spectrum(dense, cluster_tol)]
    assert m in ends
    assert m == min(e for e in ends if e >= count)

    V = sparse.eigenvectors
    np.testing.assert_allclose(V.T @ p.M @ V, np.eye(m), atol=1e-10)
    residual = p.K @ V - p.M @ V * sparse.eigenvalues
    assert np.abs(residual).max() <= 1e-8 * sparse.eigenvalues.max()


def test_kernel_dim_is_measured_for_all_n_maxwell():
    """No tangential boundary: the gradients of all hat functions span a
    kernel of rank vertices - 1, although the basis has a column per vertex."""
    p = fem_pencil("maxwell", 3, "N")
    dec = solve_pencil(p, count=1)
    assert p.kernel_basis.shape[1] == p.mesh.num_vertices()
    assert dec.kernel_dim == p.mesh.num_vertices() - 1


def test_split_triple_is_returned_whole():
    """The lowest PEC cube triple, split by the Kuhn mesh, is one cluster at
    cluster_tol 0.08; asking for one eigenvalue returns all three."""
    p = fem_pencil("maxwell", 4, "T")
    dec = solve_pencil(p, count=1, cluster_tol=0.08)
    dense = solve_pencil(p)
    assert len(dec.eigenvalues) == 3
    np.testing.assert_allclose(dec.eigenvalues, dense.eigenvalues[:3], rtol=1e-10)


def diagonal_pencil_with_triple():
    d = np.concatenate([[1.0], [2.0, 2.0, 2.0], np.linspace(3.0, 9.0, 40)])
    n = len(d)
    return Pencil(sp.csr_array(sp.diags(d)), sp.csr_array(sp.eye(n)))


def test_exact_triple_is_returned_whole():
    dec = solve_pencil(diagonal_pencil_with_triple(), count=2)
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 2.0, 2.0, 2.0], rtol=1e-12)
    assert dec.kernel_dim == 0


def test_missed_copy_is_detected(monkeypatch):
    """A Krylov space can hold fewer copies of a multiple eigenvalue than it
    has; the inertia count inside the closing gap catches that and the
    solve is repeated with more pairs."""
    calls = []
    eigsh = spectral.spla.eigsh

    def first_call_misses_a_copy(*args, **kwargs):
        vals, vecs = eigsh(*args, **kwargs)
        calls.append(len(vals))
        if len(calls) == 1:
            drop = np.nonzero(np.isclose(vals, 2.0))[0][0]
            vals, vecs = np.delete(vals, drop), np.delete(vecs, drop, axis=1)
        return vals, vecs

    monkeypatch.setattr(spectral.spla, "eigsh", first_call_misses_a_copy)
    dec = solve_pencil(diagonal_pencil_with_triple(), count=2)
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 2.0, 2.0, 2.0], rtol=1e-12)
    assert len(calls) == 2 and calls[1] == 2 * calls[0]


def test_small_pencil_uses_dense_path(dense_calls):
    """ARPACK needs fewer pairs than the pencil size; below that the dense
    oracle runs and is truncated to complete clusters the same way."""
    p = fem_pencil("helmholtz", 3, "T")
    count = p.size - spectral.EXTRA_PAIRS
    dec = solve_pencil(p, count=count, cluster_tol=0.08)
    assert len(dense_calls) == 1
    m = len(dec.eigenvalues)
    assert m >= count
    np.testing.assert_allclose(dec.eigenvalues, solve_pencil(p).eigenvalues[:m], rtol=1e-12)


def test_count_beyond_spectrum_returns_everything():
    p = fem_pencil("maxwell", 2, "T")
    dense = solve_pencil(p)
    dec = solve_pencil(p, count=p.size)
    assert dec.kernel_dim == dense.kernel_dim
    assert len(dec.eigenvalues) == p.size - dense.kernel_dim


def test_indefinite_sparse_mass_rejected():
    n = 30
    M = sp.diags(np.r_[np.ones(n - 1), -1.0])
    p = Pencil(sp.csr_array(sp.diags(np.arange(1.0, n + 1))), sp.csr_array(M))
    with pytest.raises(PencilError):
        solve_pencil(p, count=1)


def test_helmholtz_pencil_has_no_kernel_basis():
    assert fem_pencil("helmholtz", 2, "T").kernel_basis is None
