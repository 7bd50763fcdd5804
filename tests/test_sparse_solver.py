"""Sparse shift-invert path of solve_pencil against the dense oracle."""

import dataclasses
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from spectra_shape import helmholtz as hh
from spectra_shape import maxwell as mx
from spectra_shape import spectral
from spectra_shape import transforms as tf
from spectra_shape.errors import InadmissibleParameterError, PencilError
from spectra_shape.fem_common import Discretisation, Pencil
from spectra_shape.geometry import box_mesh_size, build_box_mesh, tet_quadrature
from spectra_shape.helmholtz import P1
from spectra_shape.maxwell import NEDELEC
from spectra_shape.spectral import cluster_spectrum, solve_pencil

EYE = tf.AffineField(np.eye(3))
ONE = tf.AffineField(1.0)
MIXED = {"x0": "T", "x1": "N", "y0": "T", "y1": "T", "z0": "N", "z1": "T"}
PARTITIONS = {"T": "T", "N": "N", "mixed": MIXED}


def fem_pencil(problem, n, partition, family=None):
    mesh = build_box_mesh((1.0, 1.0, 1.0), n, PARTITIONS[partition])
    family = family or tf.stretch_family(0)
    if problem == "maxwell":
        return mx.assemble_maxwell(Discretisation(NEDELEC, mesh, family, EYE, EYE), 0.0)
    return hh.assemble_helmholtz(Discretisation(P1, mesh, family, EYE, ONE), 0.0)


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
    vertices = box_mesh_size(3)[0]
    assert p.kernel_basis.shape[1] == vertices
    assert dec.kernel_dim == vertices - 1


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


def miss_a_copy_once(monkeypatch):
    """Make the first Lanczos run drop one copy of the eigenvalue 2; returns
    the number of pairs of each run."""
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
    return calls


def test_missed_copy_is_detected(monkeypatch):
    """A Krylov space can hold fewer copies of a multiple eigenvalue than it
    has; the inertia count inside the closing gap catches that and the
    solve is repeated with more pairs."""
    calls = miss_a_copy_once(monkeypatch)
    dec = solve_pencil(diagonal_pencil_with_triple(), count=2)
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 2.0, 2.0, 2.0], rtol=1e-12)
    assert len(calls) == 2 and calls[1] == 2 * calls[0]


def test_missed_kernel_mode_is_detected(monkeypatch):
    """The kernel dimension is the rank of the kernel basis plus the Ritz
    values below cut: a Lanczos run that misses the constant of an all-N
    Helmholtz pencil reads kernel_dim 0, the inertia in the closing gap
    counts one more eigenvalue, and the solve is repeated with more pairs."""
    p = fem_pencil("helmholtz", 4, "N")
    cut = spectral.DEFAULT_KERNEL_TOL * p.lambda_scale()
    calls = []
    eigsh = spectral.spla.eigsh

    def first_call_misses_the_constant(*args, **kwargs):
        vals, vecs = eigsh(*args, **kwargs)
        calls.append(len(vals))
        if len(calls) == 1:
            drop = np.argmin(np.abs(vals))
            assert abs(vals[drop]) < cut
            vals, vecs = np.delete(vals, drop), np.delete(vecs, drop, axis=1)
        return vals, vecs

    monkeypatch.setattr(spectral.spla, "eigsh", first_call_misses_the_constant)
    dec = solve_pencil(p, count=2)
    dense = solve_pencil(p)
    assert calls == [6, 12]
    assert dec.kernel_dim == dense.kernel_dim == 1
    np.testing.assert_allclose(dec.eigenvalues, dense.eigenvalues[:len(dec.eigenvalues)],
                               rtol=1e-10)


def spy_factorisations(monkeypatch):
    """Records each SuperLU factorisation (size, natural, permc_spec) and
    the size of each count-only pass on the tree."""
    made, passes = [], []
    ldl, splu, count = spectral._ldl, spectral.spla.splu, spectral._count_on_tree

    def ldl_spy(A, natural=False):
        made.append((A.shape[0], natural))
        return ldl(A, natural)

    def splu_spy(A, **kwargs):
        made[-1] += (kwargs["permc_spec"],)
        return splu(A, **kwargs)

    def count_spy(A, tree):
        passes.append(A.shape[0])
        return count(A, tree)

    monkeypatch.setattr(spectral, "_ldl", ldl_spy)
    monkeypatch.setattr(spectral.spla, "splu", splu_spy)
    monkeypatch.setattr(spectral, "_count_on_tree", count_spy)
    return made, passes


@pytest.mark.parametrize("problem,n,partition", [("helmholtz", 4, "T"), ("maxwell", 3, "mixed")])
def test_two_full_size_factorisations(problem, n, partition, monkeypatch):
    """One Lanczos attempt on a FEM pencil factorises K - sigma M with
    SuperLU, with no ordering of its own, in the discretisation's nested
    dissection numbering, and counts the inertia of K - mid M by one
    count-only pass on its tree, which keeps no factor; M itself is never
    factorised.
    Maxwell adds the small G^T M G of its kernel projector, in MMD, once: the
    rank check reads the factor that the projector keeps."""
    p = fem_pencil(problem, n, partition)
    made, passes = spy_factorisations(monkeypatch)
    solve_pencil(p, count=1)
    kernel = [] if p.kernel_basis is None else [p.kernel_basis.shape[1]]
    assert sorted(size for size, _, _ in made) == kernel + [p.size]
    assert [(natural, spec) for size, natural, spec in made if size == p.size] == [
        (True, "NATURAL")]
    assert all(not natural and spec == "MMD_AT_PLUS_A" for size, natural, spec in made
               if size != p.size)
    assert passes == [p.size]


@pytest.mark.parametrize("case", ["no tree", "diagonal"])
def test_pencil_without_a_tree_counts_with_superlu(case, monkeypatch):
    """A pencil with no elimination tree (built by hand, or a FEM pencil
    stripped of it) makes two full-size SuperLU factorisations per attempt,
    the shift's and the inertia's, both in MMD; no count-only pass runs."""
    if case == "no tree":
        p = dataclasses.replace(fem_pencil("helmholtz", 4, "mixed"), tree=None)
    else:
        p = diagonal_pencil_with_triple()
    made, passes = spy_factorisations(monkeypatch)
    dec = solve_pencil(p, count=2)
    assert passes == []
    shift, inertia = made
    assert shift == (p.size, False, "MMD_AT_PLUS_A")
    assert inertia == (p.size, False, "MMD_AT_PLUS_A")
    dense = solve_pencil(p)
    np.testing.assert_allclose(dec.eigenvalues, dense.eigenvalues[:len(dec.eigenvalues)],
                               rtol=1e-10)


class _Factor:
    """A factor whose lifetime a weak reference can see (a SuperLU takes none)."""

    def __init__(self, lu):
        self.lu = lu

    def solve(self, b):
        return self.lu.solve(b)

    @property
    def U(self):
        return self.lu.U


@pytest.mark.parametrize("case", ["helmholtz", "maxwell", "missed copy", "no convergence"])
def test_one_full_size_factor_alive(case, monkeypatch):
    """No full-size SuperLU factor is alive when another is made, nor while
    the count-only pass runs: the shift's is freed before the inertia is
    counted. A FEM pencil makes one factor and one pass per attempt, and a
    Lanczos run that does not converge keeps its factor. A pencil with no
    tree counts with a second SuperLU factor; when the inertia check fails
    (a Lanczos run that missed a copy of the triple), the shift is
    factorised again."""
    if case == "missed copy":
        miss_a_copy_once(monkeypatch)
        p, made, passes = diagonal_pencil_with_triple(), 4, 0
    elif case == "no convergence":
        eigsh, calls = spectral.spla.eigsh, []

        def first_call_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise spectral.spla.ArpackNoConvergence("no convergence", [], [])
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(spectral.spla, "eigsh", first_call_fails)
        p, made, passes = fem_pencil("helmholtz", 4, "mixed"), 1, 1
    else:
        p, made, passes = fem_pencil(case, 4 if case == "helmholtz" else 3, "mixed"), 1, 1
    ldl, count, factors, alive_when_made, alive_in_pass = (
        spectral._ldl, spectral._count_on_tree, [], [], [])

    def alive():
        return sum(ref() is not None for ref in factors)

    def spy(A, natural=False):
        full = A.shape[0] == p.size
        if full:
            alive_when_made.append(alive())
        factor = _Factor(ldl(A, natural))
        if full:
            factors.append(weakref.ref(factor))
        return factor

    def count_spy(A, tree):
        alive_in_pass.append(alive())
        return count(A, tree)

    monkeypatch.setattr(spectral, "_ldl", spy)
    monkeypatch.setattr(spectral, "_count_on_tree", count_spy)
    solve_pencil(p, count=2)
    assert alive_when_made == [0] * made
    assert alive_in_pass == [0] * passes


def test_missed_maxwell_copy_is_caught_by_the_pass(monkeypatch):
    """A first Lanczos run on a FEM Maxwell pencil that misses the lowest
    member of the split PEC triple (one cluster at cluster_tol 0.08) reads
    a complete cluster of two; the count-only pass inside the closing gap
    counts three, and the solve is repeated with twice the pairs."""
    p = fem_pencil("maxwell", 4, "T")
    cut = spectral.DEFAULT_KERNEL_TOL * p.lambda_scale()
    calls, counts = [], []
    eigsh, count = spectral.spla.eigsh, spectral._count_on_tree

    def first_call_misses_a_copy(*args, **kwargs):
        vals, vecs = eigsh(*args, **kwargs)
        calls.append(len(vals))
        if len(calls) == 1:
            drop = np.argmin(np.where(vals > cut, vals, np.inf))
            vals, vecs = np.delete(vals, drop), np.delete(vecs, drop, axis=1)
        return vals, vecs

    def count_spy(A, tree):
        counts.append(count(A, tree))
        return counts[-1]

    monkeypatch.setattr(spectral.spla, "eigsh", first_call_misses_a_copy)
    monkeypatch.setattr(spectral, "_count_on_tree", count_spy)
    dec = solve_pencil(p, count=1, cluster_tol=0.08)
    dense = solve_pencil(p)
    assert len(calls) == 2 and calls[1] == 2 * calls[0]
    assert counts == [dense.kernel_dim + 3] * 2
    assert len(dec.eigenvalues) == 3
    np.testing.assert_allclose(dec.eigenvalues, dense.eigenvalues[:3], rtol=1e-10)


def test_rank_deficient_kernel_basis_rejected():
    p = fem_pencil("maxwell", 3, "T")
    G = p.kernel_basis
    p.kernel_basis = sp.csr_array(sp.hstack([G, G[:, [0]]]))
    with pytest.raises(PencilError, match="kernel basis is rank-deficient"):
        solve_pencil(p, count=1)


@pytest.mark.parametrize("partition, lam", [
    ("T", 20.0),
    ({"x0": "N", "x1": "T", "y0": "T", "y1": "T", "z0": "T", "z1": "T"}, 14.9767),
])
def test_kernel_basis_without_columns(partition, lam):
    """Maxwell n=1 with every vertex on a T face: G has no column, so the
    projection is the identity and the kernel is empty."""
    mesh = build_box_mesh((1.0, 1.0, 1.0), 1, partition)
    p = mx.assemble_maxwell(Discretisation(NEDELEC, mesh, tf.stretch_family(0), EYE, EYE), 0.0)
    assert p.kernel_basis.shape[1] == 0
    dense = solve_pencil(p)
    dec = solve_pencil(p, count=1)
    assert dec.kernel_dim == dense.kernel_dim == 0
    np.testing.assert_allclose(dec.eigenvalues, dense.eigenvalues[:1], rtol=1e-12)
    assert dec.eigenvalues[0] == pytest.approx(lam, rel=1e-5)


def test_anchor_drop_leaving_no_column_projects_nothing():
    """One column whose rows sum to zero reads as 'every vertex free'; the
    anchor drop then leaves no column, which projects nothing."""
    x = np.arange(3.0)
    project, rank = spectral._kernel_projector(sp.csr_array((3, 1)), sp.eye_array(3))
    assert rank == 0
    np.testing.assert_array_equal(project(x), x)


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


# The sparse solver does not factorise M: assembly certifies it positive-definite.

@pytest.mark.parametrize("key", ["nu", "epsilon"])
def test_coefficient_checked_at_every_assembled_chi(key):
    """An affine coefficient 1.2 - x is positive on the unit box, so the
    pencil assembles at chi = 0; the stretch map at chi = 0.6 takes x up to
    1.6, where it is negative, and that chi is inadmissible."""
    mesh = build_box_mesh((1.0, 1.0, 1.0), 3, "T")
    if key == "nu":
        eps, nu = EYE, tf.scalar_coefficient_from_config({"kind": "affine", "c0": 1.2,
                                                          "c": [-1, 0, 0]})
    else:
        eps, nu = tf.matrix_coefficient_from_config(
            {"kind": "scalar-affine-identity", "c0": 1.2, "c": [-1, 0, 0]}), ONE
    disc = Discretisation(P1, mesh, tf.stretch_family(0), eps, nu)
    assert hh.assemble_helmholtz(disc, 0.0).size == disc.pattern.shape[0]
    with pytest.raises(InadmissibleParameterError,
                       match=f"'{key}' is not positive-definite at parameter 0.6"):
        hh.assemble_helmholtz(disc, 0.6)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_tet_rules_are_unisolvent(order):
    """The rules that assembly uses (orders 2 and 4; 3 is the rule of 4) have
    positive weights, and their local P1 and Nedelec mass matrices are
    positive-definite."""
    rule = tet_quadrature(order)
    assert np.all(rule.weights > 0)
    mesh = build_box_mesh((1.0, 1.0, 1.0), 1, "N")
    for space in (hh.P1, mx.NEDELEC):
        vals = space.values(mesh, rule.points[None], slice(None))
        least, largest = np.linalg.eigvalsh(
            np.einsum("q,nqia,nqja->nij", rule.weights, vals, vals))[:, [0, -1]].T
        assert np.all(least > 1e-6 * largest)
