"""The nested-dissection ordering of a discretisation's free dofs, and the
factorisations that the sparse eigensolver makes in it."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from spectra_shape import harness, spectral
from spectra_shape import transforms as tf
from spectra_shape.fem_common import Discretisation, assemble_pencil, dof_positions
from spectra_shape.geometry import build_box_mesh, load_mesh
from spectra_shape.helmholtz import P1
from spectra_shape.maxwell import NEDELEC

EYE = tf.AffineField(np.eye(3))
ONE = tf.AffineField(1.0)
MIXED_PARTITION = {"x0": "T", "x1": "N", "y0": "T", "y1": "T", "z0": "N", "z1": "T"}
ONE_TET = ("tetmesh v1\nvertices 4\n0 0 0\n1 0 0\n0 1 0\n0 0 1\ntets 1\n0 1 2 3\n"
           "bfacets 4\n1 2 3 N\n0 2 3 N\n0 1 3 N\n0 1 2 N\n")


def discretisation(case, tmp_path=None):
    if case == "one-tet":
        path = tmp_path / "one-tet.tetmesh"
        path.write_text(ONE_TET)
        return Discretisation(P1, load_mesh(str(path)), tf.stretch_family(0), EYE, ONE)
    problem, n, partition = case
    mesh = build_box_mesh((1.0, 1.0, 1.0), n, partition)
    if problem == "maxwell":
        return Discretisation(NEDELEC, mesh, tf.stretch_family(0), EYE, EYE)
    return Discretisation(P1, mesh, tf.stretch_family(0), EYE, ONE)


CASES = [("helmholtz", 6, "T"), ("helmholtz", 6, "N"), ("maxwell", 4, MIXED_PARTITION),
         ("maxwell", 6, "T"), "one-tet"]
IDS = ["helmholtz-T", "helmholtz-N", "maxwell-mixed", "maxwell-T", "one-tet"]


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_ordering_is_a_permutation_of_the_free_dofs(case, tmp_path):
    disc = discretisation(case, tmp_path)
    ndof = disc.pattern.shape[0]
    np.testing.assert_array_equal(np.sort(disc.ordering), np.arange(ndof))


def test_every_pencil_of_a_problem_carries_the_one_ordering():
    """The ordering is computed once per discretisation: the pencils at chi_bar
    and at chi_bar +- h carry the same array."""
    cfg = harness.RunConfig.from_dict({"problem": "maxwell",
                                       "mesh": {"type": "box", "n": 4,
                                                "partition": MIXED_PARTITION}})
    problem = harness.build_problem(cfg)
    pencil = problem.solution[0]
    assert pencil.ordering is not None
    for chi in (cfg.chi_bar - 1e-3, cfg.chi_bar + 1e-3):
        assert harness.assemble_at(problem, chi).ordering is pencil.ordering


@pytest.mark.parametrize("case", [("helmholtz", 6, "T"), ("maxwell", 4, MIXED_PARTITION),
                                  "one-tet"], ids=["helmholtz-T", "maxwell-mixed", "one-tet"])
def test_inertia_equals_mmd(case, tmp_path):
    """At a shift between consecutive distinct eigenvalues, K - s M has as
    many negative pivots in the discretisation's ordering as under MMD, and
    as many as there are eigenvalues below s; at the kernel's gap and the
    lowest 24 others."""
    p = assemble_pencil(discretisation(case, tmp_path), 0.0)
    vals = sla.eigh(p.K.toarray(), p.M.toarray(), eigvals_only=True)
    gaps = np.nonzero(np.diff(vals) > 1e-6 * np.abs(vals).max())[0]
    assert len(gaps) >= 2
    for i in gaps[:25]:
        s = 0.5 * (vals[i] + vals[i + 1])
        assert spectral._count_below(p.K, p.M, s, p.ordering) == i + 1
        assert spectral._count_below(p.K, p.M, s, None) == i + 1


def test_solve_matches_spsolve():
    p = assemble_pencil(discretisation(("maxwell", 6, MIXED_PARTITION)), 0.0)
    A = p.K + 1e-3 * p.lambda_scale() * p.M
    b = np.random.default_rng(0).standard_normal(p.size)
    x = spectral._ldl(A, p.ordering).solve(b)
    expected = spla.spsolve(A.tocsc(), b)
    assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)


def test_ordering_fills_less_than_mmd():
    """Maxwell all-T n = 8 (3032 dofs): the shift factor's L + U holds at most
    0.8 of MMD's entries (0.75 measured: 518,760 against 692,646)."""
    p = assemble_pencil(discretisation(("maxwell", 8, "T")), 0.0)
    A = p.K + spectral.SHIFT_FRACTION * p.lambda_scale() * p.M
    mmd = spectral._ldl(A)
    ordered = spectral._ldl(A, p.ordering).lu
    assert ordered.L.nnz + ordered.U.nnz <= 0.8 * (mmd.L.nnz + mmd.U.nnz)


def test_top_separator_is_the_middle_plane():
    """All-T Nedelec n = 12: the dofs numbered last are exactly those whose
    positions lie on the plane x = 1/2, although their mean barycentres miss
    it by round-off (split exactly, some fell below the median and the
    fill rose from 3,213,398 to 4,895,500)."""
    disc = discretisation(("maxwell", 12, "T"))
    positions = dof_positions(disc.gdofs, disc.mesh, len(disc.ordering))
    plane = np.nonzero(np.abs(positions[:, 0] - 0.5) < 1e-9)[0]
    assert np.any(positions[plane, 0] != 0.5)
    np.testing.assert_array_equal(np.sort(disc.ordering[-len(plane):]), plane)
