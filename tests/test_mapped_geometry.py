"""The map evaluated once per parameter and point set, and the reference
data evaluated once per mesh.

The closed-form 3x3 determinant and adjugate are pinned against LAPACK;
spies count how often the family's Jacobian, the velocity field and the tet
edge matrices are evaluated by assembly, the Hadamard forms and a full run.
A discretisation keeps no array over all rule points, and only edge
elements derive the mesh's edges.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectra_shape import geometry, harness
from spectra_shape import hadamard as hd
from spectra_shape import helmholtz as hh
from spectra_shape import maxwell as mx
from spectra_shape import transforms as tf
from spectra_shape.errors import InadmissibleParameterError
from spectra_shape.fem_common import Discretisation
from spectra_shape.geometry import build_box_mesh
from spectra_shape.helmholtz import P1
from spectra_shape.maxwell import NEDELEC
from spectra_shape.spectral import cluster_spectrum, solve_pencil

EPS = tf.matrix_coefficient_from_config(
    {"kind": "affine-diagonal", "d0": [1.0, 1.2, 0.9], "D": 0.1 * np.eye(3)})
NU = tf.AffineField(1.1, np.array([0.2, -0.1, 0.15]))
MIXED = {"x0": "T", "x1": "N", "y0": "N", "y1": "T", "z0": "T", "z1": "N"}
BUMP = tf.Family(tf.SinField(axis=0, depends_on=1, amplitude=0.08, frequency=1.0))


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, 3, 3)))
    return q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]


class TestClosedForm:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64),
           scale=st.floats(1e-3, 1e3))
    def test_matches_lapack(self, seed, n, scale):
        """Q1 diag(s) Q2 with singular values in [0.5, 2]: condition <= 4,
        neither symmetric nor diagonal, either orientation."""
        rng = np.random.default_rng(seed)
        s = rng.uniform(0.5, 2.0, size=(n, 3)) * rng.choice((-1.0, 1.0), size=(n, 1))
        A = scale * (_orthogonal(rng, n) * s[:, None, :]) @ _orthogonal(rng, n)
        det, adj = tf.det_adjugate(A)
        ref_det, ref_inv = np.linalg.det(A), np.linalg.inv(A)
        np.testing.assert_allclose(det, ref_det, rtol=1e-12, atol=0)
        inv = adj / det[:, None, None]
        assert np.max(np.abs(inv - ref_inv)) <= 1e-12 * np.max(np.abs(ref_inv))

    def test_adjugate_identity_on_a_stack(self, rng):
        A = rng.standard_normal((2, 5, 3, 3))
        det, adj = tf.det_adjugate(A)
        np.testing.assert_allclose(A @ adj, det[..., None, None] * np.eye(3), atol=1e-13)

    def test_folding_bump_is_inadmissible(self, cube_n3):
        """J_00 = 1 + chi a pi cos(pi x) < 0 near x = 1 for chi a pi > 1: the
        error names the first rule point, in tet order, where det J <= 0."""
        fam = tf.Family(tf.SinField(axis=0, depends_on=0, amplitude=0.5, frequency=1.0))
        disc = Discretisation(P1, cube_n3, fam, EPS, NU)
        x = disc.points().reshape(-1, 3)
        det = np.linalg.det(fam.jacobian(1.0, x))
        i = np.flatnonzero(det <= 0)[0]
        assert det.min() < det[i] < 0
        with pytest.raises(InadmissibleParameterError) as err:
            hh.assemble_helmholtz(disc, 1.0)
        assert str(err.value) == (f"det J_Phi <= 0 at parameter 1.0 "
                                  f"(reference point {x[i].tolist()}, det {det[i]:g})")


def _count(monkeypatch, owner, name):
    """Replace owner.name with a wrapper that records the shape of each call's
    first array, None for a call without one."""
    calls = []
    real = getattr(owner, name)

    def counted(*args):
        calls.append(next((a.shape for a in args if isinstance(a, np.ndarray)), None))
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestTraffic:
    @pytest.mark.parametrize("space, assemble, second", [
        (P1, hh.assemble_helmholtz, NU), (NEDELEC, mx.assemble_maxwell, EPS)],
        ids=["assemble_helmholtz-second0", "assemble_maxwell-second1"])
    def test_assembly_maps_each_point_set_once(self, monkeypatch, cube_n3, space,
                                               assemble, second):
        calls = _count(monkeypatch, tf.Family, "jacobian")
        assemble(Discretisation(space, cube_n3, BUMP, EPS, second), 0.2)
        assert len(calls) == 1

    @pytest.mark.parametrize("space, derivative, second", [
        (P1, hh.assemble_helmholtz_derivative, NU),
        (NEDELEC, mx.assemble_maxwell_derivative, EPS)],
        ids=["assemble_helmholtz_derivative-second0", "assemble_maxwell_derivative-second1"])
    def test_derivative_maps_each_point_set_once(self, monkeypatch, cube_n3, space,
                                                 derivative, second):
        jac = _count(monkeypatch, tf.Family, "jacobian")
        vel = _count(monkeypatch, tf, "psi_on_physical")
        derivative(Discretisation(space, cube_n3, BUMP, EPS, second), 0.2, 1.0)
        assert (len(jac), len(vel)) == (1, 1)

    def test_run_evaluates_each_form_once(self, monkeypatch):
        """Derivative assembly, volume form and surface form: one velocity
        field each, however many clusters are wanted."""
        cfg = harness.RunConfig.from_dict({
            "problem": "helmholtz",
            "mesh": {"type": "box", "n": 3, "partition": "T"},
            "family": {"kind": "bump", "g": {"type": "sin", "axis": 0, "amplitude": 0.08}},
            "index_range": [1, 4],
            "cluster_tol": 0.08,
        })
        calls = _count(monkeypatch, tf, "psi_on_physical")
        report = harness.run(harness.build_problem(cfg))
        assert len(report["clusters"]) >= 2
        assert all("surface_matrix" in rec for rec in report["clusters"])
        assert len(calls) == 3

    def test_forms_share_the_map_across_clusters(self, monkeypatch):
        disc = Discretisation(P1, build_box_mesh((1, 1, 1), 3, MIXED), BUMP, EPS, NU)
        dec = solve_pencil(hh.assemble_helmholtz(disc, 0.2), count=4, cluster_tol=0.08)
        clusters = cluster_spectrum(dec, 0.08)
        assert len(clusters) >= 2
        jac = _count(monkeypatch, tf.Family, "jacobian")
        V = hd.helmholtz_volume_matrix(disc, 0.2, 1.0, clusters)
        S = hd.helmholtz_surface_matrix(disc, 0.2, 1.0, clusters)
        assert len(jac) == 2
        for cl, v, s in zip(clusters, V, S):
            assert v.shape == s.shape == (cl.multiplicity, cl.multiplicity)
            np.testing.assert_array_equal(
                v, hd.helmholtz_volume_matrix(disc, 0.2, 1.0, [cl])[0])

    def test_barycentric_gradients_once_per_mesh(self, monkeypatch):
        calls = _count(monkeypatch, geometry, "det_adjugate")
        mesh = build_box_mesh((1, 1, 1), 3, MIXED)
        for disc, assemble, derivative, volume, surface in (
            (Discretisation(P1, mesh, BUMP, EPS, NU), hh.assemble_helmholtz,
             hh.assemble_helmholtz_derivative, hd.helmholtz_volume_matrix,
             hd.helmholtz_surface_matrix),
            (Discretisation(NEDELEC, mesh, BUMP, EPS, EPS), mx.assemble_maxwell,
             mx.assemble_maxwell_derivative, hd.maxwell_volume_matrix,
             hd.maxwell_surface_matrix),
        ):
            cl = cluster_spectrum(solve_pencil(assemble(disc, 0.2), count=1))[0]
            derivative(disc, 0.2, 1.0)
            volume(disc, 0.2, 1.0, [cl])
            surface(disc, 0.2, 1.0, [cl])
        assert calls.count((len(mesh.tets), 3, 3)) == 1
        assert mesh.barycentric_gradients is mesh.barycentric_gradients

    def test_reference_data_is_per_mesh(self):
        """Two meshes of the same size keep their own reference data."""
        a = build_box_mesh((1, 1, 1), 2, "T")
        b = build_box_mesh((2, 1, 1), 2, "T")
        np.testing.assert_allclose(b.barycentric_gradients[:, :, 0],
                                   0.5 * a.barycentric_gradients[:, :, 0])
        weights = [Discretisation(P1, m, tf.scaling_family(), EPS, NU).weights() for m in (a, b)]
        np.testing.assert_allclose(weights[1], 2 * weights[0])


class TestLeanDiscretisation:
    @pytest.mark.parametrize("problem, derived", [("helmholtz", False), ("maxwell", True)])
    def test_only_edge_elements_derive_the_edges(self, problem, derived):
        """A Helmholtz problem built and run never numbers the mesh's edges
        nor signs them; a Maxwell one does."""
        cfg = harness.RunConfig.from_dict(
            {"problem": problem, "mesh": {"type": "box", "n": 2, "partition": MIXED}})
        built = harness.build_problem(cfg)
        harness.run(built)
        cached = {"_edge_numbering", "tet_edge_signs"} & set(vars(built.mesh))
        assert cached == ({"_edge_numbering", "tet_edge_signs"} if derived else set())

    def test_no_attribute_per_rule_point(self, cube_n3):
        """At order 4 (14 points per tet) no array of a P1 discretisation, nor
        of its scatter pattern, has an axis over the rule points of all tets:
        the basis values are the rule's, shared by every tet, and the points
        and weights are formed per block."""
        disc = Discretisation(P1, cube_n3, BUMP, EPS, NU)
        nt, nq = len(cube_n3.tets), len(disc.rule.weights)
        assert nq == 14
        arrays = [(name, a) for owner in (disc, disc.pattern)
                  for name, a in vars(owner).items() if isinstance(a, np.ndarray)]
        assert {"values", "derivatives", "gdofs", "slot"} <= {n for n, _ in arrays}
        for name, a in arrays:
            assert nt * nq not in a.shape and a.shape[:2] != (nt, nq), name
        assert disc.points().shape == (nt, nq, 3) and disc.weights().shape == (nt, nq)
