"""The entry-major point kernels and the quadrature-first forms against the
point-major einsum formulas that they replace, kept here as the reference.

Each kernel must match its reference to 1e-13 relative on random
well-conditioned maps, coefficients and weights: the determinant and
adjugate, the pull-back rule at both signs, the bracket of the three
kinds, the P1 and Nedelec local stiffness and mass, and the volume form's pushed
coefficients. An affine field along vectors, now a product over chunks of
points, and the P1 mass of shared values, now an einsum over the points,
must match the one 2-D BLAS product each was to 1e-14. The assembled matrices are
summed into a CSR pattern computed once per discretisation; they must be
exactly symmetric and match the COO assembly of the local matrices, nnz
included, and on random dof maps and local matrices the pattern must give
the dense sum of their symmetric parts.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from spectra_shape import fem_common
from spectra_shape import hadamard as hd
from spectra_shape import helmholtz as hh
from spectra_shape import maxwell as mx
from spectra_shape import transforms as tf
from spectra_shape.errors import InadmissibleParameterError
from spectra_shape.fem_common import Discretisation, ScatterPattern, local_matrices
from spectra_shape.geometry import build_box_mesh
from spectra_shape.helmholtz import P1
from spectra_shape.maxwell import NEDELEC
from spectra_shape.spectral import cluster_spectrum, solve_pencil

# a small default profile: the kernels are cheap, and tier-1 has a 30 s budget
SMALL = settings(max_examples=15, deadline=None)
SEEDS = st.integers(0, 2**32 - 1)

EPS = tf.matrix_coefficient_from_config(
    {"kind": "affine-diagonal", "d0": [1.0, 1.2, 0.9], "D": 0.1 * np.eye(3)})
NU = tf.AffineField(1.1, np.array([0.2, -0.1, 0.15]))
MIXED = {"x0": "T", "x1": "N", "y0": "N", "y1": "T", "z0": "T", "z1": "N"}
BUMP = tf.Family(tf.SinField(axis=0, depends_on=1, amplitude=0.08, frequency=1.0))


def _close(got, ref, rtol=1e-13):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))


def _family(rng):
    """A bump along a random field over a random affine base map near the
    identity: a Jacobian that varies from point to point."""
    base = tf.AffineField(rng.uniform(-0.5, 0.5, 3), np.eye(3) + rng.uniform(-0.2, 0.2, (3, 3)))
    axis, dep = rng.integers(0, 3, 2)
    return tf.Family(tf.SinField(int(axis), int(dep), rng.uniform(0.02, 0.1), 1.0), base)


def _geo(rng, n):
    return tf.map_points(_family(rng), rng.uniform(-1.0, 1.0), rng.uniform(0.0, 1.0, (n, 3)))


def _frames(geo):
    """J, det J and J^-1 as point-major (N, 3, 3) stacks."""
    return tf.point_major(geo.J), geo.det, tf.point_major(geo.Jinv)


def _sym_matrix(rng, n):
    A = rng.uniform(-1.0, 1.0, (n, 3, 3))
    return A + np.swapaxes(A, 1, 2) + 4.0 * np.eye(3)


# ---------------------------------------------------------------------------
# the point-major formulas replaced by the kernels
# ---------------------------------------------------------------------------

def old_det_adjugate(A):
    a = np.ascontiguousarray(np.moveaxis(A, (-2, -1), (0, 1)))
    adj = np.empty_like(a)
    for i in range(3):
        for j in range(3):
            r, s, c, d = (j + 1) % 3, (j + 2) % 3, (i + 1) % 3, (i + 2) % 3
            adj[i, j] = a[r, c] * a[s, d] - a[r, d] * a[s, c]
    det = (a[0] * adj[:, 0]).sum(axis=0)
    return det, np.ascontiguousarray(np.moveaxis(adj, (0, 1), (-2, -1)))


def old_contravariant(B, J, det, Jinv):
    return tf._sym(det[:, None, None]
                   * np.einsum("nab,nbc,ndc->nad", Jinv, B, Jinv, optimize=True))


def old_covariant(B, J, det, Jinv):
    return tf._sym(np.einsum("nba,nbc,ncd->nad", J, B, J, optimize=True) / det[:, None, None])


def old_velocity(family, direction, J, det, Jinv, x):
    jpsi = direction * family.g.gradient(x) @ Jinv
    return direction * family.g.value(x), jpsi, np.trace(jpsi, axis1=1, axis2=2)


def old_brackets(eps, mu_inv, nu, psi, jpsi, div_psi, y):
    et, mt = eps.value(y), mu_inv.value(y)
    d_eps = np.einsum("nijk,nk->nij", eps.gradient(y), psi)
    d_mt = np.einsum("nijk,nk->nij", mu_inv.gradient(y), psi)
    return (d_eps + div_psi[:, None, None] * et - 2.0 * tf._sym(jpsi @ et),
            d_mt - div_psi[:, None, None] * mt + 2.0 * tf._sym(mt @ jpsi),
            np.einsum("nk,nk->n", nu.gradient(y), psi) + div_psi * nu.value(y))


def old_local_stiffness(w, C, ders):
    nt, nq = w.shape
    return np.einsum("nq,nqab,nia,njb->nij", w, C.reshape(nt, nq, 3, 3), ders, ders,
                     optimize=True)


def old_local_mass(w, C, vals):
    nt, nq = w.shape
    c = vals.shape[-1]
    return np.einsum("nq,nqab,nqia,nqjb->nij", w, C.reshape(nt, nq, c, c), vals, vals,
                     optimize=True)


def old_shared_mass(mass, values):
    """The P1 mass of shared scalar values as one (n, nq) x (nq, k*k) BLAS product."""
    f = values[0, :, :, 0]
    nq, k = f.shape
    return (mass.reshape(-1, nq) @ (f[:, :, None] * f[:, None, :]).reshape(nq, k * k)
            ).reshape(-1, k, k)


def old_along(G, V):
    """G v as one (-1, 3) x (3, N) BLAS product."""
    return (G.reshape(-1, 3) @ V.T).reshape(G.shape[:-1] + (len(V),))


def old_scatter(local, gdofs, ndof):
    nt, k, _ = local.shape
    rows = np.repeat(gdofs, k, axis=1).ravel()
    cols = np.tile(gdofs, (1, k)).ravel()
    data = local.reshape(nt, k * k).ravel()
    keep = (rows >= 0) & (cols >= 0)
    A = sp.csr_array((data[keep], (rows[keep], cols[keep])), shape=(ndof, ndof))
    return sp.csr_array(0.5 * (A + A.T))


# ---------------------------------------------------------------------------
# point kernels
# ---------------------------------------------------------------------------

class TestPointKernels:
    @SMALL
    @given(seed=SEEDS, n=st.integers(1, 200))
    def test_det_adjugate(self, seed, n):
        rng = np.random.default_rng(seed)
        A = np.eye(3) + rng.uniform(-0.4, 0.4, (n, 3, 3))
        for stack in (A, tf.point_major(np.ascontiguousarray(tf.entry_major(A)))):
            det, adj = tf.det_adjugate(stack)
            ref_det, ref_adj = old_det_adjugate(A)
            _close(det, ref_det)
            _close(adj, ref_adj)

    @SMALL
    @given(seed=SEEDS, n=st.integers(1, 200))
    def test_congruences(self, seed, n):
        """With a broadcast-constant B, through the public pull-backs, and with
        a per-point B that is not symmetric."""
        rng = np.random.default_rng(seed)
        geo = _geo(rng, n)
        frames = _frames(geo)
        M = _sym_matrix(rng, 1)[0]
        const = tf.AffineField(M)
        _close(tf.point_major(tf.transformed_epsilon(const, geo)),
               old_contravariant(np.broadcast_to(M, (n, 3, 3)), *frames))
        _close(tf.point_major(tf.transformed_mu_inv(const, geo)),
               old_covariant(np.broadcast_to(M, (n, 3, 3)), *frames))
        B = rng.uniform(-1.0, 1.0, (n, 3, 3))
        _close(tf.point_major(tf.pull_back(1, tf.entry_major(B), geo)),
               old_contravariant(B, *frames))
        _close(tf.point_major(tf.pull_back(-1, tf.entry_major(B), geo)),
               old_covariant(B, *frames))

    @SMALL
    @given(seed=SEEDS, n=st.integers(1, 200), constant=st.booleans())
    def test_brackets(self, seed, n, constant):
        """The three brackets of constant and of affine coefficients, and the
        velocity field that they read."""
        rng = np.random.default_rng(seed)
        family = _family(rng)
        geo = tf.map_points(family, rng.uniform(-1.0, 1.0), rng.uniform(0.0, 1.0, (n, 3)))
        direction = rng.uniform(-2.0, 2.0)
        eps = tf.AffineField(_sym_matrix(rng, 1)[0],
                             None if constant else rng.uniform(-0.3, 0.3, (3, 3, 3)))
        mu_inv = tf.AffineField(_sym_matrix(rng, 1)[0],
                                None if constant else rng.uniform(-0.3, 0.3, (3, 3, 3)))
        nu = tf.AffineField(2.0, None if constant else rng.uniform(-0.3, 0.3, 3))
        v = tf.psi_on_physical(family, direction, geo)
        old_v = old_velocity(family, direction, *_frames(geo), geo.x)
        for got, ref in zip(v, old_v):
            _close(got, ref)
        refs = old_brackets(eps, mu_inv, nu, *old_v, geo.y)
        for sign, c, ref in zip((1, -1, 1), (eps, mu_inv, nu), refs):
            _close(tf.point_major(tf.bracket(sign, c, v, geo)), ref)

    @SMALL
    @given(seed=SEEDS, n=st.sampled_from([1, 300, tf.ALONG_CHUNK, tf.ALONG_CHUNK + 1,
                                          2 * tf.ALONG_CHUNK + 7]),
           shape=st.sampled_from([(), (3,), (3, 3)]))
    def test_along(self, seed, n, shape):
        """Scalar, vector and matrix G along point-major vectors and along a
        view of entry-major storage, in one chunk and across chunks: the old
        BLAS product to 1e-14, as contiguous entry-major (..., N)."""
        rng = np.random.default_rng(seed)
        field = tf.AffineField(rng.uniform(-1.0, 1.0, shape), rng.uniform(-1.0, 1.0, shape + (3,)))
        V = rng.uniform(-1.0, 1.0, (n, 3))
        for vectors in (V, tf.point_major(np.ascontiguousarray(tf.entry_major(V)))):
            got = field.along(vectors)
            assert got.flags.c_contiguous
            _close(got, old_along(field.G, V), rtol=1e-14)


# ---------------------------------------------------------------------------
# local matrices and the volume-form moment
# ---------------------------------------------------------------------------

SPACES = {"p1": (P1, NU), "nedelec": (NEDELEC, EPS)}


@pytest.fixture(scope="module")
def discs():
    mesh = build_box_mesh((1.0, 1.0, 1.0), 2, MIXED)
    return {name: Discretisation(space, mesh, BUMP, EPS, second)
            for name, (space, second) in SPACES.items()}


class TestLocalMatrices:
    @SMALL
    @given(seed=SEEDS, space=st.sampled_from(sorted(SPACES)))
    def test_local_stiffness_and_mass(self, discs, seed, space):
        disc = discs[space]
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.1, 1.0, disc.weights.shape)
        vals, ders = disc.values, disc.derivatives
        C = _sym_matrix(rng, w.size)
        c = vals.shape[-1]
        Cm = rng.uniform(0.5, 2.0, w.size) if c == 1 else _sym_matrix(rng, w.size)
        wc = w.ravel() * (Cm if c == 1 else np.ascontiguousarray(tf.entry_major(Cm)))
        k_loc, m_loc = local_matrices(vals, ders, w, np.ascontiguousarray(tf.entry_major(C)), wc)
        _close(k_loc, old_local_stiffness(w, C, ders))
        _close(m_loc, old_local_mass(w, Cm, np.broadcast_to(vals, w.shape + vals.shape[2:])))

    @SMALL
    @given(seed=SEEDS)
    def test_shared_p1_mass(self, discs, seed):
        """The shared-values path of the P1 mass: the old BLAS product to 1e-14."""
        disc = discs["p1"]
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.1, 1.0, disc.weights.shape)
        mass = w.ravel() * rng.uniform(0.5, 2.0, w.size)
        stiff = np.ascontiguousarray(tf.entry_major(_sym_matrix(rng, w.size)))
        _, m_loc = local_matrices(disc.values, disc.derivatives, w, stiff, mass)
        _close(m_loc, old_shared_mass(mass, disc.values), rtol=1e-14)

    @SMALL
    @given(seed=SEEDS, space=st.sampled_from(sorted(SPACES)))
    def test_volume_moment(self, discs, seed, space):
        """P^T B P with the push-forwards of the space's kinds: J^-T of eps for
        the P1 stiffness and the Nedelec mass, J / det J of mu^-1 for the
        Nedelec stiffness (nu has none: P1 values are not pushed), the mass
        weighted by w."""
        disc = discs[space]
        rng = np.random.default_rng(seed)
        geo = tf.map_points(disc.family, rng.uniform(-1.0, 1.0), disc.points.reshape(-1, 3))
        J, det, Jinv = _frames(geo)
        JinvT = np.swapaxes(Jinv, 1, 2)
        P = JinvT if space == "p1" else J / det[:, None, None]
        w = rng.uniform(0.1, 1.0, disc.weights.shape)
        B = _sym_matrix(rng, w.size)

        def pushed(P, B):
            return tf._sym(np.einsum("nba,nbc,ncd->nad", P, B, P, optimize=True))

        if space == "p1":
            Bm = rng.uniform(0.5, 2.0, w.size)
            ref_mass = w.ravel() * Bm
        else:
            Bm = _sym_matrix(rng, w.size)
            ref_mass = w.ravel()[:, None, None] * pushed(JinvT, Bm)
        stiff, mass = hd._pushed(disc, geo, w, np.ascontiguousarray(tf.entry_major(B)),
                                 np.ascontiguousarray(tf.entry_major(Bm)))
        _close(tf.point_major(stiff), pushed(P, B))
        _close(tf.point_major(mass), ref_mass)


def _count(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_volume_form_builds_its_moment_once(monkeypatch, discs):
    """One set of local matrices per call, for one cluster and for three alike."""
    disc = discs["p1"]
    dec = solve_pencil(hh.assemble_helmholtz(disc, 0.2), count=6, cluster_tol=1e-3)
    clusters = cluster_spectrum(dec, 1e-3)[:3]
    assert len(clusters) == 3
    calls = _count(monkeypatch, hd, "local_matrices")
    one = hd.volume_matrix(disc, 0.2, 1.0, clusters[:1])
    assert len(calls) == 1
    three = hd.volume_matrix(disc, 0.2, 1.0, clusters)
    assert len(calls) == 2
    np.testing.assert_array_equal(one[0], three[0])


# ---------------------------------------------------------------------------
# the CSR scatter pattern
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("space, assemble, derivative, stiff, mass, family, chi", [
    (P1, hh.assemble_helmholtz, hh.assemble_helmholtz_derivative, EPS, NU, BUMP, 0.2),
    (NEDELEC, mx.assemble_maxwell, mx.assemble_maxwell_derivative, EPS,
     tf.AffineField(np.eye(3)), BUMP, 0.2),
    # constant coefficients on the identity map: the Kuhn mesh's P1 stiffness
    # has exact zeros, which the matrices leave out
    (P1, hh.assemble_helmholtz, hh.assemble_helmholtz_derivative, EPS,
     tf.AffineField(1.0), tf.scaling_family(), 0.0),
], ids=["helmholtz-bump", "maxwell-bump", "helmholtz-scaling"])
def test_scatter_pattern_matches_coo_assembly(space, assemble, derivative, stiff, mass,
                                              family, chi):
    """K, M, dK and dM exactly symmetric, with the nnz and to 1e-14 the entries
    of the COO assembly of the same local matrices."""
    disc = Discretisation(space, build_box_mesh((1.0, 1.0, 1.0), 3, MIXED), family, stiff, mass)
    pencil, deriv = assemble(disc, chi), derivative(disc, chi, 1.0)
    geo = tf.map_points(disc.family, chi, disc.points.reshape(-1, 3))
    v = tf.psi_on_physical(disc.family, 1.0, geo)
    ndof, gdofs, ders = disc.pattern.shape[0], disc.gdofs, disc.derivatives
    w = disc.weights
    vals = np.broadcast_to(disc.values, w.shape + disc.values.shape[2:])
    for (K, M), coefficients in (
            ((pencil.K, pencil.M),
             [tf.point_major(kind.pull_back(c, geo)) for kind, c in disc.coefficient_maps()]),
            ((deriv.dK, deriv.dM),
             [tf.point_major(kind.derivative(c, v, geo)) for kind, c in disc.coefficient_maps()])):
        stiff, mass = coefficients
        for A, ref in ((K, old_scatter(old_local_stiffness(w, stiff, ders), gdofs, ndof)),
                       (M, old_scatter(old_local_mass(w, mass, vals), gdofs, ndof))):
            assert abs(A - A.T).max() == 0
            assert A.nnz == ref.nnz
            assert abs(A - ref).max() <= 1e-14 * abs(ref).max()


@SMALL
@given(seed=SEEDS, nt=st.integers(1, 6), k=st.sampled_from([4, 6]))
def test_scatter_pattern_sums_symmetric_parts(seed, nt, k):
    """Random dof maps, -1 where constrained and the last tet fully
    constrained, and random local matrices, some of whose pairs cancel
    exactly: antisymmetric pairs, and a negated copy of the first tet. The
    matrix is exactly symmetric with sorted indices, stores no exact zero and
    equals the dense sum of (L + L^T) / 2 to 1e-14 relative, nonzeros
    included."""
    rng = np.random.default_rng(seed)
    ndof = int(rng.integers(k, 3 * k + 1))
    gdofs = np.array([rng.permutation(ndof)[:k] for _ in range(nt)])
    gdofs[rng.random((nt, k)) < 0.3] = -1
    gdofs[-1] = -1
    local = rng.uniform(-1.0, 1.0, (nt, k, k))
    i, j = np.nonzero(np.triu(rng.random((k, k)) < 0.3, 1))
    local[0, j, i] = -local[0, i, j]
    if nt >= 3:
        gdofs[1], local[1] = gdofs[0], -local[0]
    A = ScatterPattern(gdofs, ndof).matrix(local)

    ref = np.zeros((ndof, ndof))
    rows, cols = np.repeat(gdofs, k, axis=1).ravel(), np.tile(gdofs, (1, k)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    np.add.at(ref, (rows[keep], cols[keep]),
              (0.5 * (local + local.transpose(0, 2, 1))).ravel()[keep])
    assert A.shape == (ndof, ndof)
    assert (A != A.T).nnz == 0
    assert all(np.all(np.diff(A.indices[a:b]) > 0) for a, b in zip(A.indptr, A.indptr[1:]))
    assert np.all(A.data != 0)
    dense = A.toarray()
    np.testing.assert_array_equal(dense != 0, ref != 0)
    assert np.max(np.abs(dense - ref), initial=0.0) <= 1e-14 * np.max(np.abs(ref), initial=0.0)


# ---------------------------------------------------------------------------
# the blocks of tets
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mesh6():
    """216 tets per slab of cells along x; a block of the default size
    (585 tets at order 4) ends inside a slab."""
    return build_box_mesh((1.0, 1.0, 1.0), 6, MIXED)


@pytest.mark.parametrize("space, second", [(P1, NU), (NEDELEC, EPS)], ids=["p1", "nedelec"])
def test_blocks_match_one_pass(monkeypatch, mesh6, space, second):
    """K, M, dK, dM and the volume matrices over three blocks of tets equal,
    bit for bit, those of one block that covers every point: the local
    matrices are joined in tet order, so every sum runs in the same order."""
    disc = Discretisation(space, mesh6, BUMP, EPS, second)
    clusters = cluster_spectrum(solve_pencil(fem_common.assemble_pencil(disc, 0.2), count=4,
                                             cluster_tol=1e-3), 1e-3)

    def forms():
        pencil = fem_common.assemble_pencil(disc, 0.2)
        deriv = fem_common.assemble_derivative(disc, 0.2, 1.3)
        volumes = hd.volume_matrix(disc, 0.2, 1.3, clusters)
        return [pencil.K, pencil.M, deriv.dK, deriv.dM], volumes

    maps = _count(monkeypatch, tf, "map_points")
    blocked, volumes = forms()
    assert len(maps) == 3 * 3
    monkeypatch.setattr(fem_common, "POINTS_PER_BLOCK", disc.weights.size)
    whole, whole_volumes = forms()
    assert len(maps) == 3 * 3 + 3
    for A, B in zip(blocked, whole):
        for attr in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(A, attr), getattr(B, attr))
    for V, W in zip(volumes, whole_volumes, strict=True):
        np.testing.assert_array_equal(V, W)


FOLD = tf.Family(tf.SinField(axis=0, depends_on=0, amplitude=0.5, frequency=1.0))


@pytest.mark.parametrize("chi, c0, folds, nu_fails, message", [
    # J_00 = 1 + chi a pi cos(pi x) <= 0 from x = 0.864 on: the last slab only
    (0.7, 2.0, [5], [], "det J_Phi <= 0"),
    # from x = 0.732 on: the last two slabs, the minimum in the last
    (0.955, 2.0, [4, 5], [], "det J_Phi <= 0"),
    # nu = c0 - y < 0 from x = 0.68 on, no fold
    (0.3, 0.8, [], [4, 5], "coefficient 'nu' is not positive-definite"),
    # nu < 0 from x = 0.76 on, in a slab before the fold's: det J is checked first
    (0.7, 1.0, [5], [4, 5], "det J_Phi <= 0"),
], ids=["fold-last-block", "fold-two-blocks", "nu-later-block", "nu-before-fold"])
def test_blocks_raise_the_one_pass_error(monkeypatch, mesh6, chi, c0, folds, nu_fails, message):
    """Blocks of one slab of cells each (six blocks): an inadmissible chi
    whose first failure lies in a later block reads the one-pass message,
    with the global minimum of det J and the first mapped point at which nu
    fails, and a fold after a failing coefficient still wins."""
    nu = tf.AffineField(c0, np.array([-1.0, 0.0, 0.0]))
    disc = Discretisation(P1, mesh6, FOLD, EPS, nu)
    slabs = disc.points.reshape(6, -1, 3)
    det = np.stack([tf.det_adjugate(FOLD.jacobian(chi, x))[0] for x in slabs])
    nu_at = np.stack([nu.value(FOLD.map(chi, x)) for x in slabs])
    assert np.flatnonzero((det <= 0).any(1)).tolist() == folds
    assert np.flatnonzero((nu_at <= 0).any(1)).tolist() == nu_fails
    assert len(folds) < 2 or det[folds[0]].min() > det.min()
    monkeypatch.setattr(fem_common, "POINTS_PER_BLOCK", disc.weights.size // 6)
    with pytest.raises(InadmissibleParameterError) as blocked:
        hh.assemble_helmholtz(disc, chi)
    monkeypatch.setattr(fem_common, "POINTS_PER_BLOCK", disc.weights.size)
    with pytest.raises(InadmissibleParameterError) as whole:
        hh.assemble_helmholtz(disc, chi)
    assert str(blocked.value).startswith(message)
    assert str(blocked.value) == str(whole.value)
    if folds:
        assert str(whole.value) == f"det J_Phi <= 0 at parameter {chi} (min {det.min():g})"
