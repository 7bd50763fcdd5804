"""Volume- and surface-integral eigenvalue derivative matrices.

All integrals over the deformed domain are computed by change of variables
back to the reference quadrature points: fields are pushed forward with the
space's transform (scalar or covariant Piola), the volume measure with
det(J), and boundary normals with the cofactor (Nanson) rule. This keeps
the volume route bit-consistent with the pencil-derivative route. Each form
is written once over a `Discretisation`, whose space, quadrature and local
basis it reads.

The forms integrate over the quadrature first. The element derivatives are
constant on each tet (each facet's owning tet), so the stiffness part is
the per-tet moment G = sum_q w P_q^T B_q P_q of the coefficient B under the
space's derivative push map P, and the mass part the local mass matrix of
the pushed mass coefficient; both are computed once per call, entry-major
(see `transforms`). Each form takes a sequence of clusters and returns one
matrix per cluster, which then costs a contraction of the moment and the
local mass with the cluster's eigenvector coefficients.
"""

from typing import List, Sequence

import numpy as np

from . import transforms
from .fem_common import Discretisation, local_mass, tet_moment
from .geometry import triangle_quadrature
from .spectral import EigenCluster
from .transforms import _sym, congruence, entry_major


def _stiffness_moment(space, frames, w, B):
    """sum over each tet's points of w P^T B P: the moment (n, 3, 3) of the
    entry-major stiffness coefficient B (3, 3, N|1) under the space's
    derivative push map P, with the weights w (n, nq)."""
    P = space.derivative_map(*frames)
    return tet_moment(w, congruence(P.swapaxes(0, 1), B))


def _pushed_mass(space, values, frames, w, B):
    """Local mass matrices (n, k, k) of the values (n|1, nq, k, c) pushed by the
    space's value map P, weighted by w (n, nq): sum_q w F^T P^T B P F."""
    P = None if space.value_map is None else space.value_map(*frames)
    wB = w.ravel() * B if P is None else congruence(P.swapaxes(0, 1), B, w.ravel())
    return local_mass(values, wB)


def _cluster_matrices(gdofs, derivatives, moment, mass, clusters):
    """sym(sum over tets of D^T G D - lambda_bar C^T m C) per cluster, with C the
    cluster's coefficients on each tet's local functions (n, k, m), D = d^T C
    its constant reference derivatives (n, 3, m), G the stiffness moment and m
    the local mass."""
    out = []
    for cl in clusters:
        # a constrained dof (-1) reads the appended zero row
        ct = np.vstack([cl.vectors, np.zeros((1, cl.vectors.shape[1]))])[gdofs]
        D = derivatives.transpose(0, 2, 1) @ ct
        # sums over all tets in einsum's own loops, not in a BLAS reduction,
        # which a second thread would split with another round-off
        stiff = np.einsum("nah,nal->hl", D, moment @ D)
        mass_part = np.einsum("nkh,nkl->hl", ct, mass @ ct)
        out.append(_sym(stiff - cl.lambda_bar * mass_part))
    return out


def volume_matrix(
    disc: Discretisation, chi_bar, direction, clusters: Sequence[EigenCluster]
) -> List[np.ndarray]:
    """Volume-integral branch-derivative matrix of each cluster.

    The mapped points, the velocity field, the coefficient brackets, the
    stiffness moment and the local mass are evaluated once for all clusters.
    """
    geo = transforms.map_points(disc.family, chi_bar, disc.points.reshape(-1, 3))
    v = transforms.psi_on_physical(disc.family, direction, geo)
    B_stiff, B_mass = (entry_major(kind.bracket(c, v, geo))
                       for kind, c in disc.coefficient_maps())
    del v  # not needed past the brackets: free it before the moment and the mass
    frames = (geo.J, geo.det, geo.Jinv)
    w = disc.weights * geo.det.reshape(disc.weights.shape)
    _, gdofs, values, derivatives = disc.basis
    return _cluster_matrices(gdofs, derivatives, _stiffness_moment(disc.space, frames, w, B_stiff),
                             _pushed_mass(disc.space, values, frames, w, B_mass), clusters)


def surface_matrix(
    disc: Discretisation, chi_bar, direction, clusters: Sequence[EigenCluster]
) -> List[np.ndarray]:
    """Surface-integral (Hirakawa) branch-derivative matrix of each cluster.

    One pass over all boundary facets, shared by the clusters. Traces take
    the owning tet's value, the only consistent trace for lowest-order
    elements; accuracy is first order in h. The natural part enters with
    the full integrand and a positive sign, the tangential part with a
    negative sign; there the P1 field is exactly zero, so only the gradient
    term survives.
    """
    mesh = disc.mesh
    rule = triangle_quadrature(disc.quad_order)
    tets = mesh.bfacet_tets
    # exact barycentric coordinates of the facet quadrature points in the
    # owning tet: a one-hot map from facet vertices to local tet vertices
    onehot = mesh.bfacet_vertices[:, :, None] == mesh.tets[tets][:, None, :]
    bary = rule.points @ onehot.astype(float)
    pts = rule.points @ mesh.vertices[mesh.bfacet_vertices]
    n_ref, area = mesh.facet_geometry(np.arange(len(tets)))
    geo = transforms.map_points(disc.family, chi_bar, pts.reshape(-1, 3))
    frames = (geo.J, geo.det, geo.Jinv)
    # Nanson: n dsigma_Phi = det(J) J^-T n_ref dsigma_ref
    nanson = geo.det.reshape(len(tets), -1) * (
        geo.Jinv.reshape(3, 3, len(tets), -1) * n_ref.T[:, None, :, None]).sum(0)
    psi = transforms.psi_on_physical(disc.family, direction, geo).psi
    sign = np.where(np.asarray(mesh.bfacet_tags) == "N", 1.0, -1.0)
    w = (sign[:, None] * 2.0 * area[:, None] * rule.weights
         * (entry_major(psi).reshape(nanson.shape) * nanson).sum(0))
    _, gdofs, _, derivatives = disc.basis
    return _cluster_matrices(
        gdofs[tets], derivatives[tets],
        _stiffness_moment(disc.space, frames, w, disc.stiff.entries(geo.y)),
        _pushed_mass(disc.space, disc.space.values(mesh, bary, tets), frames, w,
                     disc.mass.entries(geo.y)), clusters)


# plain names of the generic forms, looked up by `harness.build_problem`
helmholtz_volume_matrix = maxwell_volume_matrix = volume_matrix
helmholtz_surface_matrix = maxwell_surface_matrix = surface_matrix
