"""Volume- and surface-integral eigenvalue derivative matrices.

All integrals over the deformed domain are computed by change of variables
back to the reference quadrature points: fields are pushed forward by the
Piola map of their coefficient's kind (scalars are not transformed), the
volume measure with det(J), and boundary normals with the cofactor (Nanson)
rule. This keeps the volume route bit-consistent with the pencil-derivative
route. Each form is written once over a `Discretisation`, whose space,
quadrature and local basis it reads.

The forms integrate over the quadrature first: the coefficient bracket is
pushed by its kind's push-forward P to sym(P^T B P) at the points, once
per call and entry-major (see `transforms`), and the local
(stiffness, mass) matrices of the pushed pair come from the assembly's
kernel, `local_matrices`. The volume form runs that chain over the blocks
of tets of `Discretisation.local`, as assembly does; the surface form's
O(n^2) facet points are one block. Each form takes a sequence of clusters
and returns one matrix per cluster, which then costs a contraction of the
local matrices with the cluster's eigenvector coefficients.
"""

from typing import List, Sequence

import numpy as np

from . import transforms
from .fem_common import Discretisation, local_matrices
from .geometry import triangle_quadrature
from .spectral import EigenCluster
from .transforms import _sym, congruence, entry_major


def _pushed(disc, geo, w, B_stiff, B_mass):
    """The entry-major coefficients B_stiff (3, 3, N|1) and B_mass, (N|1) or
    (3, 3, N|1), pushed by the push-forward P of their kinds at the mapped
    points `geo`, sym(P^T B P), the mass weighted by w (n, nq); a scalar kind
    has no P: the (stiffness, mass) input of `local_matrices`."""
    return [B * scale if kind.push is None else congruence(kind.push(geo).swapaxes(0, 1), B, scale)
            for (kind, _), B, scale in zip(disc.coefficient_maps(), (B_stiff, B_mass),
                                           (1.0, w.ravel()))]


def _cluster_matrices(gdofs, k_loc, m_loc, clusters):
    """sym(sum over tets of C^T (k - lambda_bar m) C) per cluster, with C the
    cluster's coefficients on each tet's local functions (n, k, m) and k, m
    the local matrices."""
    out = []
    for cl in clusters:
        # a constrained dof (-1) reads the appended zero row
        ct = np.vstack([cl.vectors, np.zeros((1, cl.vectors.shape[1]))])[gdofs]
        # sums over all tets in einsum's own loops, not in a BLAS reduction,
        # which a second thread would split with another round-off
        out.append(_sym(np.einsum("nkh,nkl->hl", ct, (k_loc - cl.lambda_bar * m_loc) @ ct)))
    return out


def volume_matrix(
    disc: Discretisation, chi_bar, direction, clusters: Sequence[EigenCluster]
) -> List[np.ndarray]:
    """Volume-integral branch-derivative matrix of each cluster.

    The mapped points, the velocity field, the coefficient brackets and the
    local matrices are evaluated once for all clusters, block by block of
    tets (`Discretisation.local`).
    """
    def kernel(geo, w, values, derivatives):
        v = transforms.psi_on_physical(disc.family, direction, geo)
        B_stiff, B_mass = (transforms.bracket(kind.sign, c, v, geo)
                           for kind, c in disc.coefficient_maps())
        w = w * geo.det.reshape(w.shape)
        return local_matrices(values, derivatives, w, *_pushed(disc, geo, w, B_stiff, B_mass))

    return _cluster_matrices(disc.gdofs, *disc.local(chi_bar, kernel), clusters)


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
    # Nanson: n dsigma_Phi = det(J) J^-T n_ref dsigma_ref
    nanson = geo.det.reshape(len(tets), -1) * (
        geo.Jinv.reshape(3, 3, len(tets), -1) * n_ref.T[:, None, :, None]).sum(0)
    psi = transforms.psi_on_physical(disc.family, direction, geo).psi
    sign = np.where(np.asarray(mesh.bfacet_tags) == "N", 1.0, -1.0)
    w = (sign[:, None] * 2.0 * area[:, None] * rule.weights
         * (entry_major(psi).reshape(nanson.shape) * nanson).sum(0))
    return _cluster_matrices(disc.gdofs[tets], *local_matrices(
        disc.space.values(mesh, bary, tets), disc.derivatives[tets], w,
        *_pushed(disc, geo, w, disc.stiff.entries(geo.y), disc.mass.entries(geo.y))),
        clusters)


# plain names of the generic forms, looked up by `harness.build_problem`
helmholtz_volume_matrix = maxwell_volume_matrix = volume_matrix
helmholtz_surface_matrix = maxwell_surface_matrix = surface_matrix
