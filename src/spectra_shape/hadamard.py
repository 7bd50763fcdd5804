"""Volume- and surface-integral eigenvalue derivative matrices.

All integrals over the deformed domain are computed by change of variables
back to the reference quadrature points: fields are pushed forward with the
space's transform (scalar or covariant Piola), the volume measure with
det(J), and boundary normals with the cofactor (Nanson) rule. This keeps
the volume route bit-consistent with the pencil-derivative route. Each form
is written once over a `Discretisation`, whose space, quadrature and local
basis it reads. Each form takes a sequence of clusters and returns one
matrix per cluster: everything but the eigenfields is evaluated once per
call.
"""

from typing import List, Sequence

import numpy as np

from . import transforms
from .fem_common import Discretisation, Space
from .geometry import triangle_quadrature
from .spectral import EigenCluster
from .transforms import _sym


def _frames(geo, shape):
    """J, det J and J^-1 of the mapped points, with leading axes `shape`."""
    return (geo.J.reshape(shape + (3, 3)), geo.det.reshape(shape),
            geo.Jinv.reshape(shape + (3, 3)))


def _weighted_gram(w, B, F):
    """sum over samples of w * B(F_h, F_l), for a matrix or scalar B."""
    c = F.shape[-1]
    B = B.reshape(w.shape + (c, c))
    return np.einsum("nq,nqab,nqha,nqlb->hl", w, B, F, F, optimize=True)


def _cluster_matrices(space: Space, basis, frames, w, B_stiff, B_mass, clusters):
    """sym(sum over samples of w (B_stiff(D_h, D_l) - lambda_bar B_mass(F_h, F_l)))
    per cluster, with F and D the cluster's eigenfield values and derivatives
    pushed forward to the deformed domain, one cluster at a time."""
    _, gdofs, values, derivatives = basis
    out = []
    for cl in clusters:
        # a constrained dof (-1) reads the appended zero row
        ct = np.vstack([cl.vectors, np.zeros((1, cl.vectors.shape[1]))])[gdofs]
        F = space.push_values(*frames, np.einsum("nqka,nkm->nqma", values, ct))
        D = space.push_derivatives(*frames, np.einsum("nka,nkm->nma", derivatives, ct))
        out.append(_sym(_weighted_gram(w, B_stiff, D)
                        - cl.lambda_bar * _weighted_gram(w, B_mass, F)))
    return out


def volume_matrix(
    disc: Discretisation, chi_bar, direction, clusters: Sequence[EigenCluster]
) -> List[np.ndarray]:
    """Volume-integral branch-derivative matrix of each cluster.

    The mapped points, the velocity field and the coefficient brackets are
    evaluated once for all clusters.
    """
    geo = transforms.map_points(disc.family, chi_bar, disc.points.reshape(-1, 3))
    v = transforms.psi_on_physical(disc.family, direction, geo)
    B_stiff, B_mass = (kind.bracket(c, v, geo) for kind, c in disc.coefficient_maps())
    del v  # not needed past the brackets: free it before the eigenfields
    frames = _frames(geo, disc.weights.shape)
    return _cluster_matrices(disc.space, disc.basis, frames, disc.weights * frames[1],
                             B_stiff, B_mass, clusters)


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
    bary = np.einsum("qi,fij->fqj", rule.points, onehot.astype(float))
    pts = np.einsum("qi,fik->fqk", rule.points, mesh.vertices[mesh.bfacet_vertices])
    n_ref, area = mesh.facet_geometry(np.arange(len(tets)))
    shape = (len(tets), len(rule.weights))
    geo = transforms.map_points(disc.family, chi_bar, pts.reshape(-1, 3))
    frames = _frames(geo, shape)
    # Nanson: n dsigma_Phi = det(J) J^-T n_ref dsigma_ref
    nanson = frames[1][:, :, None] * np.einsum("fqba,fb->fqa", frames[2], n_ref)
    psi = transforms.psi_on_physical(disc.family, direction, geo).psi
    sign = np.where(np.asarray(mesh.bfacet_tags) == "N", 1.0, -1.0)
    weight = (sign[:, None] * 2.0 * area[:, None] * rule.weights
              * np.einsum("fqa,fqa->fq", psi.reshape(shape + (3,)), nanson))
    ndof, gdofs, _, derivatives = disc.basis
    basis = ndof, gdofs[tets], disc.space.values(mesh, bary, tets), derivatives[tets]
    return _cluster_matrices(disc.space, basis, frames, weight, disc.stiff.value(geo.y),
                             disc.mass.value(geo.y), clusters)


# plain names of the generic forms, looked up by `harness.build_problem`
helmholtz_volume_matrix = maxwell_volume_matrix = volume_matrix
helmholtz_surface_matrix = maxwell_surface_matrix = surface_matrix
