"""Volume- and surface-integral eigenvalue derivative matrices.

All integrals over the deformed domain are computed by change of variables
back to the reference quadrature points: fields are pushed forward with the
space's transform (scalar or covariant Piola), the volume measure with
det(J), and boundary normals with the cofactor (Nanson) rule. This keeps
the volume route bit-consistent with the pencil-derivative route. Each form
is written once over a finite-element space; the per-problem functions
order the coefficients as (stiffness, mass) for it.
"""

import numpy as np

from . import transforms
from .fem_common import (
    Space,
    barycentric_gradients,
    default_quad_order,
    free_dofs,
    physical_quad_points,
)
from .geometry import tet_quadrature, triangle_quadrature
from .helmholtz import P1
from .maxwell import NEDELEC
from .spectral import EigenCluster


def _sym(A):
    return 0.5 * (A + A.T)


def _jacobian_data(family, chi_bar, X, shape):
    """J, det J, J^-1 at reference points X, with leading axes `shape`."""
    J, det, Jinv = transforms.jacobian_data(family, chi_bar, X)
    return J.reshape(shape + (3, 3)), det.reshape(shape), Jinv.reshape(shape + (3, 3))


def _eigenfield(space: Space, mesh, vectors, bary, J, det, Jinv, tets=slice(None)):
    """Push an eigenvector block forward to (values, derivatives) samples.

    ``bary`` (n|1, nq, 4) are barycentric points of ``tets``; the results
    have shapes (n, nq, m, c) and (n, nq, m, 3) on the deformed domain.
    """
    free, _ = free_dofs(space, mesh)
    entities, count = space.entities(mesh)
    coefs = np.zeros((count, vectors.shape[1]))
    coefs[free] = vectors
    ct = coefs[entities[tets]]                           # (n, k, m)
    grads = barycentric_gradients(mesh)
    F = np.einsum("nqka,nkm->nqma", space.values(mesh, grads, bary, tets), ct)
    D = np.einsum("nka,nkm->nma", space.derivatives(mesh, grads, tets), ct)
    return space.push_values(J, det, Jinv, F), space.push_derivatives(J, det, Jinv, D)


def _weighted_gram(w, B, F):
    """sum over samples of w * B(F_h, F_l), for a matrix or scalar B."""
    c = F.shape[-1]
    B = B.reshape(w.shape + (c, c))
    return np.einsum("nq,nqab,nqha,nqlb->hl", w, B, F, F, optimize=True)


def volume_matrix(
    space: Space, mesh, family, chi_bar, direction, stiff, mass,
    cluster: EigenCluster, quad_order=None,
) -> np.ndarray:
    """Volume-integral branch-derivative matrix of a cluster of `space`."""
    if quad_order is None:
        quad_order = default_quad_order(family, stiff, mass)
    rule = tet_quadrature(quad_order)
    pts, w = physical_quad_points(mesh, rule)
    flat = pts.reshape(-1, 3)
    J, det, Jinv = _jacobian_data(family, chi_bar, flat, w.shape)
    Y = family.map(chi_bar, flat)
    psi, jpsi, div_psi = transforms.psi_on_physical(family, chi_bar, direction, flat)
    B_stiff, B_mass = (
        transforms.coefficient_kind(name).bracket(c, Y, psi, jpsi, div_psi)
        for name, c in zip(space.coefficients, (stiff, mass))
    )
    F, D = _eigenfield(space, mesh, cluster.vectors, rule.points[None], J, det, Jinv)
    wdet = w * det
    return _sym(_weighted_gram(wdet, B_stiff, D)
                - cluster.lambda_bar * _weighted_gram(wdet, B_mass, F))


def surface_matrix(
    space: Space, mesh, family, chi_bar, direction, stiff, mass,
    cluster: EigenCluster, quad_order=None,
) -> np.ndarray:
    """Surface-integral (Hirakawa) branch-derivative matrix of a cluster.

    One pass over all boundary facets. Traces take the owning tet's value,
    the only consistent trace for lowest-order elements; accuracy is first
    order in h. The natural part enters with the full integrand and a
    positive sign, the tangential part with a negative sign; there the P1
    field is exactly zero, so only the gradient term survives.
    """
    if quad_order is None:
        quad_order = default_quad_order(family, stiff, mass)
    rule = triangle_quadrature(quad_order)
    tets = mesh.bfacet_tets
    # exact barycentric coordinates of the facet quadrature points in the
    # owning tet: a one-hot map from facet vertices to local tet vertices
    onehot = mesh.bfacet_vertices[:, :, None] == mesh.tets[tets][:, None, :]
    bary = np.einsum("qi,fij->fqj", rule.points, onehot.astype(float))
    pts = np.einsum("qi,fik->fqk", rule.points, mesh.vertices[mesh.bfacet_vertices])
    n_ref, area = mesh.facet_geometry(np.arange(len(tets)))
    flat = pts.reshape(-1, 3)
    shape = (len(tets), len(rule.weights))
    J, det, Jinv = _jacobian_data(family, chi_bar, flat, shape)
    # Nanson: n dsigma_Phi = det(J) J^-T n_ref dsigma_ref
    nanson = det[:, :, None] * np.einsum("fqba,fb->fqa", Jinv, n_ref)
    psi, _, _ = transforms.psi_on_physical(family, chi_bar, direction, flat)
    sign = np.where(np.asarray(mesh.bfacet_tags) == "N", 1.0, -1.0)
    weight = (sign[:, None] * 2.0 * area[:, None] * rule.weights
              * np.einsum("fqa,fqa->fq", psi.reshape(shape + (3,)), nanson))
    Y = family.map(chi_bar, flat)
    F, D = _eigenfield(space, mesh, cluster.vectors, bary, J, det, Jinv, tets)
    return _sym(_weighted_gram(weight, stiff.value(Y), D)
                - cluster.lambda_bar * _weighted_gram(weight, mass.value(Y), F))


def helmholtz_volume_matrix(
    mesh, family, chi_bar, direction, eps, nu, cluster: EigenCluster,
    quad_order=None,
) -> np.ndarray:
    """Volume-integral branch-derivative matrix for a Helmholtz cluster."""
    return volume_matrix(P1, mesh, family, chi_bar, direction, eps, nu, cluster,
                         quad_order)


def maxwell_volume_matrix(
    mesh, family, chi_bar, direction, eps, mu_inv, cluster: EigenCluster,
    quad_order=None,
) -> np.ndarray:
    """Volume-integral branch-derivative matrix for a Maxwell cluster."""
    return volume_matrix(NEDELEC, mesh, family, chi_bar, direction, mu_inv, eps,
                         cluster, quad_order)


def helmholtz_surface_matrix(
    mesh, family, chi_bar, direction, eps, nu, cluster: EigenCluster,
    quad_order=None,
) -> np.ndarray:
    """Surface-integral branch-derivative matrix for a Helmholtz cluster."""
    return surface_matrix(P1, mesh, family, chi_bar, direction, eps, nu, cluster,
                          quad_order)


def maxwell_surface_matrix(
    mesh, family, chi_bar, direction, eps, mu_inv, cluster: EigenCluster,
    quad_order=None,
) -> np.ndarray:
    """Surface-integral branch-derivative matrix for a Maxwell cluster."""
    return surface_matrix(NEDELEC, mesh, family, chi_bar, direction, mu_inv, eps,
                          cluster, quad_order)
