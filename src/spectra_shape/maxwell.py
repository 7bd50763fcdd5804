"""Lowest-order edge element (first-kind Nedelec) assembly of the Maxwell pencil.

Dofs are edge circulations with global low->high orientation. The stiffness
form is integral(mu_Phi^-1 rot E . rot F) and the mass form
integral(eps_Phi E . F); edges contained in a facet of the tangential
boundary part carry the n x E = 0 constraint and are eliminated.
"""

import numpy as np
import scipy.sparse as sp

from . import transforms
from .errors import DegenerateProblemError
from .fem_common import (
    Pencil,
    PencilDerivative,
    default_quad_order,
    physical_quad_points,
    scatter_symmetric,
    tet_p1_data,
)
from .geometry import Mesh, TET_EDGE_PAIRS, tet_quadrature
from .helmholtz import free_vertex_dofs


def free_edge_dofs(mesh: Mesh):
    """Free edges (not contained in a Gamma_t facet) and the edge -> dof map."""
    constrained = mesh.boundary_edge_set("T")
    mask = np.ones(mesh.num_edges(), dtype=bool)
    mask[constrained] = False
    free = np.nonzero(mask)[0]
    dof_of = -np.ones(mesh.num_edges(), dtype=int)
    dof_of[free] = np.arange(len(free))
    return free, dof_of


def edge_basis_curls(mesh: Mesh, grads: np.ndarray) -> np.ndarray:
    """Constant curls of the six signed edge basis functions per tet.

    curl w_(a,b) = 2 grad(lambda_a) x grad(lambda_b), oriented globally.
    """
    nt = mesh.num_tets()
    curls = np.empty((nt, 6, 3))
    for e, (a, b) in enumerate(TET_EDGE_PAIRS):
        curls[:, e, :] = 2.0 * np.cross(grads[:, a, :], grads[:, b, :])
    return curls * mesh.tet_edge_signs[:, :, None]


def edge_basis_values(mesh: Mesh, grads: np.ndarray, bary: np.ndarray) -> np.ndarray:
    """Signed edge basis values at barycentric quad points: (nt, nq, 6, 3).

    w_(a,b)(x) = lambda_a grad(lambda_b) - lambda_b grad(lambda_a).
    """
    nt = mesh.num_tets()
    nq = len(bary)
    vals = np.empty((nt, nq, 6, 3))
    for e, (a, b) in enumerate(TET_EDGE_PAIRS):
        vals[:, :, e, :] = (
            bary[None, :, a, None] * grads[:, None, b, :]
            - bary[None, :, b, None] * grads[:, None, a, :]
        )
    return vals * mesh.tet_edge_signs[:, None, :, None]


def _assemble(mesh, muinv_at, eps_at, quad_order):
    rule = tet_quadrature(quad_order)
    vols, grads = tet_p1_data(mesh)
    pts, w = physical_quad_points(mesh, rule)
    nt, nq, _ = pts.shape
    flat = pts.reshape(nt * nq, 3)
    muinv = muinv_at(flat).reshape(nt, nq, 3, 3)
    eps = eps_at(flat).reshape(nt, nq, 3, 3)

    curls = edge_basis_curls(mesh, grads)                # (nt, 6, 3)
    vals = edge_basis_values(mesh, grads, rule.points)   # (nt, nq, 6, 3)

    k_loc = np.einsum("nq,nqab,nea,nfb->nef", w, muinv, curls, curls, optimize=True)
    m_loc = np.einsum("nq,nqab,nqea,nqfb->nef", w, eps, vals, vals, optimize=True)

    free, dof_of = free_edge_dofs(mesh)
    if len(free) == 0:
        raise DegenerateProblemError(
            "all edges constrained by the tangential boundary; no free dofs"
        )
    gdofs = dof_of[mesh.tet_edges]
    K = scatter_symmetric(k_loc, gdofs, len(free))
    M = scatter_symmetric(m_loc, gdofs, len(free))
    return K, M, free


def assemble_maxwell(mesh, family, chi, eps, mu_inv, quad_order=None) -> Pencil:
    """Maxwell pencil (K, M) at transformation parameter chi."""
    if quad_order is None:
        quad_order = default_quad_order(family, eps, mu_inv)
    K, M, free = _assemble(
        mesh,
        lambda X: transforms.transformed_mu_inv(family, chi, mu_inv, X),
        lambda X: transforms.transformed_epsilon(family, chi, eps, X),
        quad_order,
    )
    return Pencil(K, M, free, "maxwell", mesh=mesh, quad_order=quad_order,
                  kernel_basis=gradient_kernel_basis(mesh))


def assemble_maxwell_derivative(
    mesh, family, chi_bar, direction, eps, mu_inv, quad_order=None
) -> PencilDerivative:
    """Directional derivative (dK, dM) of the Maxwell pencil at chi_bar."""
    if quad_order is None:
        quad_order = default_quad_order(family, eps, mu_inv)
    dK, dM, _ = _assemble(
        mesh,
        lambda X: transforms.directional_coefficient_mu_inv(
            family, chi_bar, direction, mu_inv, X
        ),
        lambda X: transforms.directional_coefficient_epsilon(
            family, chi_bar, direction, eps, X
        ),
        quad_order,
    )
    return PencilDerivative(dK, dM, "maxwell")


def gradient_kernel_basis(mesh: Mesh) -> sp.csr_array:
    """Discrete gradients of free hat functions in edge-circulation dofs.

    Column v has entry +1 on free edges ending at vertex v and -1 on free
    edges starting there (global low->high orientation), so each column is
    the edge interpolant of grad(hat_v) and lies in the kernel of the
    curl-curl stiffness exactly.
    """
    free_edges, _ = free_edge_dofs(mesh)
    free_verts, vert_dof = free_vertex_dofs(mesh)
    cols = vert_dof[mesh.edges[free_edges]].ravel()     # (start, end) per edge
    rows = np.repeat(np.arange(len(free_edges)), 2)
    vals = np.tile([-1.0, 1.0], len(free_edges))
    keep = cols >= 0
    return sp.csr_array(
        (vals[keep], (rows[keep], cols[keep])),
        shape=(len(free_edges), len(free_verts)),
    )
