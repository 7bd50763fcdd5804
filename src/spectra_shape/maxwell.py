"""Lowest-order edge element (first-kind Nedelec) assembly of the Maxwell pencil.

Dofs are edge circulations with global low->high orientation. The stiffness
form is integral(mu_Phi^-1 rot E . rot F) and the mass form
integral(eps_Phi E . F); edges contained in a facet of the tangential
boundary part carry the n x E = 0 constraint and are eliminated.
"""

import numpy as np
import scipy.sparse as sp

from .fem_common import (
    Pencil,
    PencilDerivative,
    Space,
    assemble_derivative,
    assemble_pencil,
    free_dofs,
)
from .geometry import Mesh, TET_EDGE_PAIRS
from .helmholtz import free_vertex_dofs

_EDGE_A, _EDGE_B = np.array(TET_EDGE_PAIRS).T


def _edge_values(mesh: Mesh, grads, bary, tets) -> np.ndarray:
    """Signed edge basis values at barycentric points: (n, nq, 6, 3).

    w_(a,b)(x) = lambda_a grad(lambda_b) - lambda_b grad(lambda_a).
    """
    g = grads[tets]
    vals = (bary[:, :, _EDGE_A, None] * g[:, None, _EDGE_B, :]
            - bary[:, :, _EDGE_B, None] * g[:, None, _EDGE_A, :])
    return vals * mesh.tet_edge_signs[tets][:, None, :, None]


def _edge_curls(mesh: Mesh, grads, tets) -> np.ndarray:
    """Constant curls of the signed edge basis functions: (n, 6, 3).

    curl w_(a,b) = 2 grad(lambda_a) x grad(lambda_b), oriented globally.
    """
    g = grads[tets]
    curls = 2.0 * np.cross(g[:, _EDGE_A, :], g[:, _EDGE_B, :])
    return curls * mesh.tet_edge_signs[tets][:, :, None]


# Nedelec-1 on edges, covariant Piola map:
# E = (J^-T F) o Phi^-1 and rot E = (det J)^-1 (J rot F) o Phi^-1
NEDELEC = Space(
    coefficients=("mu_inv", "epsilon"),
    entities=lambda mesh: (mesh.tet_edges, mesh.num_edges()),
    constrained=lambda mesh: mesh.boundary_edge_set("T"),
    values=_edge_values,
    derivatives=_edge_curls,
    push_values=lambda J, det, Jinv, F: np.einsum("nqba,nqmb->nqma", Jinv, F),
    push_derivatives=lambda J, det, Jinv, D: (
        np.einsum("nqab,nmb->nqma", J, D) / det[:, :, None, None]
    ),
)


def free_edge_dofs(mesh: Mesh):
    """Free edges (not contained in a Gamma_t facet) and the edge -> dof map."""
    return free_dofs(NEDELEC, mesh)


def assemble_maxwell(mesh, family, chi, eps, mu_inv, quad_order=None) -> Pencil:
    """Maxwell pencil (K, M) at transformation parameter chi."""
    pencil = assemble_pencil(NEDELEC, mesh, family, chi, mu_inv, eps, quad_order)
    pencil.kernel_basis = gradient_kernel_basis(mesh)
    return pencil


def assemble_maxwell_derivative(
    mesh, family, chi_bar, direction, eps, mu_inv, quad_order=None
) -> PencilDerivative:
    """Directional derivative (dK, dM) of the Maxwell pencil at chi_bar."""
    return assemble_derivative(
        NEDELEC, mesh, family, chi_bar, direction, mu_inv, eps, quad_order
    )


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
