"""Lowest-order edge element (first-kind Nedelec) assembly of the Maxwell pencil.

Dofs are edge circulations with global low->high orientation. The stiffness
form is integral(mu_Phi^-1 rot E . rot F) and the mass form
integral(eps_Phi E . F); edges contained in a facet of the tangential
boundary part carry the n x E = 0 constraint and are eliminated.
"""

import numpy as np
import scipy.sparse as sp

from .fem_common import Space, assemble_derivative, assemble_pencil, free_dofs
from .geometry import Mesh, TET_EDGE_PAIRS, box_mesh_size
from .helmholtz import P1

_EDGE_A, _EDGE_B = np.array(TET_EDGE_PAIRS).T


def _edge_values(mesh: Mesh, bary, tets) -> np.ndarray:
    """Signed edge basis values at barycentric points: (n, nq, 6, 3).

    w_(a,b)(x) = lambda_a grad(lambda_b) - lambda_b grad(lambda_a).
    """
    g = mesh.barycentric_gradients[tets]
    vals = (bary[:, :, _EDGE_A, None] * g[:, None, _EDGE_B, :]
            - bary[:, :, _EDGE_B, None] * g[:, None, _EDGE_A, :])
    return vals * mesh.tet_edge_signs[tets][:, None, :, None]


def _edge_curls(mesh: Mesh) -> np.ndarray:
    """Constant curls of the signed edge basis functions: (nt, 6, 3).

    curl w_(a,b) = 2 grad(lambda_a) x grad(lambda_b), oriented globally.
    """
    g = mesh.barycentric_gradients
    curls = 2.0 * np.cross(g[:, _EDGE_A, :], g[:, _EDGE_B, :])
    return curls * mesh.tet_edge_signs[:, :, None]


def gradient_kernel_basis(mesh: Mesh) -> sp.csr_array:
    """Discrete gradients of free hat functions in edge-circulation dofs.

    Column v has entry +1 on free edges ending at vertex v and -1 on free
    edges starting there (global low->high orientation), so each column is
    the edge interpolant of grad(hat_v) and lies in the kernel of the
    curl-curl stiffness exactly.
    """
    free_edges, _ = free_dofs(NEDELEC, mesh)
    free_verts, vert_dof = free_dofs(P1, mesh)
    cols = vert_dof[mesh.edges[free_edges]].ravel()     # (start, end) per edge
    rows = np.repeat(np.arange(len(free_edges)), 2)
    vals = np.tile([-1.0, 1.0], len(free_edges))
    keep = cols >= 0
    return sp.csr_array(
        (vals[keep], (rows[keep], cols[keep])),
        shape=(len(free_edges), len(free_verts)),
    )


# Nedelec-1 on edges: E = (J^-T F) o Phi^-1 and rot E = (det J)^-1 (J rot F) o Phi^-1,
# the push-forwards of the mass kind eps and of the stiffness kind mu^-1
NEDELEC = Space(
    coefficients=("mu_inv", "epsilon"),
    entities=lambda mesh: (mesh.tet_edges, len(mesh.edges)),
    box_dofs=lambda n: box_mesh_size(n)[1],
    constrained=lambda mesh: mesh.boundary_edge_set("T"),
    values=_edge_values,
    derivatives=_edge_curls,
    kernel_basis=gradient_kernel_basis,
)


# plain names of the generic routines, looked up by `harness.build_problem`
assemble_maxwell = assemble_pencil
assemble_maxwell_derivative = assemble_derivative
