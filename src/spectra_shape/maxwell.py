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


def anchored_gradient_basis(mesh: Mesh) -> sp.csr_array:
    """The pencil's kernel basis: `gradient_kernel_basis` less one column per
    connected component of the mesh with no constrained vertex, the column of
    its lowest-numbered vertex. There the constant potential has zero
    gradient, so the component's columns are dependent until one goes.
    Components are read off G: free vertices that share a row fall in one,
    and a component C reaches a constrained vertex exactly where G 1_C != 0,
    since every edge at a free vertex is free, so the first edge out of C to
    a constrained vertex is a row of G with one entry in C."""
    from scipy.sparse.csgraph import connected_components

    G = gradient_kernel_basis(mesh)
    count, labels = connected_components(abs(G).T @ abs(G), directed=False)
    component = sp.csr_array((np.ones(len(labels)), (np.arange(len(labels)), labels)),
                             shape=(len(labels), count))
    floating = abs(G @ component).sum(axis=0) == 0
    # free vertices are numbered in vertex order: a component's first column
    # is its lowest-numbered vertex
    _, first = np.unique(labels, return_index=True)
    keep = np.ones(G.shape[1], dtype=bool)
    keep[first[floating]] = False
    return G[:, keep]


# Nedelec-1 on edges: E = (J^-T F) o Phi^-1 and rot E = (det J)^-1 (J rot F) o Phi^-1,
# the push-forwards of the mass kind eps and of the stiffness kind mu^-1
NEDELEC = Space(
    coefficients=("mu_inv", "epsilon"),
    entities=lambda mesh: (mesh.tet_edges, len(mesh.edges)),
    box_dofs=lambda n: box_mesh_size(n)[1],
    constrained=lambda mesh: mesh.boundary_edge_set("T"),
    values=_edge_values,
    derivatives=_edge_curls,
    kernel_basis=anchored_gradient_basis,
)


# plain names of the generic routines, looked up by `harness.build_problem`
assemble_maxwell = assemble_pencil
assemble_maxwell_derivative = assemble_derivative
