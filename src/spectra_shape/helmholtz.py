"""P1 Lagrange assembly of the Helmholtz pencil on the reference mesh.

The stiffness form is integral(eps_Phi grad f . grad g) and the mass form
integral(nu_Phi f g); the domain transformation enters only through the
pulled-back coefficients, never through the mesh geometry. Dirichlet dofs
(vertices on the closure of the tangential boundary part) are eliminated.
"""

import numpy as np

from .fem_common import (
    Pencil,
    PencilDerivative,
    Space,
    assemble_derivative,
    assemble_pencil,
    free_dofs,
)
from .geometry import Mesh

# P1 on vertices: u = f o Phi^-1 and grad u = (J^-T grad f) o Phi^-1
P1 = Space(
    coefficients=("epsilon", "nu"),
    entities=lambda mesh: (mesh.tets, mesh.num_vertices()),
    constrained=lambda mesh: mesh.boundary_vertex_set("T"),
    values=lambda mesh, grads, bary, tets: bary[..., None],
    derivatives=lambda mesh, grads, tets: grads[tets],
    push_values=lambda J, det, Jinv, F: F,
    push_derivatives=lambda J, det, Jinv, D: np.einsum("nqba,nmb->nqma", Jinv, D),
)


def free_vertex_dofs(mesh: Mesh):
    """Free vertices (not on closure of Gamma_t) and the vertex -> dof map."""
    return free_dofs(P1, mesh)


def assemble_helmholtz(mesh, family, chi, eps, nu, quad_order=None) -> Pencil:
    """Helmholtz pencil (K, M) at transformation parameter chi."""
    return assemble_pencil(P1, mesh, family, chi, eps, nu, quad_order)


def assemble_helmholtz_derivative(
    mesh, family, chi_bar, direction, eps, nu, quad_order=None
) -> PencilDerivative:
    """Directional derivative (dK, dM) of the Helmholtz pencil at chi_bar."""
    return assemble_derivative(P1, mesh, family, chi_bar, direction, eps, nu, quad_order)
