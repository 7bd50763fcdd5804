"""P1 Lagrange assembly of the Helmholtz pencil on the reference mesh.

The stiffness form is integral(eps_Phi grad f . grad g) and the mass form
integral(nu_Phi f g); the domain transformation enters only through the
pulled-back coefficients, never through the mesh geometry. Dirichlet dofs
(vertices on the closure of the tangential boundary part) are eliminated.
"""

from .fem_common import Discretisation, Space, assemble_derivative, assemble_pencil

# P1 on vertices: u = f o Phi^-1 and grad u = (J^-T grad f) o Phi^-1
P1 = Space(
    coefficients=("epsilon", "nu"),
    entities=lambda mesh: (mesh.tets, len(mesh.vertices)),
    constrained=lambda mesh: mesh.boundary_vertex_set("T"),
    values=lambda mesh, bary, tets: bary[..., None],
    derivatives=lambda mesh: mesh.barycentric_gradients,
    derivative_map=lambda J, det, Jinv: Jinv.swapaxes(0, 1),
)


def discretise(mesh, family, eps, nu) -> Discretisation:
    """Helmholtz discretisation: P1 with stiffness eps and mass nu."""
    return Discretisation(P1, mesh, family, eps, nu)


# plain names of the generic routines, looked up by `harness.build_problem`
assemble_helmholtz = assemble_pencil
assemble_helmholtz_derivative = assemble_derivative
