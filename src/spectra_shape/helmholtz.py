"""P1 Lagrange assembly of the Helmholtz pencil on the reference mesh.

The stiffness form is integral(eps_Phi grad f . grad g) and the mass form
integral(nu_Phi f g); the domain transformation enters only through the
pulled-back coefficients, never through the mesh geometry. Dirichlet dofs
(vertices on the closure of the tangential boundary part) are eliminated.
"""

from .fem_common import Space, assemble_derivative, assemble_pencil
from .geometry import box_mesh_size

# P1 on vertices: u = f o Phi^-1 and grad u = (J^-T grad f) o Phi^-1, the
# push-forward of the stiffness kind eps; the values of u are not transformed
P1 = Space(
    coefficients=("epsilon", "nu"),
    entities=lambda mesh: (mesh.tets, len(mesh.vertices)),
    box_dofs=lambda n: box_mesh_size(n)[0],
    constrained=lambda mesh: mesh.boundary_vertex_set("T"),
    values=lambda mesh, bary, tets: bary[..., None],
    derivatives=lambda mesh: mesh.barycentric_gradients,
)


# plain names of the generic routines, looked up by `harness.build_problem`
assemble_helmholtz = assemble_pencil
assemble_helmholtz_derivative = assemble_derivative
