"""Shared finite element plumbing: element geometry, the finite-element
space, pencils and their assembly."""

from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

from . import transforms
from .errors import DegenerateProblemError
from .geometry import Mesh, QuadratureRule, tet_quadrature
from .transforms import AffineFamily, ConstantMatrixCoefficient, ConstantScalarCoefficient

Matrix = Union[np.ndarray, sp.csr_array]


@dataclass
class Pencil:
    """Hermitian stiffness/mass pair over the free degrees of freedom.

    FEM pencils hold CSR matrices; the synthetic pencils hold dense arrays.
    """

    K: Matrix
    M: Matrix
    mesh: Optional[Mesh] = None
    quad_order: int = 2
    # columns spanning the known part of ker K (Maxwell discrete gradients)
    kernel_basis: Optional[sp.csr_array] = None

    @property
    def size(self) -> int:
        return self.K.shape[0]

    def lambda_scale(self) -> float:
        return float(self.K.diagonal().sum() / self.M.diagonal().sum())


@dataclass
class PencilDerivative:
    """Directional derivatives of the pencil matrices at a fixed parameter."""

    dK: Matrix
    dM: Matrix


@dataclass(frozen=True)
class Space:
    """Lowest-order finite-element space on a tet mesh: P1 or Nedelec-1.

    The two spaces differ only in these members; assembly, the free-dof map,
    the eigenfield push-forward and the Hadamard forms are written once over
    them. Local basis functions carry a trailing component axis (1 for
    scalar fields), and ``tets`` selects the tets a call evaluates.
    """

    # (stiffness, mass) coefficient kinds, see transforms.coefficient_kind
    coefficients: Tuple[str, str]
    # mesh -> (entity id of each local dof per tet (nt, k), entity count)
    entities: Callable
    # mesh -> entity ids constrained on the tangential boundary part
    constrained: Callable
    # (mesh, grads, bary (n|1, nq, 4), tets) -> basis values (n|1, nq, k, c)
    values: Callable
    # (mesh, grads, tets) -> constant grad or curl of the basis (n, k, 3)
    derivatives: Callable
    # (J, det, Jinv, F (n, nq, m, c)) -> values on the deformed domain
    push_values: Callable
    # (J, det, Jinv, D (n, m, 3)) -> derivatives on the deformed domain (n, nq, m, 3)
    push_derivatives: Callable


def free_dofs(space: Space, mesh: Mesh):
    """Free entities (not constrained on Gamma_t) and the entity -> dof map."""
    _, count = space.entities(mesh)
    mask = np.ones(count, dtype=bool)
    mask[space.constrained(mesh)] = False
    free = np.nonzero(mask)[0]
    dof_of = -np.ones(count, dtype=int)
    dof_of[free] = np.arange(len(free))
    return free, dof_of


def barycentric_gradients(mesh: Mesh) -> np.ndarray:
    """Constant barycentric gradients per tet: (nt, 4, 3), [t, i] = grad lambda_i."""
    v = mesh.vertices[mesh.tets]                      # (nt, 4, 3)
    A = np.concatenate([np.ones((len(v), 4, 1)), v], axis=2)  # rows [1, x]
    C = np.linalg.inv(A)                              # lambda_i = C[0,i] + C[1:,i].x
    return np.swapaxes(C[:, 1:, :], 1, 2)


def physical_quad_points(mesh: Mesh, rule: QuadratureRule):
    """Quadrature points and weights on every tet.

    Returns (points (nt, nq, 3), weights (nt, nq)); weights integrate over
    the tet (reference weights rescaled by 6*vol).
    """
    v = mesh.vertices[mesh.tets]
    pts = np.einsum("qa,nak->nqk", rule.points, v)
    w = 6.0 * mesh.tet_volumes()[:, None] * rule.weights[None, :]
    return pts, w


def scatter_symmetric(local: np.ndarray, gdofs: np.ndarray, ndof: int) -> sp.csr_array:
    """Accumulate per-element blocks into a sparse symmetric global matrix.

    local: (nt, k, k); gdofs: (nt, k) with -1 marking constrained entries.
    """
    nt, k, _ = local.shape
    rows = np.repeat(gdofs, k, axis=1).ravel()
    cols = np.tile(gdofs, (1, k)).ravel()
    data = local.reshape(nt, k * k).ravel()
    keep = (rows >= 0) & (cols >= 0)
    A = sp.csr_array((data[keep], (rows[keep], cols[keep])), shape=(ndof, ndof))
    return sp.csr_array(0.5 * (A + A.T))


def default_quad_order(family, *coefficients) -> int:
    """Order 2 when everything is affine/constant, order 4 otherwise."""
    if not isinstance(family, AffineFamily):
        return 4
    for c in coefficients:
        if not isinstance(c, (ConstantMatrixCoefficient, ConstantScalarCoefficient)):
            return 4
    return 2


def _assemble(space: Space, mesh: Mesh, coefs, quad_order: int, evaluate):
    """Stiffness/mass over the free dofs; ``evaluate(kind, coefficient, X)``
    gives the (stiffness, mass) coefficients ``coefs`` at points X."""
    rule = tet_quadrature(quad_order)
    grads = barycentric_gradients(mesh)
    pts, w = physical_quad_points(mesh, rule)
    nt, nq, _ = pts.shape
    flat = pts.reshape(nt * nq, 3)
    stiff, mass = (evaluate(transforms.coefficient_kind(name), c, flat)
                   for name, c in zip(space.coefficients, coefs))
    ders = space.derivatives(mesh, grads, slice(None))             # (nt, k, 3)
    vals = space.values(mesh, grads, rule.points[None], slice(None))  # (.., nq, k, c)
    c = vals.shape[-1]
    k_loc = np.einsum("nq,nqab,nia,njb->nij", w, stiff.reshape(nt, nq, 3, 3),
                      ders, ders, optimize=True)
    m_loc = np.einsum("nq,nqab,nqia,nqjb->nij", w, mass.reshape(nt, nq, c, c),
                      vals, vals, optimize=True)

    free, dof_of = free_dofs(space, mesh)
    if len(free) == 0:
        raise DegenerateProblemError(
            "every dof is constrained by the tangential boundary; no free dofs"
        )
    gdofs = dof_of[space.entities(mesh)[0]]
    return (scatter_symmetric(k_loc, gdofs, len(free)),
            scatter_symmetric(m_loc, gdofs, len(free)))


def assemble_pencil(space: Space, mesh, family, chi, stiff, mass, quad_order=None) -> Pencil:
    """Pencil (K, M) of `space` at transformation parameter chi."""
    if quad_order is None:
        quad_order = default_quad_order(family, stiff, mass)
    K, M = _assemble(space, mesh, (stiff, mass), quad_order,
                     lambda kind, c, X: kind.pull_back(family, chi, c, X))
    return Pencil(K, M, mesh=mesh, quad_order=quad_order)


def assemble_derivative(
    space: Space, mesh, family, chi_bar, direction, stiff, mass, quad_order=None
) -> PencilDerivative:
    """Directional derivative (dK, dM) of the pencil of `space` at chi_bar."""
    if quad_order is None:
        quad_order = default_quad_order(family, stiff, mass)
    return PencilDerivative(*_assemble(
        space, mesh, (stiff, mass), quad_order,
        lambda kind, c, X: kind.derivative(family, chi_bar, direction, c, X),
    ))
