"""Shared finite element plumbing: element geometry, the finite-element
space, pencils and their assembly."""

from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

from . import transforms
from .errors import DegenerateProblemError
from .geometry import Mesh, tet_quadrature
from .transforms import AffineField

Matrix = Union[np.ndarray, sp.csr_array]


@dataclass
class Pencil:
    """Hermitian stiffness/mass pair over the free degrees of freedom.

    FEM pencils hold CSR matrices; the synthetic pencils hold dense arrays.
    """

    K: Matrix
    M: Matrix
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
    # (mesh, bary (n|1, nq, 4), tets) -> basis values (n|1, nq, k, c)
    values: Callable
    # (mesh, tets) -> constant grad or curl of the basis (n, k, 3)
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


def local_basis(space: Space, mesh: Mesh, bary, tets=slice(None)):
    """The local basis of `space` on ``tets``: the number of free dofs, the dof
    of each local function (-1 where constrained), the basis values at the
    barycentric points ``bary`` (n|1, nq, 4) and the basis derivatives."""
    free, dof_of = free_dofs(space, mesh)
    if len(free) == 0:
        raise DegenerateProblemError(
            "every dof is constrained by the tangential boundary; no free dofs"
        )
    return (len(free), dof_of[space.entities(mesh)[0][tets]],
            space.values(mesh, bary, tets), space.derivatives(mesh, tets))


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
    """Order 2 when the family's field g is affine and every coefficient is
    constant (its gradient G is zero), order 4 otherwise."""
    if isinstance(family.g, AffineField) and all(c.constant for c in coefficients):
        return 2
    return 4


def _assemble(space: Space, mesh: Mesh, quad_order: int, coefficients):
    """Stiffness/mass over the free dofs; ``coefficients(X)`` gives the
    (stiffness, mass) coefficient values at the points X (N, 3)."""
    pts, w = mesh.quadrature_points(quad_order)
    nt, nq, _ = pts.shape
    stiff, mass = coefficients(pts.reshape(nt * nq, 3))
    ndof, gdofs, vals, ders = local_basis(space, mesh, tet_quadrature(quad_order).points[None])
    c = vals.shape[-1]
    k_loc = np.einsum("nq,nqab,nia,njb->nij", w, stiff.reshape(nt, nq, 3, 3),
                      ders, ders, optimize=True)
    m_loc = np.einsum("nq,nqab,nqia,nqjb->nij", w, mass.reshape(nt, nq, c, c),
                      vals, vals, optimize=True)
    return scatter_symmetric(k_loc, gdofs, ndof), scatter_symmetric(m_loc, gdofs, ndof)


def assemble_pencil(space: Space, mesh, family, chi, stiff, mass) -> Pencil:
    """Pencil (K, M) of `space` at transformation parameter chi."""
    quad_order = default_quad_order(family, stiff, mass)

    def coefficients(X):
        geo = transforms.map_points(family, chi, X)
        return [transforms.coefficient_kind(name).pull_back(c, geo)
                for name, c in zip(space.coefficients, (stiff, mass))]

    K, M = _assemble(space, mesh, quad_order, coefficients)
    return Pencil(K, M, quad_order=quad_order)


def assemble_derivative(
    space: Space, mesh, family, chi_bar, direction, stiff, mass
) -> PencilDerivative:
    """Directional derivative (dK, dM) of the pencil of `space` at chi_bar."""
    quad_order = default_quad_order(family, stiff, mass)

    def coefficients(X):
        geo = transforms.map_points(family, chi_bar, X)
        v = transforms.psi_on_physical(family, direction, geo)
        return [transforms.coefficient_kind(name).derivative(c, v, geo)
                for name, c in zip(space.coefficients, (stiff, mass))]

    return PencilDerivative(*_assemble(space, mesh, quad_order, coefficients))
