"""Shared finite element plumbing: element geometry, pencils, scatter."""

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from .geometry import Mesh, QuadratureRule, tet_quadrature
from .transforms import AffineFamily, ConstantMatrixCoefficient, ConstantScalarCoefficient

Matrix = Union[np.ndarray, sp.csr_array]


@dataclass
class Pencil:
    """Hermitian stiffness/mass pair over the free degrees of freedom.

    FEM pencils hold CSR matrices; the synthetic pencils hold dense arrays.
    ``free_entities`` maps matrix index -> mesh entity id (vertex index for
    Lagrange dofs, edge index for edge dofs).
    """

    K: Matrix
    M: Matrix
    free_entities: np.ndarray
    problem_tag: str
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
    problem_tag: str


def tet_p1_data(mesh: Mesh):
    """Per-tet volumes and constant barycentric gradients.

    Returns (vols (nt,), grads (nt,4,3)) with grads[t, i] = grad lambda_i.
    """
    v = mesh.vertices[mesh.tets]                      # (nt, 4, 3)
    A = np.concatenate([np.ones((len(v), 4, 1)), v], axis=2)  # rows [1, x]
    C = np.linalg.inv(A)                              # lambda_i = C[0,i] + C[1:,i].x
    grads = np.swapaxes(C[:, 1:, :], 1, 2)            # (nt, 4, 3)
    vols = mesh.tet_volumes()
    return vols, grads


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
