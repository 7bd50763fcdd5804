"""Shared finite element plumbing: element geometry, the finite-element
space, the discretisation of a problem, pencils and their assembly."""

from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

from . import transforms
from .errors import DegenerateProblemError, InadmissibleParameterError
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
    scalar fields), and ``tets`` selects the tets that ``values`` evaluates.
    """

    # (stiffness, mass) coefficient kinds, see transforms.coefficient_kind
    coefficients: Tuple[str, str]
    # mesh -> (entity id of each local dof per tet (nt, k), entity count)
    entities: Callable
    # mesh -> entity ids constrained on the tangential boundary part
    constrained: Callable
    # (mesh, bary (n|1, nq, 4), tets) -> basis values (n|1, nq, k, c)
    values: Callable
    # mesh -> constant grad or curl of the basis per tet (nt, k, 3)
    derivatives: Callable
    # (J, det, Jinv, F (n, nq, m, c)) -> values on the deformed domain
    push_values: Callable
    # (J, det, Jinv, D (n, m, 3)) -> derivatives on the deformed domain (n, nq, m, 3)
    push_derivatives: Callable
    # mesh -> columns spanning the known part of ker K, or None
    kernel_basis: Optional[Callable] = None


def free_dofs(space: Space, mesh: Mesh):
    """Free entities (not constrained on Gamma_t) and the entity -> dof map."""
    _, count = space.entities(mesh)
    mask = np.ones(count, dtype=bool)
    mask[space.constrained(mesh)] = False
    free = np.nonzero(mask)[0]
    dof_of = -np.ones(count, dtype=int)
    dof_of[free] = np.arange(len(free))
    return free, dof_of


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


@dataclass(eq=False, repr=False)
class Discretisation:
    """A problem discretised on the reference mesh: the space, the mesh, the
    family and the (stiffness, mass) coefficients, with the data that no chi
    changes computed once from one tet rule: the quadrature order, the rule's
    points and weights per tet, the local basis (the free dof count, the dof of
    each local function, -1 where constrained, and the basis values at the
    points and derivatives per tet) and the kernel basis."""

    space: Space
    mesh: Mesh
    family: object
    stiff: AffineField
    mass: AffineField

    def __post_init__(self):
        space, mesh = self.space, self.mesh
        self.quad_order = default_quad_order(self.family, self.stiff, self.mass)
        rule = tet_quadrature(self.quad_order)
        self.points = np.einsum("qa,nak->nqk", rule.points, mesh.vertices[mesh.tets])
        self.weights = 6.0 * mesh.tet_volumes()[:, None] * rule.weights[None, :]
        free, dof_of = free_dofs(space, mesh)
        if len(free) == 0:
            raise DegenerateProblemError("every dof is constrained by the tangential boundary; "
                                         "no free dofs")
        self.basis = (len(free), dof_of[space.entities(mesh)[0]],
                      space.values(mesh, rule.points[None], slice(None)), space.derivatives(mesh))
        self.kernel_basis = None if space.kernel_basis is None else space.kernel_basis(mesh)

    def coefficient_maps(self):
        """(maps, coefficient) of the stiffness and the mass, maps looked up per call."""
        return zip(map(transforms.coefficient_kind, self.space.coefficients),
                   (self.stiff, self.mass))


def _assemble(disc: Discretisation, chi, coefficients):
    """Stiffness/mass over the free dofs; ``coefficients(geo)`` gives the
    (stiffness, mass) coefficient values at the quadrature points mapped at chi."""
    nt, nq, _ = disc.points.shape
    stiff, mass = coefficients(transforms.map_points(disc.family, chi,
                                                     disc.points.reshape(nt * nq, 3)))
    w, (ndof, gdofs, vals, ders) = disc.weights, disc.basis
    c = vals.shape[-1]
    k_loc = np.einsum("nq,nqab,nia,njb->nij", w, stiff.reshape(nt, nq, 3, 3),
                      ders, ders, optimize=True)
    m_loc = np.einsum("nq,nqab,nqia,nqjb->nij", w, mass.reshape(nt, nq, c, c),
                      vals, vals, optimize=True)
    return scatter_symmetric(k_loc, gdofs, ndof), scatter_symmetric(m_loc, gdofs, ndof)


def assemble_pencil(disc: Discretisation, chi) -> Pencil:
    """Pencil (K, M) of the discretisation at transformation parameter chi.

    M is certified positive-definite: `map_points` checks det J > 0 and
    each non-constant coefficient is checked positive-definite at every
    mapped quadrature point (the constant ones are checked when the config
    is read); the tet rules have positive weights and are unisolvent for
    the local bases. A failure makes chi inadmissible."""

    def coefficients(geo):
        for name, c in zip(disc.space.coefficients, (disc.stiff, disc.mass)):
            i = None if c.constant else transforms.first_not_positive(c.value(geo.y))
            if i is not None:
                raise InadmissibleParameterError(
                    f"coefficient {name!r} is not positive-definite at parameter {chi} "
                    f"(mapped point {geo.y[i].tolist()})")
        return [kind.pull_back(c, geo) for kind, c in disc.coefficient_maps()]

    K, M = _assemble(disc, chi, coefficients)
    return Pencil(K, M, disc.quad_order, disc.kernel_basis)


def assemble_derivative(disc: Discretisation, chi_bar, direction) -> PencilDerivative:
    """Directional derivative (dK, dM) of the pencil at chi_bar."""

    def coefficients(geo):
        v = transforms.psi_on_physical(disc.family, direction, geo)
        return [kind.derivative(c, v, geo) for kind, c in disc.coefficient_maps()]

    return PencilDerivative(*_assemble(disc, chi_bar, coefficients))
