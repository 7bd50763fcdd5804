"""Shared finite element plumbing: element geometry, the finite-element
space, the discretisation of a problem, pencils and their assembly.

Assembly integrates over the quadrature first: the element derivatives are
constant on each tet, so the local stiffness is D (sum_q w C_q) D^T with the
per-tet moment of the coefficient, and the local mass of P1, whose values at
the rule's points are the same on every tet, is one product of the weighted
coefficient with a table of value products. `local_matrices` is that one
kernel, for the pencil, its derivative and the Hadamard forms. The global
matrices are summed into a CSR pattern computed once per discretisation.

No product over the point or tet axis goes through one 2-D BLAS product
large enough for OpenBLAS to thread: such products run in einsum's own
loops (`np.einsum` without `optimize`), as stacked products of tiny per-tet
matrices, or over chunks of points far below OpenBLAS's threading size. A
threaded product wakes numpy's BLAS worker pool, whose workers then spin
beside scipy's pool (each loads its own OpenBLAS) and the main thread on
the cores the process has. Only the eigensolver (`spectral`) calls BLAS and
LAPACK at size.

The per-point chain (the map, the coefficients at the mapped points, the
local matrices) runs over blocks of at most `POINTS_PER_BLOCK` rule points
(`Discretisation.local`), whose local matrices are joined in tet order: every
sum runs in the order of one pass over all points."""

from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

from . import transforms
from .errors import DegenerateProblemError, InadmissibleParameterError
from .geometry import Mesh, tet_quadrature
from .transforms import AffineField

Matrix = Union[np.ndarray, sp.csr_array]

# Rule points per block of tets: an entry-major 3x3 stack of 8192 points is
# 0.6 MB, so the ten or so stacks of a block's chain stay in a 4 MB per-core
# L2 (at the 84000 points of an order-4 n = 10 mesh a stack is 6 MB). Blocks
# of 4096 to 16384 points measured equally fast (see README).
POINTS_PER_BLOCK = 8192


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

    # (stiffness, mass) coefficient kinds, see transforms.coefficient_kind:
    # the push-forwards of the derivatives and of the values are theirs
    coefficients: Tuple[str, str]
    # mesh -> (entity id of each local dof per tet (nt, k), entity count)
    entities: Callable
    # n -> the entity count of a box of n cells per side, without building it
    box_dofs: Callable
    # mesh -> entity ids constrained on the tangential boundary part
    constrained: Callable
    # (mesh, bary (n|1, nq, 4), tets) -> basis values (n|1, nq, k, c)
    values: Callable
    # mesh -> constant grad or curl of the basis per tet (nt, k, 3)
    derivatives: Callable
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


class ScatterPattern:
    """Where the entries of local matrices (nt, k, k) go in a CSR matrix over
    `ndof` dofs, for the dofs `gdofs` (nt, k) of each local function, -1 where
    constrained: the CSR slot of each local pair (i, j), from the sorted keys
    row * ndof + col of all pairs."""

    def __init__(self, gdofs: np.ndarray, ndof: int):
        rows, cols = gdofs[:, :, None], gdofs[:, None, :]
        keys, slot = np.unique(np.where((rows >= 0) & (cols >= 0), rows * ndof + cols, -1),
                               return_inverse=True)
        # a constrained pair (key -1, first in order) sums into a dropped slot 0
        self.drop = int(keys[0] < 0)
        rows, cols = np.divmod(keys[self.drop:], ndof)
        index = np.int32 if slot.size < 2**31 else np.int64
        self.slot = slot.ravel().astype(index)
        self.indices = cols.astype(index)
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=ndof))]
                                     ).astype(index)
        self.shape = (ndof, ndof)

    def matrix(self, local: np.ndarray) -> sp.csr_array:
        """The sum of the symmetric parts of the local matrices (nt, k, k),
        exactly symmetric: an entry and its mirror sum the same halved pair
        sums in the same tet order. An entry that sums to exactly zero is
        left out, as the sparse sum A + A^T leaves it out: the P1 stiffness of
        a Kuhn mesh with a constant isotropic coefficient keeps its 7-point
        stencil."""
        values = np.bincount(self.slot, weights=(0.5 * (local + local.transpose(0, 2, 1))).ravel(),
                             minlength=self.drop + len(self.indices))[self.drop:]
        A = sp.csr_array((values, self.indices.copy(), self.indptr.copy()), shape=self.shape)
        A.eliminate_zeros()
        return A


def local_matrices(values: np.ndarray, derivatives: np.ndarray, w: np.ndarray,
                   stiff: np.ndarray, mass: np.ndarray):
    """The local stiffness and mass matrices (n, k, k) of the k local functions
    on each of n tets: D (sum_q w_q C_q) D^T of their constant derivatives
    D (n, k, 3), the stiffness coefficient C entry-major (3, 3, n * nq) and the
    weights w (n, nq); and sum_q F_q m_q F_q^T of their values F_q (k, c),
    given as (n|1, nq, k, c), and the mass coefficient m already weighted:
    (n * nq,) for scalar values, entry-major (c, c, n * nq) otherwise."""
    n, nq = w.shape
    _, _, k, c = values.shape
    moment = np.einsum("abnq,nq->nab", stiff.reshape(3, 3, n, nq), w)
    k_loc = derivatives @ moment @ derivatives.transpose(0, 2, 1)
    if values.shape[0] == 1 and c == 1:  # shared values: one table of products
        f = values[0, :, :, 0]
        return k_loc, np.einsum("nq,qkl->nkl", mass.reshape(n, nq), f[:, :, None] * f[:, None, :])
    # one batched product per point: no copy of the values in another layout
    mass = transforms.point_major(transforms.point_major(mass.reshape(c, c, n, nq)))
    return k_loc, sum((values[:, q] @ mass[:, q]) @ values[:, q].transpose(0, 2, 1)
                      for q in range(nq))


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
    points and weights per tet, the local basis (`gdofs`, the dof of each local
    function, -1 where constrained; `values`, the basis values at the rule's
    points; `derivatives`, their constant derivatives per tet), the CSR
    scatter pattern of the free dofs and the kernel basis."""

    space: Space
    mesh: Mesh
    family: object
    stiff: AffineField
    mass: AffineField

    def __post_init__(self):
        space, mesh = self.space, self.mesh
        self.quad_order = default_quad_order(self.family, self.stiff, self.mass)
        rule = tet_quadrature(self.quad_order)
        self.points = rule.points @ mesh.vertices[mesh.tets]
        self.weights = 6.0 * mesh.tet_volumes()[:, None] * rule.weights[None, :]
        free, dof_of = free_dofs(space, mesh)
        if len(free) == 0:
            raise DegenerateProblemError("every dof is constrained by the tangential boundary; "
                                         "no free dofs")
        self.gdofs = dof_of[space.entities(mesh)[0]]
        self.values = space.values(mesh, rule.points[None], slice(None))
        self.derivatives = space.derivatives(mesh)
        self.pattern = ScatterPattern(self.gdofs, len(free))
        self.kernel_basis = None if space.kernel_basis is None else space.kernel_basis(mesh)

    def coefficient_maps(self):
        """(kind, coefficient) of the stiffness and the mass, kinds looked up per call."""
        return zip(map(transforms.coefficient_kind, self.space.coefficients),
                   (self.stiff, self.mass))

    def local(self, chi, kernel):
        """The local (stiffness, mass) matrices (nt, k, k) of all tets in tet
        order, from kernel(geo, w, values, derivatives) on each block of tets:
        the map at chi at its rule points, their weights (n, nq), and its basis
        values and derivatives. A block that finds chi inadmissible reruns the
        chain over all points, which raises the one-pass error: the global
        minimum of det J, the first point at which a coefficient fails."""
        step = max(1, POINTS_PER_BLOCK // self.weights.shape[1])

        def block(tets):
            geo = transforms.map_points(self.family, chi, self.points[tets].reshape(-1, 3))
            values = self.values if len(self.values) == 1 else self.values[tets]
            return kernel(geo, self.weights[tets], values, self.derivatives[tets])

        try:
            parts = [block(slice(i, i + step)) for i in range(0, len(self.weights), step)]
        except InadmissibleParameterError:
            block(slice(None))
            raise
        return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))

    def assemble(self, chi, coefficients):
        """Stiffness and mass matrices over the free dofs of the (stiffness,
        mass) coefficient values, entry-major, that coefficients(geo) gives
        at the mapped points of each block."""
        def kernel(geo, w, values, derivatives):
            stiff, mass = coefficients(geo)
            return local_matrices(values, derivatives, w, stiff, w.ravel() * mass)

        return tuple(map(self.pattern.matrix, self.local(chi, kernel)))


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

    return Pencil(*disc.assemble(chi, coefficients), disc.quad_order, disc.kernel_basis)


def assemble_derivative(disc: Discretisation, chi_bar, direction) -> PencilDerivative:
    """Directional derivative (dK, dM) of the pencil at chi_bar."""
    def coefficients(geo):
        v = transforms.psi_on_physical(disc.family, direction, geo)
        return [kind.derivative(c, v, geo) for kind, c in disc.coefficient_maps()]

    return PencilDerivative(*disc.assemble(chi_bar, coefficients))
