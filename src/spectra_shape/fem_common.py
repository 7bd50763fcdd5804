"""Shared finite element plumbing: element geometry, the finite-element
space, the discretisation of a problem, pencils and their assembly.

Assembly integrates over the quadrature first: the element derivatives are
constant on each tet, so the local stiffness is D (sum_q w C_q) D^T with the
per-tet moment of the coefficient, and the local mass of P1, whose values at
the rule's points are the same on every tet, is one product of the weighted
coefficient with a table of value products. `local_matrices` is that one
kernel, for the pencil, its derivative and the Hadamard forms. The global
matrices are summed into a CSR pattern computed once per discretisation,
on the entity numbering, and renumbered in place into the dissection's.
An affine family's pulled-back constant coefficient is one matrix for all
points (see `transforms`), which `local_matrices` broadcasts.

No product over the point or tet axis goes through one 2-D BLAS product
large enough for OpenBLAS to thread: such products run in einsum's own
loops (`np.einsum` without `optimize`), as stacked products of tiny per-tet
matrices, or over chunks of points far below OpenBLAS's threading size. A
threaded product wakes numpy's BLAS worker pool, whose workers then spin
beside scipy's pool (each loads its own OpenBLAS) and the main thread on
the cores the process has. Only the eigensolver (`spectral`) calls BLAS and
LAPACK at size.

The per-point chain (the rule's points and weights on the tets, the map,
the coefficients at the mapped points, the local matrices) runs over blocks
of at most `POINTS_PER_BLOCK` rule points (`Discretisation.local`), whose
local matrices are written in tet order into one array per matrix: every
sum runs in the order of one pass over all points. No array over all rule
points is kept.

Each discretisation numbers its free dofs once, in the order of a geometric
nested dissection (`nested_dissection`) that no chi changes: everything is
assembled in that numbering, and its pencils carry the dissection's
elimination tree (`DissectionTree`), for the sparse eigensolver. The tree
decides the fronts of the eigensolver's inertia count, one per node: a set
of at most `MERGED_DOFS` dofs is one node, and the fronts are read off the
discretisation's own pattern.

A pencil assembled against a `LoewnerReference`, the per-tet data of the
pencil at a reference parameter chi_bar, carries Loewner bounds between the
two (`Pencil.bounds`), which the eigensolver reads in place of counting the
inertia of an FD re-solve (see `spectral`)."""

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

# Dofs at which the nested dissection stops splitting: 16, 32 and 64 gave the
# fill 497,704, 518,760 and 596,604 of the all-T Nedelec n = 8 shift
# factor, against 692,646 under SuperLU's MMD (see README)
LEAF_DOFS = 32
# Dofs of a set that is one node of the tree, numbered by the same splits:
# the inertia count factorises fewer and larger dense fronts, to the same count
MERGED_DOFS = 128


@dataclass
class Pencil:
    """Hermitian stiffness/mass pair over the free degrees of freedom.

    FEM pencils hold CSR matrices, numbered as their elimination tree; the
    synthetic pencils hold dense arrays and no tree.
    """

    K: Matrix
    M: Matrix
    quad_order: int = 2
    # columns spanning the known part of ker K (Maxwell discrete gradients)
    kernel_basis: Optional[sp.csr_array] = None
    # the elimination tree of the nested dissection that numbers the dofs, or None
    tree: Optional["DissectionTree"] = None
    # (a-, a+, b-, b+): a- K_ref <= K <= a+ K_ref and b- M_ref <= M <= b+ M_ref
    # for the pencil of a `LoewnerReference`, or None
    bounds: Optional[Tuple[float, float, float, float]] = None

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
    A space reads only the mesh data it needs: the mesh derives its edges on
    first use, so P1 never numbers them.
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
    # mesh -> columns spanning the known part of ker K (rows as `free_dofs`), or None
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
    row * ndof + col of all pairs, in int32 while ndof^2 < 2^31."""

    def __init__(self, gdofs: np.ndarray, ndof: int):
        gdofs = gdofs.astype(np.int32 if ndof * ndof < 2**31 else np.int64)
        rows, cols = gdofs[:, :, None], gdofs[:, None, :]
        keys = (rows * ndof + cols).ravel()
        keys[((rows < 0) | (cols < 0)).ravel()] = -1
        # one sort of the keys: the slot of a pair counts the key changes
        # before it in sorted order
        by_key = np.argsort(keys)
        keys = keys[by_key]
        index = np.int32 if keys.size < 2**31 else np.int64
        new = np.empty(keys.size, bool)
        new[0] = True
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        self.slot = np.empty(keys.size, index)
        self.slot[by_key] = np.cumsum(new, dtype=index) - 1
        del by_key
        keys = keys[new]
        # a constrained pair (key -1, first in order) sums into a dropped slot 0
        self.drop = int(keys[0] < 0)
        rows, cols = np.divmod(keys[self.drop:], ndof)
        self.indices = cols.astype(index)
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=ndof))]
                                     ).astype(index)
        self.shape = (ndof, ndof)

    def renumber(self, number: np.ndarray):
        """Number dof d as number[d], a permutation of the dofs, in place: the
        pattern of the renumbered `gdofs`, array for array, from one argsort
        of the nonzeros' keys under the new numbering and a gather of `slot`.
        Each array is dropped once its renumbered one is made."""
        ndof, index = self.shape[0], self.indices.dtype
        number = number.astype(np.int32 if ndof * ndof < 2**31 else np.int64)
        keys = np.repeat(number * ndof, np.diff(self.indptr))
        keys += number[self.indices]
        self.indices = self.indptr = None
        by_key = np.argsort(keys)
        keys = keys[by_key]
        # the new slot of each nonzero; the dropped slot stays first
        slot = np.zeros(self.drop + len(keys), index)
        slot[self.drop + by_key] = np.arange(self.drop, len(slot), dtype=index)
        del by_key
        self.slot = slot[self.slot]
        rows, cols = np.divmod(keys, ndof)
        self.indices = cols.astype(index)
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=ndof))]
                                     ).astype(index)

    def matrix(self, local: np.ndarray) -> sp.csr_array:
        """The sum of the symmetric parts of the local matrices (nt, k, k),
        exactly symmetric: an entry and its mirror sum the same halved pair
        sums in the same tet order. An entry that sums to exactly zero is
        left out, as the sparse sum A + A^T leaves it out: the P1 stiffness of
        a Kuhn mesh with a constant isotropic coefficient keeps its 7-point
        stencil."""
        # one full-size temporary: the pair sums, halved in place
        halved = local + local.transpose(0, 2, 1)
        halved *= 0.5
        values = np.bincount(self.slot, weights=halved.ravel(),
                             minlength=self.drop + len(self.indices))[self.drop:]
        A = sp.csr_array((values, self.indices.copy(), self.indptr.copy()), shape=self.shape)
        A.eliminate_zeros()
        return A


def dof_positions(gdofs: np.ndarray, mesh: Mesh, ndof: int) -> np.ndarray:
    """Position (ndof, 3) of each of `ndof` dofs: the mean barycentre of the
    tets whose local functions `gdofs` (nt, k), -1 where constrained, carry it."""
    bins = gdofs.ravel() + 1  # constrained entries sum into the dropped bin 0
    centres = np.repeat(mesh.vertices[mesh.tets].mean(axis=1), gdofs.shape[1], axis=0)
    sums = [np.bincount(bins, weights=centres[:, a], minlength=ndof + 1)[1:] for a in range(3)]
    return np.stack(sums, axis=1) / np.bincount(bins, minlength=ndof + 1)[1:, None]


@dataclass(frozen=True, eq=False)
class DissectionTree:
    """The elimination tree of a nested dissection, in the pencil's numbering
    (the dissection's order), each node one front of the inertia count. Node
    i numbers the dofs bounds[i]:bounds[i+1]; the nodes come in post-order
    (the lower half's subtree, the upper half's, their separator), a set of
    at most `MERGED_DOFS` dofs is one node with no children and a separator
    has the roots of its halves' subtrees. `fronts[i]` are the later rows,
    sorted, that the dofs of node i's subtree couple to: all of them in
    ancestors' separators, and a superset of the rows of its Schur update."""

    bounds: np.ndarray
    children: Tuple[Tuple[int, ...], ...]
    fronts: Tuple[np.ndarray, ...]


def nested_dissection(positions: np.ndarray, pattern: ScatterPattern):
    """A fill-reducing ordering of the dofs, order[i] the dof numbered i, and
    its elimination tree's node ranges `bounds` and `children` (see
    `DissectionTree`).

    A set of more than `LEAF_DOFS` dofs splits at the median of its widest
    coordinate; the dofs of the upper half that couple to the lower half in
    the CSR pattern form the separator. Both halves are numbered the same
    way, the lower first, and the separator after them. Positions within
    round-off of the median go to the upper half, so that dofs on a mesh
    plane through it stay together in the separator. A set of at most
    `MERGED_DOFS` dofs is one node, numbered by the same splits: the count's
    dense fronts are fewer and larger, and the numbering does not change."""
    indptr, indices = pattern.indptr, pattern.indices
    lower = np.zeros(len(positions), dtype=bool)
    order, sizes, children = [], [], []

    def number(dofs, nodes):
        """Number `dofs` by their splits after those numbered so far; with
        `nodes`, add their subtree to the tree and return its root."""
        size, split, kids = len(dofs), nodes and len(dofs) > MERGED_DOFS, ()
        if size > LEAF_DOFS:
            x = positions[dofs]
            extent = x.max(axis=0) - x.min(axis=0)
            axis = np.argmax(extent)
            below = x[:, axis] < np.median(x[:, axis]) - 1e-9 * extent[axis]
            if below.any():
                low, high = dofs[below], dofs[~below]
                # does any entry of a row of the upper half lie in the lower half
                starts, lengths = indptr[high], indptr[high + 1] - indptr[high]
                firsts = np.cumsum(lengths) - lengths
                entries = np.arange(lengths.sum()) + np.repeat(starts - firsts, lengths)
                lower[low] = True
                separator = np.logical_or.reduceat(lower[indices[entries]], firsts)
                lower[low] = False
                kids = (number(low, split), number(high[~separator], split))
                dofs = high[separator]
        order.append(dofs)
        if nodes:
            sizes.append(len(dofs) if split else size)
            children.append(kids if split else ())
            return len(children) - 1

    number(np.arange(len(positions)), True)
    return np.concatenate(order), np.cumsum([0] + sizes), tuple(children)


def _fronts(bounds, children, pattern):
    """The later rows each node's subtree couples to, in the pattern's
    numbering (the tree's): those of the node's own rows and of its
    children's fronts."""
    indptr, indices = pattern.indptr, pattern.indices
    fronts = []
    for node, kids in enumerate(children):
        a, b = bounds[node], bounds[node + 1]
        rows = np.unique(np.concatenate([indices[indptr[a]:indptr[b]]]
                                        + [fronts[k] for k in kids]))
        fronts.append(rows[rows >= b])
    return tuple(fronts)


def local_matrices(values: np.ndarray, derivatives: np.ndarray, w: np.ndarray,
                   stiff: np.ndarray, mass: np.ndarray, moments: bool = False):
    """The local stiffness and mass matrices (n, k, k) of the k local functions
    on each of n tets: D (sum_q w_q C_q) D^T of their constant derivatives
    D (n, k, 3), the stiffness coefficient C entry-major (3, 3, n * nq) and the
    weights w (n, nq); and sum_q F_q m_q F_q^T of their values F_q (k, c),
    given as (n|1, nq, k, c), and the mass coefficient m already weighted:
    (n * nq,) for scalar values, entry-major (c, c, n * nq) otherwise. A
    stiffness coefficient of one column (3, 3, 1), one matrix at every point,
    is copied to each point: the moment's sum over a stride-0 stack rounds
    otherwise than over a contiguous one. With `moments`, the moments
    sum_q w_q C_q (n, 3, 3) come third."""
    n, nq = w.shape
    _, _, k, c = values.shape
    stiff = np.ascontiguousarray(np.broadcast_to(stiff, (3, 3, n * nq)))
    moment = np.einsum("abnq,nq->nab", stiff.reshape(3, 3, n, nq), w)
    k_loc = derivatives @ moment @ derivatives.transpose(0, 2, 1)
    if values.shape[0] == 1 and c == 1:  # shared values: one table of products
        f = values[0, :, :, 0]
        m_loc = np.einsum("nq,qkl->nkl", mass.reshape(n, nq), f[:, :, None] * f[:, None, :])
    else:
        # one batched product per point: no copy of the values in another layout
        mass = transforms.point_major(transforms.point_major(mass.reshape(c, c, n, nq)))
        m_loc = sum((values[:, q] @ mass[:, q]) @ values[:, q].transpose(0, 2, 1)
                    for q in range(nq))
    return (k_loc, m_loc, moment) if moments else (k_loc, m_loc)


def default_quad_order(family, *coefficients) -> int:
    """Order 2 when the family's field g is affine and every coefficient is
    constant (its gradient G is zero), order 4 otherwise."""
    if family.affine and all(c.constant for c in coefficients):
        return 2
    return 4


@dataclass(eq=False, repr=False)
class Discretisation:
    """A problem discretised on the reference mesh: the space, the mesh, the
    family and the (stiffness, mass) coefficients, with the data that no chi
    changes computed once from one tet rule (`rule`): the quadrature order,
    the local basis (`gdofs`, the dof of each local function, -1 where
    constrained; `values`, the basis values at the rule's points; `derivatives`,
    their constant derivatives per tet), the CSR scatter pattern of the free
    dofs and the kernel basis, all with the free dofs numbered in the order
    of their nested dissection, from the mean barycentre of the tets that
    carry each dof, whose elimination tree is `tree`. The rule's physical
    points and weights are formed per block of tets (`points`, `weights`),
    not kept."""

    space: Space
    mesh: Mesh
    family: object
    stiff: AffineField
    mass: AffineField

    def __post_init__(self):
        space, mesh = self.space, self.mesh
        self.quad_order = default_quad_order(self.family, self.stiff, self.mass)
        self.rule = rule = tet_quadrature(self.quad_order)
        free, dof_of = free_dofs(space, mesh)
        if len(free) == 0:
            raise DegenerateProblemError("every dof is constrained by the tangential boundary; "
                                         "no free dofs")
        entities = space.entities(mesh)[0]
        gdofs = dof_of[entities]
        self.pattern = ScatterPattern(gdofs, len(free))
        order, bounds, children = nested_dissection(dof_positions(gdofs, mesh, len(free)),
                                                    self.pattern)
        del gdofs
        # in the dissection's order: dof order[i] is numbered i
        number = np.empty_like(order)
        number[order] = np.arange(len(free))
        self.pattern.renumber(number)
        dof_of[free] = number
        self.gdofs = dof_of[entities]
        self.values = space.values(mesh, rule.points[None], slice(None))
        self.derivatives = space.derivatives(mesh)
        self.tree = DissectionTree(bounds, children, _fronts(bounds, children, self.pattern))
        self.kernel_basis = (None if space.kernel_basis is None
                             else space.kernel_basis(mesh)[order])

    def coefficient_maps(self):
        """(kind, coefficient) of the stiffness and the mass, kinds looked up per call."""
        return zip(map(transforms.coefficient_kind, self.space.coefficients),
                   (self.stiff, self.mass))

    def points(self, tets=slice(None)) -> np.ndarray:
        """The rule's physical points (n, nq, 3) on the tets `tets` (all by default)."""
        return self.rule.points @ self.mesh.vertices[self.mesh.tets[tets]]

    def weights(self, tets=slice(None)) -> np.ndarray:
        """The rule's weights (n, nq) that integrate over the tets `tets`."""
        return 6.0 * self.mesh.tet_volumes(tets)[:, None] * self.rule.weights

    def local(self, chi, kernel, *per_tet):
        """The local (stiffness, mass) matrices (nt, k, k) of all tets in tet
        order, from kernel(geo, w, values, derivatives, *per_tet) on each block
        of tets: the map at chi at its rule points, their weights (n, nq), its
        basis values and derivatives and its rows of the arrays `per_tet`,
        written into one array per matrix allocated when the first block
        returns. The first block that finds chi
        inadmissible raises, at its first point that fails (see `map_points`)."""
        nt, step = len(self.mesh.tets), max(1, POINTS_PER_BLOCK // len(self.rule.weights))
        out = None
        for start in range(0, nt, step):
            tets = slice(start, start + step)
            geo = transforms.map_points(self.family, chi, self.points(tets).reshape(-1, 3))
            values = self.values if len(self.values) == 1 else self.values[tets]
            parts = kernel(geo, self.weights(tets), values, self.derivatives[tets],
                           *(a[tets] for a in per_tet))
            if out is None:
                out = tuple(np.empty((nt,) + a.shape[1:], a.dtype) for a in parts)
            for o, a in zip(out, parts):
                o[tets] = a
        return out

    def assemble(self, chi, coefficients, reference=None):
        """Stiffness and mass matrices over the free dofs of the (stiffness,
        mass) coefficient values, entry-major, that coefficients(geo) gives
        at the mapped points of each block, and the Loewner bounds of their
        per-tet moments and local masses against a `LoewnerReference`, block
        by block (None without one or without its factors)."""
        def kernel(geo, w, values, derivatives, *factors):
            stiff, mass = coefficients(geo)
            mass = w.ravel() * mass
            parts = local_matrices(values, derivatives, w, stiff, mass, moments=bool(factors))
            if not factors:
                return parts
            k_loc, m_loc, moment = parts
            return k_loc, m_loc, *_loewner_ends(factors, moment, m_loc, mass)

        factors = () if reference is None else reference.factors
        k_loc, m_loc, *ends = self.local(chi, kernel, *factors)
        bounds = reference.bounds(*ends) if ends else None
        return self.pattern.matrix(k_loc), self.pattern.matrix(m_loc), bounds


def _pulled_back(disc: Discretisation, chi):
    """geo -> the pulled-back (stiffness, mass) coefficients of the
    discretisation at chi at the mapped points `geo`, each non-constant
    coefficient checked positive-definite there."""
    def coefficients(geo):
        for name, c in zip(disc.space.coefficients, (disc.stiff, disc.mass)):
            i = None if c.constant else transforms.first_not_positive(c.value(geo.y))
            if i is not None:
                raise InadmissibleParameterError(
                    f"coefficient {name!r} is not positive-definite at parameter {chi} "
                    f"(mapped point {geo.y[i].tolist()})")
        return [kind.pull_back(c, geo) for kind, c in disc.coefficient_maps()]

    return coefficients


def _inverse_cholesky(X: np.ndarray) -> np.ndarray:
    """The inverses W (n, k, k) of the Cholesky factors of the symmetric
    matrices X (n, k, k), W X W^T = I; a pivot that is not positive raises
    `np.linalg.LinAlgError`. Entry by entry over all n at once: numpy's
    stacked `cholesky` and `inv` make one LAPACK call per matrix, 4 to 9
    times slower on stacks of 1296 to 6000 matrices of 3 x 3 to 6 x 6
    (2 vCPUs)."""
    k = X.shape[1]
    x = np.ascontiguousarray(X.transpose(1, 2, 0))
    L = np.zeros_like(x)
    for j in range(k):
        pivot = x[j, j] - (L[j, :j] ** 2).sum(0)
        if not np.all(pivot > 0):
            raise np.linalg.LinAlgError("a local matrix is not positive-definite")
        L[j, j] = np.sqrt(pivot)
        L[j + 1:, j] = (x[j + 1:, j] - (L[j + 1:, :j] * L[j, :j]).sum(1)) / L[j, j]
    W = np.zeros_like(x)
    for i in range(k):
        W[i, i] = 1.0 / L[i, i]
        W[i, :i] = -(L[i, :i, None] * W[:i, :i]).sum(0) / L[i, i]
    return np.ascontiguousarray(W.transpose(2, 0, 1))


def _ends(W: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The least left and the largest right end (n, 2) of the Gershgorin
    discs of each W sym(X) W^T, W and X (n, k, k): every eigenvalue of it
    lies between them."""
    A = W @ transforms._sym(X) @ W.transpose(0, 2, 1)
    d = np.diagonal(A, axis1=1, axis2=2)
    r = np.abs(A).sum(axis=2) - np.abs(d)
    return np.stack([(d - r).min(axis=1), (d + r).max(axis=1)], axis=1)


def _loewner_ends(factors, moment: np.ndarray, m_loc: np.ndarray, mass: np.ndarray):
    """The Gershgorin ends (`_ends`, (n, 2) each) of the tets' stiffness
    moments and local masses against the reference `factors`
    (`LoewnerReference`). A scalar mass, weighted at the points (n * nq,),
    gives local masses sum_q mass_q F_q F_q^T, positive combinations of the
    same rank-one terms at every chi: the least and largest ratio of its
    values to the reference's bound them, with no product."""
    W_stiff, mass_ref = factors
    if mass.ndim == 1:
        ratio = mass.reshape(mass_ref.shape) / mass_ref
        return _ends(W_stiff, moment), np.stack([ratio.min(axis=1), ratio.max(axis=1)], axis=1)
    return _ends(W_stiff, moment), _ends(mass_ref, m_loc)


class LoewnerReference:
    """The per-tet data at chi_bar that bounds a discretisation's pencil at
    any chi against its pencil at chi_bar in the Loewner order (`bounds`).

    K(chi) = sum_t D_t C_t D_t^T with the stiffness moments C_t = sum_q w_q C_q
    (3 x 3) and M(chi) = sum_t m_t with the local masses m_t (k x k), each
    scattered to the free dofs; only C_t and m_t depend on chi. So
    a- C_t(chi_bar) <= C_t <= a+ C_t(chi_bar) and the same of m_t with b-, b+
    on every tet give a- K(chi_bar) <= K <= a+ K(chi_bar) and the same of M,
    and by Courant-Fischer lambda_i(chi) >= (a- / b+) lambda_i(chi_bar) for
    every i, the kernel included.

    The reference keeps, of the symmetric parts X of C_t and m_t at chi_bar
    (what assembly sums), the inverses W of their Cholesky factors, or of a
    scalar mass its weighted values at the points (`factors`), and the
    Gershgorin enclosure (lo, hi) of all W X W^T, the identity up to
    round-off. It is one pass of `Discretisation.local` at chi_bar that
    scatters nothing and keeps no other per-tet array; `factors` is empty
    where a factorisation fails or an enclosure is not positive, and then
    no bounds are given."""

    def __init__(self, disc: Discretisation, chi_bar):
        coefficients = _pulled_back(disc, chi_bar)

        def kernel(geo, w, values, derivatives):
            stiff, mass = coefficients(geo)
            mass = w.ravel() * mass
            _, m_loc, moment = local_matrices(values, derivatives, w, stiff, mass, moments=True)
            factors = (_inverse_cholesky(transforms._sym(moment)),
                       mass.reshape(w.shape) if mass.ndim == 1
                       else _inverse_cholesky(transforms._sym(m_loc)))
            return *factors, *_loewner_ends(factors, moment, m_loc, mass)

        try:
            W_stiff, mass_ref, *ends = disc.local(chi_bar, kernel)
        except np.linalg.LinAlgError:
            self.factors = ()
            return
        self.enclosures = [(float(e[:, 0].min()), float(e[:, 1].max())) for e in ends]
        usable = min(lo for lo, _ in self.enclosures) > 0.0
        self.factors = (W_stiff, mass_ref) if usable else ()

    def bounds(self, stiff_ends: np.ndarray, mass_ends: np.ndarray):
        """(a-, a+, b-, b+) from the Gershgorin ends (`_ends`) of the
        stiffness moments and local masses of all tets at some chi against
        `factors`: every generalised eigenvalue of a tet's pair (X, X_ref)
        lies in [g- / hi, g+ / lo], g- the least and g+ the largest end; a-
        and b- are at least 0. Rigorous up to the round-off of the products,
        of the order of eps times cond(X_ref)."""
        out = ()
        for ends, (lo, hi) in zip((stiff_ends, mass_ends), self.enclosures):
            out += (max(float(ends[:, 0].min()), 0.0) / hi, float(ends[:, 1].max()) / lo)
        return out


def assemble_pencil(disc: Discretisation, chi, reference: Optional[LoewnerReference] = None
                    ) -> Pencil:
    """Pencil (K, M) of the discretisation at transformation parameter chi,
    with its Loewner bounds against a `reference` (see `Pencil.bounds`).

    M is certified positive-definite: `map_points` checks that det J is
    finite and > 0 at every quadrature point, each non-constant
    coefficient is checked positive-definite at every mapped quadrature
    point (the constant ones are checked when the config is read); the tet
    rules have positive weights and are unisolvent for the local bases. A
    failure makes chi inadmissible."""
    K, M, bounds = disc.assemble(chi, _pulled_back(disc, chi), reference)
    return Pencil(K, M, disc.quad_order, disc.kernel_basis, disc.tree, bounds)


def assemble_derivative(disc: Discretisation, chi_bar, direction) -> PencilDerivative:
    """Directional derivative (dK, dM) of the pencil at chi_bar."""
    def coefficients(geo):
        v = transforms.psi_on_physical(disc.family, direction, geo)
        return [kind.derivative(c, v, geo) for kind, c in disc.coefficient_maps()]

    dK, dM, _ = disc.assemble(chi_bar, coefficients)
    return PencilDerivative(dK, dM)
