"""Generalized Hermitian eigensolver with kernel deflation, resolvent,
contour-quadrature spectral projectors, subspace gaps and clustering.

``solve_pencil`` has two paths. Without a ``count`` it runs a full dense
``eigh``: the reference oracle. With a ``count`` a sparse pencil is solved
for its lowest complete clusters only, by shift-invert Lanczos (ARPACK via
``eigsh``) with the known kernel projected out. It makes two large
factorisations, one alive at a time: the shift K - sigma M, and K - mid M
inside the gap that closes the returned clusters, whose Sylvester inertia
certifies that no eigenvalue below it was missed, near-zero ones included.
A failed inertia check makes both again with more pairs. The mass M is not
factorised: assembly certifies that it is positive-definite.

Both large factorisations of a FEM pencil run in its discretisation's
nested-dissection ordering (`Pencil.ordering`), pre-permuted, with no
ordering of SuperLU's own; the kernel projector's small G^T M G, and pencils
without an ordering, take SuperLU's MMD.
"""

from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ContourError, ContractViolationError, NearSingularError, PencilError
from .fem_common import Pencil

DEFAULT_KERNEL_TOL = 1e-8
DEFAULT_CLUSTER_TOL = 1e-6
# shift-invert shift, as a fraction of -lambda_scale: below the whole
# spectrum, and far enough from 0 that the kernel components the
# projection removes stay of the size of the wanted ones
SHIFT_FRACTION = 1e-3
# eigenpairs requested beyond the count on the first Lanczos attempt
EXTRA_PAIRS = 4
# relative accuracy of the Ritz values; the Rayleigh-Ritz step on the
# returned block gives eigenvalues to round-off from vectors this accurate
LANCZOS_TOL = 1e-12


@dataclass
class EigenDecomposition:
    """Positive spectrum after deflating near-zero modes.

    ``eigenvalues`` ascending; ``eigenvectors`` columns M-orthonormal;
    ``kernel_dim`` counts the deflated modes. Index k in the paper's
    1-based numbering is ``eigenvalues[k-1]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    kernel_dim: int


@dataclass
class EigenCluster:
    """Consecutive near-degenerate eigenvalues with their eigenvector block."""

    indices: np.ndarray          # 0-based positions in the deflated spectrum
    lambda_bar: float
    vectors: np.ndarray          # (ndof, m), M-orthonormal
    width: float

    @property
    def multiplicity(self) -> int:
        return len(self.indices)


def _dense(A) -> np.ndarray:
    return A.toarray() if sp.issparse(A) else np.asarray(A)


def _dense_pencil(pencil: Pencil):
    """Dense (K, M), with M checked positive-definite."""
    M = _dense(pencil.M)
    try:
        sla.cholesky(M, lower=True)
    except sla.LinAlgError:
        raise PencilError("mass matrix is not positive-definite")
    return _dense(pencil.K), M


def _cluster_starts(vals: np.ndarray, cluster_tol: float) -> np.ndarray:
    """Indices i >= 1 where vals[i] starts a new cluster: relative gap > tol."""
    gaps = np.diff(vals) > cluster_tol * np.maximum(np.abs(vals[:-1]), 1e-300)
    return np.nonzero(gaps)[0] + 1


def _complete_end(vals: np.ndarray, count: int, cluster_tol: float) -> Optional[int]:
    """Smallest end >= count with a cluster gap before vals[end], if any."""
    starts = _cluster_starts(vals, cluster_tol)
    starts = starts[starts >= count]
    return int(starts[0]) if len(starts) else None


def _solve_dense(pencil: Pencil, kernel_tol: float) -> EigenDecomposition:
    vals, vecs = sla.eigh(*_dense_pencil(pencil))
    keep = vals >= kernel_tol * pencil.lambda_scale()
    return EigenDecomposition(vals[keep], vecs[:, keep], int(np.sum(~keep)))


class _Reordered:
    """The factor of A[order][:, order], solving with A in its own numbering."""

    def __init__(self, lu, order):
        self.lu, self.order = lu, order

    @property
    def U(self):
        return self.lu.U

    def solve(self, b):
        x = np.empty_like(b)
        x[self.order] = self.lu.solve(b[self.order])
        return x


def _ldl(A, order=None):
    """SuperLU factorisation with diagonal pivots in a symmetric ordering:
    A is factorised pre-permuted by `order` (order[i] is the row numbered
    i), with no ordering of SuperLU's own, or, without one, in SuperLU's
    MMD ordering of A + A^T.

    For symmetric A this is P A P^T = L U with U = D L^T, so the signs of
    diag(U) give the inertia of A (Sylvester).
    """
    if order is not None:
        A = A[order][:, order]
    try:
        lu = spla.splu(
            sp.csc_matrix(A),
            permc_spec="MMD_AT_PLUS_A" if order is None else "NATURAL",
            diag_pivot_thresh=0.0,
            relax=1,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise PencilError(f"symmetric factorisation failed: {exc}")
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise PencilError("symmetric factorisation left the diagonal")
    return lu if order is None else _Reordered(lu, order)


def _count_below(K, M, shift: float, order) -> int:
    """Number of eigenvalues of the pencil below shift: negative pivots of K - shift M."""
    return int(np.sum(_ldl(K - shift * M, order).U.diagonal() < 0))


def _kernel_projector(G, M):
    """M-orthogonal projector off range(G), x -> x - G (G^T M G)^-1 G^T M x,
    and the rank of G, checked by the pivots of the LDL^T of G^T M G."""
    if G is not None and not np.any(G @ np.ones(G.shape[1])):
        # every vertex is free (no tangential boundary): the constant
        # potential spans ker G, so drop one anchor column
        G = G[:, 1:]
    if G is None or G.shape[1] == 0:
        # no column: nothing to project
        return (lambda x: x), 0
    MG = M @ G
    try:
        A = _ldl(G.T @ MG)
        pivots = A.U.diagonal()
        deficient = np.any(pivots <= len(pivots) * np.finfo(float).eps * pivots.max())
    except PencilError:  # an exactly zero pivot
        deficient = True
    if deficient:
        raise PencilError("kernel basis is rank-deficient")
    GtM = sp.csr_array(MG.T)
    return (lambda x: x - G @ A.solve(GtM @ x)), G.shape[1]


def _shift_inverse(K, M, sigma, project, order):
    """The Lanczos operator x -> project((K - sigma M)^-1 x); the factor of
    K - sigma M, in the ordering `order`, lives as long as the operator."""
    solve = _ldl(K - sigma * M, order).solve
    return spla.LinearOperator(K.shape, matvec=lambda x: project(solve(x)), dtype=float)


def _solve_sparse(pencil: Pencil, kernel_tol: float, count: int, cluster_tol: float):
    """Lowest complete clusters covering `count` eigenvalues, or None when
    ARPACK would need as many pairs as the pencil has.

    One large factor is alive at a time: the shift's is kept across
    Lanczos attempts that do not converge, freed before the inertia's is
    made, and made again only when the inertia check fails."""
    K, M = pencil.K, pencil.M
    n = K.shape[0]
    # O(n) guard for hand-built pencils; assembly certifies that M is SPD
    if np.any(M.diagonal() <= 0):
        raise PencilError("mass matrix is not positive-definite")
    cut = kernel_tol * pencil.lambda_scale()
    project, rank = _kernel_projector(pencil.kernel_basis, M)
    sigma = -SHIFT_FRACTION * pencil.lambda_scale()
    opinv = None
    # fixed start vector: repeated runs give identical reports
    v0 = np.random.default_rng(0).standard_normal(n)
    k = count + EXTRA_PAIRS
    while k < n:
        if opinv is None:
            opinv = _shift_inverse(K, M, sigma, project, pencil.ordering)
        try:
            vals, vecs = spla.eigsh(
                K, k, M, sigma=sigma, which="LM", v0=v0, OPinv=opinv, tol=LANCZOS_TOL
            )
        except spla.ArpackNoConvergence:
            k *= 2
            continue
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        keep = vals >= cut
        # the kernel: range(G) and the near-zero modes the projection leaves
        # in (e.g. Helmholtz constants)
        kernel_dim = rank + int(np.sum(~keep))
        vals, vecs = vals[keep], vecs[:, keep]
        end = _complete_end(vals, count, cluster_tol)
        # a Lanczos run can miss a copy of an eigenvalue, near zero or not;
        # the inertia inside the gap counts every eigenvalue below it
        if end is not None:
            opinv = None
            mid = 0.5 * (vals[end - 1] + vals[end])
            if _count_below(K, M, mid, pencil.ordering) == kernel_dim + end:
                return _rayleigh_ritz(K, M, vecs[:, :end], kernel_dim)
        k *= 2
    return None


def _rayleigh_ritz(K, M, V, kernel_dim) -> EigenDecomposition:
    """Eigenpairs of the pencil compressed to span(V), M-orthonormal."""
    Kr, Mr = V.T @ (K @ V), V.T @ (M @ V)
    vals, Q = sla.eigh(0.5 * (Kr + Kr.T), 0.5 * (Mr + Mr.T))
    return EigenDecomposition(vals, V @ Q, kernel_dim)


def solve_pencil(
    pencil: Pencil,
    kernel_tol: float = DEFAULT_KERNEL_TOL,
    count: Optional[int] = None,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> EigenDecomposition:
    """Solve K v = lambda M v with near-zero-mode deflation.

    Eigenvalues below cut = kernel_tol * trace(K)/trace(M) are reported as
    kernel and removed from the indexed spectrum.

    count=None: full dense solve, every eigenpair (the reference oracle).
    count=c: only the lowest complete clusters (relative gap > cluster_tol
    after the last one) that cover the first c eigenvalues; all of them if
    there are no more than c. A sparse pencil is solved by shift-invert
    Lanczos below the spectrum with range(pencil.kernel_basis) projected
    out; kernel_dim is the rank of the kernel basis plus the Ritz values
    below cut, and the inertia inside the closing gap must equal kernel_dim
    plus the pairs returned. A sparse M must be symmetric positive-definite:
    it is not factorised, only its diagonal is checked. `assemble_pencil`
    certifies it (det J > 0 and every coefficient SPD at each quadrature
    point, a rule with positive weights). Dense pencils, and sparse ones
    too small for ARPACK, go through the dense path, which checks M by
    Cholesky, and are truncated the same way.
    """
    if count is None:
        return _solve_dense(pencil, kernel_tol)
    if count < 1:
        raise ContractViolationError(f"count must be >= 1, got {count}")
    if sp.issparse(pencil.K):
        dec = _solve_sparse(pencil, kernel_tol, count, cluster_tol)
        if dec is not None:
            return dec
    dec = _solve_dense(pencil, kernel_tol)
    end = _complete_end(dec.eigenvalues, count, cluster_tol)
    if end is None:
        return dec
    return EigenDecomposition(dec.eigenvalues[:end], dec.eigenvectors[:, :end], dec.kernel_dim)


def resolvent_apply(pencil: Pencil, zeta: complex, b: np.ndarray) -> np.ndarray:
    """x = (K - zeta M)^-1 M b; b may be a vector or a block of columns."""
    K, M = _dense_pencil(pencil)
    vals = sla.eigh(K, M, eigvals_only=True)
    scale = abs(pencil.lambda_scale())
    if np.min(np.abs(vals - zeta)) <= 1e-12 * scale:
        raise NearSingularError(
            f"shift {zeta} within 1e-12*lambda_scale of the spectrum"
        )
    return sla.solve(K - zeta * M, M @ b)


def riesz_projector(
    pencil: Pencil, center: float, radius: float, nquad: int = 64
) -> np.ndarray:
    """Contour-quadrature spectral projector onto eigenvalues inside the circle.

    Trapezoidal rule on the circle; converges exponentially since the
    resolvent is analytic along the contour. The result is the M-orthogonal
    projector onto the enclosed invariant subspace.
    """
    K, M = _dense_pencil(pencil)
    vals = sla.eigh(K, M, eigvals_only=True)
    if np.min(np.abs(np.abs(vals - center) - radius)) <= 1e-8 * radius:
        raise ContourError("an eigenvalue lies on (or too close to) the contour")
    n = pencil.size
    P = np.zeros((n, n), dtype=complex)
    theta = 2.0 * np.pi * np.arange(nquad) / nquad
    for t in theta:
        zeta = center + radius * np.exp(1j * t)
        A = K.astype(complex) - zeta * M
        P += np.exp(1j * t) * sla.solve(A, M.astype(complex))
    P *= -radius / nquad
    return P.real


def subspace_gap(U: np.ndarray, V: np.ndarray, M: np.ndarray = None) -> float:
    """Symmetric gap between the column spans of two M-orthonormal blocks."""
    if U.ndim == 1:
        U = U[:, None]
    if V.ndim == 1:
        V = V[:, None]
    if M is None:
        M = np.eye(U.shape[0])
    for B, name in ((U, "first"), (V, "second")):
        G = B.T @ M @ B
        if np.max(np.abs(G - np.eye(B.shape[1]))) > 1e-8:
            raise ContractViolationError(f"{name} block is not M-orthonormal")

    def delta(A, B):
        C = A.T @ M @ B
        s = sla.eigvalsh(C @ C.T)
        return float(np.sqrt(max(0.0, 1.0 - s.min())))

    return max(delta(U, V), delta(V, U))


def cluster_spectrum(
    decomposition: EigenDecomposition, cluster_tol: float = DEFAULT_CLUSTER_TOL
) -> List[EigenCluster]:
    """Maximal groups of consecutive eigenvalues with relative gap <= tol."""
    vals = decomposition.eigenvalues
    if len(vals) == 0:
        return []
    bounds = [0, *_cluster_starts(vals, cluster_tol), len(vals)]
    clusters = []
    for start, stop in zip(bounds, bounds[1:]):
        idx = np.arange(start, stop)
        clusters.append(
            EigenCluster(
                indices=idx,
                lambda_bar=float(vals[idx].mean()),
                vectors=decomposition.eigenvectors[:, idx],
                width=float(vals[idx].max() - vals[idx].min()),
            )
        )
    return clusters
