"""Generalized Hermitian eigensolver with kernel deflation, resolvent,
contour-quadrature spectral projectors, subspace gaps and clustering.

``solve_pencil`` has two paths. Without a ``count`` it runs a full dense
``eigh``: the reference oracle. With a ``count`` a sparse pencil is solved
for its lowest complete clusters only, by shift-invert Lanczos (ARPACK via
``eigsh``) with the known kernel projected out. It keeps one large factor,
SuperLU's of the shift K - sigma M, and counts the Sylvester inertia of
K - mid M inside the gap that closes the returned clusters, which certifies
that no eigenvalue below it was missed, near-zero ones included. A failed
inertia check factorises the shift again and runs with more pairs. The mass
M is not factorised: assembly certifies that it is positive-definite.

An FD re-solve skips the count when Loewner bounds prove it unnecessary:
its pencil carries bounds against the pencil of a reference solve
(`Pencil.bounds`, see `fem_common.LoewnerReference`), and
lambda_i >= (a- / b+) lambda_i(reference) for every i then puts the next
eigenvalue more than `cluster_tol` above the run's last Ritz value
(`_bounded_below`). A run the bounds do not prove is counted.

A FEM pencil is numbered by its discretisation's nested dissection and
carries that dissection's elimination tree (`Pencil.tree`): its shift is
factorised as it is numbered, with no ordering of SuperLU's own, and its
inertia is counted by a multifrontal pass that keeps no factor, one front
per node of the tree as the tree gives it: Bunch-Kaufman on each front's
pivot block, the Schur update passed to the parent and dropped once added,
and no SuperLU factor alive meanwhile. A pencil without a tree factorises
its shift in SuperLU's MMD ordering and counts from SuperLU's pivots in
that ordering, as does a tree with a pivot block that is exactly singular;
the kernel projector's small G^T M G takes MMD as well.

Dense products at size run in scipy's LAPACK and BLAS (`lapack.dsysv`,
`blas.dgemm`), never through numpy's `@`: a product large enough to thread
wakes numpy's BLAS pool beside scipy's (see `fem_common`).
"""

from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import scipy.linalg as sla
from scipy.linalg import blas, lapack
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
# relative margin of the Loewner bounds' certificate: it covers the round-off
# of the bounds and the error of the reference's Ritz values
BOUNDS_MARGIN = 1e-8


@dataclass
class EigenDecomposition:
    """Positive spectrum after deflating near-zero modes.

    ``eigenvalues`` ascending; ``eigenvectors`` columns M-orthonormal;
    ``kernel_dim`` counts the deflated modes. Index k in the paper's
    1-based numbering is ``eigenvalues[k-1]``. A sparse solve records the
    check that certified it, ``"count"`` (the gap inertia) or ``"bounds"``
    (`_bounded_below`), and the point below which that check found every
    eigenvalue; both are None on the dense path.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    kernel_dim: int
    certificate: Optional[str] = None
    certified_below: Optional[float] = None


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


def _ldl(A, natural=False):
    """SuperLU factorisation with diagonal pivots in a symmetric ordering:
    A's own numbering when `natural` (a pencil numbered by its nested
    dissection), else SuperLU's MMD ordering of A + A^T.

    For symmetric A this is P A P^T = L U with U = D L^T, so the signs of
    diag(U) give the inertia of A (Sylvester).
    """
    try:
        lu = spla.splu(
            sp.csc_matrix(A),
            permc_spec="NATURAL" if natural else "MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            relax=1,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise PencilError(f"symmetric factorisation failed: {exc}")
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise PencilError("symmetric factorisation left the diagonal")
    return lu


def _negatives(ldu, ipiv) -> int:
    """Negative eigenvalues of the block-diagonal D of a Bunch-Kaufman
    factorisation (`dsytrf` or `dsysv`, lower): a 1x1 block where ipiv > 0,
    a 2x2 block on each pair of consecutive negative entries."""
    d = ldu.diagonal()
    first = np.flatnonzero(ipiv < 0)[::2]
    a, b, e = d[first], d[first + 1], ldu[first + 1, first]
    det = a * b - e * e
    return int(np.count_nonzero(d[ipiv > 0] < 0) + np.count_nonzero(det < 0)
               + 2 * np.count_nonzero((det > 0) & (a + b < 0)))


def _count_on_tree(A, tree) -> Optional[int]:
    """Negative eigenvalues of the symmetric A, numbered as its `tree`, by a
    multifrontal LDL^T that keeps no factor, or None when a pivot block is
    exactly singular.

    One front per node of the tree, in its post-order: node i's front, over
    its pivots bounds[i]:bounds[i+1] and its `tree.fronts` rows, takes A's
    entries and its children's Schur updates (extend-add); its pivot block
    is factorised by Bunch-Kaufman, whose D has the block's negative
    eigenvalues, and the update F22 - F21 F11^-1 F12 goes to the parent. A
    child's update is dropped once added; every dense product runs in
    scipy's LAPACK and BLAS."""
    A = sp.csr_array(A)
    indptr, indices, data = A.indptr, A.indices, A.data
    bounds, fronts = tree.bounds, tree.fronts
    updates, negatives = {}, 0
    for node, (kids, rows) in enumerate(zip(tree.children, fronts)):
        a, b = bounds[node], bounds[node + 1]
        p, u = b - a, len(rows)
        F11, F12, F22 = (np.zeros(shape, order="F") for shape in ((p, p), (p, u), (u, u)))
        # the front's rows of A from its first pivot's column on (the entries
        # left of them were added by the fronts below)
        r = np.repeat(np.arange(p), np.diff(indptr[a:b + 1]))
        c, v = indices[indptr[a]:indptr[b]], data[indptr[a]:indptr[b]]
        pivot, later = (c >= a) & (c < b), c >= b
        F11[r[pivot], c[pivot] - a] = v[pivot]
        F12[r[later], np.searchsorted(rows, c[later])] = v[later]
        for kid in kids:
            # a child's rows: some of the node's pivots, then later rows
            kid_rows, update = fronts[kid], updates.pop(kid)
            k = np.searchsorted(kid_rows, b)
            i, j = kid_rows[:k] - a, np.searchsorted(rows, kid_rows[k:])
            F11[np.ix_(i, i)] += update[:k, :k]
            F12[np.ix_(i, j)] += update[:k, k:]
            F22[np.ix_(j, j)] += update[k:, k:]
        if p:
            # Bunch-Kaufman factor of F11 and X = F11^-1 F12 in one call
            ldu, ipiv, X, info = lapack.dsysv(F11, F12, lower=1, lwork=64 * p, overwrite_a=1)
            if info > 0:
                return None
            negatives += _negatives(ldu, ipiv)
            if u:
                F22 = blas.dgemm(-1.0, F12, X, beta=1.0, c=F22, trans_a=1, overwrite_c=1)
        updates[node] = F22
    return negatives


def _count_below(K, M, shift: float, tree=None) -> int:
    """Number of eigenvalues of the pencil below shift: the negative
    eigenvalues of K - shift M (Sylvester), counted on the elimination tree
    the pencil is numbered by when there is one and no pivot block of it is
    exactly singular, from SuperLU's pivots in MMD ordering otherwise."""
    A = K - shift * M
    if tree is not None:
        count = _count_on_tree(A, tree)
        if count is not None:
            return count
    return int(np.sum(_ldl(A).U.diagonal() < 0))


def _kernel_projector(G, M):
    """M-orthogonal projector off range(G), x -> x - G (G^T M G)^-1 G^T M x,
    and the rank of G, checked by the pivots of the LDL^T of G^T M G. The
    projector keeps the checked factor; the copy of U that its pivots are
    read through is dropped."""
    if G is None or G.shape[1] == 0:
        # no column: nothing to project
        return (lambda x: x), 0
    MG = M @ G
    try:
        lu = _ldl(G.T @ MG)
        pivots = lu.U.diagonal()
        deficient = np.any(pivots <= len(pivots) * np.finfo(float).eps * pivots.max())
    except PencilError:  # an exactly zero pivot
        deficient = True
    if deficient:
        raise PencilError("kernel basis is rank-deficient")
    solve, GtM = lu.solve, sp.csr_array(MG.T)
    return (lambda x: x - G @ solve(GtM @ x)), G.shape[1]


def _shift_inverse(K, M, sigma, project, natural):
    """The Lanczos operator x -> project((K - sigma M)^-1 x); the factor of
    K - sigma M (see `_ldl`) lives as long as the operator."""
    solve = _ldl(K - sigma * M, natural).solve
    return spla.LinearOperator(K.shape, matvec=lambda x: project(solve(x)), dtype=float)


def _bounded_below(pencil: Pencil, reference: Optional[EigenDecomposition],
                   dec: EigenDecomposition, cluster_tol: float) -> Optional[float]:
    """The point below which the Loewner bounds of `pencil` against the
    pencil of the `reference` solve prove that `dec` holds every eigenvalue,
    with none within `cluster_tol` above its last; None where they do not.

    With N = kernel_dim + end pairs found and an equal kernel, the
    reference's eigenvalue after them, or its certified point, is a lower
    bound t_ref on lambda_N+1 of the reference pencil, so
    lambda_N+1 >= (a- / b+) t_ref (Courant-Fischer, see
    `fem_common.LoewnerReference`). The N values found are upper bounds on
    lambda_1..N (Poincare); so when the largest, times 1 + cluster_tol, lies
    below that bound, less `BOUNDS_MARGIN`, no eigenvalue was missed."""
    if pencil.bounds is None or reference is None or dec.kernel_dim != reference.kernel_dim:
        return None
    end = len(dec.eigenvalues)
    t_ref = (reference.eigenvalues[end] if end < len(reference.eigenvalues)
             else reference.certified_below)
    if t_ref is None:
        return None
    a_lower, _, _, b_upper = pencil.bounds
    below = a_lower / b_upper * t_ref * (1.0 - BOUNDS_MARGIN)
    return below if dec.eigenvalues[-1] * (1.0 + cluster_tol) < below else None


def _solve_sparse(pencil: Pencil, kernel_tol: float, count: int, cluster_tol: float,
                  reference: Optional[EigenDecomposition]):
    """Lowest complete clusters covering `count` eigenvalues, or None when
    ARPACK would need as many pairs as the pencil has. A run is certified by
    the Loewner bounds against the `reference` solve where they prove it,
    else by the gap inertia.

    One large factor is alive at a time: the shift's is kept across
    Lanczos attempts that do not converge, freed before the inertia is
    counted, and made again only when the inertia check fails."""
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
            opinv = _shift_inverse(K, M, sigma, project, pencil.tree is not None)
        try:
            vals, vecs = spla.eigsh(
                K, k, M, sigma=sigma, which="LM", v0=v0, OPinv=opinv, tol=LANCZOS_TOL
            )
        except spla.ArpackNoConvergence:
            k *= 2
            continue
        ascending = np.argsort(vals)
        vals, vecs = vals[ascending], vecs[:, ascending]
        keep = vals >= cut
        # the kernel: range(G) and the near-zero modes the projection leaves
        # in (e.g. Helmholtz constants)
        kernel_dim = rank + int(np.sum(~keep))
        vals, vecs = vals[keep], vecs[:, keep]
        end = _complete_end(vals, count, cluster_tol)
        # a Lanczos run can miss a copy of an eigenvalue, near zero or not;
        # the bounds prove that it did not, or the inertia inside the gap
        # counts every eigenvalue below it
        if end is not None:
            dec = _rayleigh_ritz(K, M, vecs[:, :end], kernel_dim)
            below = _bounded_below(pencil, reference, dec, cluster_tol)
            if below is not None:
                dec.certificate, dec.certified_below = "bounds", below
                return dec
            opinv = None
            mid = 0.5 * (vals[end - 1] + vals[end])
            if _count_below(K, M, mid, pencil.tree) == kernel_dim + end:
                dec.certificate, dec.certified_below = "count", mid
                return dec
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
    reference: Optional[EigenDecomposition] = None,
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
    plus the pairs returned, unless `pencil.bounds` against the pencil of
    the `reference` solve prove that none was missed (`_bounded_below`). A
    sparse M must be symmetric positive-definite:
    it is not factorised, only its diagonal is checked. `assemble_pencil`
    certifies it (det J finite and > 0 and every coefficient SPD at each
    quadrature point, a rule with positive weights). Dense pencils, and
    sparse ones too small for ARPACK, go through the dense path, which
    checks M by Cholesky, and are truncated the same way.
    """
    if count is None:
        return _solve_dense(pencil, kernel_tol)
    if count < 1:
        raise ContractViolationError(f"count must be >= 1, got {count}")
    if sp.issparse(pencil.K):
        dec = _solve_sparse(pencil, kernel_tol, count, cluster_tol, reference)
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
