"""Configuration-driven driver.

Builds meshes, assembles pencils, solves spectra, computes every derivative
route (pencil-derivative, volume-form, surface-form), runs finite-difference
cross-checks with branch tracking, and emits machine-readable JSON reports.
"""

import datetime
import json
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np
import scipy.linalg as sla

from . import hadamard, helmholtz, maxwell, transforms
from .errors import (
    ConfigError,
    ContractViolationError,
    InadmissibleParameterError,
    NonFiniteReportError,
)
from .fem_common import Discretisation, LoewnerReference, Pencil, PencilDerivative
from .geometry import Mesh, build_box_mesh, load_mesh
from .perturbation import elementary_symmetric, rellich_matrix, trace_formula
from .spectral import (
    DEFAULT_CLUSTER_TOL,
    DEFAULT_KERNEL_TOL,
    EigenCluster,
    EigenDecomposition,
    cluster_spectrum,
    solve_pencil,
)
from .transforms import _POSITIVE, AffineField, spec_kind, spec_value

SCHEMA_VERSION = 1

# the finite-element space of each FEM problem; its (stiffness, mass)
# coefficient kinds name the config keys that the problem reads
_SPACES = {"helmholtz": helmholtz.P1, "maxwell": maxwell.NEDELEC}
_PROBLEMS = (*_SPACES, "abstract-pencil")

MAX_DOFS = 200_000
# an abstract pencil is dense: at 2,000 dofs `dshape` and `verify` peak at 0.8 GB
MAX_DENSE_DOFS = 2_000

# spec_value arguments of each config key besides "problem"
_FIELDS = dict(
    mesh=dict(of=dict), family=dict(of=dict), coefficients=dict(of=dict),
    abstract=dict(of=dict), chi_bar={}, direction={}, surface_form_trusted=dict(of=bool),
    kernel_tol=dict(low=_POSITIVE), cluster_tol=dict(low=_POSITIVE),
    fd_step=dict(low=_POSITIVE), fd_steps=dict(shape=(None,), low=_POSITIVE),
    index_range=dict(of=int, shape=(2,), low=1), refinement=dict(of=int, shape=(None,), low=1),
    output=dict(of=str),
)


class MeshSpec(NamedTuple):
    """A checked mesh spec: a mesh file at `path`, or a box of `dims` with
    `n` cells per side and a face `partition` ('T', 'N' or an object over
    the six faces; `build_box_mesh` checks the faces and letters)."""

    type: str
    path: Optional[str]
    dims: tuple
    n: int
    partition: object


def mesh_spec(spec: dict) -> MeshSpec:
    """The `MeshSpec` of a config's mesh object; an absent key takes the
    default of a unit box with n = 4 and every face 'T'."""
    kind = spec_kind(spec, "type", "mesh type",
                     {"box": ("dims", "n", "partition"), "file": ("path",)}, "box")
    return MeshSpec(
        kind,
        spec_value(spec, "path", of=str, name="mesh path") if kind == "file" else None,
        tuple(spec_value(spec, "dims", [1.0, 1.0, 1.0], shape=(3,), name="mesh dims").tolist()),
        spec_value(spec, "n", 4, of=int, low=1, name="mesh n"),
        spec_value(spec, "partition", "T", of=(str, dict), name="mesh partition"))


@dataclass
class RunConfig:
    """Run configuration with deterministic defaults. `from_dict` checks
    the top-level values; `build_problem` reads the nested specs."""

    problem: str
    mesh: dict = field(default_factory=lambda: {"type": "box"})
    family: dict = field(default_factory=lambda: {"kind": "scaling"})
    coefficients: dict = field(default_factory=dict)
    chi_bar: float = 0.0
    direction: float = 1.0
    index_range: tuple = (1, 1)
    kernel_tol: float = DEFAULT_KERNEL_TOL
    cluster_tol: float = DEFAULT_CLUSTER_TOL
    fd_step: float = 1e-4
    fd_steps: tuple = (1e-3, 5e-4, 2.5e-4)
    refinement: tuple = (3, 4, 6)
    surface_form_trusted: bool = True
    abstract: dict = field(default_factory=dict)
    output: Optional[str] = None
    # the top-level keys of the config read by `from_dict`, not a config key
    keys: frozenset = frozenset()

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - set(_FIELDS) - {"problem"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        problem = spec_value(raw, "problem", of=str)
        if problem not in _PROBLEMS:
            raise ConfigError(f"problem must be one of {_PROBLEMS}, got {problem!r}")
        cfg = cls(problem=problem, keys=frozenset(raw))
        for key, kwargs in _FIELDS.items():
            if key in raw:
                value = spec_value(raw, key, **kwargs)
                # an array becomes a tuple of Python numbers
                setattr(cfg, key, tuple(value.tolist()) if "shape" in kwargs else value)
        lo, hi = cfg.index_range
        if lo > hi:
            raise ConfigError(f"index_range needs lo <= hi, got {list(cfg.index_range)}")
        return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    return RunConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# the problem
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Problem:
    """One configured eigenvalue problem, made by `build_problem`: the config,
    the mesh, and the per-problem routes with the mesh, the family and the
    (stiffness, mass) coefficients bound in. An abstract pencil has no mesh
    (None), no volume or surface form and no Loewner reference. The solution
    at chi_bar is computed once, on first use, and so are the Loewner
    reference at chi_bar and each solve of `solve_at`."""

    cfg: RunConfig
    mesh: Optional[Mesh]
    assemble: Callable[..., Pencil]            # (chi, reference=None) -> pencil
    derivative: Callable[[], PencilDerivative]
    volume_form: Optional[Callable] = None     # clusters -> matrices
    surface_form: Optional[Callable] = None    # clusters -> matrices
    # () -> the Loewner reference at chi_bar, made by the first FD solve: a
    # problem that makes none holds none
    reference: Callable[[], Optional[LoewnerReference]] = lambda: None
    solves: dict = field(default_factory=dict)  # (chi, count) -> EigenDecomposition

    @cached_property
    def solution(self) -> Tuple[Pencil, EigenDecomposition, List[EigenCluster]]:
        """Pencil at chi_bar, its solve up to index_range[1] and the clusters
        that overlap index_range, the only clusters any command reports:
        every command's one chi_bar solve, which refuses an index_range past
        what it can return before solving and past what it computed after."""
        cfg = self.cfg
        pencil = assemble_at(self, cfg.chi_bar)
        check_solvable_index_range(cfg, pencil)
        dec = solve_pencil(pencil, cfg.kernel_tol, count=cfg.index_range[1],
                           cluster_tol=cfg.cluster_tol)
        check_index_range(cfg, len(dec.eigenvalues))
        lo, hi = cfg.index_range
        return pencil, dec, [c for c in cluster_spectrum(dec, cfg.cluster_tol)
                             if c.indices[-1] + 1 >= lo and c.indices[0] + 1 <= hi]


def build_problem(cfg: RunConfig) -> Problem:
    """The `Problem` of `cfg`: the only reader of the problem kind and the nested
    specs, all checked before a mesh is built; a top-level spec that the problem
    does not read, and a box of more than MAX_DOFS dofs, are refused unbuilt.
    Each coefficient is checked positive at the mesh vertices mapped by
    Phi_chi_bar. Its one `Discretisation` is built here and bound into its
    routes; the per-problem functions are looked up here, not at import, so
    that a wrapper installed on them is called."""
    if cfg.problem == "abstract-pencil":
        K0, dK = _abstract_pencil(cfg.abstract)
        _check_unread(cfg, ("mesh", "family", "coefficients"))
        eye = np.eye(len(K0))
        return Problem(
            cfg, None,
            assemble=lambda chi, reference=None: Pencil(K0 + chi * dK, eye, quad_order=0),
            derivative=lambda: PencilDerivative(cfg.direction * dK, np.zeros_like(dK)))

    if cfg.problem == "maxwell":
        pencil, deriv, volume, surface = (
            maxwell.assemble_maxwell, maxwell.assemble_maxwell_derivative,
            hadamard.maxwell_volume_matrix, hadamard.maxwell_surface_matrix)
    else:
        pencil, deriv, volume, surface = (
            helmholtz.assemble_helmholtz, helmholtz.assemble_helmholtz_derivative,
            hadamard.helmholtz_volume_matrix, hadamard.helmholtz_surface_matrix)
    spec = mesh_spec(cfg.mesh)
    space = _SPACES[cfg.problem]
    kinds = [transforms.coefficient_kind(name) for name in space.coefficients]
    keys = [kind.key for kind in kinds]
    unread = sorted(set(cfg.coefficients) - set(keys))
    if unread:
        raise ConfigError(f"{cfg.problem} reads the coefficients {keys}, not {unread}")
    fam = transforms.family_from_config(cfg.family)
    # an absent coefficient is the identity
    coefficients = [kind.parse(spec_value(cfg.coefficients, kind.key, {}, of=dict))
                    for kind in kinds]
    _check_unread(cfg, ("abstract",))
    if spec.type == "file":
        mesh = load_mesh(spec.path)
    else:
        _check_box_size(space, spec.n)
        mesh = build_box_mesh(spec.dims, spec.n, spec.partition)
    y = fam.map(cfg.chi_bar, mesh.vertices)
    for key, coefficient in zip(keys, coefficients):
        _check_positive(key, coefficient, y)
    disc = Discretisation(space, mesh, fam, *coefficients)
    args = (disc, cfg.chi_bar, cfg.direction)
    return Problem(cfg, mesh,
                   assemble=lambda chi, reference=None: pencil(disc, chi, reference),
                   derivative=lambda: deriv(*args),
                   volume_form=lambda clusters: volume(*args, clusters),
                   surface_form=lambda clusters: surface(*args, clusters),
                   reference=cache(lambda: LoewnerReference(disc, cfg.chi_bar)))


def _check_unread(cfg: RunConfig, specs):
    """Refuse the top-level `specs` of the config that its problem does not read."""
    unread = sorted(cfg.keys & set(specs))
    if unread:
        raise ConfigError(f"problem {cfg.problem!r} does not read the keys {unread}")


def _check_box_size(space, n: int):
    """Refuse a box of more than MAX_DOFS dofs of the space unbuilt."""
    dofs = space.box_dofs(n)
    if dofs > MAX_DOFS:
        raise ConfigError(f"box mesh n={n} has ~{dofs} dofs (> {MAX_DOFS}); refusing to build it")


def _check_positive(key: str, coefficient: AffineField, y: np.ndarray):
    """Refuse a coefficient that is not positive-definite (a scalar not > 0)
    at a point of `y`, the mesh vertices mapped by Phi_chi_bar. The least
    eigenvalue of an affine field is concave, so for an affine map this
    covers the whole domain."""
    value = coefficient.value(y)
    i = transforms.first_not_positive(value)
    if i is not None:
        least = np.linalg.eigvalsh(value[i]).min() if value.ndim > 1 else value[i]
        raise ConfigError(f"coefficient {key!r} must be positive-definite; its least eigenvalue "
                          f"is {least:g} at the mapped vertex {y[i].tolist()}")


def assemble_at(problem: Problem, chi: float, reference=None) -> Pencil:
    """Pencil of the problem at parameter chi, with its Loewner bounds against
    a `reference` (`fem_common.LoewnerReference`)."""
    return problem.assemble(chi, reference)


def derivative_at(problem: Problem) -> PencilDerivative:
    """Pencil derivative of the problem at chi_bar."""
    return problem.derivative()


def solve_at(problem: Problem, chi: float, count: int) -> EigenDecomposition:
    """Solve of the pencil at chi up to `count`, computed once per (chi, count).
    The pencil carries its Loewner bounds against the one at chi_bar, whose
    solve is the reference that lets the bounds certify it uncounted."""
    key = (chi, count)
    if key not in problem.solves:
        cfg = problem.cfg
        pencil = assemble_at(problem, chi, reference=problem.reference())
        problem.solves[key] = solve_pencil(pencil, cfg.kernel_tol, count=count,
                                           cluster_tol=cfg.cluster_tol,
                                           reference=problem.solution[1])
    return problem.solves[key]


# ---------------------------------------------------------------------------
# synthetic pencil catalog
# ---------------------------------------------------------------------------

def _abstract_pencil(spec: dict):
    """(K0, dK) of the synthetic pencil K(chi) = K0 + chi dK, M = I."""
    kind = spec_kind(spec, "kind", "abstract pencil kind", {
        "crossing": (), "diagonal": ("d0", "d1"),
        "degenerate": ("m", "lambda", "extra", "seed")}, "crossing")
    if kind == "crossing":
        # double eigenvalue at chi=0 splitting with slopes exactly -1 and +1
        return np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])
    if kind == "diagonal":
        d0 = spec_value(spec, "d0", [1.0, 2.0], shape=(None,))
        d1 = spec_value(spec, "d1", [1.0, 0.0], shape=(None,))
        if d0.shape != d1.shape or not len(d0):
            raise ConfigError(f"diagonal pencil needs 'd0' and 'd1' of equal length >= 1, "
                              f"got {d0.tolist()} and {d1.tolist()}")
        _check_dense_size(len(d0))
        return np.diag(d0), np.diag(d1)
    # degenerate: an exactly degenerate block of multiplicity m inside a larger
    # pencil, rotated by a seeded orthogonal matrix so nothing is axis-aligned
    m = spec_value(spec, "m", 3, of=int, low=1)
    lam = spec_value(spec, "lambda", 2.0)
    extra = spec_value(spec, "extra", [5.0, 9.0], shape=(None,))
    seed = spec_value(spec, "seed", 0, of=int, low=0)
    n = m + len(extra)
    _check_dense_size(n)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, m))
    dK = np.zeros((n, n))
    dK[:m, :m] = 0.5 * (A + A.T)
    dK[m:, m:] = np.diag(rng.standard_normal(len(extra)))
    K0 = np.diag(np.concatenate([np.full(m, lam), extra]))
    Q = sla.qr(rng.standard_normal((n, n)))[0]
    return Q @ K0 @ Q.T, Q @ dK @ Q.T


def _check_dense_size(n: int):
    """Refuse an abstract pencil of more than MAX_DENSE_DOFS dofs unbuilt."""
    if n > MAX_DENSE_DOFS:
        raise ConfigError(f"abstract pencil has {n} dofs (> {MAX_DENSE_DOFS}); "
                          f"refusing to build it dense")


# ---------------------------------------------------------------------------
# finite differences with branch tracking
# ---------------------------------------------------------------------------

def max_overlap_pairing(overlap: np.ndarray) -> np.ndarray:
    """The column paired with each row of the square matrix `overlap` in a
    pairing of rows with columns that maximises the total overlap.

    The Hungarian method by shortest augmenting paths, O(m^3): rows join the
    pairing one at a time, each along the shortest path of reduced costs
    from a dummy column (m) to a free column, and the row and column
    potentials u, v keep every reduced cost nonnegative.
    """
    cost = -np.asarray(overlap, dtype=float)
    m = len(cost)
    row_of = np.full(m + 1, -1)   # row paired with each column, -1 if free
    u, v = np.zeros(m), np.zeros(m + 1)
    for i in range(m):
        row_of[m] = i
        j0 = m
        dist = np.full(m, np.inf)       # shortest reduced path cost to each column
        prev = np.full(m, m)            # the column before it on that path
        used = np.zeros(m + 1, dtype=bool)
        while row_of[j0] != -1:
            used[j0] = True
            i0 = row_of[j0]
            free = np.flatnonzero(~used[:m])
            reduced = cost[i0, free] - u[i0] - v[free]
            closer = reduced < dist[free]
            dist[free[closer]] = reduced[closer]
            prev[free[closer]] = j0
            j1 = free[np.argmin(dist[free])]
            delta = dist[j1]
            u[row_of[used]] += delta
            v[used] -= delta
            dist[free] -= delta
            j0 = j1
        while j0 != m:  # augment: shift the pairing along the path
            row_of[j0] = row_of[prev[j0]]
            j0 = prev[j0]
    cols = np.empty(m, dtype=int)
    cols[row_of[:m]] = np.arange(m)
    return cols


def tracked_fd_slopes(problem: Problem, clusters: List[EigenCluster], step: float):
    """Central-difference branch slopes of each cluster across chi_bar +- step.

    The pencils at chi_bar +- step are solved once for all the clusters, up
    to the highest index among them. Branches at +step and -step are paired
    by `max_overlap_pairing` of their eigenvector overlaps in the M(chi_bar)
    inner product; if the smallest paired overlap is <= 0.5 the pairing is
    ambiguous and the sorted-eigenvalue fallback is used. Returns (slopes
    ascending, tracking tag, smallest paired overlap) per cluster.
    """
    cfg = problem.cfg
    M0 = problem.solution[0].M
    count = max(cl.indices[-1] for cl in clusters) + 1
    dec_p = solve_at(problem, cfg.chi_bar + step, count)
    dec_m = solve_at(problem, cfg.chi_bar - step, count)
    if count > min(len(dec_p.eigenvalues), len(dec_m.eigenvalues)):
        raise ContractViolationError(
            "cluster membership changed between chi_bar-step and chi_bar+step")
    fits = []
    for cl in clusters:
        idx = cl.indices
        lp, lm = dec_p.eigenvalues[idx], dec_m.eigenvalues[idx]
        overlap = np.abs(dec_p.eigenvectors[:, idx].T @ M0 @ dec_m.eigenvectors[:, idx])
        rows, cols = np.arange(len(idx)), max_overlap_pairing(overlap)
        min_overlap = float(overlap[rows, cols].min())
        tag = "overlap"
        if min_overlap <= 0.5:
            rows, cols, tag = np.argsort(lp), np.argsort(lm), "sort"
        fits.append((np.sort(cfg.direction * (lp[rows] - lm[cols]) / (2.0 * step)), tag,
                     min_overlap))
    return fits


def cluster_fd_step(cluster: EigenCluster, base_step: float) -> float:
    """FD step large enough that branch separation dominates the discrete
    splitting of the cluster; equals base_step for tightly degenerate ones."""
    if cluster.lambda_bar == 0.0:
        return base_step
    return max(base_step, 4.0 * cluster.width / abs(cluster.lambda_bar))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _matrix_entry(A: np.ndarray):
    if np.max(np.abs(A - A.T)) > 1e-10 * max(1.0, np.max(np.abs(A))):
        raise ContractViolationError("report matrix is not Hermitian to 1e-10")
    return A.tolist()


def _relative_gap(A: np.ndarray, B: np.ndarray, floor: float) -> float:
    """||A - B||_2 relative to ||B||_2 floored at `floor`, so that slopes zero
    by symmetry, where A and B are round-off, read as equal. The spectral
    norm does not change when the cluster's basis is rotated, so neither
    does the gap, also inside an exactly degenerate sub-cluster."""
    return float(np.linalg.norm(A - B, 2) / max(np.linalg.norm(B, 2), floor, 1e-300))


def _round_off_scale(deriv: PencilDerivative, cluster: EigenCluster) -> float:
    """r^T (|dK| + |lambda_bar| |dM|) r, r the row norms of the cluster's
    eigenvectors: it bounds the sum of the absolute terms of
    u^T (dK - lambda_bar dM) u for every unit combination u of them, so the
    routes' slopes carry round-off of a few eps times it. It does not change
    when the basis is rotated. The sums over the dofs are sparse products and
    an elementwise sum, not a BLAS dot product."""
    r = np.linalg.norm(cluster.vectors, axis=1)
    return float((r * (abs(deriv.dK) @ r + abs(cluster.lambda_bar) * (abs(deriv.dM) @ r))).sum())


def _cluster_records(problem: Problem, clusters: List[EigenCluster], surface: bool) -> List[dict]:
    """The report record of each cluster of the chi_bar solve: its eigenpair
    residual, checked, and its Rellich matrix, volume matrix and, if
    `surface`, surface matrix, each where the problem has that form, with
    their slopes and the gaps between them. A gap's floor is 1e-5 of the
    round-off scale, so that a gap of 1e-10 admits 4.5 eps of it. Where the
    stiffness and mass terms cancel, that scale is tens of |lambda_bar|; on
    the benchmark workloads ||R||_2 is above 2.8e-3 of it, so the floor does
    not bind there."""
    pencil, dec, _ = problem.solution
    deriv = derivative_at(problem)
    none = [None] * len(clusters)
    volumes = problem.volume_form(clusters) if problem.volume_form else none
    surfaces = problem.surface_form(clusters) if problem.surface_form and surface else none
    records = []
    for cl, V, S in zip(clusters, volumes, surfaces):
        R = rellich_matrix(deriv, cl)
        floor = 1e-5 * _round_off_scale(deriv, cl)
        residual = float(np.max(np.abs(pencil.K @ cl.vectors
                                       - pencil.M @ cl.vectors * dec.eigenvalues[cl.indices])))
        rec = {
            "indices": [int(i) + 1 for i in cl.indices],
            "lambda_bar": cl.lambda_bar,
            "width": cl.width,
            "multiplicity": cl.multiplicity,
            "rellich_matrix": _matrix_entry(R),
            "slopes_rellich": sla.eigvalsh(R).tolist(),
            "sym_derivatives_rellich": trace_formula(cl.lambda_bar, cl.multiplicity,
                                                     float(np.trace(R))),
            "residual": residual,
        }
        if residual > 1e-8 * max(1.0, abs(cl.lambda_bar)):
            raise ContractViolationError("eigenpair residual exceeds 1e-8 scale")
        if V is not None:
            rec["volume_matrix"] = _matrix_entry(V)
            rec["slopes_volume"] = sla.eigvalsh(V).tolist()
            rec["sym_derivatives_volume"] = trace_formula(cl.lambda_bar, cl.multiplicity,
                                                          float(np.trace(V)))
            rec["route_discrepancy"] = _relative_gap(V, R, floor)
            if S is not None:
                rec["surface_matrix"] = _matrix_entry(S)
                rec["slopes_surface"] = sla.eigvalsh(S).tolist()
                rec["surface_volume_gap"] = _relative_gap(S, V, floor)
        records.append(rec)
    return records


def write_json(payload, path: Optional[str]):
    """`payload` as sorted, indented JSON: printed where `path` is empty or
    None, else written to `path` with a trailing newline. A payload holding
    a number that is not finite is refused unwritten, naming the first one's
    key path; a path that cannot be written is a config error."""
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:  # allow_nan=False: a number that is not finite
        raise NonFiniteReportError(
            f"the report's number at {_non_finite_path(payload)} is not finite") from None
    if path:
        try:
            with open(path, "w") as f:
                f.write(text + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write output {path}: {exc}")
    else:
        print(text)


def _non_finite_path(value, path: str = "") -> Optional[str]:
    """Key path of the first number in `value` that is not finite, in the
    order of the sorted JSON, or None if every number is finite."""
    if isinstance(value, float):
        return None if np.isfinite(value) else path
    if isinstance(value, dict):
        items = ((f"{path}.{key}" if path else key, item) for key, item in sorted(value.items()))
    elif isinstance(value, (list, tuple)):
        items = ((f"{path}[{i}]", item) for i, item in enumerate(value))
    else:
        return None
    for where, item in items:
        found = _non_finite_path(item, where)
        if found is not None:
            return found
    return None


def check_index_range(cfg: RunConfig, count: int, of: str = "computed eigenvalues"):
    """Refuse an index_range past `count`, the dofs or computed eigenvalues."""
    if cfg.index_range[1] > count:
        raise ConfigError(f"index_range {cfg.index_range} exceeds the {count} {of}")


def check_solvable_index_range(cfg: RunConfig, pencil: Pencil):
    """Refuse, before any solve, an index_range past the eigenvalues a solve of
    `pencil` can return: its dofs less the rank of its kernel basis (the
    count of its columns), which the solve counts as kernel."""
    G = pencil.kernel_basis
    rank = 0 if G is None else G.shape[1]
    check_index_range(cfg, pencil.size - rank, "dofs of the pencil" if rank == 0 else
                      f"computable eigenvalues: the pencil's {pencil.size} dofs less "
                      f"the rank {rank} of its kernel basis")


def run(problem: Problem) -> dict:
    """Assemble, solve, and evaluate every derivative route for the clusters
    covering the configured eigenvalue index range. The report is a dict of
    schema_version, created_at (the one entry that differs between runs),
    environment and clusters; its caller writes it."""
    cfg = problem.cfg
    pencil, dec, clusters = problem.solution
    records = _cluster_records(problem, clusters, cfg.surface_form_trusted)

    # clusters that share an FD step share the solves at chi_bar +- step; a
    # step enlarged past fd_step that leaves the admissible parameters
    # withholds its clusters' FD slopes, while fd_step itself must be admissible
    steps = [cluster_fd_step(cl, cfg.fd_step) for cl in clusters]
    for step in dict.fromkeys(steps):
        group = [i for i, s in enumerate(steps) if s == step]
        try:
            fits = tracked_fd_slopes(problem, [clusters[i] for i in group], step)
        except InadmissibleParameterError as exc:
            if step <= cfg.fd_step:
                raise
            for i in group:
                records[i].update(fd_step=step, fd_tracking=f"withheld: {exc}")
            continue
        for i, (fd_slopes, tag, min_overlap) in zip(group, fits):
            records[i].update(slopes_fd=fd_slopes.tolist(), fd_step=step, fd_tracking=tag,
                              fd_min_overlap=min_overlap)

    env = {
        "problem": cfg.problem,
        "chi_bar": cfg.chi_bar,
        "direction": cfg.direction,
        "kernel_tol": cfg.kernel_tol,
        "cluster_tol": cfg.cluster_tol,
        "fd_step": cfg.fd_step,
        "dofs": pencil.size,
        "kernel_dim": dec.kernel_dim,
        "quad_order": pencil.quad_order,
        "mesh": None if problem.mesh is None else cfg.mesh,
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "environment": env,
        "clusters": records,
    }


def check_fd_steps(steps) -> List[float]:
    """The FD table's steps in ascending order, at least two and distinct."""
    steps = sorted(float(s) for s in steps)
    if len(steps) < 2 or len(set(steps)) < len(steps):
        raise ConfigError(f"fd_check needs at least two distinct steps, got {steps}")
    return steps


def fd_check(problem: Problem, steps) -> List[dict]:
    """Central-difference table over the given steps with Richardson reference.

    Each row carries the tracked branch slopes and the slopes of the
    elementary symmetric functions of the first reported cluster (sorted
    eigenvalues only, no tracking needed). A tracking failure is recorded in
    the row instead of aborting the table. The observed order needs geometric
    steps, and slope differences above round-off: an eigenvalue's round-off,
    eps |lambda_bar|, moves a slope by eps |lambda_bar| / h."""
    cfg = problem.cfg
    steps = check_fd_steps(steps)
    cl = problem.solution[2][0]
    count = cl.indices[-1] + 1

    rows = []
    for step in steps:
        try:
            [(slopes, tag, min_overlap)] = tracked_fd_slopes(problem, [cl], step)
        except ContractViolationError as exc:
            rows.append({"step": step, "tracking": f"failed: {exc}"})
            continue
        # the solves that tracked_fd_slopes made, from the problem's memo
        lam_p, lam_m = (np.sort(solve_at(problem, cfg.chi_bar + h, count).eigenvalues[cl.indices])
                        for h in (step, -step))
        sym = [cfg.direction * (elementary_symmetric(lam_p, s) - elementary_symmetric(lam_m, s))
               / (2.0 * step) for s in range(1, cl.multiplicity + 1)]
        rows.append({"step": step, "slopes": slopes.tolist(), "tracking": tag,
                     "fd_min_overlap": min_overlap, "sym_slopes": sym})

    good = [r for r in rows if "slopes" in r]
    fd = [np.asarray(r["slopes"]) for r in good]
    if len(good) >= 2:
        # Richardson on the two smallest steps: e(h) = c h^2
        ratio = good[1]["step"] / good[0]["step"]
        rich = (ratio**2 * fd[0] - fd[1]) / (ratio**2 - 1.0)
        for r in rows:
            r["richardson"] = rich.tolist()
    if len(good) >= 3 and abs(good[2]["step"] / good[1]["step"] - ratio) <= 1e-9 * ratio:
        num = np.abs(fd[2] - fd[1]).max()
        den = np.abs(fd[1] - fd[0]).max()
        # differences of a few hundred round-off units moved the order by 0.1
        # between round-off-equivalent builds
        floor = 1e4 * np.finfo(float).eps * abs(cl.lambda_bar) / good[0]["step"]
        if min(num, den) > 0 and min(num, den) >= floor:
            order = float(np.log(num / den) / np.log(ratio))
            for r in rows:
                r["observed_order"] = order
    return rows


def refinement_study(cfg: RunConfig) -> List[dict]:
    """Route discrepancies and surface-volume gaps over a refinement sequence:
    the `Problem` of `cfg` with the box's n set to each level in turn."""
    if cfg.problem not in _SPACES:
        raise ConfigError("refinement studies need a FEM problem")
    if mesh_spec(cfg.mesh).type != "box":
        raise ConfigError("refinement studies require a box mesh spec")
    if not cfg.refinement:
        raise ConfigError("refinement list is empty")
    if any(a >= b for a, b in zip(cfg.refinement, cfg.refinement[1:])):
        raise ConfigError(f"refinement must be strictly increasing, got {list(cfg.refinement)}")
    for n in cfg.refinement:  # every level, before the first is built
        _check_box_size(_SPACES[cfg.problem], n)
    rows = [_study_level(cfg, n) for n in cfg.refinement]
    for prev, row in zip([None] + rows, rows):
        row["gap_decreased"] = bool(prev is None
                                    or row["surface_volume_gap"] < prev["surface_volume_gap"])
    return rows


def _study_level(cfg: RunConfig, n: int) -> dict:
    """The study row of the box with n cells per side, read off the record
    that `run` makes of the level's first reported cluster. The level's
    problem, pencil and solve die when this returns, before the next level
    is built."""
    level = build_problem(replace(cfg, mesh=dict(cfg.mesh, n=n)))
    pencil, dec, clusters = level.solution
    cl = clusters[0]
    [rec] = _cluster_records(level, [cl], surface=True)
    return {
        "n": n,
        "dofs": pencil.size,
        "eigenvalues": dec.eigenvalues[: cl.indices[-1] + 1].tolist(),
        **{key: rec[key] for key in ("lambda_bar", "route_discrepancy", "surface_volume_gap")},
    }
