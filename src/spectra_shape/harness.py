"""Configuration-driven driver.

Builds meshes, assembles pencils, solves spectra, computes every derivative
route (pencil-derivative, volume-form, surface-form), runs finite-difference
cross-checks with branch tracking, and emits machine-readable JSON reports.
"""

import datetime
import json
from dataclasses import dataclass, field
from math import comb
from typing import List, Optional

import numpy as np
import scipy.linalg as sla
from scipy.optimize import linear_sum_assignment

from . import hadamard, helmholtz, maxwell, transforms
from .errors import ConfigError, ContractViolationError
from .fem_common import Pencil, PencilDerivative
from .geometry import box_mesh_size, build_box_mesh, load_mesh
from .perturbation import elementary_symmetric, rellich_matrix
from .spectral import (
    DEFAULT_CLUSTER_TOL,
    DEFAULT_KERNEL_TOL,
    EigenCluster,
    cluster_spectrum,
    solve_pencil,
)

SCHEMA_VERSION = 1

_KNOWN_KEYS = {
    "problem",
    "mesh",
    "family",
    "coefficients",
    "chi_bar",
    "direction",
    "index_range",
    "kernel_tol",
    "cluster_tol",
    "fd_step",
    "fd_steps",
    "refinement",
    "surface_form_trusted",
    "abstract",
    "output",
}

_PROBLEMS = ("helmholtz", "maxwell", "abstract-pencil")

MAX_STUDY_DOFS = 200_000


@dataclass
class RunConfig:
    """Validated driver configuration with deterministic defaults."""

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

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - _KNOWN_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        problem = raw.get("problem")
        if problem not in _PROBLEMS:
            raise ConfigError(f"problem must be one of {_PROBLEMS}, got {problem!r}")
        cfg = cls(problem=problem)
        if "mesh" in raw:
            cfg.mesh = dict(raw["mesh"])
        if "family" in raw:
            cfg.family = dict(raw["family"])
        if "coefficients" in raw:
            cfg.coefficients = dict(raw["coefficients"])
        cfg.chi_bar = float(raw.get("chi_bar", cfg.chi_bar))
        cfg.direction = float(raw.get("direction", cfg.direction))
        if "index_range" in raw:
            lo, hi = raw["index_range"]
            if not (1 <= int(lo) <= int(hi)):
                raise ConfigError(f"bad index_range {raw['index_range']}")
            cfg.index_range = (int(lo), int(hi))
        for key in ("kernel_tol", "cluster_tol", "fd_step"):
            if key in raw:
                v = float(raw[key])
                if v <= 0:
                    raise ConfigError(f"{key} must be positive, got {v}")
                setattr(cfg, key, v)
        if "fd_steps" in raw:
            steps = tuple(float(s) for s in raw["fd_steps"])
            if any(s <= 0 for s in steps):
                raise ConfigError("fd_steps must be positive")
            cfg.fd_steps = steps
        if "refinement" in raw:
            cfg.refinement = tuple(int(n) for n in raw["refinement"])
            if any(n < 1 for n in cfg.refinement):
                raise ConfigError("refinement levels must be >= 1")
        cfg.surface_form_trusted = bool(
            raw.get("surface_form_trusted", cfg.surface_form_trusted)
        )
        if "abstract" in raw:
            cfg.abstract = dict(raw["abstract"])
        cfg.output = raw.get("output")
        if cfg.mesh.get("type") == "file" and "path" not in cfg.mesh:
            raise ConfigError("a file mesh needs a 'path'")
        # validate component specs eagerly so errors surface as ConfigError
        if cfg.problem != "abstract-pencil":
            try:
                _components(cfg)
            except KeyError as exc:
                raise ConfigError(f"family or coefficient spec lacks key {exc}")
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
# problem construction
# ---------------------------------------------------------------------------

def _build_mesh(cfg: RunConfig, n_override: Optional[int] = None):
    spec = cfg.mesh
    kind = spec.get("type", "box")
    if kind == "box":
        dims = tuple(spec.get("dims", (1.0, 1.0, 1.0)))
        n = int(n_override if n_override is not None else spec.get("n", 4))
        partition = spec.get("partition", "T")
        return build_box_mesh(dims, n, partition)
    if kind == "file":
        if n_override is not None:
            raise ConfigError("refinement studies require a box mesh spec")
        return load_mesh(spec["path"])
    raise ConfigError(f"unknown mesh type {spec.get('type')!r}")


def _components(cfg: RunConfig):
    """Family and coefficient objects for a FEM problem config."""
    fam = transforms.family_from_config(cfg.family)
    co = cfg.coefficients
    eps = (
        transforms.matrix_coefficient_from_config(co["epsilon"])
        if "epsilon" in co
        else transforms.identity_matrix_coefficient()
    )
    if cfg.problem == "maxwell":
        second = (
            transforms.matrix_coefficient_from_config(co["mu"])
            if "mu" in co
            else transforms.identity_matrix_coefficient()
        )
    else:
        second = (
            transforms.scalar_coefficient_from_config(co["nu"])
            if "nu" in co
            else transforms.unit_scalar_coefficient()
        )
    return fam, eps, second


def assemble_at(cfg: RunConfig, chi: float, n_override=None, mesh=None) -> Pencil:
    """Pencil of the configured problem at parameter chi."""
    if cfg.problem == "abstract-pencil":
        return abstract_pencil(cfg.abstract, chi)
    if mesh is None:
        mesh = _build_mesh(cfg, n_override)
    fam, eps, second = _components(cfg)
    if cfg.problem == "maxwell":
        return maxwell.assemble_maxwell(mesh, fam, chi, eps, second)
    return helmholtz.assemble_helmholtz(mesh, fam, chi, eps, second)


def derivative_at(cfg: RunConfig, n_override=None, mesh=None) -> PencilDerivative:
    """Pencil derivative of the configured problem at chi_bar."""
    if cfg.problem == "abstract-pencil":
        d = abstract_derivative(cfg.abstract, cfg.chi_bar)
        return PencilDerivative(cfg.direction * d.dK, cfg.direction * d.dM)
    if mesh is None:
        mesh = _build_mesh(cfg, n_override)
    fam, eps, second = _components(cfg)
    if cfg.problem == "maxwell":
        return maxwell.assemble_maxwell_derivative(
            mesh, fam, cfg.chi_bar, cfg.direction, eps, second
        )
    return helmholtz.assemble_helmholtz_derivative(
        mesh, fam, cfg.chi_bar, cfg.direction, eps, second
    )


# ---------------------------------------------------------------------------
# synthetic pencil catalog
# ---------------------------------------------------------------------------

def _abstract_matrices(spec: dict, chi: float):
    kind = spec.get("kind", "crossing")
    if kind == "crossing":
        # double eigenvalue at chi=0 splitting with slopes exactly -1 and +1
        K = np.array([[1.0, chi], [chi, 1.0]])
        return K, np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros((2, 2))
    if kind == "diagonal":
        d0 = np.asarray(spec.get("d0", [1.0, 2.0]), dtype=float)
        d1 = np.asarray(spec.get("d1", [1.0, 0.0]), dtype=float)
        if d0.shape != d1.shape:
            raise ConfigError("diagonal pencil needs d0 and d1 of equal length")
        return np.diag(d0 + chi * d1), np.eye(len(d0)), np.diag(d1), np.zeros_like(np.diag(d1))
    if kind == "degenerate":
        # exactly degenerate block of multiplicity m inside a larger pencil,
        # rotated by a seeded orthogonal matrix so nothing is axis-aligned
        m = int(spec.get("m", 3))
        lam = float(spec.get("lambda", 2.0))
        extra = np.asarray(spec.get("extra", [5.0, 9.0]), dtype=float)
        seed = int(spec.get("seed", 0))
        rng = np.random.default_rng(seed)
        n = m + len(extra)
        A = rng.standard_normal((m, m))
        A = 0.5 * (A + A.T)
        dK = np.zeros((n, n))
        dK[:m, :m] = A
        dK[m:, m:] = np.diag(rng.standard_normal(len(extra)))
        K0 = np.diag(np.concatenate([np.full(m, lam), extra]))
        Q = sla.qr(rng.standard_normal((n, n)))[0]
        return Q @ (K0 + chi * dK) @ Q.T, np.eye(n), Q @ dK @ Q.T, np.zeros((n, n))
    raise ConfigError(f"unknown abstract pencil kind {spec.get('kind')!r}")


def abstract_pencil(spec: dict, chi: float) -> Pencil:
    K, M, _, _ = _abstract_matrices(spec, chi)
    return Pencil(K, M, mesh=None, quad_order=0)


def abstract_derivative(spec: dict, chi_bar: float) -> PencilDerivative:
    _, _, dK, dM = _abstract_matrices(spec, chi_bar)
    return PencilDerivative(dK, dM)


# ---------------------------------------------------------------------------
# finite differences with branch tracking
# ---------------------------------------------------------------------------

def tracked_fd_slopes(cfg: RunConfig, pencil0: Pencil, clusters: List[EigenCluster],
                      step: float, mesh=None):
    """Central-difference branch slopes of each cluster across chi_bar +- step.

    The pencils at chi_bar +- step are solved once for all the clusters, up
    to the highest index among them. Branches at +step and -step are paired
    by eigenvector overlap in the M(chi_bar) inner product (solved as an
    assignment problem); if the pairing is ambiguous the sorted-eigenvalue
    fallback is used. Returns ([(slopes ascending, tracking tag)] per
    cluster, decomposition at +step, at -step).
    """
    count = max(cl.indices[-1] for cl in clusters) + 1

    def solve_at(chi):
        return solve_pencil(assemble_at(cfg, chi, mesh=mesh), cfg.kernel_tol,
                            count=count, cluster_tol=cfg.cluster_tol)

    dec_p, dec_m = solve_at(cfg.chi_bar + step), solve_at(cfg.chi_bar - step)
    if count > min(len(dec_p.eigenvalues), len(dec_m.eigenvalues)):
        raise ContractViolationError(
            "cluster membership changed between chi_bar-step and chi_bar+step"
        )
    fits = []
    for cl in clusters:
        idx = cl.indices
        lp, lm = dec_p.eigenvalues[idx], dec_m.eigenvalues[idx]
        overlap = np.abs(dec_p.eigenvectors[:, idx].T @ pencil0.M @ dec_m.eigenvectors[:, idx])
        rows, cols = linear_sum_assignment(-overlap)
        if overlap[rows, cols].min() > 0.5:
            slopes = cfg.direction * (lp[rows] - lm[cols]) / (2.0 * step)
            tag = "overlap"
        else:
            slopes = cfg.direction * (np.sort(lp) - np.sort(lm)) / (2.0 * step)
            tag = "sort"
        fits.append((np.sort(slopes), tag))
    return fits, dec_p, dec_m


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


def _relative_gap(A: np.ndarray, B: np.ndarray) -> float:
    """max |A - B| relative to max |B|."""
    return float(np.max(np.abs(A - B)) / max(np.max(np.abs(B)), 1e-300))


def _hadamard_matrices(cfg: RunConfig, mesh, clusters: List[EigenCluster], surface: bool):
    """Volume matrix and, if `surface`, surface matrix (else None) of each FEM cluster."""
    fam, eps, second = _components(cfg)
    volume_form, surface_form = {
        "helmholtz": (hadamard.helmholtz_volume_matrix, hadamard.helmholtz_surface_matrix),
        "maxwell": (hadamard.maxwell_volume_matrix, hadamard.maxwell_surface_matrix),
    }[cfg.problem]
    args = (mesh, fam, cfg.chi_bar, cfg.direction, eps, second, clusters)
    return zip(volume_form(*args), surface_form(*args) if surface else [None] * len(clusters))


def _sym_derivatives(lambda_bar: float, m: int, trace: float):
    return [lambda_bar ** (s - 1) * comb(m - 1, s - 1) * trace for s in range(1, m + 1)]


@dataclass
class DerivativeReport:
    """Per-cluster derivative results plus an environment block.

    Serialized as deterministic JSON; the created_at field is the only
    entry excluded from byte comparison between runs.
    """

    clusters: List[dict]
    environment: dict
    schema_version: int = SCHEMA_VERSION
    created_at: str = ""

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "created_at": self.created_at,
            "environment": self.environment,
            "clusters": self.clusters,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def write(self, path: str):
        with open(path, "w") as f:
            f.write(self.to_json())
            f.write("\n")


def run(cfg: RunConfig) -> DerivativeReport:
    """Assemble, solve, and evaluate every derivative route for the clusters
    covering the configured eigenvalue index range."""
    mesh = None if cfg.problem == "abstract-pencil" else _build_mesh(cfg)
    pencil = assemble_at(cfg, cfg.chi_bar, mesh=mesh)
    deriv = derivative_at(cfg, mesh=mesh)
    lo, hi = cfg.index_range
    dec = solve_pencil(pencil, cfg.kernel_tol, count=hi, cluster_tol=cfg.cluster_tol)
    clusters = cluster_spectrum(dec, cfg.cluster_tol)

    if hi > len(dec.eigenvalues):
        raise ConfigError(
            f"index_range {cfg.index_range} exceeds the {len(dec.eigenvalues)} "
            "computed eigenvalues"
        )
    wanted = [
        c for c in clusters
        if c.indices[-1] + 1 >= lo and c.indices[0] + 1 <= hi
    ]

    forms = ([(None, None)] * len(wanted) if cfg.problem == "abstract-pencil"
             else _hadamard_matrices(cfg, mesh, wanted, cfg.surface_form_trusted))
    records = []
    for cl, (V, S) in zip(wanted, forms):
        R = rellich_matrix(deriv, cl).matrix
        rec = {
            "indices": [int(i) + 1 for i in cl.indices],
            "lambda_bar": cl.lambda_bar,
            "width": cl.width,
            "multiplicity": cl.multiplicity,
            "rellich_matrix": _matrix_entry(R),
            "slopes_rellich": np.sort(sla.eigvalsh(R)).tolist(),
            "sym_derivatives_rellich": _sym_derivatives(
                cl.lambda_bar, cl.multiplicity, float(np.trace(R))
            ),
        }
        residual = np.max(
            np.abs(pencil.K @ cl.vectors - pencil.M @ cl.vectors
                   * dec.eigenvalues[cl.indices][None, :])
        )
        rec["residual"] = float(residual)
        if residual > 1e-8 * max(1.0, abs(cl.lambda_bar)):
            raise ContractViolationError("eigenpair residual exceeds 1e-8 scale")

        if V is not None:
            rec["volume_matrix"] = _matrix_entry(V)
            rec["slopes_volume"] = np.sort(sla.eigvalsh(V)).tolist()
            rec["sym_derivatives_volume"] = _sym_derivatives(
                cl.lambda_bar, cl.multiplicity, float(np.trace(V))
            )
            rec["route_discrepancy"] = _relative_gap(V, R)
            if S is not None:
                rec["surface_matrix"] = _matrix_entry(S)
                rec["slopes_surface"] = np.sort(sla.eigvalsh(S)).tolist()
                rec["surface_volume_gap"] = _relative_gap(S, V)
        records.append(rec)

    # clusters that share an FD step share the solves at chi_bar +- step
    steps = [cluster_fd_step(cl, cfg.fd_step) for cl in wanted]
    for step in dict.fromkeys(steps):
        group = [i for i, s in enumerate(steps) if s == step]
        fits, _, _ = tracked_fd_slopes(cfg, pencil, [wanted[i] for i in group], step, mesh=mesh)
        for i, (fd_slopes, tag) in zip(group, fits):
            records[i].update(slopes_fd=fd_slopes.tolist(), fd_step=step, fd_tracking=tag)

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
        "mesh": cfg.mesh if cfg.problem != "abstract-pencil" else None,
    }
    report = DerivativeReport(
        clusters=records,
        environment=env,
        created_at=datetime.datetime.now(datetime.timezone.utc).isoformat(),
    )
    if cfg.output:
        report.write(cfg.output)
    return report


def fd_check(cfg: RunConfig, steps) -> List[dict]:
    """Central-difference table over the given steps with Richardson reference.

    Each row carries the tracked branch slopes and the slopes of the
    elementary symmetric functions of the cluster (sorted eigenvalues only,
    no tracking needed). A tracking failure is recorded in the row instead
    of aborting the table.
    """
    steps = sorted(float(s) for s in steps)
    if len(steps) < 2:
        raise ConfigError("fd_check needs at least two steps")
    mesh = None if cfg.problem == "abstract-pencil" else _build_mesh(cfg)
    pencil = assemble_at(cfg, cfg.chi_bar, mesh=mesh)
    dec = solve_pencil(pencil, cfg.kernel_tol, count=1, cluster_tol=cfg.cluster_tol)
    cl = cluster_spectrum(dec, cfg.cluster_tol)[0]
    m = cl.multiplicity

    rows = []
    for step in steps:
        row = {"step": step}
        try:
            [(slopes, tag)], dec_p, dec_m = tracked_fd_slopes(cfg, pencil, [cl], step,
                                                              mesh=mesh)
            row["slopes"] = slopes.tolist()
            row["tracking"] = tag
        except ContractViolationError as exc:
            row["tracking"] = f"failed: {exc}"
            rows.append(row)
            continue
        lam_p = np.sort(dec_p.eigenvalues[cl.indices])
        lam_m = np.sort(dec_m.eigenvalues[cl.indices])
        row["sym_slopes"] = [
            cfg.direction
            * (elementary_symmetric(lam_p, s) - elementary_symmetric(lam_m, s))
            / (2.0 * step)
            for s in range(1, m + 1)
        ]
        rows.append(row)

    good = [r for r in rows if "slopes" in r]
    if len(good) >= 2:
        # Richardson on the two smallest steps: e(h) = c h^2
        s_small = np.asarray(good[0]["slopes"])
        s_big = np.asarray(good[1]["slopes"])
        ratio = good[1]["step"] / good[0]["step"]
        rich = (ratio**2 * s_small - s_big) / (ratio**2 - 1.0)
        for r in rows:
            r["richardson"] = rich.tolist()
    if len(good) >= 3:
        s0 = np.asarray(good[0]["slopes"])
        s1 = np.asarray(good[1]["slopes"])
        s2 = np.asarray(good[2]["slopes"])
        h_ratio = good[1]["step"] / good[0]["step"]
        num = np.abs(s2 - s1).max()
        den = np.abs(s1 - s0).max()
        if den > 0 and num > 0:
            order = float(np.log(num / den) / np.log(h_ratio))
            for r in rows:
                r["observed_order"] = order
    return rows


def refinement_study(cfg: RunConfig) -> List[dict]:
    """Route discrepancies and surface-volume gaps over a refinement sequence."""
    if cfg.problem == "abstract-pencil":
        raise ConfigError("refinement studies need a FEM problem")
    if not cfg.refinement:
        raise ConfigError("refinement list is empty")
    rows = []
    prev_gap = None
    for n in cfg.refinement:
        if cfg.mesh.get("type", "box") == "box":
            vertices, edges = box_mesh_size(n)
            est_dofs = edges if cfg.problem == "maxwell" else vertices
            if est_dofs > MAX_STUDY_DOFS:
                raise ConfigError(
                    f"refinement level n={n} has ~{est_dofs} dofs "
                    f"(> {MAX_STUDY_DOFS}); refusing the study"
                )
        mesh = _build_mesh(cfg, n_override=n)
        pencil = assemble_at(cfg, cfg.chi_bar, mesh=mesh)
        deriv = derivative_at(cfg, mesh=mesh)
        dec = solve_pencil(pencil, cfg.kernel_tol, count=1, cluster_tol=cfg.cluster_tol)
        cl = cluster_spectrum(dec, cfg.cluster_tol)[0]
        R = rellich_matrix(deriv, cl).matrix
        ((V, S),) = _hadamard_matrices(cfg, mesh, [cl], surface=True)
        gap = _relative_gap(S, V)
        rows.append({
            "n": n,
            "dofs": pencil.size,
            "eigenvalues": dec.eigenvalues[: cl.indices[-1] + 1].tolist(),
            "lambda_bar": cl.lambda_bar,
            "route_discrepancy": _relative_gap(V, R),
            "surface_volume_gap": gap,
            "gap_decreased": bool(prev_gap is None or gap < prev_gap),
        })
        prev_gap = gap
    return rows
