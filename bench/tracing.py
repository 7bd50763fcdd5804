"""Span tracer for one CLI operation.

Wraps the package's public functions at the name their caller looks up:
``harness`` imports ``solve_pencil`` and ``build_box_mesh`` by name, so those
are patched on ``harness``; ``helmholtz``, ``maxwell`` and ``hadamard``
functions are looked up as module attributes, so they are patched on their
own module. Spans nest, carry a parent id, self time, the growth of peak RSS
inside the span and per-call counts; they are kept in memory and written
out once by the caller. A function that no longer exists is recorded as
absent instead of failing the run.
"""

import functools
import importlib
import os
import resource
import time


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _points(args, kwargs, result):
    X = args[-1]
    shape = getattr(X, "shape", None)
    return {"points": shape[0] if shape is not None and len(shape) == 2 else 1}


def _mesh(args, kwargs, result):
    return {"tets": len(result.tets), "boundary_facets": len(result.bfacet_vertices)}


def _matrix_bytes(A) -> int:
    if hasattr(A, "indptr"):
        return A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
    return A.nbytes


def _nnz(A) -> int:
    return A.nnz if hasattr(A, "nnz") else int((A != 0).sum())


def _pencil(args, kwargs, result):
    pair = ((result.K, result.M) if hasattr(result, "K") else (result.dK, result.dM))
    return {"dofs": pair[0].shape[0], "nnz": sum(_nnz(A) for A in pair),
            "matrix_bytes": sum(_matrix_bytes(A) for A in pair),
            "pencil": int(hasattr(result, "K"))}


def _solve(args, kwargs, result):
    return {"kernel_dim": int(result.kernel_dim),
            "eigpairs": len(result.eigenvalues) + int(result.kernel_dim)}


def _assemble_at(args, kwargs, result):
    """Key of the assembled problem: chi plus the mesh it was assembled on."""
    chi = float(args[1] if len(args) > 1 else kwargs["chi"])
    n_override = args[2] if len(args) > 2 else kwargs.get("n_override")
    mesh = args[3] if len(args) > 3 else kwargs.get("mesh")
    nverts = None if mesh is None else len(mesh.vertices)
    return {"key": repr((chi, n_override, nverts))}


def _report(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs.get("out_path")
    return {"bytes": os.path.getsize(path) if path else 0}


# (module the caller looks the function up in, attribute, span name, counter)
TARGETS = (
    ("cli", "_emit", "harness.report", _report),
    ("harness", "load_config", "harness.config", None),
    ("harness", "run", "harness.run", None),
    ("harness", "fd_check", "harness.fd", None),
    ("harness", "refinement_study", "harness.study", None),
    ("harness", "tracked_fd_slopes", "harness.fd", None),
    ("harness", "assemble_at", "harness.assemble_at", _assemble_at),
    ("harness", "derivative_at", "harness.derivative_at", None),
    ("harness", "build_box_mesh", "geometry.mesh", _mesh),
    ("harness", "load_mesh", "geometry.mesh", _mesh),
    ("harness", "solve_pencil", "spectral.solve", _solve),
    ("cli", "solve_pencil", "spectral.solve", _solve),
    ("harness", "cluster_spectrum", "spectral.cluster", None),
    ("harness", "rellich_matrix", "perturbation.rellich", None),
    ("helmholtz", "assemble_helmholtz", "helmholtz.assemble", _pencil),
    ("helmholtz", "assemble_helmholtz_derivative", "helmholtz.assemble", _pencil),
    ("maxwell", "assemble_maxwell", "maxwell.assemble", _pencil),
    ("maxwell", "assemble_maxwell_derivative", "maxwell.assemble", _pencil),
    ("hadamard", "helmholtz_volume_matrix", "hadamard.volume", None),
    ("hadamard", "maxwell_volume_matrix", "hadamard.volume", None),
    ("hadamard", "helmholtz_surface_matrix", "hadamard.surface", None),
    ("hadamard", "maxwell_surface_matrix", "hadamard.surface", None),
    ("transforms", "transformed_epsilon", "transforms.coeff", _points),
    ("transforms", "transformed_mu_inv", "transforms.coeff", _points),
    ("transforms", "transformed_nu", "transforms.coeff", _points),
    ("transforms", "directional_coefficient_epsilon", "transforms.coeff", _points),
    ("transforms", "directional_coefficient_mu_inv", "transforms.coeff", _points),
    ("transforms", "directional_coefficient_nu", "transforms.coeff", _points),
    ("transforms", "psi_on_physical", "transforms.coeff", _points),
)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._stack = []
        self._patched = []

    def install(self, targets=TARGETS):
        for modname, attr, name, counter in targets:
            try:
                module = importlib.import_module(f"spectra_shape.{modname}")
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(f"{modname}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, name, counter))
            self._patched.append((module, attr, original))

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def _wrap(self, original, name, counter):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                try:
                    span["counts"].update(counter(args, kwargs, result))
                except (AttributeError, IndexError, KeyError, TypeError) as exc:
                    span["count_error"] = repr(exc)
            return result
        return traced

    def open(self, name: str) -> dict:
        parent = self._stack[-1] if self._stack else None
        span = {
            "id": len(self.spans),
            "parent": None if parent is None else parent["id"],
            "name": name,
            "outer_name": all(s["name"] != name for s in self._stack),
            "outer_layer": all(layer_of(s["name"]) != layer_of(name) for s in self._stack),
            "counts": {},
            "children_s": 0.0,
            "rss0": maxrss_mb(),
            "start": time.perf_counter(),
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict):
        end = time.perf_counter()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")
        span["wall_s"] = end - span["start"]
        span["self_s"] = span["wall_s"] - span["children_s"]
        span["rss_growth_mb"] = maxrss_mb() - span.pop("rss0")
        if self._stack:
            self._stack[-1]["children_s"] += span["wall_s"]


FEM = ("helmholtz.assemble", "maxwell.assemble")
LAYERS = ("geometry", "transforms", "fem", "spectral", "perturbation", "hadamard", "harness")


def summarize(spans) -> dict:
    """Per-layer metrics of one traced operation."""
    by_id = {s["id"]: s for s in spans}

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def busy(*names):
        return sum(s["wall_s"] for s in named(*names) if s["outer_name"])

    def count(key, *names, agg=sum):
        return agg([s["counts"].get(key, 0) for s in named(*names)] or [0])

    def inside(span, name):
        p = span["parent"]
        while p is not None:
            if by_id[p]["name"] == name:
                return True
            p = by_id[p]["parent"]
        return False

    def fem_layer(name):
        return "fem" if name in FEM else layer_of(name)

    coeff_children = {}
    for s in named("transforms.coeff"):
        coeff_children.setdefault(s["parent"], []).append(s["counts"].get("points", 0))
    keys = [s["counts"].get("key") for s in named("harness.assemble_at")]
    pencils = [s for s in named(*FEM) if s["counts"].get("pencil")]
    out = {
        "geometry.mesh_s": busy("geometry.mesh"),
        "geometry.mesh_calls": len(named("geometry.mesh")),
        "geometry.tets": count("tets", "geometry.mesh"),
        "geometry.boundary_facets": count("boundary_facets", "geometry.mesh"),
        "transforms.coeff_s": busy("transforms.coeff"),
        "transforms.coeff_calls": len(named("transforms.coeff")),
        "transforms.coeff_points": count("points", "transforms.coeff"),
        "fem.assemble_s": busy(*FEM),
        "fem.assemble_calls": len(named(*FEM)),
        "fem.dofs": count("dofs", *FEM, agg=max),
        "fem.nnz": max([s["counts"].get("nnz", 0) for s in pencils] or [0]),
        "fem.quad_points": sum(max(coeff_children.get(s["id"], [0])) for s in named(*FEM)),
        "fem.matrix_bytes": max([s["counts"].get("matrix_bytes", 0) for s in pencils] or [0]),
        "spectral.solve_s": busy("spectral.solve"),
        "spectral.solve_calls": len(named("spectral.solve")),
        "spectral.kernel_dim": count("kernel_dim", "spectral.solve", agg=max),
        "spectral.eigpairs_computed": count("eigpairs", "spectral.solve"),
        "perturbation.rellich_s": busy("perturbation.rellich"),
        "perturbation.rellich_calls": len(named("perturbation.rellich")),
        "hadamard.volume_s": busy("hadamard.volume"),
        "hadamard.volume_calls": len(named("hadamard.volume")),
        "hadamard.surface_s": busy("hadamard.surface"),
        "hadamard.surface_calls": len(named("hadamard.surface")),
        "harness.fd_s": busy("harness.fd"),
        "harness.fd_solves": sum(inside(s, "harness.fd") for s in named("spectral.solve")),
        "harness.fd_distinct_ratio": len(set(keys)) / len(keys) if keys else 1.0,
        "harness.self_s": sum(s["self_s"] for s in spans if layer_of(s["name"]) == "harness"
                              and s["name"] != "harness.report"),
        "harness.report_s": busy("harness.report"),
        "harness.report_bytes": count("bytes", "harness.report"),
    }
    for layer in LAYERS:
        out[f"{layer}.rss_growth_mb"] = sum(
            s["rss_growth_mb"] for s in spans if s["outer_layer"] and fem_layer(s["name"]) == layer
        )
    return out
