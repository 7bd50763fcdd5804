"""One workload process: runs CLI operations in-process and reports them.

Started by ``run.py`` with the BLAS thread variables already in its
environment, so OpenBLAS reads them when numpy loads. Runs one operation
at a time (a closed loop with one client) until ``--seconds`` have passed,
always at least one, checks every output, and prints one JSON object as
its last line of standard output. With ``--traced 1`` it runs exactly one
operation under the span tracer and writes the spans to ``trace.json`` in
the work directory.

    python3 bench/worker.py --workdir DIR --workload helmholtz-bump-dshape \\
        --config CFG --seconds 10 --traced 0
"""

import argparse
import ctypes
import json
import os
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy
from spectra_shape import cli, geometry, maxwell

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, read from the library."""
    out = {}
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sblas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas.get("version"),
        "scipy_openblas": sblas.get("version"),
        "blas_env": {v: os.environ.get(v) for v in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads_in_effect": _blas_threads(),
    }


def expected_kernel_dim(cfg: dict):
    """Number of free vertices, the dimension of the discrete gradient space."""
    if cfg["problem"] != "maxwell":
        return None
    spec = cfg["mesh"]
    mesh = geometry.build_box_mesh(tuple(spec["dims"]), spec["n"], spec["partition"])
    return maxwell.gradient_kernel_basis(mesh).shape[1]


def run_op(command: str, config: str, out: Path) -> int:
    """One CLI command, output file included; returns its exit code."""
    try:
        return cli.main([command, "--config", config, "--out", str(out)])
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught error is what a CLI user sees as exit 1
        traceback.print_exc(file=sys.stderr)
        return 1


def check_op(command: str, rc: int, out: Path, kernel_dim, sum_tol: float) -> dict:
    if rc != 0:
        return {"problems": [f"exit code {rc}"]}
    try:
        doc = json.loads(out.read_text())
        problems = checks.check_output(command, doc, kernel_dim, sum_tol)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return {"problems": [f"unreadable output: {exc!r}"]}
    return {"problems": problems, "doc": doc}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workdir", required=True)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--config", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--traced", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    pkg = Path(cli.__file__).resolve()
    if ROOT / "src" not in pkg.parents:
        print(f"spectra_shape imported from {pkg}, not from this checkout", file=sys.stderr)
        return 2
    command = workloads.COMMAND[args.workload]
    sum_tol = workloads.FD_SUM_TOL.get(args.workload, checks.SUM_REL_TOL)
    workdir = Path(args.workdir)
    cfg = json.loads(Path(args.config).read_text())
    kernel_dim = expected_kernel_dim(cfg)
    out = workdir / "output.json"

    ops = []
    tracer = tracing.Tracer() if args.traced else None
    t_start = time.perf_counter()
    while True:
        out.unlink(missing_ok=True)
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        if tracer is None:
            rc = run_op(command, args.config, out)
        else:
            with tracer:
                root = tracer.open("cli.main")
                try:
                    rc = run_op(command, args.config, out)
                finally:
                    tracer.close(root)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        checked = check_op(command, rc, out, kernel_dim, sum_tol)
        op = {"wall_s": wall, "cpu_s": cpu, "rc": rc, "problems": checked["problems"],
              "maxrss_mb": tracing.maxrss_mb()}
        doc = checked.get("doc")
        if doc is not None:
            op["fd_branch_mismatch"] = checks.branch_mismatches(
                checks.reported_clusters(command, doc))
        ops.append(op)
        if tracer is not None:
            layers = tracing.summarize(tracer.spans)
            layers["spectral.eigpairs_used_ratio"] = (
                checks.eigpairs_needed(command, doc, layers["spectral.solve_calls"])
                / max(layers["spectral.eigpairs_computed"], 1) if doc is not None else 0.0)
            layers["harness.fd_branch_mismatch"] = op.get("fd_branch_mismatch", 0)
            layers["process.cpu_s"] = cpu
            layers["trace.wall_s"] = wall
            (workdir / "trace.json").write_text(json.dumps(
                {"absent": tracer.absent, "layers": layers, "spans": tracer.spans}, indent=1))
            result_layers = {"layers": layers, "absent": tracer.absent}
            break
        if time.perf_counter() - t_start >= args.seconds:
            result_layers = {}
            break

    print(json.dumps({
        "ops": ops,
        "env": environment(),
        **result_layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
