"""End-to-end and per-layer benchmark of the spectra-shape CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere inside a checkout; the engine is imported from the
checkout's ``src``. Every operation is one ``cli.main([command, "--config",
..., "--out", ...])`` call made in-process by a worker, one at a time (one
closed-loop client), with OpenBLAS/OpenMP/MKL threads pinned to
min(2, nproc) in the worker's environment before numpy loads.

``--trace 0`` reports the end-to-end metrics of the workload:
  wall_s       median wall seconds per operation (sample count printed)
  peak_rss_mb  peak resident memory of the worker process (getrusage) at the
               end of its first operation; later operations add allocator
               growth that depends on how many fit in the run
  setup_s      median over fresh processes of importing spectra_shape.cli
               and loading the config, interpreter start-up included
Failed operations (nonzero exit code or a failed output check) are the
``failed`` field; ``failed_ratio`` is printed with the metrics.

``--trace 1`` runs one traced operation and reports per-layer metrics from
its spans (see tracing.py), plus the tracing overhead against an untraced
operation and the slowdown of an untraced operation at one BLAS thread.
Spans go to ``.bench_work/<workload>-seed<N>/trace.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0

PER_LAYER_UNITS = {
    "geometry.mesh_s": "s", "geometry.mesh_calls": "count", "geometry.tets": "count",
    "geometry.boundary_facets": "count",
    "transforms.coeff_s": "s", "transforms.coeff_calls": "count",
    "transforms.coeff_points": "count",
    "fem.assemble_s": "s", "fem.assemble_calls": "count", "fem.dofs": "count",
    "fem.nnz": "count", "fem.quad_points": "count", "fem.matrix_bytes": "B",
    "spectral.solve_s": "s", "spectral.solve_calls": "count", "spectral.kernel_dim": "count",
    "spectral.eigpairs_computed": "count", "spectral.eigpairs_used_ratio": "ratio",
    "perturbation.rellich_s": "s", "perturbation.rellich_calls": "count",
    "hadamard.volume_s": "s", "hadamard.volume_calls": "count",
    "hadamard.surface_s": "s", "hadamard.surface_calls": "count",
    "harness.fd_solves": "count", "harness.fd_distinct_ratio": "ratio",
    "harness.fd_branch_mismatch": "count", "harness.self_s": "s",
    "harness.report_s": "s", "harness.report_bytes": "B",
    "process.cpu_s": "s",
    "geometry.rss_growth_mb": "MB", "transforms.rss_growth_mb": "MB",
    "fem.rss_growth_mb": "MB", "spectral.rss_growth_mb": "MB",
    "perturbation.rss_growth_mb": "MB", "hadamard.rss_growth_mb": "MB",
    "harness.rss_growth_mb": "MB",
    "trace.wall_s": "s", "trace.overhead_ratio": "ratio",
    "blas.one_thread_wall_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def blas_threads() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env.update({v: str(threads) for v in BLAS_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("time limit reached")
    return left


def measure_setup(config: Path, deadline: float) -> list:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(config)],
                              env=child_env(blas_threads()), cwd=ROOT, capture_output=True,
                              text=True, timeout=_remaining(deadline))
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed:\n{proc.stderr}")
    return times


def run_worker(workdir: Path, workload: str, config: Path, seconds: float, traced: bool,
               threads: int, deadline: float) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workdir", str(workdir),
            "--workload", workload, "--config", str(config), "--seconds", str(seconds),
            "--traced", str(int(traced))]
    proc = subprocess.run(argv, env=child_env(threads), cwd=ROOT, capture_output=True,
                          text=True, timeout=_remaining(deadline))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    if proc.stderr.strip():
        print(proc.stderr.rstrip(), file=sys.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Run one workload; returns the result object and writes its files."""
    deadline = time.monotonic() + TIME_LIMIT_S
    cfg = workloads.generate(workload, seed, smoke=smoke)
    command = workloads.COMMAND[workload]
    workdir = ROOT / ".bench_work" / f"{workload}-seed{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    config = workdir / "config.json"
    config.write_text(json.dumps(cfg, indent=2) + "\n")
    threads = blas_threads()

    if trace:
        traced = run_worker(workdir, workload, config, 0, True, threads, deadline)
        plain = run_worker(workdir, workload, config, 0, False, threads, deadline)
        single = run_worker(workdir, workload, config, 0, False, 1, deadline)
        runs = [traced, plain, single]
    else:
        setup = measure_setup(config, deadline)
        runs = [run_worker(workdir, workload, config, seconds, False, threads, deadline)]

    ops = [op for r in runs for op in r["ops"]]
    failed = [op for op in ops if op["problems"]]
    for op in failed:
        print(f"FAILED op: {'; '.join(op['problems'])}", file=sys.stderr)

    if trace:
        layers = dict(traced["layers"])
        plain_wall = plain["ops"][0]["wall_s"]
        layers["trace.overhead_ratio"] = layers["trace.wall_s"] / plain_wall - 1.0
        layers["blas.one_thread_wall_ratio"] = single["ops"][0]["wall_s"] / plain_wall
        metrics = {k: _metric(layers[k], u) for k, u in PER_LAYER_UNITS.items()}
        summary = {"absent": traced["absent"],
                   "not_in_metrics": {k: v for k, v in layers.items()
                                      if k not in PER_LAYER_UNITS},
                   "untraced_wall_s": plain_wall,
                   "one_thread_wall_s": single["ops"][0]["wall_s"]}
    else:
        walls = [op["wall_s"] for op in ops]
        metrics = {
            "wall_s": _metric(statistics.median(walls), "s"),
            "peak_rss_mb": _metric(ops[0]["maxrss_mb"], "MB"),
            "setup_s": _metric(statistics.median(setup), "s"),
        }
        summary = {"wall_samples": len(walls), "wall_ops_s": walls, "setup_runs_s": setup}
        if len(walls) >= 100:  # at least ten samples lie beyond the 90th percentile
            summary["wall_p90_s"] = statistics.quantiles(walls, n=10)[-1]
    summary["failed_ratio"] = len(failed) / len(ops)
    summary["config"] = cfg
    summary["env"] = runs[0]["env"]
    (workdir / f"result-trace{int(trace)}.json").write_text(
        json.dumps({"metrics": metrics, **summary}, indent=1) + "\n")

    print(f"workload {workload} ({command}), seed {seed}: {workloads.WHY[workload]}")
    for key, value in summary.items():
        print(f"  {key} {json.dumps(value, sort_keys=True)}")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    return {"correct": not failed, "attempted": len(ops), "failed": len(failed),
            "metrics": metrics, "failed_ratio": summary["failed_ratio"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                   help="one workload, or all of them with a summary table")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny problem sizes, for the benchmark's own tests")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "spectra_shape" / "cli.py").is_file():
        print(f"no spectra_shape sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         args.smoke)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if args.workload == "all":
        cols = list(next(iter(results.values()))["metrics"])
        print("workload".ljust(24) + "".join(c.rjust(28) for c in cols) + "failed_ratio".rjust(14))
        for name, r in results.items():
            print(name.ljust(24) + "".join(
                f"{r['metrics'][c]['value']:.6g} {r['metrics'][c]['unit']}".rjust(28)
                for c in cols) + f"{r['failed_ratio']:.3g}".rjust(14))
        print(json.dumps({name: {k: v for k, v in r.items() if k != "failed_ratio"}
                          for name, r in results.items()}))
    else:
        r = results[args.workload]
        print(json.dumps({k: r[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
