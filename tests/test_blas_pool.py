"""numpy's BLAS worker pool stays asleep in the point kernels and in the
inertia count.

numpy and scipy each load their own OpenBLAS, each with its own pool of
worker threads. A 2-D BLAS product over the point or tet axis is large
enough at the benchmark sizes for numpy's OpenBLAS to thread it, and its
woken workers then spin beside scipy's and the main thread. The kernels
keep such products in einsum's own loops or in chunks too small to
thread, and the count-only pass of the eigensolver runs its dense products
in scipy's LAPACK and BLAS. These tests run them at sizes the benchmark's
workloads reach, on which a single product would thread, in a fresh process
with two BLAS threads, and read the CPU time of numpy's pool threads, the
threads that exist right after `import numpy`, from /proc.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PRELUDE = textwrap.dedent("""
    import json, os, threading

    def cpu_s(tids):
        total = 0
        for t in tids:
            with open(f"/proc/self/task/{t}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])  # utime, stime
        return total / os.sysconf("SC_CLK_TCK")

    import numpy as np
    pool = sorted({int(t) for t in os.listdir("/proc/self/task")} - {threading.get_native_id()})
""")

KERNELS = PRELUDE + textwrap.dedent("""
    from spectra_shape import fem_common, transforms

    rng = np.random.default_rng(0)
    # shared scalar values on 6000 tets x 14 points: the P1 mass table path
    n, nq, k = 6000, 14, 4
    values = rng.uniform(0.0, 1.0, (1, nq, k, 1))
    derivatives = rng.standard_normal((n, k, 3))
    w = rng.uniform(0.1, 1.0, (n, nq))
    stiff = np.broadcast_to(np.eye(3)[:, :, None], (3, 3, n * nq))
    mass = rng.uniform(0.5, 2.0, n * nq)
    # an affine vector field at 16464 tets x 4 points: a (3, 3) x (3, N)
    # product would thread at two threads from N = 58255 on
    field = transforms.AffineField(np.zeros(3), rng.standard_normal((3, 3)))
    V = rng.standard_normal((65856, 3))

    before = cpu_s(pool)
    for _ in range(50):
        fem_common.local_matrices(values, derivatives, w, stiff, mass)
        field.along(V)
    print(json.dumps({"threads": len(pool), "cpu_s": cpu_s(pool) - before}))
""")

# the count-only pass on the all-T Nedelec n = 8 pencil (3032 dofs, the
# size of maxwell-stretch-dshape) at a shift in the gap above its lowest
# triple: 343 kernel modes and 3 eigenvalues below it
COUNT = PRELUDE + textwrap.dedent("""
    from spectra_shape import maxwell, spectral, transforms
    from spectra_shape.fem_common import Discretisation, assemble_pencil
    from spectra_shape.geometry import build_box_mesh

    eye = transforms.AffineField(np.eye(3))
    disc = Discretisation(maxwell.NEDELEC, build_box_mesh((1.0, 1.0, 1.0), 8, "T"),
                          transforms.stretch_family(0), eye, eye)
    p = assemble_pencil(disc, 0.0)
    before = cpu_s(pool)
    counts = [spectral._count_below(p.K, p.M, 25.0, p.tree) for _ in range(10)]
    assert counts == [346] * 10, counts
    print(json.dumps({"threads": len(pool), "cpu_s": cpu_s(pool) - before}))
""")


def _cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _numpy_blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # an older numpy without the dict mode
        return ""


pytestmark = [
    pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task"),
    pytest.mark.skipif(_cores() < 2, reason="needs two cores for a two-thread BLAS pool"),
    pytest.mark.skipif("openblas" not in _numpy_blas_name().lower(),
                       reason="numpy's BLAS is not OpenBLAS"),
]


def _pool_cpu_s(script: str) -> float:
    """CPU seconds of numpy's pool threads in the measured part of the script,
    run in a fresh process at two BLAS threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if result["threads"] == 0:
        pytest.skip("numpy's OpenBLAS started no worker threads")
    return result["cpu_s"]


def test_point_kernels_leave_numpys_blas_pool_asleep():
    cpu_s = _pool_cpu_s(KERNELS)
    assert cpu_s <= 0.02, f"numpy's BLAS pool used {cpu_s:.2f} s of CPU"


def test_count_pass_leaves_numpys_blas_pool_asleep():
    """Ten count-only passes: a Schur update through numpy's `@` in place of
    `blas.dgemm` wakes the pool and fails this."""
    cpu_s = _pool_cpu_s(COUNT)
    assert cpu_s <= 0.02, f"numpy's BLAS pool used {cpu_s:.2f} s of CPU"
