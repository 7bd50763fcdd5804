"""The four benchmark workloads and their seeded config generator.

Each workload stresses a different layer of the engine (see ``WHY``). The
generator draws only parameters that leave the eigenvalue cluster structure
and the number of solves unchanged: the bump amplitude (0.05 to 0.1, the
range over which the output checks were calibrated), the sign and size of
``direction``, and the scale of the constant coefficients. At the
reference parameter chi_bar = 0 every family is the identity map, so the
spectrum at chi_bar depends only on the mesh and on the coefficient scale,
and a constant coefficient scale multiplies all eigenvalues by one factor.

The program under test receives only the generated config file.
"""

import random

MIXED_PARTITION = {"x0": "T", "x1": "N", "y0": "T", "y1": "T", "z0": "N", "z1": "T"}

WORKLOADS = ("helmholtz-bump-dshape", "maxwell-stretch-dshape",
             "maxwell-mixed-verify", "helmholtz-mixed-study")

COMMAND = {
    "helmholtz-bump-dshape": "dshape",
    "maxwell-stretch-dshape": "dshape",
    "maxwell-mixed-verify": "verify",
    "helmholtz-mixed-study": "study",
}

WHY = {
    "helmholtz-bump-dshape": "order-4 P1 assembly and Hadamard volume/surface forms dominate; "
                             "4 clusters, 3 of them triple",
    "maxwell-stretch-dshape": "three dense Nedelec eigensolves (3032 dofs, kernel 343) dominate "
                              "wall time and set peak memory",
    "maxwell-mixed-verify": "FD re-solves: half of the 18 assemble-and-solve calls repeat a chi "
                            "already solved; N faces exercise the Neumann paths",
    "helmholtz-mixed-study": "five small solves over refinement 6..14; mesh building and the "
                             "per-facet surface loop are visible",
}

# Relative tolerance of the FD check on the sum of a multiple cluster's
# slopes. The Kuhn mesh splits the lowest Maxwell triple by 1.35%, so
# harness.cluster_fd_step takes h = 4 * width / lambda_bar = 0.054 and the
# central difference of the stretch family carries an O(h^2) truncation
# error of 5.7e-3 in the sum, whatever the seed (direction and coefficient
# scale cancel in the relative error). A wrong slope moves the sum by O(1).
FD_SUM_TOL = {"maxwell-stretch-dshape": 1e-2}

# Sizes of the full workloads and of the smoke mode used by the benchmark's
# own tests. The smoke sizes keep each operation well under a second.
SIZES = {
    "helmholtz-bump-dshape": {"full": {"n": 10, "index_range": [1, 10]},
                              "smoke": {"n": 4, "index_range": [1, 4]}},
    "maxwell-stretch-dshape": {"full": {"n": 8}, "smoke": {"n": 3}},
    "maxwell-mixed-verify": {"full": {"n": 6}, "smoke": {"n": 3}},
    "helmholtz-mixed-study": {"full": {"refinement": [6, 8, 10, 12, 14]},
                              "smoke": {"refinement": [2, 3, 4]}},
}


def _direction(rng):
    return rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)


def _bump(rng):
    return {"kind": "bump",
            "g": {"type": "sin", "axis": 0, "amplitude": rng.uniform(0.05, 0.1),
                  "frequency": 0.5}}


def _scaled_identity(rng):
    s = rng.uniform(0.5, 2.0)
    return {"kind": "constant", "M": [[s, 0.0, 0.0], [0.0, s, 0.0], [0.0, 0.0, s]]}


def _box(n, partition):
    return {"type": "box", "dims": [1, 1, 1], "n": n, "partition": partition}


def generate(workload: str, seed: int, smoke: bool = False) -> dict:
    """Config of `workload` for `seed`; the same seed gives the same config."""
    if workload not in COMMAND:
        raise KeyError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    size = SIZES[workload]["smoke" if smoke else "full"]
    if workload == "helmholtz-bump-dshape":
        return {
            "problem": "helmholtz",
            "mesh": _box(size["n"], "T"),
            "family": _bump(rng),
            "direction": _direction(rng),
            "coefficients": {"epsilon": _scaled_identity(rng)},
            "index_range": size["index_range"],
            "cluster_tol": 0.08,
        }
    if workload == "maxwell-stretch-dshape":
        return {
            "problem": "maxwell",
            "mesh": _box(size["n"], "T"),
            "family": {"kind": "stretch", "axis": 0},
            "direction": _direction(rng),
            "coefficients": {"epsilon": _scaled_identity(rng), "mu": _scaled_identity(rng)},
            "index_range": [1, 3],
            # groups the lowest Maxwell triple, which the Kuhn mesh splits
            # slightly, into one cluster: three solves instead of five
            "cluster_tol": 0.08,
        }
    if workload == "maxwell-mixed-verify":
        return {
            "problem": "maxwell",
            "mesh": _box(size["n"], dict(MIXED_PARTITION)),
            "family": _bump(rng),
            "direction": _direction(rng),
            "coefficients": {"epsilon": _scaled_identity(rng)},
            "index_range": [1, 2],
        }
    return {
        "problem": "helmholtz",
        "mesh": _box(size["refinement"][0], dict(MIXED_PARTITION)),
        "family": {"kind": "scaling", "rate": rng.uniform(0.5, 2.0)},
        "direction": _direction(rng),
        "coefficients": {"epsilon": _scaled_identity(rng),
                         "nu": {"kind": "constant", "v": rng.uniform(0.5, 2.0)}},
        "refinement": size["refinement"],
    }
