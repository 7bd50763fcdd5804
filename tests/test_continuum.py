"""Continuum anchors: Rellich slopes of the lowest cluster converge to the
closed form at second order.

The unit box is stretched along x by Phi_chi = diag(1 + chi, 1, 1), so its
x length is L = 1 + chi. Each eigenvalue is a sum of terms (k pi / L_a)^2,
one per axis a, and the x-term moves at rate -2 (k pi)^2 / L^3 = -2 (k pi)^2
at chi = 0; the other terms do not move. A T face fixes the mode (sine), an
N face frees it (cosine), so k is an integer between like faces and a half
integer between a T and an N face. The error of a case is
max|sorted slopes - sorted exact| / max|exact|; its observed order between
two meshes n1 < n2 is log(e1 / e2) / log(n2 / n1).
"""

import math

import numpy as np
import pytest
import scipy.linalg as sla

from spectra_shape import harness
from spectra_shape.perturbation import rellich_matrix

PI2 = math.pi**2
MIXED = {"x0": "T", "x1": "N", "y0": "T", "y1": "T", "z0": "N", "z1": "T"}

CASES = {
    # mode (1, 1, 1)
    "helmholtz-T": ("helmholtz", "T", [-2 * PI2]),
    # modes (1, 0, 0), (0, 1, 0), (0, 0, 1) above the constant
    "helmholtz-N": ("helmholtz", "N", [-2 * PI2, 0.0, 0.0]),
    # mode (1/2, 1, 1/2): x and z run from a T face to an N face
    "helmholtz-mixed": ("helmholtz", MIXED, [-PI2 / 2]),
    # wave vectors (1, 1, 0), (1, 0, 1) and (0, 1, 1)
    "maxwell-T": ("maxwell", "T", [-2 * PI2, -2 * PI2, 0.0]),
}


def slope_error(problem, partition, exact, n):
    cfg = harness.RunConfig.from_dict({
        "problem": problem,
        "mesh": {"type": "box", "n": n, "partition": partition},
        "family": {"kind": "stretch", "axis": 0},
        "index_range": [1, len(exact)],
        "cluster_tol": 0.08,
    })
    prob = harness.build_problem(cfg)
    _, _, clusters = prob.solution
    cluster = clusters[0]
    assert cluster.multiplicity == len(exact)
    slopes = np.sort(sla.eigvalsh(rellich_matrix(harness.derivative_at(prob), cluster)))
    return np.max(np.abs(slopes - np.sort(exact))) / np.max(np.abs(exact))


@pytest.mark.parametrize("case", CASES)
def test_rellich_slopes_converge_at_second_order(case):
    problem, partition, exact = CASES[case]
    meshes = (4, 6, 8)
    errors = [slope_error(problem, partition, exact, n) for n in meshes]
    orders = [math.log(errors[i] / errors[i + 1]) / math.log(meshes[i + 1] / meshes[i])
              for i in range(len(meshes) - 1)]
    assert min(orders) >= 1.8, (errors, orders)
