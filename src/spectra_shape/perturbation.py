"""Eigenvalue perturbation calculus on pencils and pencil derivatives:
elementary symmetric functions and their shifted/reciprocal transforms,
the branch-slope matrix for multiple eigenvalues, and the simple-eigenvalue
derivative."""

from math import comb

import numpy as np

from .errors import ContractViolationError, MultiplicityError
from .fem_common import PencilDerivative
from .spectral import EigenCluster


def elementary_symmetric(values, s: int) -> float:
    """s-th elementary symmetric function of the given values.

    Evaluated by the stable Newton-girard style recursion on the
    coefficients of prod(1 + t*v_i) rather than by subset enumeration.
    """
    values = np.asarray(values, dtype=float)
    m = len(values)
    if not 1 <= s <= m:
        raise ContractViolationError(f"order s={s} outside 1..{m}")
    coeffs = np.zeros(m + 1)
    coeffs[0] = 1.0
    # past the float range a coefficient is inf (or nan), which a report refuses
    with np.errstate(over="ignore", invalid="ignore"):
        for v in values:
            coeffs[1 : m + 1] = coeffs[1 : m + 1] + v * coeffs[0:m]
    return float(coeffs[s])


def hat_functions(values, s: int):
    """Shifted symmetric function Lambda_hat and reciprocal M_hat of order s.

    Lambda_hat is computed both directly from the shifted values and via the
    reciprocal-ratio identity; the two must agree to 1e-12 relative.
    """
    values = np.asarray(values, dtype=float)
    m = len(values)
    if not 0 <= s <= m:
        raise ContractViolationError(f"order s={s} outside 0..{m}")
    shifted = values + 1.0
    if np.any(shifted == 0.0):
        raise ZeroDivisionError("a value equals -1; reciprocal transform undefined")
    lam_hat = 1.0 if s == 0 else elementary_symmetric(shifted, s)
    m_hat = 1.0 if s == 0 else elementary_symmetric(1.0 / shifted, s)
    # cross-check via the ratio identity
    m_hat_ms = 1.0 if s == m else elementary_symmetric(1.0 / shifted, m - s)
    m_hat_m = elementary_symmetric(1.0 / shifted, m)
    via_ratio = m_hat_ms / m_hat_m
    if abs(via_ratio - lam_hat) > 1e-12 * max(1.0, abs(lam_hat)):
        raise ContractViolationError(
            f"ratio identity violated: {via_ratio} vs {lam_hat}"
        )
    return lam_hat, m_hat


def reconstruct_lambda(hat_values) -> np.ndarray:
    """Recover Lambda_{F,s} from the shifted values Lambda_hat_{F,p}.

    hat_values is the list (Lambda_hat_0, ..., Lambda_hat_m) with
    Lambda_hat_0 = 1. Uses the inversion
    Lambda_s = sum_p (-1)^(s-p) C(m-p, s-p) Lambda_hat_p,
    the coefficient convention fixed by brute-force expansion of
    prod(v_i + 1) for small m.
    """
    hat_values = np.asarray(hat_values, dtype=float)
    m = len(hat_values) - 1
    out = np.empty(m + 1)
    out[0] = 1.0
    for s in range(1, m + 1):
        acc = 0.0
        for p in range(0, s + 1):
            acc += (-1.0) ** (s - p) * comb(m - p, s - p) * hat_values[p]
        out[s] = acc
    return out[1:]


def rellich_matrix(deriv: PencilDerivative, cluster: EigenCluster) -> np.ndarray:
    """Branch-slope matrix R_hl = u_l . dK u_h - lambda_bar u_l . dM u_h,
    symmetrised: the m x m matrix whose eigenvalues are the branch slopes."""
    U = cluster.vectors
    if U.shape[0] != deriv.dK.shape[0]:
        raise ContractViolationError(
            f"cluster vectors of size {U.shape[0]} vs pencil size {deriv.dK.shape[0]}"
        )
    R = U.T @ deriv.dK @ U - cluster.lambda_bar * (U.T @ deriv.dM @ U)
    return 0.5 * (R + R.T)


def hellmann_feynman(
    deriv: PencilDerivative, lambda_bar: float, u: np.ndarray, simple: bool = True
) -> float:
    """Slope of a simple eigenvalue: u.dK u - lambda_bar u.dM u (u M-normalized)."""
    if not simple:
        raise MultiplicityError(
            "eigenvalue is not simple; use rellich_matrix for the branch slopes"
        )
    return float(u @ deriv.dK @ u - lambda_bar * (u @ deriv.dM @ u))


def trace_formula(lambda_bar: float, m: int, trace: float) -> list:
    """Derivatives of Lambda_{F,s}, s = 1..m, for a cluster of multiplicity m
    at lambda_bar whose branch-slope matrix has the given trace:
    lambda_bar^(s-1) * C(m-1, s-1) * trace. A term past the float range is
    inf, which a report refuses."""
    def term(s):
        try:
            return lambda_bar ** (s - 1) * comb(m - 1, s - 1) * trace
        except OverflowError:
            return float("inf")

    return [term(s) for s in range(1, m + 1)]


def symmetric_function_derivative(
    cluster: EigenCluster, deriv: PencilDerivative, s: int
) -> float:
    """Directional derivative of Lambda_{F,s} via the trace formula of the
    cluster's Rellich matrix R."""
    m = cluster.multiplicity
    if not 1 <= s <= m:
        raise ContractViolationError(f"order s={s} outside 1..{m}")
    R = rellich_matrix(deriv, cluster)
    return float(trace_formula(cluster.lambda_bar, m, np.trace(R))[s - 1])
