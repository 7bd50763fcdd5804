"""Parameterized domain transformations and material coefficient fields.

Everything here is closed form: each transformation family exposes its map,
Jacobian, parameter velocity and velocity Jacobian; each coefficient field
exposes its value and spatial gradient. All evaluators are vectorized over
points of shape (N, 3) and are pure functions of immutable data.
"""

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Tuple

import numpy as np

from .errors import ConfigError, InadmissibleParameterError


def _sym(A: np.ndarray) -> np.ndarray:
    return 0.5 * (A + np.swapaxes(A, -1, -2))


def _as_points(X) -> Tuple[np.ndarray, bool]:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        return X[None, :], True
    return X, False


# ---------------------------------------------------------------------------
# displacement field catalog for bump families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantField:
    c: np.ndarray

    def value(self, X):
        return np.broadcast_to(self.c, X.shape).copy()

    def jacobian(self, X):
        return np.zeros((len(X), 3, 3))


@dataclass(frozen=True)
class LinearField:
    G: np.ndarray

    def value(self, X):
        return X @ np.asarray(self.G).T

    def jacobian(self, X):
        return np.broadcast_to(self.G, (len(X), 3, 3)).copy()


@dataclass(frozen=True)
class SinField:
    """g(x) = amplitude * sin(pi * frequency * x_depends_on) * e_axis."""

    axis: int
    depends_on: int
    amplitude: float
    frequency: float

    def value(self, X):
        out = np.zeros_like(X)
        out[:, self.axis] = self.amplitude * np.sin(
            np.pi * self.frequency * X[:, self.depends_on]
        )
        return out

    def jacobian(self, X):
        out = np.zeros((len(X), 3, 3))
        out[:, self.axis, self.depends_on] = (
            self.amplitude
            * np.pi
            * self.frequency
            * np.cos(np.pi * self.frequency * X[:, self.depends_on])
        )
        return out


# ---------------------------------------------------------------------------
# transformation families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineFamily:
    """Phi_chi(x) = (A0 + chi*A1) x + b0 + chi*b1."""

    A0: np.ndarray = field(default_factory=lambda: np.eye(3))
    A1: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
    b0: np.ndarray = field(default_factory=lambda: np.zeros(3))
    b1: np.ndarray = field(default_factory=lambda: np.zeros(3))

    kind = "affine"

    def map(self, chi, X):
        A = np.asarray(self.A0) + chi * np.asarray(self.A1)
        return X @ A.T + (np.asarray(self.b0) + chi * np.asarray(self.b1))

    def jacobian(self, chi, X):
        A = np.asarray(self.A0) + chi * np.asarray(self.A1)
        return np.broadcast_to(A, (len(X), 3, 3)).copy()

    def velocity(self, chi, X):
        return X @ np.asarray(self.A1).T + np.asarray(self.b1)

    def velocity_jacobian(self, chi, X):
        return np.broadcast_to(self.A1, (len(X), 3, 3)).copy()


@dataclass(frozen=True)
class BumpFamily:
    """Phi_chi(x) = x + chi * g(x) with g from the closed-form field catalog."""

    g: object

    kind = "bump"

    def map(self, chi, X):
        return X + chi * self.g.value(X)

    def jacobian(self, chi, X):
        return np.broadcast_to(np.eye(3), (len(X), 3, 3)) + chi * self.g.jacobian(X)

    def velocity(self, chi, X):
        return self.g.value(X)

    def velocity_jacobian(self, chi, X):
        return self.g.jacobian(X)


def scaling_family(rate: float = 1.0) -> AffineFamily:
    """Phi_chi(x) = (1 + rate*chi) x."""
    return AffineFamily(A1=rate * np.eye(3))


def translation_family(b1=(1.0, 0.0, 0.0)) -> AffineFamily:
    return AffineFamily(b1=np.asarray(b1, dtype=float))


def stretch_family(axis: int = 0) -> AffineFamily:
    """Phi_chi = diag(..., 1+chi, ...) stretching a single axis."""
    A1 = np.zeros((3, 3))
    A1[axis, axis] = 1.0
    return AffineFamily(A1=A1)


# ---------------------------------------------------------------------------
# coefficient fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantMatrixCoefficient:
    M: np.ndarray

    def value(self, X):
        return np.broadcast_to(self.M, (len(X), 3, 3)).copy()

    def gradient(self, X):
        return np.zeros((len(X), 3, 3, 3))


@dataclass(frozen=True)
class AffineDiagonalCoefficient:
    """diag entries d0_i + D[i] . x ; D rows are the entry gradients."""

    d0: np.ndarray
    D: np.ndarray

    def value(self, X):
        diag = np.asarray(self.d0) + X @ np.asarray(self.D).T
        out = np.zeros((len(X), 3, 3))
        for i in range(3):
            out[:, i, i] = diag[:, i]
        return out

    def gradient(self, X):
        out = np.zeros((len(X), 3, 3, 3))
        for i in range(3):
            out[:, i, i, :] = np.asarray(self.D)[i]
        return out


@dataclass(frozen=True)
class ScalarAffineIdentityCoefficient:
    """(c0 + c . x) * Identity."""

    c0: float
    c: np.ndarray

    def value(self, X):
        s = self.c0 + X @ np.asarray(self.c)
        return s[:, None, None] * np.eye(3)

    def gradient(self, X):
        out = np.zeros((len(X), 3, 3, 3))
        for i in range(3):
            out[:, i, i, :] = np.asarray(self.c)
        return out


@dataclass(frozen=True)
class ConstantScalarCoefficient:
    v: float

    def value(self, X):
        return np.full(len(X), float(self.v))

    def gradient(self, X):
        return np.zeros((len(X), 3))


@dataclass(frozen=True)
class AffineScalarCoefficient:
    """c0 + c . x."""

    c0: float
    c: np.ndarray

    def value(self, X):
        return self.c0 + X @ np.asarray(self.c)

    def gradient(self, X):
        return np.broadcast_to(np.asarray(self.c, dtype=float), (len(X), 3)).copy()


def identity_matrix_coefficient() -> ConstantMatrixCoefficient:
    return ConstantMatrixCoefficient(np.eye(3))


def unit_scalar_coefficient() -> ConstantScalarCoefficient:
    return ConstantScalarCoefficient(1.0)


# ---------------------------------------------------------------------------
# pulled-back coefficients and their parameter derivatives
# ---------------------------------------------------------------------------

def jacobian_det(family, chi, X):
    """J_Phi and det J_Phi at X; the parameter is inadmissible where det <= 0."""
    J = family.jacobian(chi, X)
    det = np.linalg.det(J)
    if np.any(det <= 0):
        raise InadmissibleParameterError(
            f"det J_Phi <= 0 at parameter {chi} (min {det.min():g})"
        )
    return J, det


def jacobian_data(family, chi, X):
    """J_Phi, det J_Phi and J_Phi^-1 at X."""
    J, det = jacobian_det(family, chi, X)
    return J, det, np.linalg.inv(J)


def transformed_epsilon(family, chi, eps, X):
    """eps_Phi = det(J) J^-1 eps(Phi(x)) J^-T, symmetric positive-definite."""
    X, single = _as_points(X)
    J, det, Jinv = jacobian_data(family, chi, X)
    et = eps.value(family.map(chi, X))
    out = det[:, None, None] * (Jinv @ et @ np.swapaxes(Jinv, 1, 2))
    out = _sym(out)
    return out[0] if single else out


def transformed_mu_inv(family, chi, mu_inv, X):
    """mu_Phi^-1 = det(J)^-1 J^T mu^-1(Phi(x)) J."""
    X, single = _as_points(X)
    J, det = jacobian_det(family, chi, X)
    mt = mu_inv.value(family.map(chi, X))
    out = (np.swapaxes(J, 1, 2) @ mt @ J) / det[:, None, None]
    out = _sym(out)
    return out[0] if single else out


def transformed_nu(family, chi, nu, X):
    """nu_Phi = det(J) * nu(Phi(x)) > 0."""
    X, single = _as_points(X)
    _, det = jacobian_det(family, chi, X)
    out = det * nu.value(family.map(chi, X))
    return out[0] if single else out


def _perturbation_data(family, chi_bar, direction, X):
    """Velocity field and its physical-side Jacobian at reference points."""
    J, det, Jinv = jacobian_data(family, chi_bar, X)
    psi_t = direction * family.velocity(chi_bar, X)
    jpsi_t = direction * family.velocity_jacobian(chi_bar, X)
    jpsi = jpsi_t @ Jinv                       # J_Psi at y = Phi(x)
    div_psi = np.trace(jpsi, axis1=1, axis2=2)
    return J, det, Jinv, psi_t, jpsi, div_psi


def epsilon_bracket(eps, Y, psi, jpsi, div_psi):
    """d_Psi eps + div(Psi) eps - 2 sym(J_Psi eps) at physical points Y."""
    et = eps.value(Y)
    d_eps = np.einsum("nijk,nk->nij", eps.gradient(Y), psi)
    return d_eps + div_psi[:, None, None] * et - 2.0 * _sym(jpsi @ et)


def mu_inv_bracket(mu_inv, Y, psi, jpsi, div_psi):
    """d_Psi mu^-1 - div(Psi) mu^-1 + 2 sym(mu^-1 J_Psi) at physical points Y."""
    mt = mu_inv.value(Y)
    d_mt = np.einsum("nijk,nk->nij", mu_inv.gradient(Y), psi)
    return d_mt - div_psi[:, None, None] * mt + 2.0 * _sym(mt @ jpsi)


def nu_bracket(nu, Y, psi, jpsi, div_psi):
    """d_Psi nu + div(Psi) nu at physical points Y."""
    return np.einsum("nk,nk->n", nu.gradient(Y), psi) + div_psi * nu.value(Y)


def directional_coefficient_epsilon(family, chi_bar, direction, eps, X):
    """Directional parameter derivative of the pulled-back permittivity."""
    X, single = _as_points(X)
    J, det, Jinv, psi_t, jpsi, div_psi = _perturbation_data(
        family, chi_bar, direction, X
    )
    bracket = epsilon_bracket(eps, family.map(chi_bar, X), psi_t, jpsi, div_psi)
    out = det[:, None, None] * (Jinv @ bracket @ np.swapaxes(Jinv, 1, 2))
    out = _sym(out)
    return out[0] if single else out


def directional_coefficient_mu_inv(family, chi_bar, direction, mu_inv, X):
    """Directional parameter derivative of the pulled-back inverse permeability."""
    X, single = _as_points(X)
    J, det, Jinv, psi_t, jpsi, div_psi = _perturbation_data(
        family, chi_bar, direction, X
    )
    bracket = mu_inv_bracket(mu_inv, family.map(chi_bar, X), psi_t, jpsi, div_psi)
    out = (np.swapaxes(J, 1, 2) @ bracket @ J) / det[:, None, None]
    out = _sym(out)
    return out[0] if single else out


def directional_coefficient_nu(family, chi_bar, direction, nu, X):
    """Directional parameter derivative of the pulled-back scalar weight."""
    X, single = _as_points(X)
    _, det, _, psi_t, jpsi, div_psi = _perturbation_data(family, chi_bar, direction, X)
    out = det * nu_bracket(nu, family.map(chi_bar, X), psi_t, jpsi, div_psi)
    return out[0] if single else out


class CoefficientKind(NamedTuple):
    """The maps of one coefficient kind: pull-back, its directional
    parameter derivative, and the bracket of the volume Hadamard form."""

    pull_back: Callable
    derivative: Callable
    bracket: Callable


def coefficient_kind(name: str) -> CoefficientKind:
    """Maps of the coefficient kind 'epsilon', 'mu_inv' or 'nu'.

    The table is built per call, so the module attributes in effect at call
    time are the ones returned, also when they were replaced after import.
    """
    return {
        "epsilon": CoefficientKind(
            transformed_epsilon, directional_coefficient_epsilon, epsilon_bracket
        ),
        "mu_inv": CoefficientKind(
            transformed_mu_inv, directional_coefficient_mu_inv, mu_inv_bracket
        ),
        "nu": CoefficientKind(transformed_nu, directional_coefficient_nu, nu_bracket),
    }[name]


def psi_on_physical(family, chi_bar, direction, X):
    """Perturbation field at y = Phi(x): (Psi, J_Psi, div Psi).

    Evaluation is parameterized by the reference point x; no inverse map is
    ever computed.
    """
    X, single = _as_points(X)
    _, _, _, psi_t, jpsi, div_psi = _perturbation_data(family, chi_bar, direction, X)
    if single:
        return psi_t[0], jpsi[0], div_psi[0]
    return psi_t, jpsi, div_psi


# ---------------------------------------------------------------------------
# JSON config parsing
# ---------------------------------------------------------------------------

def field_from_config(spec: dict):
    kind = spec.get("type")
    if kind == "constant":
        return ConstantField(np.asarray(spec["c"], dtype=float))
    if kind == "linear":
        return LinearField(np.asarray(spec["G"], dtype=float))
    if kind == "sin":
        return SinField(
            axis=int(spec["axis"]),
            depends_on=int(spec.get("dependsOn", spec["axis"])),
            amplitude=float(spec.get("amplitude", 0.1)),
            frequency=float(spec.get("frequency", 1.0)),
        )
    raise ConfigError(f"unknown displacement field type {kind!r}")


def family_from_config(spec: dict):
    kind = spec.get("kind")
    if kind == "affine":
        return AffineFamily(
            A0=np.asarray(spec.get("A0", np.eye(3).tolist()), dtype=float),
            A1=np.asarray(spec.get("A1", np.zeros((3, 3)).tolist()), dtype=float),
            b0=np.asarray(spec.get("b0", [0, 0, 0]), dtype=float),
            b1=np.asarray(spec.get("b1", [0, 0, 0]), dtype=float),
        )
    if kind == "bump":
        return BumpFamily(field_from_config(spec["g"]))
    if kind == "scaling":
        return scaling_family(float(spec.get("rate", 1.0)))
    if kind == "translation":
        return translation_family(spec.get("b1", (1.0, 0.0, 0.0)))
    if kind == "stretch":
        return stretch_family(int(spec.get("axis", 0)))
    raise ConfigError(f"unknown transformation family kind {kind!r}")


def matrix_coefficient_from_config(spec: dict):
    kind = spec.get("kind", "constant")
    if kind == "constant":
        return ConstantMatrixCoefficient(
            np.asarray(spec.get("M", np.eye(3).tolist()), dtype=float)
        )
    if kind == "affine-diagonal":
        return AffineDiagonalCoefficient(
            d0=np.asarray(spec["d0"], dtype=float),
            D=np.asarray(spec["D"], dtype=float),
        )
    if kind == "scalar-affine-identity":
        return ScalarAffineIdentityCoefficient(
            c0=float(spec["c0"]), c=np.asarray(spec["c"], dtype=float)
        )
    raise ConfigError(f"unknown matrix coefficient kind {kind!r}")


def scalar_coefficient_from_config(spec: dict):
    kind = spec.get("kind", "constant")
    if kind == "constant":
        return ConstantScalarCoefficient(float(spec.get("v", 1.0)))
    if kind == "affine":
        return AffineScalarCoefficient(
            c0=float(spec["c0"]), c=np.asarray(spec["c"], dtype=float)
        )
    raise ConfigError(f"unknown scalar coefficient kind {kind!r}")
