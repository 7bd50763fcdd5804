"""Parameterized domain transformations and material coefficient fields.

Everything here is closed form: each coefficient and displacement field
exposes its value and spatial gradient, and the one transformation family
Phi_chi = Phi_0 + chi * g its map and Jacobian, with the field g as its
parameter velocity. All evaluators are vectorized over points of shape
(N, 3) and are pure functions of immutable data. The pull-backs, their
derivatives and the velocity field read the map from a `MappedPoints`,
evaluated once per parameter and point set. Where g is an AffineField the
family is affine and its Jacobian is one matrix: J_Phi, det J_Phi, J_Phi^-1,
J_Psi and div Psi then carry a point axis of length 1, as the value of a
constant coefficient does (`AffineField.entries`), and every consumer
broadcasts it; Phi(x) and Psi(x) stay per point.

Per-point 3x3 algebra is entry-major: a stack of matrices is stored as
(3, 3, N), so that each entry is one contiguous length-N vector. The
determinant and adjugate are written out entry by entry over those
vectors, and the products, congruences and brackets contract over the two
entry axes, with no per-point copy or transpose. The coefficient kinds'
pull-backs and brackets return entry-major stacks, which assembly and the
Hadamard forms read as they are; the fields, the Jacobians and the
velocity keep the point-major shape (N, 3, 3) as views of that storage
(`point_major`), and `entry_major` takes such a view back without a copy.

The degree of the form that a coefficient weighs fixes how its fields move
under Phi (finite element exterior calculus): 1-forms (eps on grad u and E)
with the covariant Piola map J^-T, 2-forms (mu^-1 on curl E) with the
contravariant J / det J, scalars (nu on u) not at all. Each
`CoefficientKind` owns that rule, its config key and its parser.

No product over the stacked points is one 2-D BLAS product large enough
for OpenBLAS to thread: that wakes numpy's BLAS worker pool, whose workers
then spin on the cores the process has (see `fem_common`). The affine
fields' `along`, whose output axis is the point axis, multiplies G by
chunks of `ALONG_CHUNK` points, each below the size that OpenBLAS threads
and about as fast per point as the whole product on one thread (einsum's
loop over point-major vectors is several times slower).
"""

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigError, InadmissibleParameterError


def _sym(A: np.ndarray) -> np.ndarray:
    return 0.5 * (A + np.swapaxes(A, -1, -2))


def entry_major(A: np.ndarray) -> np.ndarray:
    """The (..., N) view of a point-major stack A (N, ...): contiguous where A
    is the `point_major` view of entry-major storage."""
    return np.moveaxis(A, 0, -1)


def point_major(a: np.ndarray) -> np.ndarray:
    """The (N, ...) view of an entry-major stack a (..., N)."""
    return np.moveaxis(a, -1, 0)


def _mul(A, B):
    """Pointwise products A B of entry-major 3x3 stacks (3, 3, N) or (3, 3, 1)."""
    return np.einsum("ak...,kb...->ab...", A, B)


def congruence(P, B, scale=1.0):
    """scale * sym(P B P^T) of entry-major stacks P and B (3, 3, N|1), with
    weights scale (N|1,): the upper triangle of P sym(B) P^T, mirrored, so
    the result is exactly symmetric. Entry-major (3, 3, N), or (3, 3, 1)
    where P, B and scale all have one column.

    The entries are summed in the order of their terms, as einsum sums a
    stack of N points; einsum's sum over a contiguous axis of one column
    rounds otherwise."""
    T = _mul(P, B + B.swapaxes(0, 1))  # 2 P sym(B)
    out, term = np.empty(T.shape), np.empty(T.shape[2:])
    for a, d in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
        np.multiply(T[a, 0], P[d, 0], out=out[a, d])
        for c in (1, 2):
            out[a, d] += np.multiply(T[a, c], P[d, c], out=term)
        out[d, a] = out[a, d]
    scale = 0.5 * scale
    if np.size(scale) > out.shape[-1]:  # one matrix weighed at each point
        return out * scale
    out *= scale
    return out


# ---------------------------------------------------------------------------
# field catalog: coefficients and bump displacements
# ---------------------------------------------------------------------------

# Points per BLAS product in `AffineField.along`: a (9, 3) x (3, 4096)
# product has m n k = 110592, and OpenBLAS gives a gemm one thread per
# 262144 of m n k, so it threads none below 524288 (measured on 0.3.31).
ALONG_CHUNK = 4096


@dataclass(frozen=True)
class AffineField:
    """f(x) = c0 + G x, with the gradient on the last axis of G: a scalar
    (c0 a number, G (3,)), vector (c0 (3,), G (3, 3)) or 3x3 matrix field
    (c0 (3, 3), G (3, 3, 3)). G defaults to zero, a constant field."""

    c0: np.ndarray
    G: Optional[np.ndarray] = None

    def __post_init__(self):
        c0 = np.asarray(self.c0, dtype=float)
        G = np.zeros(c0.shape + (3,)) if self.G is None else np.asarray(self.G, dtype=float)
        if G.shape != c0.shape + (3,):
            raise ValueError(f"G of shape {G.shape} is not the gradient of c0 {c0.shape}")
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "G", G)

    @property
    def constant(self) -> bool:
        return not self.G.any()

    def along(self, V):
        """G v, the derivative along each vector v of V (N, 3): entry-major (..., N)."""
        G = self.G.reshape(-1, 3)
        out = np.empty((len(G), len(V)))
        for i in range(0, len(V), ALONG_CHUNK):
            np.matmul(G, V[i:i + ALONG_CHUNK].T, out=out[:, i:i + ALONG_CHUNK])
        return out.reshape(self.G.shape[:-1] + (len(V),))

    def entries(self, X):
        """The value at X (N, 3) entry-major (..., N); (..., 1) if constant."""
        if self.constant:
            return self.c0[..., None]
        out = self.along(X)
        out += self.c0[..., None]
        return out

    def value(self, X):
        """The value at X (N, 3): (N, ...), a view of entry-major storage
        (read-only for a constant field: no product with a zero G per point)."""
        out = point_major(self.entries(X))
        return np.broadcast_to(out, (len(X),) + self.c0.shape) if self.constant else out

    def gradient(self, X):
        return np.broadcast_to(self.G, (len(X),) + self.G.shape)


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

    def gradient(self, X):
        out = np.zeros((3, 3, len(X)))
        out[self.axis, self.depends_on] = (
            self.amplitude
            * np.pi
            * self.frequency
            * np.cos(np.pi * self.frequency * X[:, self.depends_on])
        )
        return point_major(out)


# ---------------------------------------------------------------------------
# the transformation family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """Phi_chi(x) = base(x) + chi * g(x): an affine base map (the identity by
    default) perturbed along a field g of the catalog, the parameter velocity
    dPhi/dchi. Affine exactly where g is an AffineField."""

    g: object
    base: AffineField = field(default_factory=lambda: AffineField(np.zeros(3), np.eye(3)))

    @property
    def affine(self) -> bool:
        return isinstance(self.g, AffineField)

    def g_gradient(self, X):
        """The gradient of g at X entry-major (3, 3, N), or the one matrix G
        (3, 3, 1) of an affine family."""
        return self.g.G[..., None] if self.affine else entry_major(self.g.gradient(X))

    def map(self, chi, X):
        out = chi * self.g.value(X)
        # the identity base adds X itself: no product with I per point
        identity = not self.base.c0.any() and np.array_equal(self.base.G, np.eye(3))
        return np.add(X if identity else self.base.value(X), out, out=out)

    def jacobian(self, chi, X):
        """J_Phi at X: (N, 3, 3), or (1, 3, 3) for an affine family, a view of
        entry-major storage."""
        G = self.g_gradient(X)
        J = np.multiply(G, chi, out=np.empty(G.shape))
        J += self.base.G[..., None]
        return point_major(J)


def scaling_family(rate: float = 1.0) -> Family:
    """Phi_chi(x) = (1 + rate*chi) x."""
    return Family(AffineField(np.zeros(3), rate * np.eye(3)))


def translation_family(b1=(1.0, 0.0, 0.0)) -> Family:
    return Family(AffineField(b1))


def stretch_family(axis: int = 0) -> Family:
    """Phi_chi = diag(..., 1+chi, ...) stretching a single axis."""
    G = np.zeros((3, 3))
    G[axis, axis] = 1.0
    return Family(AffineField(np.zeros(3), G))


# ---------------------------------------------------------------------------
# the map at reference points, pulled-back coefficients and their derivatives
# ---------------------------------------------------------------------------

def det_adjugate(A):
    """Closed-form det A and adj A (A adj A = det(A) I) of 3x3 matrices (..., 3, 3),
    read entry by entry without a copy; adj is a view of entry-major storage."""
    a = np.moveaxis(A, (-2, -1), (0, 1))  # entry-major view
    adj, tmp = np.empty(a.shape), np.empty(a.shape[2:])
    for i in range(3):
        for j in range(3):
            # cofactor of entry (j, i), with cyclic indices
            r, s, c, d = (j + 1) % 3, (j + 2) % 3, (i + 1) % 3, (i + 2) % 3
            np.multiply(a[r, c], a[s, d], out=adj[i, j])
            adj[i, j] -= np.multiply(a[r, d], a[s, c], out=tmp)
    det = a[0, 0] * adj[0, 0]
    for k in (1, 2):
        det += np.multiply(a[0, k], adj[k, 0], out=tmp)
    return det, np.moveaxis(adj, (0, 1), (-2, -1))


@dataclass(frozen=True)
class MappedPoints:
    """Phi_chi at reference points x (N, 3): y = Phi(x), J_Phi, det J_Phi and
    J_Phi^-1, shared by every consumer; J and Jinv are contiguous entry-major
    stacks (3, 3, N) and det is (N,), or (3, 3, 1) and (1,) for an affine
    family. It stands in for x, with its shape."""

    x: np.ndarray
    y: np.ndarray
    J: np.ndarray
    det: np.ndarray
    Jinv: np.ndarray

    @property
    def shape(self):
        return self.x.shape


def map_points(family, chi, X) -> MappedPoints:
    """Phi_chi at reference points X (N, 3), with one J_Phi for an affine
    family. chi is inadmissible unless det J_Phi is finite and > 0 at every
    point; the error names the first point that fails (X[0] where the one
    J of an affine family fails), so a check over blocks of X reads the same
    message as one over X. An overflow in J, det J or its adjugate is left
    to that check to report."""
    with np.errstate(over="ignore", invalid="ignore"):
        J = family.jacobian(chi, X)
        det, adj = det_adjugate(J)
    bad = np.flatnonzero(~(np.isfinite(det) & (det > 0)))
    if len(bad):
        i = bad[0]
        raise InadmissibleParameterError(
            f"det J_Phi {'<= 0' if np.isfinite(det[i]) else 'is not finite'} at parameter "
            f"{chi} (reference point {X[i].tolist()}, det {det[i]:g})")
    Jinv = entry_major(adj)
    return MappedPoints(X, family.map(chi, X), entry_major(J), det, np.divide(Jinv, det, Jinv))


def first_not_positive(value) -> Optional[int]:
    """Index of the first point at which a scalar field value (N,) or a
    symmetric 3x3 matrix field value (N, 3, 3) is not positive-definite, or
    None: Sylvester's criterion on the closed-form leading minors."""
    if value.ndim == 1:
        positive = value > 0
    else:
        a = np.moveaxis(value, (-2, -1), (0, 1))  # entry-major views
        minor2 = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        det = (a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
               - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
               + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0]))
        positive = (a[0, 0] > 0) & (minor2 > 0) & (det > 0)
    bad = np.flatnonzero(~positive)
    return int(bad[0]) if len(bad) else None


class Velocity(NamedTuple):
    """Perturbation field Psi at y = Phi(x), its Jacobian J_Psi (N|1, 3, 3), a
    view of entry-major storage, and div Psi (N|1,): one J_Psi for an affine
    family."""

    psi: np.ndarray
    jpsi: np.ndarray
    div_psi: np.ndarray


def psi_on_physical(family, direction, geo: MappedPoints) -> Velocity:
    """Perturbation field direction * g, g the family's velocity, at the mapped
    points of `geo`, parameterized by the reference point x; no inverse map
    is ever computed."""
    jpsi = _mul(family.g_gradient(geo.x), geo.Jinv)
    jpsi *= direction
    return Velocity(direction * family.g.value(geo.x), point_major(jpsi),
                    jpsi[0, 0] + jpsi[1, 1] + jpsi[2, 2])


# The coefficients are AffineFields: `entries` gives the value at the mapped
# points entry-major, one column for a constant field, and `along` the
# derivative d_Psi, which a constant field does not have. The pull-back and
# the bracket are one rule each, keyed by the kind's sign s: +1 for eps and
# nu, -1 for mu^-1.

def pull_back(sign, B, geo: MappedPoints):
    """det(J)^s Q B Q^T, symmetrized, of an entry-major B (3, 3, N|1), with
    Q = J^-1 for s = +1 and Q = J^T for s = -1; det(J)^s B of a scalar B (N|1,).
    One column where B and the map both have one."""
    Q, scale = (geo.Jinv, geo.det) if sign > 0 else (geo.J.swapaxes(0, 1), 1.0 / geo.det)
    return scale * B if B.ndim == 1 else congruence(Q, B, scale)


def bracket(sign, c, v: Velocity, geo: MappedPoints):
    """d_Psi c + s (div(Psi) c - W - W^T) at the mapped points, with W = J_Psi c
    for s = +1 and W = c J_Psi for s = -1; a scalar c has no W. The terms are
    summed in place; one column where c is constant and the family affine."""
    ct = c.entries(geo.y)
    if ct.ndim == 1:
        out = v.div_psi * ct
    else:
        # W before the sum: in the other order the derivative assembly's peak
        # RSS on an n = 10 bump (84000 points) rose by 2 MB (glibc malloc)
        jpsi = entry_major(v.jpsi)
        W = _mul(jpsi, ct) if sign > 0 else _mul(ct, jpsi)
        out = v.div_psi * ct
        out -= W
        out -= W.swapaxes(0, 1)
    if sign < 0:
        np.negative(out, out=out)
    if not c.constant:
        out += c.along(v.psi)
    return out


def transformed_epsilon(eps, geo: MappedPoints):
    """eps_Phi = det(J) J^-1 eps(Phi(x)) J^-T, symmetric positive-definite."""
    return pull_back(1, eps.entries(geo.y), geo)


def transformed_mu_inv(mu_inv, geo: MappedPoints):
    """mu_Phi^-1 = det(J)^-1 J^T mu^-1(Phi(x)) J."""
    return pull_back(-1, mu_inv.entries(geo.y), geo)


def transformed_nu(nu, geo: MappedPoints):
    """nu_Phi = det(J) * nu(Phi(x)) > 0."""
    return pull_back(1, nu.entries(geo.y), geo)


def directional_coefficient_epsilon(eps, v: Velocity, geo: MappedPoints):
    """Directional parameter derivative of the pulled-back permittivity."""
    return pull_back(1, bracket(1, eps, v, geo), geo)


def directional_coefficient_mu_inv(mu_inv, v: Velocity, geo: MappedPoints):
    """Directional parameter derivative of the pulled-back inverse permeability."""
    return pull_back(-1, bracket(-1, mu_inv, v, geo), geo)


def directional_coefficient_nu(nu, v: Velocity, geo: MappedPoints):
    """Directional parameter derivative of the pulled-back scalar weight."""
    return pull_back(1, bracket(1, nu, v, geo), geo)


class CoefficientKind(NamedTuple):
    """One coefficient kind: its config key and parser, the push-forward P
    (geo -> entry-major (3, 3, N)) of the fields it weighs, None for scalar
    fields, which are not transformed, the sign of its pull-back and bracket,
    the pull-back and its directional parameter derivative."""

    key: str
    parse: Callable
    push: Optional[Callable]
    sign: int
    pull_back: Callable
    derivative: Callable


def coefficient_kind(name: str) -> CoefficientKind:
    """The coefficient kind 'epsilon' (covariant Piola J^-T), 'mu_inv'
    (contravariant Piola J / det J, read from the config key 'mu') or 'nu'.

    The table is built per call, so the module attributes in effect at call
    time are the ones returned, also when they were replaced after import.
    """
    return {
        "epsilon": CoefficientKind(
            "epsilon", matrix_coefficient_from_config, lambda geo: geo.Jinv.swapaxes(0, 1),
            1, transformed_epsilon, directional_coefficient_epsilon),
        "mu_inv": CoefficientKind(
            "mu", matrix_coefficient_from_config, lambda geo: geo.J / geo.det,
            -1, transformed_mu_inv, directional_coefficient_mu_inv),
        "nu": CoefficientKind("nu", scalar_coefficient_from_config, None,
                              1, transformed_nu, directional_coefficient_nu),
    }[name]


# ---------------------------------------------------------------------------
# JSON config parsing
# ---------------------------------------------------------------------------

# the JSON types and their names, by the type `spec_value` reads
_JSON_TYPES = {float: ((int, float), "a finite number"), int: (int, "an integer"),
               bool: (bool, "a bool"), str: (str, "a string"), dict: (dict, "an object")}


# the least positive float: a number >= _POSITIVE is a number > 0
_POSITIVE = float(np.nextafter(0.0, 1.0))


def spec_value(spec: dict, key: str, default=None, of=float, shape=(), low=-np.inf,
               high=np.inf, name=None):
    """spec[key], required where `default` is None: a JSON value of type `of`
    (float, int, bool, str, dict, or a tuple of them), or nested lists of
    such values of `shape` (None: any length). A number is finite and lies
    in [low, high]; a bool is not a number. Returns `of(value)`, a float or
    int array for a `shape`, or the value itself for a tuple `of`. A
    violation is a ConfigError naming `name`, by default the quoted key."""
    label = repr(key) if name is None else name
    if default is None and key not in spec:
        raise ConfigError(f"missing {label}")
    value = spec.get(key, default)
    if isinstance(value, np.ndarray):  # from code, not from JSON
        value = value.tolist()
    types = of if isinstance(of, tuple) else (of,)

    def fits(x, shape):
        if shape:
            return (isinstance(x, (list, tuple)) and shape[0] in (None, len(x))
                    and all(fits(y, shape[1:]) for y in x))
        return any(isinstance(x, _JSON_TYPES[t][0]) and isinstance(x, bool) == (t is bool)
                   and (t not in (int, float) or -np.inf < x < np.inf and low <= x <= high)
                   for t in types)

    if not fits(value, shape):
        what = " or ".join(_JSON_TYPES[t][1] for t in types)
        if (low, high) != (-np.inf, np.inf):
            what += f" in [{low}, {high}]"
        if shape:
            what = f"an array of shape {shape}, each entry {what}"
        raise ConfigError(f"{label} must be {what}, got {value!r}")
    if isinstance(of, tuple):
        return value
    return np.asarray(value, dtype=of) if shape else of(value)


def spec_kind(spec: dict, key: str, what: str, kinds: dict, default=None) -> str:
    """The kind spec[key], a string read by `spec_value` under the name `what`.
    `kinds` maps each kind to the other keys its spec reads: an unknown kind,
    or a key of `spec` that its kind does not read, is a ConfigError naming it."""
    kind = spec_value(spec, key, default, of=str, name=what)
    if kind not in kinds:
        raise ConfigError(f"unknown {what} {kind!r}")
    unread = sorted(set(spec) - {key, *kinds[kind]})
    if unread:
        raise ConfigError(f"{what} {kind!r} does not read the keys {unread}")
    return kind


def field_from_config(spec: dict):
    kind = spec_kind(spec, "type", "displacement field type", {
        "constant": ("c",), "linear": ("G",),
        "sin": ("axis", "dependsOn", "amplitude", "frequency")})
    if kind == "constant":
        return AffineField(spec_value(spec, "c", shape=(3,)))
    if kind == "linear":
        return AffineField(np.zeros(3), spec_value(spec, "G", shape=(3, 3)))
    # sin
    axis = spec_value(spec, "axis", of=int, low=0, high=2)
    return SinField(
        axis=axis,
        depends_on=spec_value(spec, "dependsOn", axis, of=int, low=0, high=2),
        amplitude=spec_value(spec, "amplitude", 0.1),
        frequency=spec_value(spec, "frequency", 1.0),
    )


def family_from_config(spec: dict):
    kind = spec_kind(spec, "kind", "transformation family kind", {
        "affine": ("b1", "A1", "b0", "A0"), "bump": ("g",), "scaling": ("rate",),
        "translation": ("b1",), "stretch": ("axis",)})
    if kind == "affine":
        return Family(
            AffineField(spec_value(spec, "b1", [0, 0, 0], shape=(3,)),
                        spec_value(spec, "A1", np.zeros((3, 3)).tolist(), shape=(3, 3))),
            AffineField(spec_value(spec, "b0", [0, 0, 0], shape=(3,)),
                        spec_value(spec, "A0", np.eye(3).tolist(), shape=(3, 3))))
    if kind == "bump":
        return Family(field_from_config(spec_value(spec, "g", of=dict)))
    if kind == "scaling":
        return scaling_family(spec_value(spec, "rate", 1.0))
    if kind == "translation":
        return translation_family(spec_value(spec, "b1", [1.0, 0.0, 0.0], shape=(3,)))
    return stretch_family(spec_value(spec, "axis", 0, of=int, low=0, high=2))


def _diagonal(d0, D) -> AffineField:
    """diag(d0 + D x): entry i is d0[i] + D[i] . x."""
    G = np.zeros((3, 3, 3))
    G[range(3), range(3)] = D
    return AffineField(np.diag(np.asarray(d0, dtype=float)), G)


def matrix_coefficient_from_config(spec: dict) -> AffineField:
    """A 3x3 matrix coefficient; an empty spec is the identity."""
    kind = spec_kind(spec, "kind", "matrix coefficient kind", {
        "constant": ("M",), "affine-diagonal": ("d0", "D"),
        "scalar-affine-identity": ("c0", "c")}, "constant")
    if kind == "constant":
        M = spec_value(spec, "M", np.eye(3).tolist(), shape=(3, 3))
        if not (np.array_equal(M, M.T) and first_not_positive(M[None]) is None):
            raise ConfigError(f"constant 'M' must be symmetric positive-definite, got {M.tolist()}")
        return AffineField(M)
    if kind == "affine-diagonal":
        return _diagonal(spec_value(spec, "d0", shape=(3,)), spec_value(spec, "D", shape=(3, 3)))
    # scalar-affine-identity: (c0 + c . x) I
    return _diagonal(np.full(3, spec_value(spec, "c0")),
                     np.broadcast_to(spec_value(spec, "c", shape=(3,)), (3, 3)))


def scalar_coefficient_from_config(spec: dict) -> AffineField:
    """A scalar coefficient c0 + c . x; an empty spec is 1."""
    kind = spec_kind(spec, "kind", "scalar coefficient kind",
                     {"constant": ("v",), "affine": ("c0", "c")}, "constant")
    if kind == "constant":
        return AffineField(spec_value(spec, "v", 1.0, low=_POSITIVE))
    return AffineField(spec_value(spec, "c0"), spec_value(spec, "c", shape=(3,)))
