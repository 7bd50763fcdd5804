"""Pull-back coefficient identities and directional derivative checks.

The directional coefficient derivatives have closed forms; here they are
cross-checked against central finite differences of the transformed
coefficients along the parameter, evaluated at matched physical points.
"""

import numpy as np
import pytest

from spectra_shape import transforms as tf
from spectra_shape.errors import ConfigError, InadmissibleParameterError
from spectra_shape.fem_common import default_quad_order


def random_points(rng, n=100):
    return rng.uniform(0.05, 0.95, size=(n, 3))


def per_point(a, n):
    """A point-major stack (N|1, ...) at each of n points: an affine family's
    map has one J, and its constant coefficients one pull-back."""
    return np.broadcast_to(a, (n,) + a.shape[1:])


def pull_back(kind, family, chi, coeff, X):
    """Pulled-back coefficient of `kind` at reference points X."""
    geo = tf.map_points(family, chi, X)
    return per_point(tf.point_major(tf.coefficient_kind(kind).pull_back(coeff, geo)), len(X))


def derivative(kind, family, chi_bar, direction, coeff, X):
    """Directional derivative of the pulled-back coefficient of `kind`."""
    geo = tf.map_points(family, chi_bar, X)
    v = tf.psi_on_physical(family, direction, geo)
    return per_point(tf.point_major(tf.coefficient_kind(kind).derivative(coeff, v, geo)), len(X))


FAMILIES = [
    tf.scaling_family(1.0),
    tf.translation_family((0.3, -0.2, 0.1)),
    tf.stretch_family(1),
    tf.Family(tf.AffineField(
        np.array([0.1, 0.0, -0.2]),
        np.array([[0.2, 0.1, 0.0], [0.0, -0.3, 0.05], [0.1, 0.0, 0.4]]),
    )),
    tf.Family(tf.SinField(axis=0, depends_on=1, amplitude=0.08, frequency=1.0)),
    tf.Family(tf.AffineField(np.zeros(3), np.array([[0.0, 0.2, 0.0],
                                                     [0.0, 0.0, 0.1],
                                                     [0.05, 0.0, 0.0]]))),
]

MATRIX_COEFFS = [
    tf.AffineField(np.eye(3)),
    tf.AffineField(np.diag([1.0, 2.0, 3.0])),
    tf.matrix_coefficient_from_config(
        {"kind": "affine-diagonal", "d0": [2.0, 2.0, 2.0], "D": 0.3 * np.eye(3)}),
    tf.matrix_coefficient_from_config(
        {"kind": "scalar-affine-identity", "c0": 1.5, "c": [0.2, -0.1, 0.3]}),
]

SCALAR_COEFFS = [
    tf.AffineField(1.0),
    tf.AffineField(2.0, np.array([0.1, 0.2, -0.3])),
]


class TestPullBacks:
    def test_identity_map_is_identity_pullback(self, rng):
        fam = tf.Family(tf.AffineField(np.zeros(3)))
        X = random_points(rng, 20)
        eps = tf.AffineField(np.diag([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(
            pull_back("epsilon", fam, 0.0, eps, X), eps.value(X), atol=1e-14
        )

    @pytest.mark.parametrize("family", FAMILIES)
    def test_epsilon_pullback_formula(self, family, rng):
        """eps_Phi = det(J) J^-1 eps(Phi(x)) J^-T pointwise."""
        X = random_points(rng, 30)
        eps = MATRIX_COEFFS[2]
        chi = 0.07
        J = family.jacobian(chi, X)
        Y = family.map(chi, X)
        det = np.linalg.det(J)
        Jinv = np.linalg.inv(J)
        expect = det[:, None, None] * np.einsum(
            "nab,nbc,ndc->nad", Jinv, eps.value(Y), Jinv
        )
        np.testing.assert_allclose(
            pull_back("epsilon", family, chi, eps, X), expect, atol=1e-12
        )

    @pytest.mark.parametrize("family", FAMILIES)
    def test_mu_inv_pullback_formula(self, family, rng):
        X = random_points(rng, 30)
        mu_inv = MATRIX_COEFFS[3]
        chi = -0.04
        J = family.jacobian(chi, X)
        Y = family.map(chi, X)
        det = np.linalg.det(J)
        expect = np.einsum(
            "nba,nbc,ncd->nad", J, mu_inv.value(Y), J
        ) / det[:, None, None]
        np.testing.assert_allclose(
            pull_back("mu_inv", family, chi, mu_inv, X), expect, atol=1e-12
        )

    def test_nu_pullback_formula(self, rng):
        fam = tf.scaling_family()
        nu = SCALAR_COEFFS[1]
        X = random_points(rng, 30)
        chi = 0.1
        expect = (1 + chi) ** 3 * nu.value(fam.map(chi, X))
        np.testing.assert_allclose(
            pull_back("nu", fam, chi, nu, X), expect, rtol=1e-12
        )

    def test_inadmissible_parameter_raises(self):
        fam = tf.scaling_family()
        X = np.array([[0.5, 0.5, 0.5]])
        with pytest.raises(InadmissibleParameterError):
            pull_back("epsilon", fam, -1.0, tf.AffineField(np.eye(3)), X)


class TestCoefficientKinds:
    @pytest.mark.parametrize("name", ["epsilon", "mu_inv", "nu"])
    def test_pull_back_is_the_push_forward_congruence(self, name, rng):
        """det(J) sym(P^T B P), with the kind's push-forward P, is its
        pull-back to 1e-13 relative at random admissible mapped points, for
        constant and affine coefficients; the scalar kind, and only it, has
        no push-forward (P = 1)."""
        kind = tf.coefficient_kind(name)
        assert (kind.push is None) is (name == "nu")
        coefficients = MATRIX_COEFFS if kind.push is not None else SCALAR_COEFFS
        for family in FAMILIES:
            for coeff in coefficients:
                X = random_points(rng, 40)
                geo = tf.map_points(family, rng.uniform(-0.1, 0.1), X)
                B = coeff.value(geo.y)
                det = per_point(geo.det, len(X))
                if kind.push is None:
                    expect = det * B
                else:
                    P = per_point(tf.point_major(kind.push(geo)), len(X))
                    expect = det[:, None, None] * tf._sym(
                        np.einsum("nba,nbc,ncd->nad", P, B, P))
                got = per_point(tf.point_major(kind.pull_back(coeff, geo)), len(X))
                assert got.shape == expect.shape
                assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


class TestDirectionalDerivatives:
    """Closed-form derivative vs central FD in chi at matched points.

    The FD compares coefficients at the *same physical point*: the
    transformed coefficient at chi is a function of the reference point, so
    the plain parameter difference at fixed x is exactly what the
    directional formula represents.
    """

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("coeff", MATRIX_COEFFS)
    def test_epsilon_derivative_matches_fd(self, family, coeff, rng):
        X = random_points(rng)
        chi_bar, h = 0.03, 1e-6
        fd = (
            pull_back("epsilon", family, chi_bar + h, coeff, X)
            - pull_back("epsilon", family, chi_bar - h, coeff, X)
        ) / (2 * h)
        der = derivative("epsilon", family, chi_bar, 1.0, coeff, X)
        np.testing.assert_allclose(der, fd, atol=5e-8)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("coeff", MATRIX_COEFFS)
    def test_mu_inv_derivative_matches_fd(self, family, coeff, rng):
        X = random_points(rng)
        chi_bar, h = -0.02, 1e-6
        fd = (
            pull_back("mu_inv", family, chi_bar + h, coeff, X)
            - pull_back("mu_inv", family, chi_bar - h, coeff, X)
        ) / (2 * h)
        der = derivative("mu_inv", family, chi_bar, 1.0, coeff, X)
        np.testing.assert_allclose(der, fd, atol=5e-8)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("coeff", SCALAR_COEFFS)
    def test_nu_derivative_matches_fd(self, family, coeff, rng):
        X = random_points(rng)
        chi_bar, h = 0.0, 1e-6
        fd = (
            pull_back("nu", family, chi_bar + h, coeff, X)
            - pull_back("nu", family, chi_bar - h, coeff, X)
        ) / (2 * h)
        der = derivative("nu", family, chi_bar, 1.0, coeff, X)
        np.testing.assert_allclose(der, fd, atol=5e-8)

    def test_derivative_linear_in_direction(self, rng):
        fam = FAMILIES[3]
        X = random_points(rng, 10)
        eps = MATRIX_COEFFS[1]
        one = derivative("epsilon", fam, 0.0, 1.0, eps, X)
        two = derivative("epsilon", fam, 0.0, 2.0, eps, X)
        np.testing.assert_allclose(two, 2.0 * one, rtol=1e-13)


class TestVelocityField:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_psi_matches_velocity_through_the_map(self, family, rng):
        """Psi at y = Phi(x) equals chi_dot * d_chi Phi(x), with J_Psi the
        physical-side Jacobian and div Psi its trace."""
        X = random_points(rng, 40)
        chi_bar = 0.05
        psi, jpsi, div_psi = tf.psi_on_physical(family, 1.0, tf.map_points(family, chi_bar, X))
        jpsi, div_psi = per_point(jpsi, len(X)), per_point(div_psi, len(X))
        np.testing.assert_allclose(psi, family.g.value(X), atol=1e-12)
        np.testing.assert_allclose(
            div_psi, np.trace(jpsi, axis1=1, axis2=2), atol=1e-13
        )
        J = per_point(family.jacobian(chi_bar, X), len(X))
        np.testing.assert_allclose(jpsi @ J, family.g.gradient(X), atol=1e-12)


class TestConfigParsers:
    def test_family_round_trips(self):
        fam = tf.family_from_config({"kind": "stretch", "axis": 2})
        assert isinstance(fam, tf.Family)
        np.testing.assert_array_equal(fam.g.G, np.diag([0.0, 0.0, 1.0]))
        np.testing.assert_array_equal(fam.base.G, np.eye(3))

    def test_bump_family_with_sin_field(self):
        fam = tf.family_from_config(
            {"kind": "bump", "g": {"type": "sin", "axis": 0, "amplitude": 0.1}}
        )
        assert isinstance(fam, tf.Family)
        assert fam.g == tf.SinField(axis=0, depends_on=0, amplitude=0.1, frequency=1.0)

    def test_affine_family_with_a_base_map(self, rng):
        """Phi_chi(x) = (A0 + chi A1) x + b0 + chi b1 with A0 != I and b0 != 0."""
        A0 = np.array([[1.1, 0.1, 0.0], [0.0, 0.9, 0.2], [0.05, 0.0, 1.2]])
        A1 = np.array([[0.2, 0.1, 0.0], [0.0, -0.3, 0.05], [0.1, 0.0, 0.4]])
        b0, b1 = np.array([0.3, -0.2, 0.5]), np.array([0.1, 0.0, -0.2])
        fam = tf.family_from_config({"kind": "affine", "A0": A0.tolist(), "A1": A1.tolist(),
                                     "b0": b0.tolist(), "b1": b1.tolist()})
        X, chi = random_points(rng, 30), 0.3
        np.testing.assert_allclose(fam.map(chi, X), X @ (A0 + chi * A1).T + b0 + chi * b1,
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(per_point(fam.jacobian(chi, X), len(X)),
                                   np.broadcast_to(A0 + chi * A1, (30, 3, 3)), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("g", [tf.SinField(0, 1, 0.1, 1.0), tf.AffineField([0.1, 0.0, 0.2]),
                                   tf.AffineField(np.zeros(3), np.diag([1.0, 0.5, 0.0]))])
    def test_identity_base_map_is_x_plus_chi_g(self, rng, g):
        """With the identity base the map is X + chi g(X) bit for bit, the
        value of base.value(X) + chi g(X)."""
        fam, X, chi = tf.Family(g), random_points(rng, 50), 0.37
        assert np.array_equal(fam.map(chi, X), X + chi * g.value(X))
        assert np.array_equal(fam.map(chi, X), fam.base.value(X) + chi * g.value(X))

    def test_unknown_kind_raises(self):
        with pytest.raises(ConfigError):
            tf.family_from_config({"kind": "mystery"})
        with pytest.raises(ConfigError):
            tf.matrix_coefficient_from_config({"kind": "mystery"})
        with pytest.raises(ConfigError):
            tf.scalar_coefficient_from_config({"kind": "mystery"})


D0 = np.array([1.0, 1.2, 0.9])
D = np.array([[0.3, 0.0, 0.1], [0.0, -0.2, 0.0], [0.1, 0.1, 0.25]])
C = np.array([0.2, -0.1, 0.3])
M = np.array([[2.0, 0.1, 0.0], [0.1, 1.5, 0.2], [0.0, 0.2, 1.0]])
EYE = np.eye(3)


def _constant(value):
    """Value and gradient of a constant field, as functions of the points X."""
    value = np.asarray(value, dtype=float)
    return (lambda X: np.broadcast_to(value, (len(X),) + value.shape),
            lambda X: np.zeros((len(X),) + value.shape + (3,)))


# (parser, spec, value(X), gradient(X)): each config kind and its documented formula
CATALOGUE = {
    "matrix constant": (tf.matrix_coefficient_from_config,
                        {"kind": "constant", "M": M.tolist()}, *_constant(M)),
    "matrix default": (tf.matrix_coefficient_from_config, {}, *_constant(EYE)),
    # diag(d0 + D x)
    "matrix affine-diagonal": (
        tf.matrix_coefficient_from_config,
        {"kind": "affine-diagonal", "d0": D0.tolist(), "D": D.tolist()},
        lambda X: np.einsum("ij,nj->nij", EYE, D0 + X @ D.T),
        lambda X: np.broadcast_to(np.einsum("ij,jk->ijk", EYE, D), (len(X), 3, 3, 3))),
    # (c0 + c . x) I
    "matrix scalar-affine-identity": (
        tf.matrix_coefficient_from_config,
        {"kind": "scalar-affine-identity", "c0": 1.5, "c": C.tolist()},
        lambda X: (1.5 + X @ C)[:, None, None] * EYE,
        lambda X: np.broadcast_to(np.einsum("ij,k->ijk", EYE, C), (len(X), 3, 3, 3))),
    "scalar constant": (tf.scalar_coefficient_from_config,
                        {"kind": "constant", "v": 2.5}, *_constant(2.5)),
    "scalar default": (tf.scalar_coefficient_from_config, {}, *_constant(1.0)),
    # c0 + c . x
    "scalar affine": (tf.scalar_coefficient_from_config,
                      {"kind": "affine", "c0": 2.0, "c": C.tolist()},
                      lambda X: 2.0 + X @ C, lambda X: np.broadcast_to(C, (len(X), 3))),
    "field constant": (tf.field_from_config,
                       {"type": "constant", "c": C.tolist()}, *_constant(C)),
    # G x
    "field linear": (tf.field_from_config, {"type": "linear", "G": D.tolist()},
                     lambda X: X @ D.T, lambda X: np.broadcast_to(D, (len(X), 3, 3))),
}


class TestCatalogue:
    @pytest.mark.parametrize("name", CATALOGUE)
    def test_config_kind_matches_its_formula(self, name, rng):
        parse, spec, value, gradient = CATALOGUE[name]
        X = rng.uniform(-1.0, 2.0, size=(50, 3))
        f = parse(spec)
        assert isinstance(f, tf.AffineField)
        np.testing.assert_allclose(f.value(X), value(X), rtol=0, atol=1e-14)
        np.testing.assert_allclose(f.gradient(X), gradient(X), rtol=0, atol=1e-14)

    def test_gradient_of_the_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            tf.AffineField(np.eye(3), np.zeros((3, 3)))

    @pytest.mark.parametrize("family, coefficients, order", [
        (tf.scaling_family(), [{}, {"kind": "constant", "v": 2.0}], 2),
        (tf.scaling_family(), [{"kind": "affine-diagonal", "d0": D0.tolist(),
                                "D": D.tolist()}, {}], 4),
        (tf.Family(tf.SinField(0, 0, 0.1, 0.5)), [{}, {}], 4),
        # a zero gradient is a constant value, which order 2 integrates exactly
        (tf.scaling_family(), [{}, {"kind": "affine", "c0": 2.0, "c": [0, 0, 0]}], 2),
        # a bump along an affine field is an affine map
        (tf.family_from_config({"kind": "bump", "g": {"type": "linear", "G": D.tolist()}}),
         [{}, {}], 2),
    ], ids=["affine-constant", "affine-diagonal", "bump", "affine-zero-gradient", "affine-bump"])
    def test_default_quad_order(self, family, coefficients, order):
        eps = tf.matrix_coefficient_from_config(coefficients[0])
        nu = tf.scalar_coefficient_from_config(coefficients[1])
        assert default_quad_order(family, eps, nu) == order


@pytest.mark.parametrize("seed", range(5))
def test_first_not_positive_matches_the_least_eigenvalue(seed):
    """Sylvester's leading minors against eigvalsh on symmetric matrices
    with eigenvalues of either sign, and on scalars."""
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((200, 3, 3)))[0]
    lam = rng.uniform(0.1, 2.0, (200, 3)) * rng.choice([1.0, 1.0, 1.0, -1.0], (200, 3))
    A = tf._sym(np.einsum("nij,nj,nkj->nik", Q, lam, Q))
    bad = np.flatnonzero(np.linalg.eigvalsh(A)[:, 0] <= 0)
    assert tf.first_not_positive(A) == bad[0]
    assert tf.first_not_positive(A[lam.min(axis=1) > 0]) is None
    assert tf.first_not_positive(lam[:, 0]) == np.flatnonzero(lam[:, 0] <= 0)[0]
