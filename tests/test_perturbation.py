"""Symmetric function calculus and branch-slope matrices.

The combinatorial identities are checked against brute-force subset
enumeration, and the binomial convention of the shifted-function inversion
is pinned by direct expansion for small sizes.
"""

import itertools
import warnings
from math import comb

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from spectra_shape import harness
from spectra_shape.errors import ContractViolationError, MultiplicityError
from spectra_shape.fem_common import PencilDerivative
from spectra_shape.perturbation import (
    elementary_symmetric,
    hat_functions,
    hellmann_feynman,
    reconstruct_lambda,
    rellich_matrix,
    symmetric_function_derivative,
    trace_formula,
)
from spectra_shape.spectral import EigenCluster, cluster_spectrum, solve_pencil


def brute_force_elementary(values, s):
    return sum(
        np.prod([values[i] for i in subset])
        for subset in itertools.combinations(range(len(values)), s)
    )


def make_cluster(lam_bar, vectors, width=0.0):
    m = vectors.shape[1]
    return EigenCluster(
        indices=np.arange(m), lambda_bar=lam_bar, vectors=vectors, width=width
    )


class TestElementarySymmetric:
    def test_matches_brute_force(self, rng):
        for m in (1, 2, 3, 5, 8):
            values = rng.uniform(-2.0, 3.0, m)
            for s in range(1, m + 1):
                assert elementary_symmetric(values, s) == pytest.approx(
                    brute_force_elementary(values, s), rel=1e-12, abs=1e-12
                )

    def test_top_order_is_product(self, rng):
        values = rng.uniform(0.5, 4.0, 6)
        assert elementary_symmetric(values, 6) == pytest.approx(
            np.prod(values), rel=1e-13
        )

    def test_order_out_of_range(self):
        with pytest.raises(ContractViolationError):
            elementary_symmetric([1.0, 2.0], 3)

    def test_overflow_is_silent(self):
        """35 values of 1e9 take the top order to 1e315: inf, with no warning,
        and the orders below stay finite."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert elementary_symmetric(np.full(35, 1e9), 35) == np.inf
            assert elementary_symmetric(np.full(35, 1e9), 1) == pytest.approx(3.5e10)


class TestHatFunctions:
    def test_shifted_values(self):
        lam_hat, m_hat = hat_functions([1.0, 2.0], 1)
        assert lam_hat == pytest.approx(5.0)          # (1+1) + (2+1)
        assert m_hat == pytest.approx(1 / 2 + 1 / 3)

    def test_order_zero_is_one(self):
        lam_hat, m_hat = hat_functions([3.0, 4.0], 0)
        assert lam_hat == 1.0 and m_hat == 1.0

    def test_value_at_minus_one_rejected(self):
        with pytest.raises(ZeroDivisionError):
            hat_functions([-1.0, 2.0], 1)


class TestReconstruct:
    def test_convention_by_brute_force_expansion(self, rng):
        """The inversion coefficient C(m-p, s-p) is pinned by expanding
        e_s(values) against e_p(values + 1) directly for m <= 4."""
        for m in (1, 2, 3, 4):
            values = rng.uniform(-0.5, 3.0, m)
            hats = [1.0] + [
                brute_force_elementary(values + 1.0, p) for p in range(1, m + 1)
            ]
            direct = [brute_force_elementary(values, s) for s in range(1, m + 1)]
            np.testing.assert_allclose(reconstruct_lambda(hats), direct, atol=1e-10)
            # and the coefficient identity itself
            for s in range(1, m + 1):
                acc = sum(
                    (-1.0) ** (s - p) * comb(m - p, s - p) * hats[p]
                    for p in range(0, s + 1)
                )
                assert acc == pytest.approx(direct[s - 1], abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-0.9, max_value=5.0, allow_nan=False),
            min_size=1,
            max_size=6,
        )
    )
    def test_round_trip(self, values):
        values = np.asarray(values)
        m = len(values)
        hats = [1.0] + [hat_functions(values, s)[0] for s in range(1, m + 1)]
        direct = [elementary_symmetric(values, s) for s in range(1, m + 1)]
        recon = reconstruct_lambda(hats)
        np.testing.assert_allclose(recon, direct, atol=1e-10 * max(1, np.abs(direct).max()))


class TestRellichMatrix:
    def test_crossing_pencil_slopes(self):
        dK = np.array([[0.0, 1.0], [1.0, 0.0]])
        deriv = PencilDerivative(dK, np.zeros((2, 2)))
        cluster = make_cluster(1.0, np.eye(2))
        R = rellich_matrix(deriv, cluster)
        np.testing.assert_allclose(R, dK)
        np.testing.assert_allclose(sla.eigvalsh(R), [-1.0, 1.0], atol=1e-15)

    def test_zero_derivative_gives_zero(self):
        deriv = PencilDerivative(np.zeros((3, 3)), np.zeros((3, 3)))
        R = rellich_matrix(deriv, make_cluster(2.0, np.eye(3)))
        np.testing.assert_allclose(sla.eigvalsh(R), 0.0, atol=1e-16)

    def test_basis_covariance(self, rng):
        n, m = 8, 3
        dK = rng.standard_normal((n, n))
        dK = 0.5 * (dK + dK.T)
        dM = rng.standard_normal((n, n))
        dM = 0.5 * (dM + dM.T)
        deriv = PencilDerivative(dK, dM)
        U = sla.qr(rng.standard_normal((n, m)), mode="economic")[0]
        Q = sla.qr(rng.standard_normal((m, m)))[0]
        s1 = sla.eigvalsh(rellich_matrix(deriv, make_cluster(1.3, U)))
        s2 = sla.eigvalsh(rellich_matrix(deriv, make_cluster(1.3, U @ Q)))
        np.testing.assert_allclose(np.sort(s1), np.sort(s2), atol=1e-10)

    def test_slopes_match_fd_on_synthetic_families(self):
        """One-sided FD of the sorted branches of analytic pencil families."""
        for spec in ({"kind": "crossing"}, {"kind": "degenerate", "seed": 5}):
            problem = harness.build_problem(
                harness.RunConfig(problem="abstract-pencil", abstract=spec))
            p0 = harness.assemble_at(problem, 0.0)
            dec = solve_pencil(p0)
            cl = cluster_spectrum(dec)[0]
            slopes = np.sort(
                sla.eigvalsh(rellich_matrix(harness.derivative_at(problem), cl))
            )
            h = 1e-4
            lam_p = solve_pencil(harness.assemble_at(problem, h)).eigenvalues[cl.indices]
            fd = np.sort((np.sort(lam_p) - np.sort(dec.eigenvalues[cl.indices])) / h)
            scale = max(1.0, abs(cl.lambda_bar))
            np.testing.assert_allclose(slopes / scale, fd / scale, atol=1e-3)

    def test_dimension_mismatch(self):
        deriv = PencilDerivative(np.zeros((4, 4)), np.zeros((4, 4)))
        with pytest.raises(ContractViolationError):
            rellich_matrix(deriv, make_cluster(1.0, np.eye(3)))


class TestHellmannFeynman:
    def test_simple_slope(self):
        deriv = PencilDerivative(np.diag([1.0, 0.0]), np.zeros((2, 2)))
        assert hellmann_feynman(deriv, 1.0, np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_multiple_eigenvalue_rejected(self):
        deriv = PencilDerivative(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(MultiplicityError):
            hellmann_feynman(deriv, 1.0, np.array([1.0, 0.0]), simple=False)


class TestTraceFormula:
    def test_crossing_family_orders(self):
        dK = np.array([[0.0, 1.0], [1.0, 0.0]])
        deriv = PencilDerivative(dK, np.zeros((2, 2)))
        cluster = make_cluster(1.0, np.eye(2))
        # slopes +-1: s=1 gives the sum 0; s=2 gives lam * C(1,1) * trace = 0,
        # matching d/dchi[(1+chi)(1-chi)] = 0 at chi=0
        assert symmetric_function_derivative(cluster, deriv, 1) == pytest.approx(0.0)
        assert symmetric_function_derivative(cluster, deriv, 2) == pytest.approx(0.0)

    def test_sum_rule_is_trace(self, rng):
        n, m = 7, 3
        dK = rng.standard_normal((n, n))
        dK = 0.5 * (dK + dK.T)
        deriv = PencilDerivative(dK, np.zeros((n, n)))
        U = sla.qr(rng.standard_normal((n, m)), mode="economic")[0]
        cluster = make_cluster(2.0, U)
        R = rellich_matrix(deriv, cluster)
        assert symmetric_function_derivative(cluster, deriv, 1) == pytest.approx(
            np.trace(R), rel=1e-13
        )

    @pytest.mark.parametrize("lambda_bar, m", [(1e9, 40), (2.0, 2000)])
    def test_overflow_is_inf(self, lambda_bar, m):
        """Past the float range, lambda_bar^(s - 1) or C(m - 1, s - 1) is inf
        where Python's float arithmetic raises; the first terms stay exact."""
        terms = trace_formula(lambda_bar, m, 0.5)
        assert terms[:2] == [0.5, lambda_bar * (m - 1) * 0.5]
        assert np.inf in terms

    def test_overflow_takes_the_sign_of_the_term(self):
        """lambda_bar^(s - 1) trace alternates in sign for a negative
        lambda_bar, and so does each overflowed term."""
        assert trace_formula(-1e9, 40, 1.0)[-3:] == [-np.inf, np.inf, -np.inf]
        assert trace_formula(1e9, 40, -1.0)[-2:] == [-np.inf, -np.inf]

    @pytest.mark.parametrize("lambda_bar, m", [(1e9, 40), (-1e9, 40), (2.0, 2000)])
    def test_zero_trace_is_zero_past_the_float_range(self, lambda_bar, m):
        assert trace_formula(lambda_bar, m, 0.0) == [0.0] * m

    def test_matches_fd_on_degenerate_pencil(self):
        """Central FD of Lambda_{F,s} over the exactly degenerate synthetic
        cluster, tolerance max(1e-6 |value|, 1e-8) after scaling."""
        problem = harness.build_problem(harness.RunConfig(
            problem="abstract-pencil",
            abstract={"kind": "degenerate", "m": 3, "lambda": 2.0, "seed": 11},
        ))
        p0 = harness.assemble_at(problem, 0.0)
        dec = solve_pencil(p0)
        cl = cluster_spectrum(dec)[0]
        assert cl.width <= 1e-10
        deriv = harness.derivative_at(problem)
        h = 1e-5
        lam_p = np.sort(solve_pencil(harness.assemble_at(problem, h)).eigenvalues[cl.indices])
        lam_m = np.sort(solve_pencil(harness.assemble_at(problem, -h)).eigenvalues[cl.indices])
        for s in range(1, cl.multiplicity + 1):
            fd = (elementary_symmetric(lam_p, s) - elementary_symmetric(lam_m, s)) / (2 * h)
            val = symmetric_function_derivative(cl, deriv, s)
            assert abs(val - fd) <= max(1e-6 * abs(val), 1e-8)
