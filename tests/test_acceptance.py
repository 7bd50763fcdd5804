"""Acceptance suite: one check per shipped guarantee, at pinned tolerances.

Each test prints a single PASS/FAIL line (visible with -s or in the
captured-output section) and asserts the same condition, so the pytest -v
report carries one line per criterion.
"""

import json
from functools import lru_cache
from math import comb

import numpy as np
import pytest
import scipy.linalg as sla

from spectra_shape import hadamard as hd
from spectra_shape import harness
from spectra_shape import helmholtz as hh
from spectra_shape import maxwell as mx
from spectra_shape import transforms as tf
from spectra_shape.fem_common import Pencil
from spectra_shape.geometry import build_box_mesh
from spectra_shape.perturbation import (
    elementary_symmetric,
    hat_functions,
    hellmann_feynman,
    reconstruct_lambda,
    rellich_matrix,
    symmetric_function_derivative,
)
from spectra_shape.spectral import (
    cluster_spectrum,
    resolvent_apply,
    riesz_projector,
    solve_pencil,
    subspace_gap,
)

EYE = tf.identity_matrix_coefficient()
ONE = tf.unit_scalar_coefficient()
PI2_2 = 2 * np.pi**2
PI2_3 = 3 * np.pi**2
CLUSTER_TOL = 0.08  # groups the physically degenerate lowest Maxwell triple


def report(criterion, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}"
    print(line)
    assert ok, line


@lru_cache(maxsize=None)
def helmholtz_case(n):
    """All-Dirichlet unit cube under the uniform scaling family."""
    fam = tf.scaling_family()
    mesh = build_box_mesh((1.0, 1.0, 1.0), n, "T")
    pencil = hh.assemble_helmholtz(mesh, fam, 0.0, EYE, ONE)
    dec = solve_pencil(pencil)
    cl = cluster_spectrum(dec, CLUSTER_TOL)[0]
    deriv = hh.assemble_helmholtz_derivative(mesh, fam, 0.0, 1.0, EYE, ONE)
    R = rellich_matrix(deriv, cl).matrix
    V = hd.helmholtz_volume_matrix(mesh, fam, 0.0, 1.0, EYE, ONE, cl)
    S = hd.helmholtz_surface_matrix(mesh, fam, 0.0, 1.0, EYE, ONE, cl)
    return dict(mesh=mesh, fam=fam, pencil=pencil, dec=dec, cl=cl,
                deriv=deriv, R=R, V=V, S=S)


@lru_cache(maxsize=None)
def maxwell_case(n):
    """All-tangential (PEC) unit cube under the single-axis stretch family."""
    fam = tf.stretch_family(0)
    mesh = build_box_mesh((1.0, 1.0, 1.0), n, "T")
    pencil = mx.assemble_maxwell(mesh, fam, 0.0, EYE, EYE)
    dec = solve_pencil(pencil)
    cl = cluster_spectrum(dec, CLUSTER_TOL)[0]
    deriv = mx.assemble_maxwell_derivative(mesh, fam, 0.0, 1.0, EYE, EYE)
    R = rellich_matrix(deriv, cl).matrix
    V = hd.maxwell_volume_matrix(mesh, fam, 0.0, 1.0, EYE, EYE, cl)
    S = hd.maxwell_surface_matrix(mesh, fam, 0.0, 1.0, EYE, EYE, cl)
    return dict(mesh=mesh, fam=fam, pencil=pencil, dec=dec, cl=cl,
                deriv=deriv, R=R, V=V, S=S)


def slope_gap(A, B):
    """Relative gap between the sorted slope eigenvalues of two routes."""
    a = np.sort(sla.eigvalsh(A))
    b = np.sort(sla.eigvalsh(B))
    return np.abs(a - b).max() / max(np.abs(a).max(), 1e-300)


def test_criterion_01_route_equivalence():
    """Volume-form matrix equals the pencil-derivative matrix to 1e-10
    relative on a >= 12 case family x coefficient x problem matrix."""
    families = [
        tf.scaling_family(),
        tf.stretch_family(0),
        tf.stretch_family(2),
        tf.AffineFamily(
            A1=np.array([[0.2, 0.1, 0.0], [0.0, -0.3, 0.05], [0.1, 0.0, 0.4]]),
            b1=np.array([0.1, 0.0, -0.2]),
        ),
        # half-period sine so the boundary actually moves (Psi.n nonzero at
        # x=1) and the slope matrix is well away from zero
        tf.BumpFamily(tf.SinField(axis=0, depends_on=0, amplitude=0.1, frequency=0.5)),
        tf.BumpFamily(tf.LinearField(
            np.array([[0.0, 0.2, 0.0], [0.0, 0.0, 0.1], [0.05, 0.0, 0.0]])
        )),
    ]
    eps_var = tf.ScalarAffineIdentityCoefficient(1.5, np.array([0.2, -0.1, 0.3]))
    nu_var = tf.AffineScalarCoefficient(2.0, np.array([0.1, 0.2, -0.3]))
    mu_var = tf.AffineDiagonalCoefficient(
        np.array([2.0, 2.0, 2.0]), 0.3 * np.eye(3)
    )
    mesh_h = build_box_mesh((1, 1, 1), 4, "T")
    mesh_m = build_box_mesh((1, 1, 1), 4, "T")

    cases = []
    for fam in families:
        cases.append(("helmholtz", fam, EYE, ONE))
        cases.append(("maxwell", fam, EYE, EYE))
    cases += [
        ("helmholtz", families[0], eps_var, nu_var),
        ("helmholtz", families[4], eps_var, nu_var),
        ("maxwell", families[1], eps_var, mu_var),
        ("maxwell", families[5], eps_var, mu_var),
    ]

    worst = 0.0
    for problem, fam, eps, second in cases:
        if problem == "helmholtz":
            p = hh.assemble_helmholtz(mesh_h, fam, 0.0, eps, second)
            d = hh.assemble_helmholtz_derivative(mesh_h, fam, 0.0, 1.0, eps, second)
            cl = cluster_spectrum(solve_pencil(p), CLUSTER_TOL)[0]
            V = hd.helmholtz_volume_matrix(mesh_h, fam, 0.0, 1.0, eps, second, cl)
        else:
            p = mx.assemble_maxwell(mesh_m, fam, 0.0, eps, second)
            d = mx.assemble_maxwell_derivative(mesh_m, fam, 0.0, 1.0, eps, second)
            cl = cluster_spectrum(solve_pencil(p), CLUSTER_TOL)[0]
            V = hd.maxwell_volume_matrix(mesh_m, fam, 0.0, 1.0, eps, second, cl)
        R = rellich_matrix(d, cl).matrix
        worst = max(worst, np.abs(V - R).max() / np.abs(R).max())
    report(
        "criterion 1 (route equivalence)",
        worst <= 1e-10,
        f"{len(cases)} cases, worst relative discrepancy {worst:.3e} <= 1e-10",
    )


def test_criterion_02_hellmann_feynman_vs_fd():
    """Simple-eigenvalue formula slope vs Richardson-extrapolated FD."""

    def richardson(builder, h1=1e-3):
        out = []
        for h in (h1, h1 / 2):
            lp = solve_pencil(builder(+h)).eigenvalues[0]
            lm = solve_pencil(builder(-h)).eigenvalues[0]
            out.append((lp - lm) / (2 * h))
        return (4 * out[1] - out[0]) / 3

    fam = tf.stretch_family(0)
    hcase = helmholtz_case(4)
    dh = hh.assemble_helmholtz_derivative(hcase["mesh"], fam, 0.0, 1.0, EYE, ONE)
    lam_h = hcase["dec"].eigenvalues[0]
    hf_h = hellmann_feynman(dh, lam_h, hcase["dec"].eigenvectors[:, 0])
    fd_h = richardson(
        lambda c: hh.assemble_helmholtz(hcase["mesh"], fam, c, EYE, ONE)
    )

    mcase = maxwell_case(4)
    lam_m = mcase["dec"].eigenvalues[0]  # separated from the pair above it
    hf_m = hellmann_feynman(mcase["deriv"], lam_m, mcase["dec"].eigenvectors[:, 0])
    fd_m = richardson(
        lambda c: mx.assemble_maxwell(mcase["mesh"], fam, c, EYE, EYE)
    )

    err_h = abs(hf_h - fd_h)
    err_m = abs(hf_m - fd_m)
    report(
        "criterion 2 (Hellmann-Feynman vs FD)",
        err_h <= 1e-6 * lam_h and err_m <= 1e-6 * lam_m,
        f"helmholtz |{hf_h:.6f} - {fd_h:.6f}| = {err_h:.2e} <= {1e-6 * lam_h:.2e}; "
        f"maxwell |{hf_m:.6f} - {fd_m:.6f}| = {err_m:.2e} <= {1e-6 * lam_m:.2e}",
    )


def test_criterion_03_exact_scaling_and_translation():
    """Scaling slope equals -2 lambda exactly; translation slope vanishes."""
    details = []
    ok = True
    for problem in ("helmholtz", "maxwell"):
        mesh = build_box_mesh((1, 1, 1), 3, "T")
        fam_s = tf.scaling_family()
        fam_t = tf.translation_family((1.0, 0.0, 0.0))
        if problem == "helmholtz":
            p = hh.assemble_helmholtz(mesh, fam_s, 0.0, EYE, ONE)
            ds = hh.assemble_helmholtz_derivative(mesh, fam_s, 0.0, 1.0, EYE, ONE)
            dt = hh.assemble_helmholtz_derivative(mesh, fam_t, 0.0, 1.0, EYE, ONE)
        else:
            p = mx.assemble_maxwell(mesh, fam_s, 0.0, EYE, EYE)
            ds = mx.assemble_maxwell_derivative(mesh, fam_s, 0.0, 1.0, EYE, EYE)
            dt = mx.assemble_maxwell_derivative(mesh, fam_t, 0.0, 1.0, EYE, EYE)
        cl = cluster_spectrum(solve_pencil(p), CLUSTER_TOL)[0]
        lam = cl.lambda_bar
        s_scaling = sla.eigvalsh(rellich_matrix(ds, cl).matrix)
        s_translation = sla.eigvalsh(rellich_matrix(dt, cl).matrix)
        rel = np.abs(s_scaling + 2 * lam).max() / (2 * lam)
        tra = np.abs(s_translation).max()
        ok = ok and rel <= 1e-8 and tra <= 1e-10 * lam
        details.append(f"{problem}: scaling rel err {rel:.2e}, translation {tra:.2e}")
    report("criterion 3 (scaling and translation laws)", ok, "; ".join(details))


def test_criterion_04_branch_splitting():
    """Crossing pencil slopes +-1 exactly; Maxwell stretch cluster slopes
    match tracked FD within max(1e-4 lambda, 2 x split width); continuum
    targets {-2pi^2, -2pi^2, 0} within 10% at n=6, improving at n=8."""
    cfg = harness.RunConfig(problem="abstract-pencil", abstract={"kind": "crossing"})
    rep = harness.run(cfg)
    crossing = np.abs(np.asarray(rep.clusters[0]["slopes_rellich"]) - [-1, 1]).max()

    case6 = maxwell_case(6)
    cl6 = case6["cl"]
    slopes6 = np.sort(sla.eigvalsh(case6["V"]))
    mcfg = harness.RunConfig.from_dict({
        "problem": "maxwell",
        "mesh": {"type": "box", "dims": [1, 1, 1], "n": 6, "partition": "T"},
        "family": {"kind": "stretch", "axis": 0},
        "cluster_tol": CLUSTER_TOL,
    })
    step = harness.cluster_fd_step(cl6, mcfg.fd_step)
    fd6, tag, _, _ = harness.tracked_fd_slopes(
        mcfg, case6["pencil"], cl6, step, mesh=case6["mesh"]
    )
    fd_tol = max(1e-4 * cl6.lambda_bar, 2 * cl6.width)
    fd_dev = np.abs(slopes6 - fd6).max()

    targets = np.array([-PI2_2, -PI2_2, 0.0])
    dev6 = np.abs(slopes6 - targets).max()
    slopes8 = np.sort(sla.eigvalsh(maxwell_case(8)["V"]))
    dev8 = np.abs(slopes8 - targets).max()

    ok = (
        crossing <= 1e-12
        and fd_dev <= fd_tol
        and dev6 <= 0.1 * PI2_2
        and dev8 < dev6
    )
    report(
        "criterion 4 (Rellich branch splitting)",
        ok,
        f"crossing dev {crossing:.1e} <= 1e-12; FD ({tag}, step {step:.3f}) dev "
        f"{fd_dev:.3f} <= {fd_tol:.3f}; continuum dev n=6 {dev6:.3f} <= "
        f"{0.1 * PI2_2:.3f}, n=8 {dev8:.3f} < n=6",
    )


def test_criterion_05_symmetric_function_derivatives():
    """Trace formula vs FD of Lambda_{F,s}, and hat round-trips."""
    # synthetic exactly degenerate pencils: 1e-5 relative
    worst_rel = 0.0
    for seed in (1, 11):
        cfg = harness.RunConfig(
            problem="abstract-pencil",
            abstract={"kind": "degenerate", "m": 3, "lambda": 2.0, "seed": seed},
        )
        dec = solve_pencil(harness.assemble_at(cfg, 0.0))
        cl = cluster_spectrum(dec)[0]
        deriv = harness.derivative_at(cfg)
        h = 1e-5
        lam_p = np.sort(solve_pencil(harness.assemble_at(cfg, h)).eigenvalues[cl.indices])
        lam_m = np.sort(solve_pencil(harness.assemble_at(cfg, -h)).eigenvalues[cl.indices])
        for s in range(1, cl.multiplicity + 1):
            fd = (elementary_symmetric(lam_p, s) - elementary_symmetric(lam_m, s)) / (2 * h)
            val = symmetric_function_derivative(cl, deriv, s)
            worst_rel = max(worst_rel, abs(val - fd) / max(abs(fd), 1e-12))

    # Maxwell cube cluster: split-dominated tolerance
    case = maxwell_case(6)
    cl = case["cl"]
    m = cl.multiplicity
    fam = case["fam"]
    h = 1e-4
    lam_p = np.sort(solve_pencil(
        mx.assemble_maxwell(case["mesh"], fam, +h, EYE, EYE)
    ).eigenvalues[cl.indices])
    lam_m = np.sort(solve_pencil(
        mx.assemble_maxwell(case["mesh"], fam, -h, EYE, EYE)
    ).eigenvalues[cl.indices])
    worst_ratio = 0.0
    for s in range(1, m + 1):
        fd = (elementary_symmetric(lam_p, s) - elementary_symmetric(lam_m, s)) / (2 * h)
        val = symmetric_function_derivative(cl, case["deriv"], s)
        tol = comb(m - 1, s - 1) * cl.lambda_bar ** (s - 1) * (2 * m * cl.width)
        worst_ratio = max(worst_ratio, abs(val - fd) / tol)

    # hat / reconstruction round-trip to 1e-10 for random m <= 6
    rng = np.random.default_rng(404)
    worst_rt = 0.0
    for _ in range(50):
        m_rt = int(rng.integers(1, 7))
        values = rng.uniform(-0.9, 5.0, m_rt)
        hats = [1.0] + [hat_functions(values, s)[0] for s in range(1, m_rt + 1)]
        direct = np.array(
            [elementary_symmetric(values, s) for s in range(1, m_rt + 1)]
        )
        err = np.abs(reconstruct_lambda(hats) - direct).max()
        worst_rt = max(worst_rt, err / max(1.0, np.abs(direct).max()))

    ok = worst_rel <= 1e-5 and worst_ratio <= 1.0 and worst_rt <= 1e-10
    report(
        "criterion 5 (symmetric-function derivatives)",
        ok,
        f"synthetic rel err {worst_rel:.2e} <= 1e-5; cube split-ratio "
        f"{worst_ratio:.3f} <= 1; round-trip {worst_rt:.2e} <= 1e-10",
    )


def test_criterion_06_surface_forms():
    """Surface-volume slope gap <= 10% at n=6, strictly decreasing over
    n in {3,4,6,8}; Dirichlet scaling surface slope within 10% of -2 lambda."""
    gaps = {"helmholtz": [], "maxwell": []}
    for n in (3, 4, 6, 8):
        hcase = helmholtz_case(n)
        gaps["helmholtz"].append(slope_gap(hcase["S"], hcase["V"]))
        mcase = maxwell_case(n)
        gaps["maxwell"].append(slope_gap(mcase["S"], mcase["V"]))
    decreasing = all(
        g[i + 1] < g[i] for g in gaps.values() for i in range(len(g) - 1)
    )
    at6 = {k: g[2] for k, g in gaps.items()}

    hcase6 = helmholtz_case(6)
    lam = hcase6["cl"].lambda_bar
    s_surface = sla.eigvalsh(hcase6["S"])[0]
    dirichlet_rel = abs(s_surface + 2 * lam) / (2 * lam)

    ok = (
        decreasing
        and all(v <= 0.10 for v in at6.values())
        and dirichlet_rel <= 0.10
    )
    report(
        "criterion 6 (surface derivative forms)",
        ok,
        f"slope gaps at n=6: helmholtz {at6['helmholtz']:.3f}, maxwell "
        f"{at6['maxwell']:.3f} (<= 0.10); strictly decreasing over n=3,4,6,8: "
        f"{decreasing}; Dirichlet scaling surface slope rel err "
        f"{dirichlet_rel:.3f} <= 0.10",
    )


def test_criterion_07a_helmholtz_accuracy_anchor():
    """Cube Dirichlet lambda_1 within 3% of 3 pi^2 at n=8.

    Known red: P1 elements on this structured mesh give ~6.5% at n=8 (the
    interpolant's Rayleigh quotient already sits at 6.5%); meeting 3% needs
    roughly n=12. Kept at the stated mesh size and tolerance.
    """
    lam1 = helmholtz_case(8)["dec"].eigenvalues[0]
    rel = abs(lam1 - PI2_3) / PI2_3
    report(
        "criterion 7a (Helmholtz spectral anchor)",
        rel <= 0.03,
        f"lambda_1 = {lam1:.4f} vs 3pi^2 = {PI2_3:.4f}, rel err {rel:.4f} <= 0.03",
    )


def test_criterion_07b_maxwell_accuracy_anchor():
    """Cube PEC lowest resonance within 5% of 2 pi^2 at n=6; kernel
    dimension equals the discrete gradient count."""
    case = maxwell_case(6)
    lam1 = case["dec"].eigenvalues[0]
    rel = abs(lam1 - PI2_2) / PI2_2
    G = mx.gradient_kernel_basis(case["mesh"])
    kernel_ok = case["dec"].kernel_dim == G.shape[1]
    report(
        "criterion 7b (Maxwell spectral anchor)",
        rel <= 0.05 and kernel_ok,
        f"lambda_1 = {lam1:.4f} vs 2pi^2 = {PI2_2:.4f}, rel err {rel:.4f} <= 0.05; "
        f"kernel dim {case['dec'].kernel_dim} == gradient count {G.shape[1]}",
    )


def test_criterion_08_projector_gap_resolvent():
    """Riesz projector, subspace gap examples, resolvent oracle, gap decay."""
    rng = np.random.default_rng(77)
    n = 10
    B = rng.standard_normal((n, n))
    M = B @ B.T + n * np.eye(n)
    L = sla.cholesky(M, lower=True)
    Q = sla.qr(rng.standard_normal((n, n)))[0]
    lams = np.array([1.0, 2.0, 3.0, 9.0, 11.0, 14.0, 17.0, 21.0, 26.0, 30.0])
    K = L @ Q @ np.diag(lams) @ Q.T @ L.T
    p = Pencil(K, M)
    dec = solve_pencil(p)

    P = riesz_projector(p, 2.0, 4.0, nquad=64)
    V = dec.eigenvectors[:, :3]
    proj_err = np.abs(P - V @ V.T @ p.M).max()
    idem_err = np.abs(P @ P - P).max()

    E = np.eye(4)
    gap_same = subspace_gap(E[:, :2], E[:, :2])
    gap_orth = abs(subspace_gap(E[:, :1], E[:, 1:2]) - 1.0)
    diag = np.array([[1.0], [1.0], [0.0], [0.0]]) / np.sqrt(2)
    gap_half = abs(subspace_gap(E[:, :1], diag) - np.sqrt(2) / 2)

    b = rng.standard_normal(n)
    zeta = 6.0
    oracle = dec.eigenvectors @ (
        dec.eigenvectors.T @ p.M @ b / (dec.eigenvalues - zeta)
    )
    res_err = np.abs(resolvent_apply(p, zeta, b) - oracle).max() / np.abs(oracle).max()

    # eigenspace blocks at chi and chi + delta: gap decays with delta
    def block(theta):
        c, s = np.cos(theta), np.sin(theta)
        Rot = np.eye(n)
        Rot[0, 0] = Rot[1, 1] = c
        Rot[0, 1], Rot[1, 0] = -s, s
        Kt = Rot @ np.diag(lams) @ Rot.T
        return solve_pencil(Pencil(Kt, np.eye(n))).eigenvectors[:, :1]

    U0 = block(0.0)
    decays = [subspace_gap(U0, block(d)) for d in (0.2, 0.1, 0.05)]
    halving = decays[1] < 0.75 * decays[0] and decays[2] < 0.75 * decays[1]

    ok = (
        proj_err <= 1e-8
        and idem_err <= 1e-8
        and max(gap_same, gap_orth, gap_half) <= 1e-12
        and res_err <= 1e-10
        and halving
    )
    report(
        "criterion 8 (projector, gap, resolvent)",
        ok,
        f"projector err {proj_err:.1e}, idempotency {idem_err:.1e} <= 1e-8; gap "
        f"examples max dev {max(gap_same, gap_orth, gap_half):.1e} <= 1e-12; "
        f"resolvent {res_err:.1e} <= 1e-10; gap halves with the step: {halving}",
    )


def test_criterion_09_deterministic_reports(tmp_path):
    """Identical config gives byte-identical reports modulo the timestamp."""
    texts = []
    for name in ("one.json", "two.json"):
        cfg = harness.RunConfig.from_dict({
            "problem": "helmholtz",
            "mesh": {"type": "box", "dims": [1, 1, 1], "n": 3, "partition": "T"},
            "family": {"kind": "bump",
                       "g": {"type": "sin", "axis": 0, "amplitude": 0.08}},
            "output": str(tmp_path / name),
        })
        harness.run(cfg)
        lines = (tmp_path / name).read_text().splitlines()
        texts.append("\n".join(l for l in lines if '"created_at"' not in l))
    ok = texts[0] == texts[1]
    report(
        "criterion 9 (deterministic reports)",
        ok,
        f"reports byte-identical modulo timestamp: {ok}",
    )
