"""The Loewner-bound certificate of FD re-solves: the bounds enclose the
dense spectrum, a re-solve they prove is not counted, and every other one
is counted as before."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectra_shape import cli, harness, spectral
from spectra_shape import maxwell as mx
from spectra_shape import transforms as tf
from spectra_shape.fem_common import Discretisation, LoewnerReference, assemble_pencil
from spectra_shape.geometry import build_box_mesh
from spectra_shape.maxwell import NEDELEC
from spectra_shape.spectral import solve_pencil

# a small default profile: tier-1 has a 30 s budget
SMALL = settings(max_examples=15, deadline=None)
SEEDS = st.integers(0, 2**32 - 1)
FACES = ("x0", "x1", "y0", "y1", "z0", "z1")
MIXED = {"x0": "T", "x1": "N", "y0": "T", "y1": "T", "z0": "N", "z1": "T"}
BUMP = {"kind": "bump", "g": {"type": "sin", "axis": 0, "amplitude": 0.08, "frequency": 0.5}}


def _family(rng):
    """A catalogue family whose maps stay far from folding for |chi| <= 0.4."""
    kind = rng.choice(["affine", "bump", "scaling", "translation", "stretch"])
    if kind == "affine":
        return {"kind": kind, "b1": rng.uniform(-1, 1, 3).tolist(),
                "A1": rng.uniform(-0.5, 0.5, (3, 3)).tolist(),
                "b0": rng.uniform(-1, 1, 3).tolist(),
                "A0": (np.eye(3) + rng.uniform(-0.1, 0.1, (3, 3))).tolist()}
    if kind == "bump":
        axis, depends = (int(a) for a in rng.integers(0, 3, 2))
        return {"kind": kind, "g": {"type": "sin", "axis": axis, "dependsOn": depends,
                                    "amplitude": rng.uniform(0.02, 0.3),
                                    "frequency": rng.uniform(0.5, 2.0)}}
    if kind == "scaling":
        return {"kind": kind, "rate": rng.uniform(-1, 1)}
    if kind == "translation":
        return {"kind": kind, "b1": rng.uniform(-1, 1, 3).tolist()}
    return {"kind": kind, "axis": int(rng.integers(0, 3))}


def _matrix_coefficient(rng):
    """A catalogue matrix coefficient, positive on every mapped box of `_family`."""
    kind = rng.choice(["constant", "affine-diagonal", "scalar-affine-identity"])
    if kind == "constant":
        A = rng.uniform(-0.3, 0.3, (3, 3))
        return {"kind": kind, "M": (A @ A.T + rng.uniform(0.5, 2.0) * np.eye(3)).tolist()}
    if kind == "affine-diagonal":
        return {"kind": kind, "d0": rng.uniform(1.0, 2.0, 3).tolist(),
                "D": rng.uniform(-0.05, 0.05, (3, 3)).tolist()}
    return {"kind": kind, "c0": rng.uniform(1.0, 2.0), "c": rng.uniform(-0.05, 0.05, 3).tolist()}


def _scalar_coefficient(rng):
    if rng.random() < 0.5:
        return {"kind": "constant", "v": rng.uniform(0.5, 2.0)}
    return {"kind": "affine", "c0": rng.uniform(1.0, 2.0),
            "c": rng.uniform(-0.05, 0.05, 3).tolist()}


@SMALL
@given(seed=SEEDS, problem=st.sampled_from(["helmholtz", "maxwell"]), n=st.integers(2, 3))
def test_bounds_enclose_the_dense_spectrum(seed, problem, n):
    """Random catalogue families and coefficients, partitions, chi_bar and
    steps h, P1 and Nedelec: every ratio lambda_i(chi) / lambda_i(chi_bar) of
    the dense oracle, kernel excluded, lies in [a- / b+, a+ / b-], to 1e-9
    (the certificate's margin is 1e-8), and the kernel does not change."""
    rng = np.random.default_rng(seed)
    partition = {face: str(rng.choice(["T", "N"])) for face in FACES}
    coefficients = {"epsilon": _matrix_coefficient(rng)}
    coefficients.update({"mu": _matrix_coefficient(rng)} if problem == "maxwell"
                        else {"nu": _scalar_coefficient(rng)})
    chi_bar = float(rng.uniform(-0.2, 0.2))
    cfg = harness.RunConfig.from_dict({
        "problem": problem, "mesh": {"type": "box", "n": n, "partition": partition},
        "family": _family(rng), "coefficients": coefficients, "chi_bar": chi_bar})
    p = harness.build_problem(cfg)
    chi = chi_bar + float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-4, -0.7))
    pencil = harness.assemble_at(p, chi, reference=p.reference())
    a_lower, a_upper, b_lower, b_upper = pencil.bounds
    assert 0 < a_lower <= a_upper and 0 < b_lower <= b_upper
    here, there = solve_pencil(pencil), solve_pencil(harness.assemble_at(p, chi_bar))
    assert here.kernel_dim == there.kernel_dim
    ratio = here.eigenvalues / there.eigenvalues
    assert ratio.min() >= a_lower / b_upper * (1 - 1e-9)
    assert ratio.max() <= a_upper / b_lower * (1 + 1e-9)


def test_reference_bounds_its_own_pencil_by_one():
    """At chi_bar itself the bounds are 1 to round-off: W X W^T is the identity."""
    mesh = build_box_mesh((1.0, 1.0, 1.0), 3, MIXED)
    disc = Discretisation(NEDELEC, mesh, tf.family_from_config(BUMP), tf.AffineField(np.eye(3)),
                          tf.AffineField(np.eye(3)))
    bounds = assemble_pencil(disc, 0.1, LoewnerReference(disc, 0.1)).bounds
    np.testing.assert_allclose(bounds, 1.0, rtol=1e-12)


def _verify_config(tmp_path, **extra):
    path = tmp_path / "verify.json"
    path.write_text(json.dumps(dict({"problem": "maxwell",
                                     "mesh": {"type": "box", "n": 3, "partition": MIXED},
                                     "family": BUMP, "index_range": [1, 2]}, **extra)))
    return path


def _payload(path, out, command="verify"):
    """The payload of `command` on the config at `path`, created_at dropped."""
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    del payload.get("report", payload)["created_at"]
    return payload


@pytest.fixture
def dense_calls(monkeypatch):
    """Counts the dense solves made, so a test can tell which path ran."""
    return _spy(monkeypatch, spectral, "_solve_dense")


def _spy(monkeypatch, owner, name):
    """Record the result of each call of owner.name."""
    results, real = [], getattr(owner, name)

    def spy(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(owner, name, spy)
    return results


def _refuse_the_certificate(monkeypatch):
    monkeypatch.setattr(spectral, "_bounded_below", lambda *args: None)


def test_verify_counts_the_gap_inertia_once(tmp_path, monkeypatch, dense_calls):
    """`verify` on a small mixed Maxwell box, on the sparse path: the base
    solve counts, its 8 FD re-solves are certified by the bounds, one
    reference pass is made, and the payload equals the one whose FD solves
    are all counted."""
    path = _verify_config(tmp_path)
    with monkeypatch.context() as m:
        counts = _spy(m, spectral, "_count_below")
        solves = _spy(m, harness, "solve_pencil")
        references = _spy(m, harness, "LoewnerReference")
        certified = _payload(path, tmp_path / "certified.json")
    assert dense_calls == []
    assert len(counts) == 1 and len(references) == 1
    assert [dec.certificate for dec in solves] == ["count"] + ["bounds"] * 8
    with monkeypatch.context() as m:
        _refuse_the_certificate(m)
        counts = _spy(m, spectral, "_count_below")
        counted = _payload(path, tmp_path / "counted.json")
    assert len(counts) == 9
    assert certified == counted


def test_loose_bounds_fall_back_to_the_count(tmp_path, monkeypatch):
    """A stretch step of 0.05 bounds the FD pencils too loosely to prove the
    closing gap: `dshape` counts both FD solves, and its report is the one
    of a run with the certificate refused."""
    path = _verify_config(tmp_path, family={"kind": "stretch"}, fd_step=0.05)
    with monkeypatch.context() as m:
        counts = _spy(m, spectral, "_count_below")
        solves = _spy(m, harness, "solve_pencil")
        loose = _payload(path, tmp_path / "loose.json", "dshape")
    assert [dec.certificate for dec in solves] == ["count"] * 3
    assert len(counts) == 3
    with monkeypatch.context() as m:
        _refuse_the_certificate(m)
        assert _payload(path, tmp_path / "counted.json", "dshape") == loose


def test_missed_copy_is_refused_by_the_certificate(monkeypatch):
    """An FD run at chi = 1e-3 on a Maxwell pencil whose first Lanczos run
    misses the lowest member of the split PEC triple (one cluster at
    cluster_tol 0.08), as `miss_a_copy_once` makes one: the bounds do not
    prove the cluster of two complete, the count inside its gap counts
    three, and the run with twice the pairs, which the bounds prove, equals
    the dense oracle."""
    mesh = build_box_mesh((1.0, 1.0, 1.0), 4, "T")
    disc = Discretisation(NEDELEC, mesh, tf.family_from_config(BUMP), tf.AffineField(np.eye(3)),
                          tf.AffineField(np.eye(3)))
    base = solve_pencil(mx.assemble_maxwell(disc, 0.0), count=1, cluster_tol=0.08)
    p = mx.assemble_maxwell(disc, 1e-3, LoewnerReference(disc, 0.0))
    cut = spectral.DEFAULT_KERNEL_TOL * p.lambda_scale()
    calls, eigsh = [], spectral.spla.eigsh

    def first_call_misses_a_copy(*args, **kwargs):
        vals, vecs = eigsh(*args, **kwargs)
        calls.append(len(vals))
        if len(calls) == 1:
            drop = np.argmin(np.where(vals > cut, vals, np.inf))
            vals, vecs = np.delete(vals, drop), np.delete(vecs, drop, axis=1)
        return vals, vecs

    monkeypatch.setattr(spectral.spla, "eigsh", first_call_misses_a_copy)
    certified = _spy(monkeypatch, spectral, "_bounded_below")
    counts = _spy(monkeypatch, spectral, "_count_below")
    dec = solve_pencil(p, count=1, cluster_tol=0.08, reference=base)
    dense = solve_pencil(p)
    assert len(calls) == 2 and calls[1] == 2 * calls[0]
    assert certified[0] is None and certified[1] is not None
    assert counts == [dense.kernel_dim + 3]
    assert dec.certificate == "bounds" and dec.kernel_dim == dense.kernel_dim
    np.testing.assert_allclose(dec.eigenvalues, dense.eigenvalues[:3], rtol=1e-10)


@pytest.mark.parametrize("command", ["eig", "study"])
def test_no_fd_solve_holds_no_reference(command, tmp_path, monkeypatch):
    """`eig` and `study` make no FD solve, and no Loewner reference."""
    path = _verify_config(tmp_path, **({"refinement": [2, 3]} if command == "study" else {}))
    references = _spy(monkeypatch, harness, "LoewnerReference")
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out.json")]) == 0
    assert references == []
