"""Driver configs, reports, FD tables, refinement studies, and the CLI."""

import cProfile
import json
import os
import pstats
import subprocess
import sys
import time
import warnings
import weakref
from dataclasses import replace
from typing import NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linear_sum_assignment  # oracle of the pairing tests only

from spectra_shape import cli, fem_common, harness, maxwell, spectral
from spectra_shape import transforms as tf
from spectra_shape.errors import ConfigError, DegenerateProblemError, NonFiniteReportError
from spectra_shape.geometry import BOX_FACES, build_box_mesh, save_mesh

HELM_SCALING = {
    "problem": "helmholtz",
    "mesh": {"type": "box", "dims": [1, 1, 1], "n": 3, "partition": "T"},
    "family": {"kind": "scaling"},
}


MIXED = {"x0": "T", "x1": "N", "y0": "T", "y1": "T", "z0": "N", "z1": "T"}
BUMP_X = {"kind": "bump", "g": {"type": "sin", "axis": 0, "amplitude": 0.08}}

# the benchmark's seed-1 maxwell-mixed-verify config at n = 3
MAXWELL_MIXED = {"problem": "maxwell",
                 "mesh": {"type": "box", "n": 3, "partition": MIXED},
                 "family": {"kind": "bump", "g": {"type": "sin", "axis": 0,
                                                  "amplitude": 0.06422556741993805,
                                                  "frequency": 0.5}},
                 "direction": 1.7153257868178367,
                 "coefficients": {"epsilon": {"M": (1.1930657241276608 * np.eye(3)).tolist()}},
                 "index_range": [1, 2]}


def refusing(what):
    """A stand-in that fails the test with `what` if it is called."""
    def refuse(*args, **kwargs):
        raise AssertionError(what)
    return refuse


def count_calls(monkeypatch, name):
    """The arguments of each call to `harness.<name>`, which still runs."""
    calls = []
    original = getattr(harness, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, name, counting)
    return calls


def config(**overrides):
    raw = dict(HELM_SCALING)
    raw.update(overrides)
    return harness.RunConfig.from_dict(raw)


class TestRunConfig:
    def test_defaults_filled(self):
        cfg = config()
        assert cfg.chi_bar == 0.0
        assert cfg.direction == 1.0
        assert cfg.index_range == (1, 1)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            harness.RunConfig.from_dict(dict(HELM_SCALING, typo_key=1))

    def test_bad_problem_rejected(self):
        with pytest.raises(ConfigError):
            harness.RunConfig.from_dict({"problem": "acoustics"})

    def test_bad_index_range_rejected(self):
        with pytest.raises(ConfigError):
            harness.RunConfig.from_dict(dict(HELM_SCALING, index_range=[3, 1]))

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(ConfigError):
            harness.RunConfig.from_dict(dict(HELM_SCALING, kernel_tol=0.0))

    # the nested specs are read, and checked, when the problem is built
    def test_bad_coefficient_spec_rejected(self):
        with pytest.raises(ConfigError):
            harness.build_problem(config(coefficients={"nu": {"kind": "mystery"}}))

    def test_missing_spec_key_rejected_at_parse(self):
        with pytest.raises(ConfigError):
            harness.build_problem(config(family={"kind": "bump"}))

    def test_file_mesh_without_path_rejected(self):
        with pytest.raises(ConfigError):
            harness.build_problem(config(mesh={"type": "file"}))

    @pytest.mark.parametrize("problem, coefficients", [
        ("helmholtz", {"mu": {"kind": "constant"}}),
        ("helmholtz", {"epsilonn": {"kind": "constant"}}),
        ("maxwell", {"nu": {"kind": "constant", "v": 2.0}}),
    ])
    def test_coefficient_the_problem_does_not_read_rejected(self, problem, coefficients):
        with pytest.raises(ConfigError, match="reads the coefficients"):
            harness.build_problem(harness.RunConfig.from_dict(
                dict(HELM_SCALING, problem=problem, coefficients=coefficients)))


    def test_affine_coefficient_checked_at_the_mapped_vertices(self):
        """nu = 1 - 0.8 x is positive on the unit box but not at x = 1.5,
        where Phi_0.5 = 1.5 x takes the vertices with x = 1."""
        nu = {"kind": "affine", "c0": 1.0, "c": [-0.8, 0.0, 0.0]}
        assert harness.build_problem(config(coefficients={"nu": nu})).mesh is not None
        with pytest.raises(ConfigError, match=r"'nu' .* least eigenvalue is -0.2 at the "
                                              r"mapped vertex \[1.5, 0.0, 0.0\]"):
            harness.build_problem(config(coefficients={"nu": nu}, chi_bar=0.5))


class TestRun:
    def test_helmholtz_scaling_report(self):
        report = harness.run(harness.build_problem(config()))
        rec = report["clusters"][0]
        lam = rec["lambda_bar"]
        assert rec["slopes_volume"][0] == pytest.approx(-2 * lam, rel=1e-8)
        assert rec["slopes_fd"][0] == pytest.approx(-2 * lam, rel=1e-6)
        assert rec["route_discrepancy"] <= 1e-10
        assert rec["fd_tracking"] == "overlap"
        assert rec["fd_min_overlap"] == pytest.approx(1.0, abs=1e-6)

    def test_crossing_pencil_slopes(self):
        cfg = harness.RunConfig(
            problem="abstract-pencil", abstract={"kind": "crossing"}
        )
        report = harness.run(harness.build_problem(cfg))
        np.testing.assert_allclose(
            report["clusters"][0]["slopes_rellich"], [-1.0, 1.0], atol=1e-12
        )

    def test_report_is_deterministic(self):
        docs = [harness.run(harness.build_problem(config())) for _ in range(2)]
        for d in docs:
            d.pop("created_at")
        assert json.dumps(docs[0], sort_keys=True) == json.dumps(docs[1], sort_keys=True)

    def test_index_range_beyond_spectrum_rejected(self):
        with pytest.raises(ConfigError):
            harness.run(harness.build_problem(config(index_range=[1, 10_000])))

    def test_untrusted_surface_form_is_not_computed(self, monkeypatch):
        monkeypatch.setattr(harness.hadamard, "helmholtz_surface_matrix",
                            refusing("surface matrix computed for an untrusted form"))
        rec = harness.run(harness.build_problem(config(surface_form_trusted=False)))["clusters"][0]
        assert "volume_matrix" in rec
        assert "surface_matrix" not in rec and "surface_volume_gap" not in rec

    def test_clusters_sharing_an_fd_step_share_the_solves(self, monkeypatch):
        assemblies = count_calls(monkeypatch, "assemble_at")
        box = {"type": "box", "dims": [1, 1.3, 1.7], "n": 3, "partition": "T"}
        records = harness.run(harness.build_problem(config(mesh=box, index_range=[1, 2])))["clusters"]
        assert [r["multiplicity"] for r in records] == [1, 1]
        assert records[0]["fd_step"] == records[1]["fd_step"]
        # one assembly at chi_bar, then one at each of chi_bar +- step for both
        assert len(assemblies) == 3
        for rec in records:
            assert rec["slopes_fd"] == pytest.approx(rec["slopes_rellich"], rel=1e-6)

    def test_enlarged_fd_step_past_admissibility_is_withheld(self):
        """On the n=3 box at cluster_tol 0.5 the cluster [2..8] (width 182 at
        lambda_bar 165) takes the FD step 4.41, and chi_bar - 4.41 folds the
        scaling map: that cluster's FD slopes are withheld, with the step and
        the reason, and its routes are still reported."""
        [rec] = harness.run(harness.build_problem(
            config(index_range=[2, 2], cluster_tol=0.5)))["clusters"]
        assert rec["indices"] == list(range(2, 9))
        assert rec["fd_step"] == pytest.approx(4.0 * rec["width"] / rec["lambda_bar"])
        assert rec["fd_step"] > 1.0
        assert rec["fd_tracking"].startswith(
            f"withheld: det J_Phi <= 0 at parameter {-rec['fd_step']!r}")
        assert not {"slopes_fd", "fd_min_overlap"} & set(rec)
        assert rec["route_discrepancy"] <= 1e-10

    def test_report_schema_fields(self):
        doc = harness.run(harness.build_problem(config()))
        assert doc["schema_version"] == harness.SCHEMA_VERSION
        assert "created_at" in doc
        assert doc["environment"]["dofs"] > 0


class TestCoefficientRoles:
    """Each config key reaches the role of its kind through `build_problem`:
    constant coefficients scale the eigenvalues by stiffness / mass, so a
    swapped role reads the inverse factor. Maxwell's "mu" is mu^-1, its
    stiffness."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("problem, coefficients, factor", [
        ("helmholtz", {"epsilon": {"M": (2.5 * np.eye(3)).tolist()}, "nu": {"v": 0.4}},
         2.5 / 0.4),
        ("maxwell", {"epsilon": {"M": (2.5 * np.eye(3)).tolist()},
                     "mu": {"M": (0.6 * np.eye(3)).tolist()}}, 0.6 / 2.5),
    ], ids=["helmholtz", "maxwell"])
    def test_config_key_reaches_its_role(self, n, problem, coefficients, factor):
        def eigenvalues(coefficients):
            cfg = harness.RunConfig.from_dict({
                "problem": problem, "mesh": {"type": "box", "n": n, "partition": MIXED},
                "coefficients": coefficients, "index_range": [1, 4]})
            return harness.build_problem(cfg).solution[1].eigenvalues

        reference = eigenvalues({})
        assert len(reference) >= 4
        np.testing.assert_allclose(eigenvalues(coefficients), factor * reference, rtol=1e-12)


class TestFdCheck:
    def test_scaling_richardson_hits_exact_slope(self):
        cfg = config()
        rows = harness.fd_check(harness.build_problem(cfg), (1e-3, 1e-4))
        lam = harness.run(harness.build_problem(cfg))["clusters"][0]["lambda_bar"]
        rich = rows[0]["richardson"][0]
        assert rich == pytest.approx(-2 * lam, rel=1e-9)

    def test_translation_slopes_vanish(self):
        cfg = config(family={"kind": "translation", "b1": [1.0, 0.0, 0.0]})
        rows = harness.fd_check(harness.build_problem(cfg), (1e-3, 1e-4))
        for row in rows:
            assert np.abs(row["slopes"]).max() <= 1e-10

    def test_observed_order_is_two(self):
        cfg = config()
        rows = harness.fd_check(harness.build_problem(cfg), (1e-3, 5e-4, 2.5e-4))
        assert 1.9 <= rows[0]["observed_order"] <= 2.1

    def test_observed_order_needs_differences_above_round_off(self):
        """At the default geometric steps the slope differences of this config
        are 185 and 716 round-off units eps |lambda_bar| / h_min, below the
        1e4 units that an observed order needs."""
        problem = harness.build_problem(harness.RunConfig.from_dict(MAXWELL_MIXED))
        rows = harness.fd_check(problem, problem.cfg.fd_steps)
        assert len(rows) == 3
        assert all("slopes" in r and "observed_order" not in r for r in rows)

    @pytest.mark.parametrize("steps", [(1e-3, 2e-3, 8e-3), (1e-3, 3e-3, 4e-3, 1e-2)])
    def test_observed_order_needs_geometric_steps(self, steps):
        rows = harness.fd_check(harness.build_problem(config()), steps)
        assert all("slopes" in r and "observed_order" not in r for r in rows)

    def test_sym_slopes_recorded_per_step(self):
        rows = harness.fd_check(harness.build_problem(config()), (1e-3, 1e-4))
        for row in rows:
            assert row["step"] > 0
            assert len(row["sym_slopes"]) == 1
            assert row["fd_min_overlap"] > 0.5

    def test_each_shifted_pencil_is_solved_once(self, monkeypatch):
        solves = count_calls(monkeypatch, "solve_pencil")
        rows = harness.fd_check(harness.build_problem(config()), (1e-3, 5e-4, 2.5e-4))
        assert all("sym_slopes" in r for r in rows)
        # one solve at chi_bar, then one per chi_bar +- step
        assert len(solves) == 1 + 2 * 3

    def test_table_follows_index_range(self):
        """On the stretched box [1, 1.2, 0.9] the table of index_range [2, 2]
        differences the second eigenvalue: slope -36.25, the first's -25.00."""
        box = {"type": "box", "dims": [1, 1.2, 0.9], "n": 4, "partition": "T"}
        problem = harness.build_problem(config(mesh=box, family={"kind": "stretch", "axis": 0},
                                               index_range=[2, 2]))
        [rec] = harness.run(problem)["clusters"]
        assert rec["indices"] == [2]
        for row in harness.fd_check(problem, (1e-3, 1e-4)):
            assert row["slopes"] == pytest.approx(rec["slopes_rellich"], rel=1e-5)

    def test_too_few_steps_rejected(self):
        with pytest.raises(ConfigError):
            harness.fd_check(harness.build_problem(config()), (1e-3,))


def check_pairing_against_oracle(overlap):
    """`max_overlap_pairing` is a permutation with the total overlap of the
    scipy oracle, and it is the oracle's pairing when the optimum is unique."""
    m = len(overlap)
    cols = harness.max_overlap_pairing(overlap)
    _, oracle = linear_sum_assignment(overlap, maximize=True)
    assert sorted(cols.tolist()) == list(range(m))
    best = overlap[np.arange(m), oracle].sum()
    assert abs(overlap[np.arange(m), cols].sum() - best) <= 1e-12
    # the optimum is unique when forbidding any one of its pairs lowers it;
    # entries lie in [0, 1], so a pairing through an entry of -(m + 1) totals < 0
    runner_up = -np.inf
    for i in range(m):
        forbidden = overlap.copy()
        forbidden[i, oracle[i]] = -(m + 1.0)
        _, alt = linear_sum_assignment(forbidden, maximize=True)
        runner_up = max(runner_up, forbidden[np.arange(m), alt].sum())
    if best - runner_up > 1e-9:
        np.testing.assert_array_equal(cols, oracle)


class TestMaxOverlapPairing:
    @settings(max_examples=200, deadline=None)
    @given(overlap=st.integers(1, 8).flatmap(
        lambda m: hnp.arrays(float, (m, m), elements=st.floats(0.0, 1.0))))
    def test_matches_the_assignment_oracle(self, overlap):
        check_pairing_against_oracle(overlap)

    def test_twelve_branches(self):
        rng = np.random.default_rng(12)
        check_pairing_against_oracle(rng.random((12, 12)))
        # eigenvector overlaps of a rotated basis: |Q| of an orthogonal Q
        Q = np.linalg.qr(rng.standard_normal((12, 12)))[0]
        check_pairing_against_oracle(np.abs(Q))


def assert_levels_read_run(cfg):
    """Each study level's lambda_bar and gaps equal those of the record that
    `run` makes of the first reported cluster on that level's config."""
    for row in harness.refinement_study(cfg):
        level = replace(cfg, mesh=dict(cfg.mesh, n=row["n"]))
        rec = harness.run(harness.build_problem(level))["clusters"][0]
        for key in ("lambda_bar", "route_discrepancy", "surface_volume_gap"):
            assert row[key] == rec[key], (row["n"], key)


class TestRefinementStudy:
    def test_level_reports_the_cluster_that_dshape_reports(self):
        """index_range [2, 2] on the [1, 1.2, 0.9] box: each level reports
        the cluster of eigenvalue 2, as dshape does, not the lowest one."""
        cfg = config(mesh=dict(HELM_SCALING["mesh"], dims=[1, 1.2, 0.9]), index_range=[2, 2],
                     refinement=[3, 4])
        assert_levels_read_run(cfg)

    @settings(max_examples=12, deadline=None)
    @given(problem=st.sampled_from(["helmholtz", "maxwell"]), n=st.sampled_from([2, 3]),
           faces=st.lists(st.sampled_from("TN"), min_size=6, max_size=6), data=st.data())
    def test_levels_read_run_on_drawn_boxes(self, problem, n, faces, data):
        """Helmholtz and Maxwell boxes of per-face T/N partitions, with an
        index_range inside the spectrum that the dense oracle computes."""
        mesh = {"type": "box", "n": n, "partition": dict(zip(BOX_FACES, faces))}
        probe = harness.build_problem(config(problem=problem, mesh=mesh))
        count = len(spectral.solve_pencil(harness.assemble_at(probe, 0.0)).eigenvalues)
        hi = data.draw(st.integers(1, min(count, 4)), label="hi")
        lo = data.draw(st.integers(1, hi), label="lo")
        assert_levels_read_run(config(problem=problem, mesh=mesh, index_range=[lo, hi],
                                      refinement=[n]))

    def test_gap_and_routes_over_levels(self):
        rows = harness.refinement_study(config(refinement=[2, 3, 4]))
        gaps = [r["surface_volume_gap"] for r in rows]
        assert gaps == sorted(gaps, reverse=True)
        assert all(r["route_discrepancy"] <= 1e-10 for r in rows)
        assert all(r["gap_decreased"] for r in rows)

    def test_study_and_run_share_one_route_evaluation(self):
        cfg = config(mesh=dict(HELM_SCALING["mesh"], partition=MIXED), refinement=[3],
                     family=BUMP_X)
        [row] = harness.refinement_study(cfg)
        rec = harness.run(harness.build_problem(cfg))["clusters"][0]
        assert row["route_discrepancy"] == rec["route_discrepancy"]
        assert row["surface_volume_gap"] == rec["surface_volume_gap"]
        assert row["surface_volume_gap"] > 0

    def test_slope_zero_by_symmetry_passes_route_equivalence(self):
        """On the all-T box a bump along x leaves the lowest slope zero by
        symmetry, so every route reads round-off of zero."""
        cfg = config(refinement=[3], family=BUMP_X)
        rec = harness.run(harness.build_problem(cfg))["clusters"][0]
        assert abs(rec["slopes_rellich"][0]) <= 1e-12 * rec["lambda_bar"]
        assert rec["route_discrepancy"] <= 1e-10 and rec["surface_volume_gap"] <= 1e-8
        [row] = harness.refinement_study(cfg)
        assert row["route_discrepancy"] <= 1e-10 and row["surface_volume_gap"] <= 1e-8

    def test_route_gaps_do_not_depend_on_the_basis(self):
        """The exact double [2, 3] of a bump on the all-T n=4 box, its vectors
        rotated by a random orthogonal Q: the matrices' entries move, the
        spectral-norm gaps stay to 1e-12."""
        cfg = config(mesh=dict(HELM_SCALING["mesh"], n=4), index_range=[2, 3], cluster_tol=0.08,
                     family={"kind": "bump", "g": {"type": "sin", "axis": 0,
                                                   "amplitude": 0.078, "frequency": 0.5}})
        problem = harness.build_problem(cfg)
        _, dec, clusters = problem.solution
        [cl] = [c for c in clusters if list(c.indices) == [1, 2]]
        assert np.ptp(dec.eigenvalues[cl.indices]) <= 1e-12 * cl.lambda_bar
        Q = np.linalg.qr(np.random.default_rng(3).standard_normal((2, 2)))[0]
        turned = replace(cl, vectors=cl.vectors @ Q)
        rec, rec2 = harness._cluster_records(problem, [cl, turned], surface=True)
        S, S2 = np.array(rec["surface_matrix"]), np.array(rec2["surface_matrix"])
        assert np.max(np.abs(S2 - S)) > 1e-3 * np.max(np.abs(S))
        deriv = harness.derivative_at(problem)
        assert (harness._round_off_scale(deriv, turned)
                == pytest.approx(harness._round_off_scale(deriv, cl), rel=1e-12))
        for gap in ("route_discrepancy", "surface_volume_gap"):
            assert rec2[gap] == pytest.approx(rec[gap], rel=0, abs=1e-12)

    def test_level_checks_eigenpair_residuals(self, tmp_path, capsys, monkeypatch):
        """A level's solve with one perturbed eigenvector fails the residual
        check of its record: the study exits 4."""
        solve = harness.solve_pencil

        def perturbed(*args, **kwargs):
            dec = solve(*args, **kwargs)
            dec.eigenvectors[:, 0] += 1e-3
            return dec

        monkeypatch.setattr(harness, "solve_pencil", perturbed)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(HELM_SCALING, refinement=[2, 3])))
        assert cli.main(["study", "--config", str(path)]) == cli.EXIT_INVARIANT
        assert capsys.readouterr().err == (
            "invariant violation: eigenpair residual exceeds 1e-8 scale\n")

    def test_one_level_alive_at_a_time(self, monkeypatch):
        """Each level's problem, with its mesh, discretisation, pencil and
        solve, is dead when the next level's build starts."""
        levels = []
        build = harness.build_problem

        def spied(cfg):
            assert [ref() for ref in levels] == [None] * len(levels), "a previous level is alive"
            problem = build(cfg)
            levels.append(weakref.ref(problem))
            return problem

        monkeypatch.setattr(harness, "build_problem", spied)
        rows = harness.refinement_study(config(refinement=[2, 3, 4]))
        assert [row["n"] for row in rows] == [2, 3, 4] and len(levels) == 3
        assert levels[-1]() is None

    def test_dof_guard(self):
        cfg = config(problem="maxwell", refinement=[64])
        with pytest.raises(ConfigError):
            harness.refinement_study(cfg)

    def test_empty_refinement_rejected(self):
        with pytest.raises(ConfigError):
            harness.refinement_study(config(refinement=[]))


class Case(NamedTuple):
    """One CLI run: `command` on `base` updated with `config` (no config
    file when None), in a directory holding `files`, exits `code`."""
    config: Optional[dict]
    command: str = "eig"
    code: int = cli.EXIT_CONFIG
    files: dict = {}
    base: dict = HELM_SCALING


ONE_TET = "tetmesh v1\nvertices 4\n0 0 0\n1 0 0\n0 1 0\n0 0 1\ntets 1\n0 1 2 3\nbfacets 4\n"
ALL_N = "1 2 3 N\n0 2 3 N\n0 1 3 N\n0 1 2 N\n"
PREFIX = {cli.EXIT_CONFIG: "config error: ", cli.EXIT_NUMERICAL: "numerical failure: ",
          cli.EXIT_INVARIANT: "invariant violation: "}

# Every CLI case that runs one command on one config and reads only its exit
# code and output, as (key, Case): a failing case's stderr holds the key, and
# a successful case's JSON payload holds it as a key.
CLI_CASES = [
    ("kernel_tol", Case({"kernel_tol": "abc"})),
    ("index_range", Case({"index_range": [1, 2, 3]})),
    ("refinement", Case({"refinement": "x"})),
    ("direction", Case({"direction": None})),
    ("mesh n", Case({"mesh": dict(HELM_SCALING["mesh"], n="four")})),
    ("mesh dims", Case({"mesh": dict(HELM_SCALING["mesh"], dims=[1, 1])})),
    ("nu", Case({"coefficients": {"nu": {"kind": "constant", "v": "x"}}})),
    # values of the wrong JSON type, which a conversion would accept
    ("surface_form_trusted", Case({"surface_form_trusted": "false"})),
    ("refinement", Case({"refinement": "12"})),
    ("index_range", Case({"index_range": [1.7, 2.2]})),
    ("chi_bar", Case({"chi_bar": "0"})),
    ("direction", Case({"direction": True})),
    ("mesh", Case({"mesh": [["type", "box"], ["n", 2]]})),
    ("output", Case({"output": 7})),
    # nested values: JSON numbers, integers in range, arrays of the parsed shape
    ("'M'", Case({"coefficients": {"epsilon": {"kind": "constant", "M": [[1, 0], [0, 1]]}}})),
    ("'c'", Case({"family": {"kind": "bump", "g": {"type": "constant", "c": [0.1, 0.2]}}})),
    ("'A1'", Case({"family": {"kind": "affine", "A1": [[1, 0], [0, 1]]}})),
    ("'axis'", Case({"family": {"kind": "bump", "g": {"type": "sin", "axis": 5}}})),
    ("'axis'", Case({"family": {"kind": "stretch", "axis": 1.7}})),
    ("'amplitude'", Case({"family": {"kind": "bump",
                                     "g": {"type": "sin", "axis": 0, "amplitude": "0.05"}}})),
    ("'rate'", Case({"family": {"kind": "scaling", "rate": "2"}})),
    ("'m'", Case({"problem": "abstract-pencil", "abstract": {"kind": "degenerate", "m": "x"}})),
    ("'m'", Case({"problem": "abstract-pencil", "abstract": {"kind": "degenerate", "m": 0}})),
    ("'d0'", Case({"problem": "abstract-pencil",
                   "abstract": {"kind": "diagonal", "d0": [1, "a"]}})),
    ("'seed'", Case({"abstract": {"seed": "x"}}, "abstract")),
    ("mesh path", Case({"mesh": {"type": "file", "path": None}})),
    ("mesh path", Case({"mesh": {"type": "file", "path": ["a"]}})),
    # an integer path would be opened as a file descriptor: 0 is stdin
    ("mesh path", Case({"mesh": {"type": "file", "path": 0}})),
    ("mesh partition", Case({"mesh": dict(HELM_SCALING["mesh"], partition=5)})),
    ("mesh partition", Case({"mesh": dict(HELM_SCALING["mesh"], partition=["T"])})),
    ("epsilon", Case({"coefficients": {"epsilon": 5}})),
    ("'g'", Case({"family": {"kind": "bump", "g": [0.1, 0.0, 0.0]}})),
    ("'d0'", Case({"problem": "abstract-pencil", "abstract": {"kind": "diagonal", "d0": [],
                                                              "d1": []}})),
    # JSON's Infinity, which Python's json module reads as a float
    ("chi_bar", Case({"chi_bar": float("inf")})),
    ("kernel_tol", Case({"kernel_tol": float("inf")})),
    ("'rate'", Case({"family": {"kind": "scaling", "rate": float("-inf")}})),
    ("mesh dims", Case({"mesh": dict(HELM_SCALING["mesh"], dims=[float("inf"), 1, 1])})),
    # constant coefficients that are not positive
    ("constant 'M' must be symmetric positive-definite",
     Case({"coefficients": {"epsilon": {"M": [[1, 0, 0], [0, 1, 0], [0, 0, -0.5]]}}})),
    ("constant 'M' must be symmetric positive-definite",
     Case({"coefficients": {"epsilon": {"M": [[1, 5, 0], [0, 1, 0], [0, 0, 1]]}}})),
    ("constant 'M' must be symmetric positive-definite",
     Case({"coefficients": {"epsilon": {"M": [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]}}})),
    ("constant 'M' must be symmetric positive-definite",
     Case({"problem": "maxwell", "mesh": dict(HELM_SCALING["mesh"], n=2),
           "coefficients": {"mu": {"M": [[1, 0, 0], [0, 1, 0], [0, 0, -0.5]]}}})),
    ("'v' must be a finite number in [5e-324, inf], got -1",
     Case({"coefficients": {"nu": {"kind": "constant", "v": -1}}})),
    # affine coefficients that are not positive at a mapped mesh vertex
    ("coefficient 'epsilon' must be positive-definite",
     Case({"coefficients": {"epsilon": {"kind": "affine-diagonal", "d0": [1, 1, -0.5],
                                        "D": np.zeros((3, 3)).tolist()}}})),
    ("coefficient 'nu' must be positive-definite",
     Case({"coefficients": {"nu": {"kind": "affine", "c0": -1, "c": [0, 0, 0]}}})),
    ("coefficient 'mu' must be positive-definite",
     Case({"problem": "maxwell", "mesh": dict(HELM_SCALING["mesh"], n=2),
           "coefficients": {"mu": {"kind": "scalar-affine-identity", "c0": 1,
                                   "c": [0, -2, 0]}}})),
    # keys that a nested spec does not read
    ("mesh type 'box' does not read the keys ['nn']", Case({"mesh": {"type": "box", "nn": 2}})),
    ("mesh type 'file' does not read the keys ['n']",
     Case({"mesh": {"type": "file", "path": "box.tetmesh", "n": 2}})),
    ("partition names no box face ['w9']",
     Case({"mesh": dict(HELM_SCALING["mesh"], partition=dict(MIXED, w9="N"))})),
    ("displacement field type 'sin' does not read the keys ['amplitdue']",
     Case({"family": {"kind": "bump", "g": {"type": "sin", "axis": 0, "amplitdue": 0.2}}})),
    ("transformation family kind 'scaling' does not read the keys ['axis']",
     Case({"family": {"kind": "scaling", "axis": 1}})),
    ("matrix coefficient kind 'constant' does not read the keys ['d0']",
     Case({"coefficients": {"epsilon": {"d0": [1, 1, 1]}}})),
    ("scalar coefficient kind 'affine' does not read the keys ['v']",
     Case({"coefficients": {"nu": {"kind": "affine", "c0": 1, "c": [0, 0, 0], "v": 1}}})),
    ("abstract pencil kind 'crossing' does not read the keys ['m']",
     Case({"problem": "abstract-pencil", "abstract": {"kind": "crossing", "m": 3}})),
    # top-level specs that the problem does not read
    ("problem 'abstract-pencil' does not read the keys ['family', 'mesh']",
     Case({"problem": "abstract-pencil", "mesh": {"type": "box", "nn": 2},
           "family": {"kind": "nope"}, "abstract": {"kind": "crossing"}})),
    ("problem 'abstract-pencil' does not read the keys ['coefficients', 'family', 'mesh']",
     Case({"problem": "abstract-pencil", "coefficients": {}})),
    ("problem 'helmholtz' does not read the keys ['abstract']",
     Case({"abstract": {"kind": "crossing", "zz": 1}})),
    ("reads only 'abstract.seed', it does not read the keys ['sed']",
     Case({"abstract": {"seed": 1, "sed": 2}}, "abstract")),
    # config errors of a missing value, file or key, or of more than one value
    ("problem must be one of", Case({"problem": "bogus"})),
    ("cannot read config", Case(None)),
    ("cannot read mesh", Case({"mesh": {"type": "file", "path": "no.tetmesh"}})),
    ("bad count '-1'", Case({"mesh": {"type": "file", "path": "negative.tetmesh"}},
                            files={"negative.tetmesh": "tetmesh v1\nvertices -1\n"})),
    ("missing 'g'", Case({"family": {"kind": "bump"}}, "dshape")),
    # equal steps would give a Richardson ratio of 1, a division by zero
    ("distinct steps", Case({"fd_steps": [1e-3, 1e-3]}, "verify")),
    ("FEM problem", Case({"problem": "abstract-pencil", "refinement": [2, 3]}, "study")),
    ("box mesh spec", Case({"mesh": {"type": "file", "path": "box.tetmesh"},
                            "refinement": [2, 3]}, "study")),
    # all-T Maxwell n = 3: 117 dofs less a kernel basis of rank 8, refused unsolved
    ("index_range (1, 115) exceeds the 109 computable eigenvalues",
     Case({"problem": "maxwell", "index_range": [1, 115]})),
    # numerical failures: chi_bar = -1 collapses the scaling map, det J <= 0
    ("det J_Phi <= 0 at parameter -1.0", Case({"chi_bar": -1.0}, code=cli.EXIT_NUMERICAL)),
    # fd_step itself folds the scaling map at chi_bar - 2
    ("det J_Phi <= 0 at parameter -2.0", Case({"fd_step": 2.0}, "dshape", cli.EXIT_NUMERICAL)),
    # nu = 1.2 - x is positive on the unit box; the stretch map at the first FD
    # step, chi = 0.3, takes x up to 1.3, where assembly refuses the pencil
    ("'nu' is not positive-definite at parameter 0.3",
     Case({"family": {"kind": "stretch", "axis": 0}, "fd_steps": [0.3, 0.6],
           "coefficients": {"nu": {"kind": "affine", "c0": 1.2, "c": [-1, 0, 0]}}},
          "verify", cli.EXIT_NUMERICAL)),
    # successes: the enlarged step 4.41 of the cluster [2..8] is withheld
    ("clusters", Case({"index_range": [2, 2], "cluster_tol": 0.5}, "dshape", 0)),
    ("branch_slopes", Case({}, "abstract", 0)),
    ("fd_table", Case({}, "verify", 0)),  # the default fd_steps
    # a linear bump is an affine map, integrated at order 2
    ("clusters", Case({"family": {"kind": "bump", "g": {
        "type": "linear", "G": [[0.1, 0, 0], [0, 0, 0.05], [0, 0.02, 0]]}}}, "dshape", 0)),
    # a mesh file with every facet N, whose facet owners are derived
    ("eigenvalues", Case({"mesh": {"type": "file", "path": "one-tet.tetmesh"}}, code=0,
                         files={"one-tet.tetmesh": ONE_TET + ALL_N})),
    # faces tagged on the integer grid, not by float coordinates
    ("eigenvalues", Case({"mesh": {"type": "box", "dims": [123.457, 1, 1], "n": 9}}, code=0)),
    # one free edge, which leaves the kernel basis no column
    ("eigenvalues", Case({"problem": "maxwell", "mesh": {"type": "box", "n": 1}}, code=0)),
    # all-N Helmholtz n = 2: 27 dofs and no kernel basis; the solve finds the
    # constant, so the refusal comes after it
    ("index_range (1, 27) exceeds the 26 computed eigenvalues",
     Case({"mesh": dict(HELM_SCALING["mesh"], n=2, partition="N"), "index_range": [1, 27]})),
    # a study level takes its solve, and so its refusal, from the one chi_bar path
    ("index_range (1, 27) exceeds the 26 computed eigenvalues",
     Case({"mesh": dict(HELM_SCALING["mesh"], n=2, partition="N"), "index_range": [1, 27],
           "refinement": [2, 3]}, "study")),
    # an abstract pencil is dense: 10^7 dofs are refused before any array is made
    ("abstract pencil has 10000002 dofs (> 2000)",
     Case({"problem": "abstract-pencil", "abstract": {"kind": "degenerate", "m": 10**7}},
          base={})),
    # numbers past the float range are refused unwritten: lambda_bar^39 C(39, s - 1)
    # of the trace formula overflows, and so do the elementary symmetric
    # functions of verify's FD table, which sorts before its report
    ("the report's number at clusters[0].sym_derivatives_rellich[",
     Case({"problem": "abstract-pencil", "abstract": {"kind": "degenerate", "m": 40,
                                                      "lambda": 1e9}},
          "dshape", cli.EXIT_NUMERICAL, base={})),
    ("the report's number at fd_table[0].sym_slopes[",
     Case({"problem": "abstract-pencil", "index_range": [1, 1],
           "abstract": {"kind": "degenerate", "m": 35, "lambda": 1e9, "extra": [1e10, 2e10]}},
          "verify", cli.EXIT_NUMERICAL, base={})),
]


class TestCli:
    def write_config(self, tmp_path, raw):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        return str(path)

    def test_eig_success(self, tmp_path, capsys):
        path = self.write_config(tmp_path, HELM_SCALING)
        assert cli.main(["eig", "--config", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kernel_dim"] == 0

    def test_non_finite_payload_is_refused_unwritten(self, tmp_path, capsys):
        """The writer names the first number that is not finite in the order
        of the sorted JSON, and neither prints nor writes the payload."""
        payload = {"b": [1.0, float("nan")], "a": {"y": [0.5, float("-inf")], "x": 1e308}}
        out = tmp_path / "report.json"
        for path in (None, str(out)):
            with pytest.raises(NonFiniteReportError, match=r"at a\.y\[1\] is not finite"):
                harness.write_json(payload, path)
        assert capsys.readouterr().out == "" and not out.exists()

    def test_eig_reads_the_problems_one_solution(self, tmp_path, capsys, monkeypatch):
        """eig assembles and solves the pencil at chi_bar once, through the
        harness, and prints the eigenvalues, kernel_dim and dofs of the
        `Problem`'s solution."""
        raw = {"problem": "maxwell", "mesh": {"type": "box", "n": 3}, "index_range": [2, 4]}
        path = self.write_config(tmp_path, raw)
        assembled = count_calls(monkeypatch, "assemble_at")
        solves = count_calls(monkeypatch, "solve_pencil")
        assert cli.main(["eig", "--config", path]) == 0
        assert [args[1] for args in assembled] == [0.0] and len(solves) == 1
        pencil, dec, _ = harness.build_problem(harness.RunConfig.from_dict(raw)).solution
        assert json.loads(capsys.readouterr().out) == {
            "eigenvalues": dec.eigenvalues[1:4].tolist(), "kernel_dim": dec.kernel_dim,
            "dofs": pencil.size}

    def test_dshape_writes_report(self, tmp_path):
        path = self.write_config(tmp_path, HELM_SCALING)
        out = str(tmp_path / "report.json")
        assert cli.main(["dshape", "--config", path, "--out", out]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["clusters"]

    def write_payload_once(self, tmp_path, capsys, monkeypatch, command, cli_out):
        """Run `command` on a config with an output, and with --out if
        `cli_out`; check that the payload went through cli._emit once, to
        --out, else to the config's output, and that nothing else was
        written or printed. Returns the payload."""
        out = tmp_path / "report.json"
        path = self.write_config(tmp_path, dict(HELM_SCALING, output=str(out), refinement=[2, 3]))
        argv = [command, "--config", path]
        if cli_out:
            out = tmp_path / "cli-report.json"
            argv += ["--out", str(out)]
        written, emitted = [], []
        real_open, real_emit = open, cli._emit

        def spy(file, mode="r", *args, **kwargs):
            if "w" in mode:
                written.append(str(file))
            return real_open(file, mode, *args, **kwargs)

        def emit(payload, out_path):
            emitted.append(out_path)
            real_emit(payload, out_path)

        monkeypatch.setattr("builtins.open", spy)
        monkeypatch.setattr(cli, "_emit", emit)
        assert cli.main(argv) == 0
        assert written == emitted == [str(out)]
        assert capsys.readouterr().out == ""
        text = out.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
        return json.loads(text)

    @pytest.mark.parametrize("cli_out", [False, True], ids=["config-output", "out-wins"])
    def test_dshape_writes_the_config_output_once(self, tmp_path, capsys, monkeypatch,
                                                  cli_out):
        doc = self.write_payload_once(tmp_path, capsys, monkeypatch, "dshape", cli_out)
        assert doc["clusters"]

    @pytest.mark.parametrize("cli_out", [False, True], ids=["config-output", "out-wins"])
    @pytest.mark.parametrize("command, key", [
        ("eig", "eigenvalues"), ("verify", "fd_table"), ("study", "levels"),
        ("abstract", "branch_slopes"),
    ])
    def test_every_command_writes_its_payload_once(self, tmp_path, capsys, monkeypatch,
                                                   command, key, cli_out):
        """The output rule of dshape holds for every command: verify writes
        its whole payload, not its dshape report, to the config's output."""
        assert self.write_payload_once(tmp_path, capsys, monkeypatch, command, cli_out)[key]

    def test_abstract_demo(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {"problem": "abstract-pencil"})
        assert cli.main(["abstract", "--config", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(
            doc["branch_slopes"]["crossing"], [-1.0, 1.0], atol=1e-12
        )

    @pytest.mark.parametrize("problem", ["maxwell", "helmholtz"])
    def test_slope_zero_by_symmetry_verifies(self, tmp_path, problem):
        """A sin bump along x on the all-T n=6 box leaves the lowest slope zero
        by symmetry. The routes' round-off is measured against the round-off
        scale of the slope, tens of |lambda_bar| where stiffness and mass
        cancel: it reads well under the 1e-10 gate. Against 1e-6 |lambda_bar|
        it read 1.8e-10 (Maxwell, exit 4) and 8.5e-11 (Helmholtz)."""
        raw = {"problem": problem, "mesh": {"type": "box", "n": 6},
               "family": {"kind": "bump", "g": {"type": "sin", "axis": 0, "dependsOn": 0,
                                                "amplitude": 0.1, "frequency": 1.0}},
               "index_range": [1, 1]}
        out = tmp_path / "verify.json"
        assert cli.main(["verify", "--config", self.write_config(tmp_path, raw),
                         "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert abs(payload["report"]["clusters"][0]["slopes_rellich"][0]) <= 1e-12
        assert payload["worst_route_discrepancy"] <= 1e-11

    def test_repeated_fd_steps_are_refused_before_the_work(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "run", refusing("run() before the FD steps were checked"))
        path = self.write_config(tmp_path, dict(HELM_SCALING, fd_steps=[1e-3, 1e-3]))
        assert cli.main(["verify", "--config", path]) == cli.EXIT_CONFIG

    def test_index_range_past_the_spectrum_exit_code(self, tmp_path, capsys, monkeypatch):
        """eig, dshape and verify refuse an index_range past the pencil's dofs
        with one message, before any solve, which would fall back to a dense
        solve of the whole pencil: an n=2 box with every face T has one free
        vertex, so one dof."""
        for name in ("_solve_sparse", "_solve_dense"):
            monkeypatch.setattr(spectral, name, refusing("solved past the pencil's dofs"))
        raw = dict(HELM_SCALING, mesh=dict(HELM_SCALING["mesh"], n=2), index_range=[2, 3])
        path = self.write_config(tmp_path, raw)
        errors = []
        for command in ("eig", "dshape", "verify"):
            assert cli.main([command, "--config", path]) == cli.EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1] == errors[2]
        assert "index_range (2, 3) exceeds the 1 dofs of the pencil" in errors[0]

    def test_index_range_past_the_kernel_basis_exit_code(self, tmp_path, capsys, monkeypatch):
        """eig, dshape and verify refuse a Maxwell index_range past the pencil's
        dofs less the rank of its kernel basis before any solve: the all-T
        n = 3 box has 117 dofs and 8 free vertices, so 109 eigenvalues; an
        all-N box has no constrained vertex, and its anchor column is not
        counted."""
        for name in ("_solve_sparse", "_solve_dense"):
            monkeypatch.setattr(spectral, name, refusing("solved past the kernel basis"))
        for partition, hi, message in (
                ("T", 115, "exceeds the 109 computable eigenvalues: the pencil's 117 dofs "
                           "less the rank 8 of its kernel basis"),
                ("N", 220, "exceeds the 216 computable eigenvalues: the pencil's 279 dofs "
                           "less the rank 63 of its kernel basis")):
            raw = {"problem": "maxwell", "index_range": [1, hi],
                   "mesh": {"type": "box", "n": 3, "partition": partition}}
            path = self.write_config(tmp_path, raw)
            for command in ("eig", "dshape", "verify"):
                assert cli.main([command, "--config", path]) == cli.EXIT_CONFIG
                captured = capsys.readouterr()
                assert captured.out == ""
                assert message in captured.err

    @pytest.mark.parametrize("key, raw", CLI_CASES)
    def test_malformed_value_exit_code(self, tmp_path, capsys, monkeypatch, key, raw):
        """Each row of CLI_CASES, run in `tmp_path`: exit 0 prints a JSON object
        holding `key`; any other exit prints nothing on stdout and one line on
        stderr, its code's prefix and a message holding `key`."""
        monkeypatch.chdir(tmp_path)
        for name, text in raw.files.items():
            (tmp_path / name).write_text(text)
        if raw.config is not None:
            (tmp_path / "config.json").write_text(json.dumps(dict(raw.base, **raw.config)))
        code = cli.main([raw.command, "--config", "config.json"])
        out, err = capsys.readouterr()
        assert code == raw.code, err
        if code == 0:
            assert isinstance(payload := json.loads(out), dict) and key in payload
        else:
            assert out == "" and err.count("\n") == 1 and err.endswith("\n")
            assert err.startswith(PREFIX[code]) and key in err

    def test_vertex_index_out_of_range_exit_code(self, tmp_path):
        mesh = build_box_mesh((1, 1, 1), 2, "T")
        mesh_path = tmp_path / "bad.tetmesh"
        save_mesh(mesh, str(mesh_path))
        lines = mesh_path.read_text().splitlines()
        tet = lines.index(f"tets {len(mesh.tets)}") + 1
        lines[tet] = " ".join(lines[tet].split()[:3] + [str(len(mesh.vertices))])
        mesh_path.write_text("\n".join(lines) + "\n")
        raw = dict(HELM_SCALING, mesh={"type": "file", "path": str(mesh_path)})
        path = self.write_config(tmp_path, raw)
        assert cli.main(["eig", "--config", path]) == cli.EXIT_CONFIG

    def test_maxwell_on_a_floating_component_exit_code(self, tmp_path, capsys, two_box_mesh):
        """A mesh file of an all-T box beside an all-N box: the kernel basis
        anchors the all-N box, and eig returns the dense oracle's lambda_1."""
        save_mesh(two_box_mesh, str(tmp_path / "two.tetmesh"))
        path = self.write_config(tmp_path, {"problem": "maxwell", "mesh": {
            "type": "file", "path": str(tmp_path / "two.tetmesh")}})
        assert cli.main(["eig", "--config", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kernel_dim"] == 27
        assert doc["eigenvalues"] == [pytest.approx(17.06363422768628, rel=1e-10)]

    def test_zero_trace_past_the_float_range_exit_code(self, tmp_path, capsys):
        """direction 0 makes every slope exactly 0: the trace formula's terms
        past the float range read 0, not inf, and dshape exits 0."""
        path = self.write_config(tmp_path, {
            "problem": "abstract-pencil", "direction": 0.0,
            "abstract": {"kind": "degenerate", "m": 40, "lambda": 1e9}})
        assert cli.main(["dshape", "--config", path]) == 0
        [rec] = json.loads(capsys.readouterr().out)["clusters"]
        assert rec["multiplicity"] == 40
        assert rec["slopes_rellich"] == rec["sym_derivatives_rellich"] == [0.0] * 40

    def test_internal_key_error_is_not_a_config_error(self, tmp_path, monkeypatch):
        def broken(cfg):
            return {}["missing"]

        monkeypatch.setattr(harness, "run", broken)
        path = self.write_config(tmp_path, HELM_SCALING)
        with pytest.raises(KeyError):
            cli.main(["dshape", "--config", path])

    def test_import_and_config_load_leave_out_scipy_optimize(self, tmp_path):
        """FD branch pairing is in-package: neither the CLI nor the harness
        nor reading a config loads scipy.optimize."""
        path = self.write_config(tmp_path, HELM_SCALING)
        code = ("import sys, spectra_shape.cli, spectra_shape.harness as h; "
                f"h.load_config({path!r}); print('scipy.optimize' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout
        assert out.strip() == "False"

    @pytest.mark.parametrize("problem", ["helmholtz", "maxwell"])
    def test_non_finite_jacobian_exit_code(self, tmp_path, capsys, problem):
        """A bump of amplitude 1e308 overflows its gradient, so J = I + 0 inf
        is NaN at chi_bar = 0: chi is inadmissible, and no NaN pencil
        reaches the solver. The one line on stderr is the message: numpy
        warns of no overflow before it."""
        g = {"type": "sin", "axis": 0, "amplitude": 1e308, "frequency": 1.0}
        path = self.write_config(tmp_path, {"problem": problem, "mesh": {"type": "box", "n": 3},
                                            "family": {"kind": "bump", "g": g}})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["eig", "--config", path]) == cli.EXIT_NUMERICAL
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "det J_Phi is not finite at parameter 0.0" in err[0]

    @pytest.mark.parametrize("spelling", ["config", "--out"])
    @pytest.mark.parametrize("target", ["missing-dir/report.json", "."], ids=["missing", "dir"])
    def test_unwritable_output_exit_code(self, tmp_path, capsys, monkeypatch, spelling, target):
        """An output path in a missing directory, or naming a directory, is
        a configuration error, given in the config or by --out, refused
        before the problem is built."""
        monkeypatch.setattr(harness, "build_problem",
                            refusing("the problem was built before the output was checked"))
        out = str(tmp_path / target)
        raw = {"problem": "abstract-pencil"}
        path = self.write_config(tmp_path, dict(raw, output=out) if spelling == "config" else raw)
        argv = ["dshape", "--config", path] + (["--out", out] if spelling == "--out" else [])
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: cannot write output {out}")

    def test_invariant_violation_exit_code(self, tmp_path, monkeypatch):
        from spectra_shape.errors import ContractViolationError

        def boom(cfg):
            raise ContractViolationError("forced")

        monkeypatch.setattr(harness, "run", boom)
        path = self.write_config(tmp_path, HELM_SCALING)
        assert cli.main(["dshape", "--config", path]) == cli.EXIT_INVARIANT

    def test_verify_runs_clean(self, tmp_path, capsys):
        path = self.write_config(tmp_path, dict(HELM_SCALING, fd_steps=[1e-3, 1e-4]))
        assert cli.main(["verify", "--config", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["worst_route_discrepancy"] <= 1e-10

    def test_verify_builds_one_mesh_and_solves_chi_bar_once(self, tmp_path, capsys,
                                                             monkeypatch):
        meshes = count_calls(monkeypatch, "build_box_mesh")
        assemblies = count_calls(monkeypatch, "assemble_at")
        path = self.write_config(tmp_path, dict(HELM_SCALING, fd_steps=[1e-3, 1e-4]))
        assert cli.main(["verify", "--config", path]) == 0
        assert len(meshes) == 1
        assert [chi for _, chi in assemblies].count(0.0) == 1
        # fd_steps repeats run()'s default fd_step 1e-4: chi_bar, chi_bar +- 1e-4
        # and chi_bar +- 1e-3 are each assembled and solved once
        assert len(assemblies) == 5

    def test_study_builds_one_mesh_per_level(self, tmp_path, capsys, monkeypatch):
        meshes = count_calls(monkeypatch, "build_box_mesh")
        path = self.write_config(tmp_path, dict(HELM_SCALING, refinement=[2, 3]))
        assert cli.main(["study", "--config", path]) == 0
        assert [n for _, n, _ in meshes] == [2, 3]

    @pytest.mark.parametrize("command", ["eig", "dshape"])
    def test_box_above_the_dof_limit_is_refused_unbuilt(self, tmp_path, monkeypatch, command):
        monkeypatch.setattr(harness, "build_box_mesh", refusing("box built above the dof limit"))
        path = self.write_config(tmp_path, {"problem": "maxwell", "mesh": {"type": "box", "n": 64}})
        start = time.perf_counter()
        assert cli.main([command, "--config", path]) == cli.EXIT_CONFIG
        assert time.perf_counter() - start < 1.0

    def test_study_refuses_an_oversize_level_before_the_first(self, tmp_path, capsys,
                                                              monkeypatch):
        monkeypatch.setattr(harness, "build_box_mesh",
                            refusing("study level built before every level was checked"))
        raw = {"problem": "maxwell", "mesh": {"type": "box", "n": 3}, "refinement": [3, 64]}
        path = self.write_config(tmp_path, raw)
        assert cli.main(["study", "--config", path]) == cli.EXIT_CONFIG
        assert "n=64" in capsys.readouterr().err

    @pytest.mark.parametrize("levels", [[3, 3], [4, 3], [2, 4, 4]])
    def test_study_refuses_levels_that_do_not_increase(self, tmp_path, capsys, monkeypatch,
                                                       levels):
        """A repeated or decreasing level exits 2 before any level is built."""
        monkeypatch.setattr(harness, "build_box_mesh",
                            refusing("study level built before the levels were checked"))
        path = self.write_config(tmp_path, dict(HELM_SCALING, refinement=levels))
        assert cli.main(["study", "--config", path]) == cli.EXIT_CONFIG
        assert "strictly increasing" in capsys.readouterr().err

    def test_verify_builds_the_reference_data_once(self, tmp_path):
        """A Maxwell `verify` (the benchmark's seed-1 config, n = 3) builds the
        kernel basis once and the free-dof map three times, the
        discretisation's and the kernel basis's two, over its ten assemblies;
        counted by code object, whatever name a caller uses."""
        path = self.write_config(tmp_path, MAXWELL_MIXED)
        profile = cProfile.Profile()
        out = str(tmp_path / "out.json")
        assert profile.runcall(cli.main, ["verify", "--config", path, "--out", out]) == 0
        stats = pstats.Stats(profile).stats

        def calls(function):
            code = function.__code__
            return stats.get((code.co_filename, code.co_firstlineno, code.co_name), (0, 0))[1]

        assert [calls(f) for f in (maxwell.gradient_kernel_basis, fem_common.free_dofs,
                                   fem_common.Discretisation.assemble)] == [1, 3, 10]

    def test_study_command(self, tmp_path, capsys):
        path = self.write_config(tmp_path, dict(HELM_SCALING, refinement=[2, 3]))
        assert cli.main(["study", "--config", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["levels"]) == 2


# Random configs for the config reader: well-formed values with random JSON
# values put in at a few positions. Values are small, so that no draw
# allocates a large pencil or mesh.
NUMBER = st.integers(-20, 20) | st.floats(-20, 20)
POSITIVE = st.floats(1e-12, 1.0)
AXIS = st.integers(0, 2)
TEXT = st.text("TNab", max_size=3)  # as a mesh path: a relative path that names no file
JSON = st.recursive(st.none() | st.booleans() | NUMBER | TEXT,
                    lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(TEXT, inner, max_size=4), max_leaves=8)


def _vector(n=3):
    return st.lists(NUMBER, min_size=n, max_size=n)


MATRIX = st.lists(_vector(), min_size=3, max_size=3)


def _spec(required=None, **fields):
    """Objects with the `required` fields and any subset of `fields`, each
    drawn from its strategy."""
    return st.fixed_dictionaries(required or {}, optional=fields)


def _kind(*kinds):
    return st.sampled_from(kinds)


# each spec holds only the keys that its kind reads, its required keys always
FIELD = (_spec({"type": st.just("constant"), "c": _vector()})
         | _spec({"type": st.just("linear"), "G": MATRIX})
         | _spec({"type": st.just("sin"), "axis": AXIS}, dependsOn=AXIS, amplitude=NUMBER,
                 frequency=NUMBER))
MATRIX_COEFFICIENT = (_spec(kind=st.just("constant"), M=MATRIX)
                      | _spec({"kind": st.just("affine-diagonal"), "d0": _vector(), "D": MATRIX})
                      | _spec({"kind": st.just("scalar-affine-identity"), "c0": NUMBER,
                               "c": _vector()}))
COEFFICIENTS = {"epsilon": MATRIX_COEFFICIENT, "mu": MATRIX_COEFFICIENT,
                "nu": _spec(kind=st.just("constant"), v=NUMBER)
                | _spec({"kind": st.just("affine"), "c0": NUMBER, "c": _vector()})}


def _configs(mesh_path):
    """Configs of every problem, with the specs and coefficients that the problem reads."""
    mesh = (_spec({"n": st.integers(1, 3)}, type=st.just("box"),
                  dims=st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3),
                  partition=_kind("T", "N") | st.fixed_dictionaries(
                      {face: _kind("T", "N") for face in BOX_FACES}))
            | _spec({"type": st.just("file"), "path": st.just(mesh_path)}))
    family = (_spec({"kind": st.just("affine")}, A0=MATRIX, A1=MATRIX, b0=_vector(), b1=_vector())
              | _spec({"kind": st.just("bump"), "g": FIELD})
              | _spec({"kind": st.just("scaling")}, rate=NUMBER)
              | _spec({"kind": st.just("translation")}, b1=_vector())
              | _spec({"kind": st.just("stretch")}, axis=AXIS))
    abstract = (_spec(kind=st.just("crossing"))
                | _spec({"kind": st.just("diagonal")}, d0=st.lists(NUMBER, min_size=1, max_size=4),
                        d1=st.lists(NUMBER, min_size=1, max_size=4))
                | _spec({"kind": st.just("degenerate")}, m=st.integers(1, 20),
                        extra=st.lists(NUMBER, max_size=4), seed=st.integers(0, 20),
                        **{"lambda": NUMBER}))

    def config(problem):
        common = dict(
            chi_bar=NUMBER, direction=NUMBER, kernel_tol=POSITIVE, cluster_tol=POSITIVE,
            fd_step=POSITIVE, fd_steps=st.lists(POSITIVE, max_size=4),
            index_range=st.lists(st.integers(1, 4), min_size=2, max_size=2).map(sorted),
            refinement=st.lists(st.integers(1, 4), max_size=4),
            surface_form_trusted=st.booleans(), output=TEXT)
        if problem == "abstract-pencil":
            return _spec({"problem": st.just(problem)}, abstract=abstract, **common)
        keys = [tf.coefficient_kind(name).key for name in harness._SPACES[problem].coefficients]
        coefficients = _spec(**{key: COEFFICIENTS[key] for key in keys})
        return _spec({"problem": st.just(problem), "mesh": mesh},
                     family=family, coefficients=coefficients, **common)

    return _kind(*harness._PROBLEMS).flatmap(config)


def _positions(spec, at=()):
    """The key path of every value in the nested objects of `spec`."""
    for key, value in spec.items():
        yield at + (key,)
        if isinstance(value, dict):
            yield from _positions(value, at + (key,))


class TestConfigReader:
    @pytest.fixture(scope="class")
    def mesh_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("mesh") / "box.tetmesh"
        # all N: every dof of the one-cell box is free, so a problem on it builds
        save_mesh(build_box_mesh((1, 1, 1), 1, "N"), str(path))
        return str(path)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_value_anywhere_is_a_config_error_or_read(self, mesh_path, data):
        """A config with well-formed values and one or two random JSON values
        at any position: reading it and building its problem, mesh included,
        raise no error other than those `cli` maps to exit 2, or the exit-3
        `DegenerateProblemError` of a mesh with no free dof (a one-cell box
        whose T faces hold every dof), which its discretisation raises when
        the problem is built. A draw with no random value holds only keys
        that its specs read."""
        raw = data.draw(_configs(mesh_path))
        positions = data.draw(st.permutations(list(_positions(raw))))
        replaced = positions[:data.draw(st.integers(0, 2))]
        for *parents, key in replaced:
            target = raw
            for parent in parents:
                target = target.get(parent) if isinstance(target, dict) else None
            if isinstance(target, dict):
                target[key] = data.draw(JSON)
        try:
            cfg = harness.RunConfig.from_dict(raw)
            problem = harness.build_problem(cfg)
            if cfg.problem != "abstract-pencil":
                assert len(problem.mesh.tets) > 0
        except cli._CONFIG_ERRORS as exc:
            assert replaced or "does not read the keys" not in str(exc)
        except DegenerateProblemError as exc:
            assert "no free dofs" in str(exc)
