"""Driver configs, reports, FD tables, refinement studies, and the CLI."""

import cProfile
import json
import os
import pstats
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linear_sum_assignment  # oracle of the pairing tests only

from spectra_shape import cli, fem_common, harness, maxwell
from spectra_shape import transforms as tf
from spectra_shape.errors import ConfigError, DegenerateProblemError
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
        def refuse(*args, **kwargs):
            raise AssertionError("surface matrix computed for an untrusted form")

        monkeypatch.setattr(harness.hadamard, "helmholtz_surface_matrix", refuse)
        rec = harness.run(harness.build_problem(config(surface_form_trusted=False)))["clusters"][0]
        assert "volume_matrix" in rec
        assert "surface_matrix" not in rec and "surface_volume_gap" not in rec

    def test_clusters_sharing_an_fd_step_share_the_solves(self, monkeypatch):
        chis = []
        assemble = harness.assemble_at

        def counting(cfg, chi, *args, **kwargs):
            chis.append(chi)
            return assemble(cfg, chi, *args, **kwargs)

        monkeypatch.setattr(harness, "assemble_at", counting)
        box = {"type": "box", "dims": [1, 1.3, 1.7], "n": 3, "partition": "T"}
        records = harness.run(harness.build_problem(config(mesh=box, index_range=[1, 2])))["clusters"]
        assert [r["multiplicity"] for r in records] == [1, 1]
        assert records[0]["fd_step"] == records[1]["fd_step"]
        # one assembly at chi_bar, then one at each of chi_bar +- step for both
        assert len(chis) == 3
        for rec in records:
            assert rec["slopes_fd"] == pytest.approx(rec["slopes_rellich"], rel=1e-6)

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
        solves = []
        solve = harness.solve_pencil

        def counting(*args, **kwargs):
            solves.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(harness, "solve_pencil", counting)
        rows = harness.fd_check(harness.build_problem(config()), (1e-3, 5e-4, 2.5e-4))
        assert all("sym_slopes" in r for r in rows)
        # one solve at chi_bar, then one per chi_bar +- step
        assert len(solves) == 1 + 2 * 3

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


class TestRefinementStudy:
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
        (R, V, S, floor), (R2, V2, S2, floor2) = harness._route_matrices(
            problem, [cl, turned], surface=True)
        assert np.max(np.abs(S2 - S)) > 1e-3 * np.max(np.abs(S))
        assert floor2 == pytest.approx(floor, rel=1e-12)
        for (A, B), (A2, B2) in (((V, R), (V2, R2)), ((S, V), (S2, V2))):
            assert (harness._relative_gap(A2, B2, floor2)
                    == pytest.approx(harness._relative_gap(A, B, floor), rel=0, abs=1e-12))

    def test_dof_guard(self):
        cfg = config(problem="maxwell", refinement=[64])
        with pytest.raises(ConfigError):
            harness.refinement_study(cfg)

    def test_empty_refinement_rejected(self):
        with pytest.raises(ConfigError):
            harness.refinement_study(config(refinement=[]))


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

    def test_repeated_fd_steps_exit_code(self, tmp_path, capsys):
        """Equal steps would give a Richardson ratio of 1, a division by zero."""
        path = self.write_config(tmp_path, dict(HELM_SCALING, fd_steps=[1e-3, 1e-3]))
        assert cli.main(["verify", "--config", path]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert "distinct steps" in captured.err and captured.out == ""

    def test_coefficient_not_positive_at_an_fd_step_exit_code(self, tmp_path, capsys):
        """nu = 1.2 - x is positive on the unit box, but the stretch map at
        the first FD step, chi = 0.3, takes x up to 1.3: assembly there
        refuses the pencil, after the run at chi_bar = 0 went through."""
        raw = dict(HELM_SCALING, family={"kind": "stretch", "axis": 0}, fd_steps=[0.3, 0.6],
                   coefficients={"nu": {"kind": "affine", "c0": 1.2, "c": [-1, 0, 0]}})
        path = self.write_config(tmp_path, raw)
        assert cli.main(["verify", "--config", path]) == cli.EXIT_NUMERICAL
        assert "'nu' is not positive-definite at parameter 0.3" in capsys.readouterr().err

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
        def refuse(problem):
            raise AssertionError("run() called before the FD steps were checked")

        monkeypatch.setattr(harness, "run", refuse)
        path = self.write_config(tmp_path, dict(HELM_SCALING, fd_steps=[1e-3, 1e-3]))
        assert cli.main(["verify", "--config", path]) == cli.EXIT_CONFIG

    def test_index_range_past_the_spectrum_exit_code(self, tmp_path, capsys):
        """eig refuses what dshape refuses, with the same message: an n=2
        box with every face T has one free vertex, so one eigenvalue."""
        raw = dict(HELM_SCALING, mesh=dict(HELM_SCALING["mesh"], n=2), index_range=[2, 3])
        path = self.write_config(tmp_path, raw)
        errors = []
        for command in ("eig", "dshape"):
            assert cli.main([command, "--config", path]) == cli.EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1]
        assert "index_range (2, 3) exceeds the 1 computed eigenvalues" in errors[0]

    def test_config_error_exit_code(self, tmp_path):
        path = self.write_config(tmp_path, {"problem": "bogus"})
        assert cli.main(["eig", "--config", path]) == cli.EXIT_CONFIG

    def test_missing_config_exit_code(self, tmp_path):
        assert (
            cli.main(["eig", "--config", str(tmp_path / "nope.json")])
            == cli.EXIT_CONFIG
        )

    @pytest.mark.parametrize("key, raw", [
        ("kernel_tol", {"kernel_tol": "abc"}),
        ("index_range", {"index_range": [1, 2, 3]}),
        ("refinement", {"refinement": "x"}),
        ("direction", {"direction": None}),
        ("mesh n", {"mesh": dict(HELM_SCALING["mesh"], n="four")}),
        ("mesh dims", {"mesh": dict(HELM_SCALING["mesh"], dims=[1, 1])}),
        ("nu", {"coefficients": {"nu": {"kind": "constant", "v": "x"}}}),
        # values of the wrong JSON type, which a conversion would accept
        ("surface_form_trusted", {"surface_form_trusted": "false"}),
        ("refinement", {"refinement": "12"}),
        ("index_range", {"index_range": [1.7, 2.2]}),
        ("chi_bar", {"chi_bar": "0"}),
        ("direction", {"direction": True}),
        ("mesh", {"mesh": [["type", "box"], ["n", 2]]}),
        ("output", {"output": 7}),
        # nested values: JSON numbers, integers in range, arrays of the parsed shape
        ("'M'", {"coefficients": {"epsilon": {"kind": "constant", "M": [[1, 0], [0, 1]]}}}),
        ("'c'", {"family": {"kind": "bump", "g": {"type": "constant", "c": [0.1, 0.2]}}}),
        ("'A1'", {"family": {"kind": "affine", "A1": [[1, 0], [0, 1]]}}),
        ("'axis'", {"family": {"kind": "bump", "g": {"type": "sin", "axis": 5}}}),
        ("'axis'", {"family": {"kind": "stretch", "axis": 1.7}}),
        ("'amplitude'", {"family": {"kind": "bump",
                                    "g": {"type": "sin", "axis": 0, "amplitude": "0.05"}}}),
        ("'rate'", {"family": {"kind": "scaling", "rate": "2"}}),
        ("'m'", {"problem": "abstract-pencil", "abstract": {"kind": "degenerate", "m": "x"}}),
        ("'m'", {"problem": "abstract-pencil", "abstract": {"kind": "degenerate", "m": 0}}),
        ("'d0'", {"problem": "abstract-pencil", "abstract": {"kind": "diagonal", "d0": [1, "a"]}}),
        ("'seed'", {"abstract": {"seed": "x"}}),
        ("mesh path", {"mesh": {"type": "file", "path": None}}),
        ("mesh path", {"mesh": {"type": "file", "path": ["a"]}}),
        # an integer path would be opened as a file descriptor: 0 is stdin
        ("mesh path", {"mesh": {"type": "file", "path": 0}}),
        ("mesh partition", {"mesh": dict(HELM_SCALING["mesh"], partition=5)}),
        ("mesh partition", {"mesh": dict(HELM_SCALING["mesh"], partition=["T"])}),
        ("epsilon", {"coefficients": {"epsilon": 5}}),
        ("'g'", {"family": {"kind": "bump", "g": [0.1, 0.0, 0.0]}}),
        ("'d0'", {"problem": "abstract-pencil", "abstract": {"kind": "diagonal", "d0": [],
                                                             "d1": []}}),
        # JSON's Infinity, which Python's json module reads as a float
        ("chi_bar", {"chi_bar": float("inf")}),
        ("kernel_tol", {"kernel_tol": float("inf")}),
        ("'rate'", {"family": {"kind": "scaling", "rate": float("-inf")}}),
        ("mesh dims", {"mesh": dict(HELM_SCALING["mesh"], dims=[float("inf"), 1, 1])}),
        # constant coefficients that are not positive
        ("constant 'M' must be symmetric positive-definite",
         {"coefficients": {"epsilon": {"M": [[1, 0, 0], [0, 1, 0], [0, 0, -0.5]]}}}),
        ("constant 'M' must be symmetric positive-definite",
         {"coefficients": {"epsilon": {"M": [[1, 5, 0], [0, 1, 0], [0, 0, 1]]}}}),
        ("constant 'M' must be symmetric positive-definite",
         {"coefficients": {"epsilon": {"M": [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]}}}),
        ("constant 'M' must be symmetric positive-definite",
         {"problem": "maxwell", "mesh": dict(HELM_SCALING["mesh"], n=2),
          "coefficients": {"mu": {"M": [[1, 0, 0], [0, 1, 0], [0, 0, -0.5]]}}}),
        ("'v' must be a finite number in [5e-324, inf], got -1",
         {"coefficients": {"nu": {"kind": "constant", "v": -1}}}),
        # affine coefficients that are not positive at a mapped mesh vertex
        ("coefficient 'epsilon' must be positive-definite",
         {"coefficients": {"epsilon": {"kind": "affine-diagonal", "d0": [1, 1, -0.5],
                                       "D": np.zeros((3, 3)).tolist()}}}),
        ("coefficient 'nu' must be positive-definite",
         {"coefficients": {"nu": {"kind": "affine", "c0": -1, "c": [0, 0, 0]}}}),
        ("coefficient 'mu' must be positive-definite",
         {"problem": "maxwell", "mesh": dict(HELM_SCALING["mesh"], n=2),
          "coefficients": {"mu": {"kind": "scalar-affine-identity", "c0": 1,
                                  "c": [0, -2, 0]}}}),
        # keys that a nested spec does not read
        ("mesh type 'box' does not read the keys ['nn']", {"mesh": {"type": "box", "nn": 2}}),
        ("mesh type 'file' does not read the keys ['n']",
         {"mesh": {"type": "file", "path": "box.tetmesh", "n": 2}}),
        ("partition names no box face ['w9']",
         {"mesh": dict(HELM_SCALING["mesh"], partition=dict(MIXED, w9="N"))}),
        ("displacement field type 'sin' does not read the keys ['amplitdue']",
         {"family": {"kind": "bump", "g": {"type": "sin", "axis": 0, "amplitdue": 0.2}}}),
        ("transformation family kind 'scaling' does not read the keys ['axis']",
         {"family": {"kind": "scaling", "axis": 1}}),
        ("matrix coefficient kind 'constant' does not read the keys ['d0']",
         {"coefficients": {"epsilon": {"d0": [1, 1, 1]}}}),
        ("scalar coefficient kind 'affine' does not read the keys ['v']",
         {"coefficients": {"nu": {"kind": "affine", "c0": 1, "c": [0, 0, 0], "v": 1}}}),
        ("abstract pencil kind 'crossing' does not read the keys ['m']",
         {"problem": "abstract-pencil", "abstract": {"kind": "crossing", "m": 3}}),
        # top-level specs that the problem does not read
        ("problem 'abstract-pencil' does not read the keys ['family', 'mesh']",
         {"problem": "abstract-pencil", "mesh": {"type": "box", "nn": 2},
          "family": {"kind": "nope"}, "abstract": {"kind": "crossing"}}),
        ("problem 'abstract-pencil' does not read the keys ['coefficients', 'family', 'mesh']",
         {"problem": "abstract-pencil", "coefficients": {}}),
        ("problem 'helmholtz' does not read the keys ['abstract']",
         {"abstract": {"kind": "crossing", "zz": 1}}),
        ("reads only 'abstract.seed', it does not read the keys ['sed']",
         {"abstract": {"seed": 1, "sed": 2}}),
    ])
    def test_malformed_value_exit_code(self, tmp_path, capsys, key, raw):
        path = self.write_config(tmp_path, dict(HELM_SCALING, **raw))
        # the abstract command reads only the "seed" of its degenerate demo
        command = "abstract" if "seed" in key else "eig"
        assert cli.main([command, "--config", path]) == cli.EXIT_CONFIG
        assert key in capsys.readouterr().err

    def test_missing_mesh_file_exit_code(self, tmp_path):
        raw = dict(HELM_SCALING, mesh={"type": "file", "path": str(tmp_path / "no.tetmesh")})
        path = self.write_config(tmp_path, raw)
        assert cli.main(["eig", "--config", path]) == cli.EXIT_CONFIG

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

    def test_negative_mesh_section_count_exit_code(self, tmp_path, capsys):
        mesh_path = tmp_path / "negative.tetmesh"
        mesh_path.write_text("tetmesh v1\nvertices -1\n")
        raw = dict(HELM_SCALING, mesh={"type": "file", "path": str(mesh_path)})
        path = self.write_config(tmp_path, raw)
        assert cli.main(["eig", "--config", path]) == cli.EXIT_CONFIG
        assert "bad count '-1'" in capsys.readouterr().err

    def test_missing_family_key_exit_code(self, tmp_path):
        raw = dict(HELM_SCALING, family={"kind": "bump"})
        path = self.write_config(tmp_path, raw)
        assert cli.main(["dshape", "--config", path]) == cli.EXIT_CONFIG

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

    def test_numerical_failure_exit_code(self, tmp_path):
        # chi_bar = -1 collapses the scaling map: det J <= 0
        raw = dict(HELM_SCALING, chi_bar=-1.0)
        path = self.write_config(tmp_path, raw)
        assert cli.main(["eig", "--config", path]) == cli.EXIT_NUMERICAL

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

    def count_calls(self, monkeypatch, name):
        calls = []
        original = getattr(harness, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, name, counting)
        return calls

    def test_verify_builds_one_mesh_and_solves_chi_bar_once(self, tmp_path, capsys,
                                                             monkeypatch):
        meshes = self.count_calls(monkeypatch, "build_box_mesh")
        assemblies = self.count_calls(monkeypatch, "assemble_at")
        path = self.write_config(tmp_path, dict(HELM_SCALING, fd_steps=[1e-3, 1e-4]))
        assert cli.main(["verify", "--config", path]) == 0
        assert len(meshes) == 1
        assert [chi for _, chi in assemblies].count(0.0) == 1
        # fd_steps repeats run()'s default fd_step 1e-4: chi_bar, chi_bar +- 1e-4
        # and chi_bar +- 1e-3 are each assembled and solved once
        assert len(assemblies) == 5

    def test_study_builds_one_mesh_per_level(self, tmp_path, capsys, monkeypatch):
        meshes = self.count_calls(monkeypatch, "build_box_mesh")
        path = self.write_config(tmp_path, dict(HELM_SCALING, refinement=[2, 3]))
        assert cli.main(["study", "--config", path]) == 0
        assert [n for _, n, _ in meshes] == [2, 3]

    @pytest.mark.parametrize("command", ["eig", "dshape"])
    def test_box_above_the_dof_limit_is_refused_unbuilt(self, tmp_path, monkeypatch, command):
        def refuse(*args, **kwargs):
            raise AssertionError("box mesh built above the dof limit")

        monkeypatch.setattr(harness, "build_box_mesh", refuse)
        path = self.write_config(tmp_path, {"problem": "maxwell", "mesh": {"type": "box", "n": 64}})
        start = time.perf_counter()
        assert cli.main([command, "--config", path]) == cli.EXIT_CONFIG
        assert time.perf_counter() - start < 1.0

    def test_study_refuses_an_oversize_level_before_the_first(self, tmp_path, capsys,
                                                              monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("study level built before every level was checked")

        monkeypatch.setattr(harness, "build_box_mesh", refuse)
        raw = {"problem": "maxwell", "mesh": {"type": "box", "n": 3}, "refinement": [3, 64]}
        path = self.write_config(tmp_path, raw)
        assert cli.main(["study", "--config", path]) == cli.EXIT_CONFIG
        assert "n=64" in capsys.readouterr().err

    @pytest.mark.parametrize("levels", [[3, 3], [4, 3], [2, 4, 4]])
    def test_study_refuses_levels_that_do_not_increase(self, tmp_path, capsys, monkeypatch,
                                                       levels):
        """A repeated or decreasing level exits 2 before any level is built."""
        def refuse(*args, **kwargs):
            raise AssertionError("study level built before the levels were checked")

        monkeypatch.setattr(harness, "build_box_mesh", refuse)
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

    @pytest.mark.parametrize("raw, message", [
        ({"problem": "abstract-pencil"}, "FEM problem"),
        (dict(HELM_SCALING, mesh={"type": "file", "path": "box.tetmesh"}), "box mesh spec"),
    ], ids=["abstract-pencil", "file-mesh"])
    def test_study_needs_a_fem_problem_on_a_box(self, tmp_path, capsys, raw, message):
        path = self.write_config(tmp_path, dict(raw, refinement=[2, 3]))
        assert cli.main(["study", "--config", path]) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err

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
