"""Driver configs, reports, FD tables, refinement studies, and the CLI."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from spectra_shape import cli, harness
from spectra_shape.errors import ConfigError

HELM_SCALING = {
    "problem": "helmholtz",
    "mesh": {"type": "box", "dims": [1, 1, 1], "n": 3, "partition": "T"},
    "family": {"kind": "scaling"},
}


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

    def test_bad_coefficient_spec_rejected(self):
        with pytest.raises(ConfigError):
            harness.RunConfig.from_dict(
                dict(HELM_SCALING, coefficients={"nu": {"kind": "mystery"}})
            )

    def test_missing_spec_key_rejected_at_parse(self):
        with pytest.raises(ConfigError):
            harness.RunConfig.from_dict(dict(HELM_SCALING, family={"kind": "bump"}))

    def test_file_mesh_without_path_rejected(self):
        with pytest.raises(ConfigError):
            harness.RunConfig.from_dict(dict(HELM_SCALING, mesh={"type": "file"}))


class TestRun:
    def test_helmholtz_scaling_report(self):
        report = harness.run(config())
        rec = report.clusters[0]
        lam = rec["lambda_bar"]
        assert rec["slopes_volume"][0] == pytest.approx(-2 * lam, rel=1e-8)
        assert rec["slopes_fd"][0] == pytest.approx(-2 * lam, rel=1e-6)
        assert rec["route_discrepancy"] <= 1e-10

    def test_crossing_pencil_slopes(self):
        cfg = harness.RunConfig(
            problem="abstract-pencil", abstract={"kind": "crossing"}
        )
        report = harness.run(cfg)
        np.testing.assert_allclose(
            report.clusters[0]["slopes_rellich"], [-1.0, 1.0], atol=1e-12
        )

    def test_report_is_deterministic(self, tmp_path):
        paths = []
        for name in ("a.json", "b.json"):
            cfg = config(output=str(tmp_path / name))
            harness.run(cfg)
            paths.append(tmp_path / name)
        docs = [json.loads(p.read_text()) for p in paths]
        for d in docs:
            d.pop("created_at")
        assert json.dumps(docs[0], sort_keys=True) == json.dumps(docs[1], sort_keys=True)

    def test_index_range_beyond_spectrum_rejected(self):
        with pytest.raises(ConfigError):
            harness.run(config(index_range=[1, 10_000]))

    def test_untrusted_surface_form_is_not_computed(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("surface matrix computed for an untrusted form")

        monkeypatch.setattr(harness.hadamard, "helmholtz_surface_matrix", refuse)
        rec = harness.run(config(surface_form_trusted=False)).clusters[0]
        assert "volume_matrix" in rec
        assert "surface_matrix" not in rec and "surface_volume_gap" not in rec

    def test_report_schema_fields(self):
        report = harness.run(config())
        doc = report.to_dict()
        assert doc["schema_version"] == harness.SCHEMA_VERSION
        assert "created_at" in doc
        assert doc["environment"]["dofs"] > 0


class TestFdCheck:
    def test_scaling_richardson_hits_exact_slope(self):
        cfg = config()
        rows = harness.fd_check(cfg, (1e-3, 1e-4))
        lam = harness.run(cfg).clusters[0]["lambda_bar"]
        rich = rows[0]["richardson"][0]
        assert rich == pytest.approx(-2 * lam, rel=1e-9)

    def test_translation_slopes_vanish(self):
        cfg = config(family={"kind": "translation", "b1": [1.0, 0.0, 0.0]})
        rows = harness.fd_check(cfg, (1e-3, 1e-4))
        for row in rows:
            assert np.abs(row["slopes"]).max() <= 1e-10

    def test_observed_order_is_two(self):
        cfg = config()
        rows = harness.fd_check(cfg, (1e-3, 5e-4, 2.5e-4))
        assert 1.9 <= rows[0]["observed_order"] <= 2.1

    def test_sym_slopes_recorded_per_step(self):
        rows = harness.fd_check(config(), (1e-3, 1e-4))
        for row in rows:
            assert row["step"] > 0
            assert len(row["sym_slopes"]) == 1

    def test_each_shifted_pencil_is_solved_once(self, monkeypatch):
        solves = []
        solve = harness.solve_pencil

        def counting(*args, **kwargs):
            solves.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(harness, "solve_pencil", counting)
        rows = harness.fd_check(config(), (1e-3, 5e-4, 2.5e-4))
        assert all("sym_slopes" in r for r in rows)
        # one solve at chi_bar, then one per chi_bar +- step
        assert len(solves) == 1 + 2 * 3

    def test_too_few_steps_rejected(self):
        with pytest.raises(ConfigError):
            harness.fd_check(config(), (1e-3,))


class TestRefinementStudy:
    def test_gap_and_routes_over_levels(self):
        rows = harness.refinement_study(config(refinement=[2, 3, 4]))
        gaps = [r["surface_volume_gap"] for r in rows]
        assert gaps == sorted(gaps, reverse=True)
        assert all(r["route_discrepancy"] <= 1e-10 for r in rows)
        assert all(r["gap_decreased"] for r in rows)

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

    def test_abstract_demo(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {"problem": "abstract-pencil"})
        assert cli.main(["abstract", "--config", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(
            doc["branch_slopes"]["crossing"], [-1.0, 1.0], atol=1e-12
        )

    def test_config_error_exit_code(self, tmp_path):
        path = self.write_config(tmp_path, {"problem": "bogus"})
        assert cli.main(["eig", "--config", path]) == cli.EXIT_CONFIG

    def test_missing_config_exit_code(self, tmp_path):
        assert (
            cli.main(["eig", "--config", str(tmp_path / "nope.json")])
            == cli.EXIT_CONFIG
        )

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

    def test_import_loads_no_numerics(self):
        """--threads must be set before numpy loads OpenBLAS, so importing
        the CLI module may not load numpy or scipy."""
        code = ("import sys, spectra_shape.cli; "
                "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout
        assert out.strip() == "[]"

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

    def test_study_command(self, tmp_path, capsys):
        path = self.write_config(tmp_path, dict(HELM_SCALING, refinement=[2, 3]))
        assert cli.main(["study", "--config", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["levels"]) == 2
