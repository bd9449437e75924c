import dataclasses
import json
import os
import subprocess
import sys
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest

import spdecontrol.adjoint
import spdecontrol.cli
import spdecontrol.forward
from spdecontrol.cli import build_problem, main, run, validate_config, write_json
from spdecontrol.control import CATALOG, catalog_problem
from spdecontrol.errors import ConfigurationError


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


BALL_NOISE_CONFIG = {
    "problem": {
        "domain": {"dimension": 2, "kind": "ball_formula_only", "modes_per_axis": 4},
        "drift": {"kind": "cubic"},
        "noise": {"gamma": 0.3, "alpha": 0.1},
        "cost": {"kind": "quadratic"},
        "horizon": 0.5,
        "n_steps": 32,
        "x0": {"sine": {"1,1": 0.2}},
    },
    "numerics": {"seed": 5, "paths": 10},
}


def no_simulation(*args, **kwargs):
    raise AssertionError("simulated before the configuration was checked")


def no_build(*args, **kwargs):
    raise AssertionError("built a problem before the configuration was checked")


# configs the schema refuses: four keys that did nothing (the f' clip is the constant
# adjoint.FPRIME_CLIP; u_bound fed only a growth constant no code reads), and alpha
# and d out of range
REFUSED_CHANGES = {
    "noise-seed": lambda cfg: cfg["problem"]["noise"].update(seed=3),
    "drift-u_bound": lambda cfg: cfg["problem"]["drift"].update(u_bound=2.0),
    "numerics-r": lambda cfg: cfg["numerics"].update(r=3.0),
    "numerics-clip": lambda cfg: cfg["numerics"].update({'clip': 1e3}),
    "alpha-half": lambda cfg: cfg["problem"]["noise"].update(alpha=0.5),
    "dimension-0": lambda cfg: cfg["problem"]["domain"].update(dimension=0),
    "dimension-4": lambda cfg: cfg["problem"]["domain"].update(dimension=4),
}

# configs the schema refuses, with the path it names: overrides next to an inline
# problem, which were ignored, override values outside the range of the inline value
# they replace, and a negative noise exponent, inline or as an override
REFUSED_OVERRIDES = {
    "inline-problem": ({"problem": CATALOG["lq-1d"], "overrides": {"n_steps": 16}}, "problem"),
    "inline-gamma--1": ({"problem": dict(CATALOG["lq-1d"], noise={"gamma": -1, "alpha": 0.25})},
                        "problem/noise/gamma"),
    "gamma--1": ({"problem": "lq-1d", "overrides": {"gamma": -1}}, "overrides/gamma"),
    "alpha-0.7": ({"problem": "lq-1d", "overrides": {"alpha": 0.7}}, "overrides/alpha"),
    "n_steps-32.7": ({"problem": "lq-1d", "overrides": {"n_steps": 32.7}}, "overrides/n_steps"),
    "modes-8.9": ({"problem": "lq-1d", "overrides": {"modes": 8.9}}, "overrides/modes"),
    "modes-0": ({"problem": "lq-1d", "overrides": {"modes": 0}}, "overrides/modes"),
    "horizon-0": ({"problem": "lq-1d", "overrides": {"horizon": 0}}, "overrides/horizon"),
    "epsilon-negative": ({"problem": "lq-1d", "study": {"epsilons": [0.125, 0.0625, -0.03125]}},
                         "study/epsilons/2"),
    "two-epsilons": ({"problem": "lq-1d", "study": {"epsilons": [0.125, 0.0625]}},
                     "study/epsilons"),
}


# command-line flags the schema's numerics fragments refuse, with the message
REFUSED_FLAGS = {
    "paths-1": (["--paths", "1"], "--paths 1: 1 is less than the minimum of 2"),
    "paths-0": (["--paths", "0"], "--paths 0: 0 is less than the minimum of 2"),
    "paths--3": (["--paths", "-3"], "--paths -3: -3 is less than the minimum of 2"),
    "seed--1": (["--seed", "-1"], "--seed -1: -1 is less than the minimum of 0"),
    "seed-2**64": (["--seed", str(2**64)], f"--seed {2**64}: {2**64} is greater than the "
                   f"maximum of {2**64 - 1}"),
}

# the subcommands that step paths on the collocation grid
GRID_SUBCOMMANDS = ("simulate", "spike-orders", "cost-expansion", "adjoint-check",
                    "smp-check", "optimize")


class TestConfigValidation:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_config({"problem": "lq-1d", "mystery": 1})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_config({"problem": "lq-1d", "numerics": {"era": 3}})

    def test_alpha_range_recheck(self):
        cfg = json.loads(json.dumps(BALL_NOISE_CONFIG))
        cfg["problem"]["noise"]["alpha"] = 0.7
        with pytest.raises(ConfigurationError, match="config invalid at problem/noise/alpha: "
                           "0.7 is greater than or equal to the maximum of 0.5"):
            validate_config(cfg)

    @pytest.mark.parametrize("change", REFUSED_CHANGES.values(), ids=REFUSED_CHANGES)
    def test_refused_before_any_build(self, tmp_path, monkeypatch, capsys, change):
        monkeypatch.setattr(spdecontrol.cli, "build_problem", no_build)
        cfg = json.loads(json.dumps(BALL_NOISE_CONFIG))
        change(cfg)
        assert run("noise-check", str(write_config(tmp_path, cfg)), str(tmp_path / "out")) == 2
        assert "error: config invalid at " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, message", REFUSED_FLAGS.values(), ids=REFUSED_FLAGS)
    def test_flags_refused_before_any_build(self, tmp_path, monkeypatch, capsys, flags, message):
        monkeypatch.setattr(spdecontrol.cli, "build_problem", no_build)
        cfg = write_config(tmp_path, {"problem": "lq-1d"})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, where", REFUSED_OVERRIDES.values(), ids=REFUSED_OVERRIDES)
    def test_overrides_refused_before_any_build(self, tmp_path, monkeypatch, capsys, config,
                                                where):
        monkeypatch.setattr(spdecontrol.cli, "build_problem", no_build)
        assert run("noise-check", str(write_config(tmp_path, config)), str(tmp_path / "out")) == 2
        assert f"error: config invalid at {where}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_inline_problem_refusal_names_the_rule(self):
        with pytest.raises(ConfigurationError, match=r"\(overrides apply to catalog problems only\)"):
            validate_config({"problem": CATALOG["lq-1d"], "overrides": {}})

    def test_integral_override_values_build_as_before(self):
        config = validate_config({"problem": "lq-1d", "overrides": {"n_steps": 32.0, "modes": 8}})
        problem = build_problem(config, 1)
        assert (problem.n_steps, problem.domain.n_modes) == (32, 8)

    def test_dt_beta_guard_actionable(self):
        cfg = json.loads(json.dumps(BALL_NOISE_CONFIG))
        cfg["problem"]["domain"]["kind"] = "interval_or_hypercube"
        cfg["problem"]["n_steps"] = 1
        cfg["problem"]["horizon"] = 4.0
        validate_config(cfg)
        with pytest.raises(ConfigurationError, match="n_steps"):
            build_problem(cfg, 1)

    def test_catalog_and_inline_both_validate(self):
        validate_config({"problem": "cubic-1d"})
        validate_config(BALL_NOISE_CONFIG)

    @pytest.mark.parametrize("name", list(CATALOG))
    def test_catalog_entry_is_an_inline_problem(self, name):
        inline = build_problem(validate_config({"problem": CATALOG[name]}), 11)
        named = build_problem(validate_config({"problem": name}), 11)
        assert (inline.name, named.name) == ("inline", name)
        assert (inline.horizon, inline.n_steps) == (named.horizon, named.n_steps)
        for part in ("domain.eigenvalues", "x0", "noise.b_coeffs", "drift.dissipativity_bound",
                     "cost.measure.points", "cost.measure.weights"):
            np.testing.assert_array_equal(attrgetter(part)(inline), attrgetter(part)(named))
        assert inline.cost.measure.kind == named.cost.measure.kind

    def test_schema_checked_once_per_validator(self, monkeypatch):
        original, checks = jsonschema.Draft202012Validator.check_schema, []

        def counting(cls, schema, *args, **kwargs):
            checks.append(schema)
            return original(schema, *args, **kwargs)

        monkeypatch.setattr(jsonschema.Draft202012Validator, "check_schema", classmethod(counting))
        spdecontrol.cli._config_validator.cache_clear()
        spdecontrol.cli._config_validator()
        assert checks == [spdecontrol.cli.CONFIG_SCHEMA]
        validate_config({"problem": "lq-1d"})
        with pytest.raises(ConfigurationError, match="config invalid at numerics/paths"):
            validate_config({"problem": "lq-1d", "numerics": {"paths": 1}})
        assert len(checks) == 1


class TestRunner:
    def test_missing_config_nonzero_exit(self, tmp_path):
        rc = run("simulate", str(tmp_path / "nope.json"), str(tmp_path / "out"))
        assert rc == 2
        assert not (tmp_path / "out").exists()

    def test_invalid_config_nonzero_exit(self, tmp_path):
        cfg = write_config(tmp_path, {"problem": "lq-1d", "bogus": True})
        rc = run("simulate", str(cfg), str(tmp_path / "out"))
        assert rc == 2

    def test_ball_noise_check_reports_threshold(self, tmp_path):
        cfg = write_config(tmp_path, BALL_NOISE_CONFIG)
        out = tmp_path / "out"
        rc = run("noise-check", str(cfg), str(out))
        assert rc == 0
        report = json.loads((out / "noise_report.json").read_text())
        assert report["verdict"] == "irregular"
        assert report["threshold"] == pytest.approx(0.35)
        assert report["series_converges"] is False

    def test_simulate_reproducible_manifest(self, tmp_path):
        cfg = write_config(tmp_path, {"problem": "lq-1d",
                                      "numerics": {"seed": 9, "paths": 20},
                                      "study": {"export_snapshots": True}})
        rc1 = run("simulate", str(cfg), str(tmp_path / "a"))
        rc2 = run("simulate", str(cfg), str(tmp_path / "b"))
        assert rc1 == 0 and rc2 == 0
        assert (tmp_path / "a" / "manifest.json").read_bytes() == \
            (tmp_path / "b" / "manifest.json").read_bytes()
        assert (tmp_path / "a" / "trajectory0.bin").read_bytes() == \
            (tmp_path / "b" / "trajectory0.bin").read_bytes()

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, {"problem": "lq-1d",
                                      "numerics": {"seed": 9, "paths": 12}})
        run("simulate", str(cfg), str(tmp_path / "a"), seed=100)
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["seed"] == 100

    def test_smp_check_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, {
            "problem": "lq-1d",
            "overrides": {"modes": 8, "n_steps": 32},
            "numerics": {"seed": 3, "paths": 120},
            "study": {"control": "lq-oracle", "v_count": 7},
        })
        out = tmp_path / "out"
        assert run("smp-check", str(cfg), str(out)) == 0
        report = json.loads((out / "smp_report.json").read_text())
        assert report["min_gap"] >= -5e-3
        lines = (out / "gaps.csv").read_text().splitlines()
        assert lines[0] == "time,v,gap"
        assert len(lines) == 1 + 32 * 7

    def test_spike_orders_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, {
            "problem": "cubic-1d",
            "overrides": {"modes": 16, "n_steps": 64},
            "numerics": {"seed": 4, "paths": 24},
            "study": {"epsilons": [0.125, 0.0625, 0.03125]},
        })
        out = tmp_path / "out"
        assert run("spike-orders", str(cfg), str(out)) == 0
        summary = json.loads((out / "spike_orders.json").read_text())
        assert 1.5 <= summary["slopes"]["xi"]["slope"] <= 2.5

    def test_adjoint_check_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, {
            "problem": "lq-1d",
            "overrides": {"modes": 8, "n_steps": 32},
            "numerics": {"seed": 6, "paths": 120},
        })
        out = tmp_path / "out"
        assert run("adjoint-check", str(cfg), str(out)) == 0
        report = json.loads((out / "adjoint_check.json").read_text())
        assert report["duality_gamma"]["residual"] < 0.2
        assert (out / "adjoint0.bin").exists()
        diag = json.loads((out / "adjoint_diagnostics.json").read_text())
        assert len(diag["steps"]) == 32

    def test_cost_expansion_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, {
            "problem": "lq-1d",
            "overrides": {"modes": 8, "n_steps": 64},
            "numerics": {"seed": 8, "paths": 24},
            "study": {"epsilons": [0.125, 0.0625, 0.03125]},
        })
        out = tmp_path / "out"
        assert run("cost-expansion", str(cfg), str(out)) == 0
        summary = json.loads((out / "cost_expansion.json").read_text())
        assert summary["slope"]["slope"] > 1.0
        assert (out / "cost_expansion.csv").exists()

    def test_optimize_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, {
            "problem": "lq-1d",
            "overrides": {"modes": 8, "n_steps": 32},
            "numerics": {"seed": 12, "paths": 120},
            "study": {"iterations": 8, "step": 0.5, "tol": 0.01},
        })
        out = tmp_path / "out"
        assert run("optimize", str(cfg), str(out)) == 0
        summary = json.loads((out / "optimize.json").read_text())
        assert summary["J_final"] <= summary["J_initial"]
        lines = (out / "descent.csv").read_text().splitlines()
        assert lines[0] == "iteration,J,stderr,grad_norm"
        assert (out / "control.csv").exists()

    def test_manifest_hashes_artifacts(self, tmp_path):
        import hashlib

        cfg = write_config(tmp_path, {"problem": "lq-1d",
                                      "numerics": {"seed": 9, "paths": 12}})
        out = tmp_path / "out"
        run("simulate", str(cfg), str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["complete"] is True
        for name, digest in manifest["artifacts"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_main_entry_point(self, tmp_path):
        cfg = write_config(tmp_path, {"problem": "lq-1d",
                                      "numerics": {"seed": 2, "paths": 10}})
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["complete"] is True

    @pytest.mark.parametrize("subcommand", ["adjoint-check", "selftest"])
    def test_path_budget_fails_before_simulation(self, tmp_path, monkeypatch, subcommand, capsys):
        # lq-1d's default basis has 17 features and wants 170 paths
        monkeypatch.setattr(spdecontrol.forward, "_exp_euler", no_simulation)
        monkeypatch.setattr(spdecontrol.cli, "sample_convolution", no_simulation)
        # an explicit basis_modes is kept as given; selftest always uses the full basis
        cfg = write_config(tmp_path, {"problem": "lq-1d",
                                      "numerics": {"seed": 1, "paths": 50, "basis_modes": 16}})
        out = tmp_path / "out"
        assert run(subcommand, str(cfg), str(out)) == 1
        assert json.loads((out / "manifest.json").read_text())["complete"] is False
        assert "wants at least 170 paths, got 50" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", GRID_SUBCOMMANDS)
    def test_formula_only_domain_fails_before_simulation(self, tmp_path, monkeypatch,
                                                         subcommand, capsys):
        monkeypatch.setattr(spdecontrol.forward, "_exp_euler", no_simulation)
        monkeypatch.setattr(spdecontrol.forward, "wiener_normals", no_simulation)
        out = tmp_path / "out"
        assert run(subcommand, str(write_config(tmp_path, BALL_NOISE_CONFIG)), str(out)) == 1
        assert json.loads((out / "manifest.json").read_text())["complete"] is False
        assert capsys.readouterr().err == (
            f"error: {subcommand} needs a collocation grid, which a 'ball_formula_only' "
            "domain does not have; noise-check and selftest run on it\n")

    def test_optimize_stopped_at_once_records_one_control(self, tmp_path):
        # with every cost weight 0 the gradient is 0, so descent stops before its first step
        problem = dict(CATALOG["lq-1d"], n_steps=32, cost={
            "kind": "quadratic", "state_weight": 0, "control_weight": 0, "terminal_weight": 0})
        cfg = write_config(tmp_path, {"problem": problem, "numerics": {"seed": 3, "paths": 20}})
        out = tmp_path / "out"
        assert run("optimize", str(cfg), str(out)) == 0
        assert (out / "descent.csv").read_text() == \
            "iteration,J,stderr,grad_norm\n0,0,0,0\n"
        assert json.loads((out / "optimize.json").read_text())["iterations"] == 0

    @pytest.mark.parametrize("subcommand", ["smp-check", "optimize"])
    def test_pathwise_commands_have_no_path_budget(self, tmp_path, subcommand, capsys):
        # the same 50 paths and basis_modes: the pathwise sweep fits no basis
        cfg = write_config(tmp_path, {"problem": "lq-1d",
                                      "numerics": {"seed": 1, "paths": 50, "basis_modes": 16},
                                      "study": {"iterations": 3}})
        out = tmp_path / "out"
        assert run(subcommand, str(cfg), str(out)) == 0
        assert json.loads((out / "manifest.json").read_text())["complete"] is True
        assert capsys.readouterr().err == ""

    def test_write_json_keeps_large_arrays(self, tmp_path):
        values = np.linspace(0.0, 1.0, 100)
        write_json(tmp_path / "a.json", {"values": values})
        assert json.loads((tmp_path / "a.json").read_text())["values"] == values.tolist()


def count_calls(monkeypatch, module, name):
    """Count calls of ``module.name`` through every package module that binds it."""
    original, calls = getattr(module, name), []

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("spdecontrol") and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


class TestStudyCallCounts:
    """Each CLI study simulates each (control, seed) pair once and sweeps it once."""

    LQ = {"problem": "lq-1d", "overrides": {"modes": 8, "n_steps": 32},
          "numerics": {"seed": 3, "paths": 120}}

    @pytest.mark.parametrize("study, expected", [
        ({}, 1), ({"control_value": 0.0}, 1), ({"control_value": 0.3}, 2),
        ({"control": "lq-oracle"}, 2)])
    def test_adjoint_check(self, tmp_path, monkeypatch, study, expected):
        ensembles = count_calls(monkeypatch, spdecontrol.forward, "simulate_ensemble")
        sweeps = count_calls(monkeypatch, spdecontrol.adjoint, "backward_sweep")
        cfg = write_config(tmp_path, dict(self.LQ, study=study))
        assert run("adjoint-check", str(cfg), str(tmp_path / "out")) == 0
        assert (len(ensembles), len(sweeps)) == (expected, expected)

    # every cost weight 0: the gradient is 0, and descent stops on GRAD_TOL at its start
    ZERO_WEIGHTS = {"problem": dict(CATALOG["lq-1d"], n_steps=32, cost={
        "kind": "quadratic", "state_weight": 0, "control_weight": 0, "terminal_weight": 0}),
        "numerics": LQ["numerics"]}

    @pytest.mark.parametrize("config, expected", [(LQ, 4), (ZERO_WEIGHTS, 1)],
                             ids=["full-run", "grad-tol-stop"])
    def test_optimize_sweeps_each_ensemble_once(self, tmp_path, monkeypatch, config, expected):
        ensembles = count_calls(monkeypatch, spdecontrol.forward, "simulate_ensemble")
        sweeps = count_calls(monkeypatch, spdecontrol.adjoint, "_backward_nodes")
        cfg = write_config(tmp_path, dict(config, study={"iterations": 3}))
        assert run("optimize", str(cfg), str(tmp_path / "out")) == 0
        assert (len(ensembles), len(sweeps)) == (expected, expected)
        # the certificate reuses the last sweep, and every descent.csv row has its gradient
        rows = (tmp_path / "out" / "descent.csv").read_text().splitlines()[1:]
        grad_norms = [float(row.split(",")[-1]) for row in rows]
        assert len(grad_norms) == expected
        assert all(g > 0 for g in grad_norms) if config is self.LQ else grad_norms == [0.0]

    def test_optimize_draws_normals_once(self, tmp_path, monkeypatch):
        iterations = 3
        normals = count_calls(monkeypatch, spdecontrol.forward, "wiener_normals")
        ensembles = count_calls(monkeypatch, spdecontrol.forward, "simulate_ensemble")
        cfg = write_config(tmp_path, dict(self.LQ, study={"iterations": iterations}))
        assert run("optimize", str(cfg), str(tmp_path / "out")) == 0
        assert len(normals) == self.LQ["numerics"]["paths"]
        assert len(ensembles) == iterations + 1


class TestDefaultEpsilons:
    @pytest.mark.parametrize("horizon", [1.0, 0.5, 0.3])
    @pytest.mark.parametrize("n_steps", [64, 128, 256])
    def test_multiples_of_64_keep_the_fixed_fractions(self, n_steps, horizon):
        problem = SimpleNamespace(horizon=horizon, n_steps=n_steps)
        assert spdecontrol.cli._default_epsilons(problem) == \
            [horizon / 8, horizon / 16, horizon / 32, horizon / 64]

    @pytest.mark.parametrize("subcommand, summary", [("spike-orders", "spike_orders.json"),
                                                     ("cost-expansion", "cost_expansion.json")])
    def test_spike_studies_run_on_32_steps(self, tmp_path, subcommand, summary):
        cfg = write_config(tmp_path, {"problem": "lq-1d", "overrides": {"n_steps": 32},
                                      "numerics": {"paths": 50}})
        out = tmp_path / "out"
        assert run(subcommand, str(cfg), str(out)) == 0
        assert json.loads((out / summary).read_text())["epsilons"] == [1 / 32, 1 / 16, 1 / 8]

    def test_too_coarse_grid_fails_before_simulation(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(spdecontrol.forward, "_exp_euler", no_simulation)
        cfg = write_config(tmp_path, {"problem": "lq-1d", "overrides": {"n_steps": 16},
                                      "numerics": {"paths": 50}})
        assert run("spike-orders", str(cfg), str(tmp_path / "out")) == 1
        assert "default spike widths need n_steps >= 32, got 16" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["spike-orders", "cost-expansion"])
    def test_default_start_is_on_an_odd_grid(self, tmp_path, subcommand):
        cfg = write_config(tmp_path, {"problem": "lq-1d", "overrides": {"n_steps": 33},
                                      "numerics": {"paths": 50}})
        assert run(subcommand, str(cfg), str(tmp_path / "out")) == 0
        if subcommand == "spike-orders":
            t0 = json.loads((tmp_path / "out" / "spike_orders.json").read_text())["t0"]
            assert t0 == 16 / 33

    @pytest.mark.parametrize("subcommand", ["spike-orders", "cost-expansion"])
    def test_off_grid_start_fails_before_simulation(self, tmp_path, monkeypatch, capsys,
                                                    subcommand):
        monkeypatch.setattr(spdecontrol.forward, "_exp_euler", no_simulation)
        cfg = write_config(tmp_path, {"problem": "lq-1d", "overrides": {"n_steps": 32},
                                      "numerics": {"paths": 50}, "study": {"spike_t0": 0.51}})
        assert run(subcommand, str(cfg), str(tmp_path / "out")) == 1
        assert "is not aligned with the step dt=0.03125" in capsys.readouterr().err

    def test_given_epsilons_skip_the_defaults(self, tmp_path):
        cfg = write_config(tmp_path, {"problem": "lq-1d", "overrides": {"n_steps": 16},
                                      "numerics": {"paths": 50},
                                      "study": {"epsilons": [0.25, 0.125, 0.0625]}})
        assert run("cost-expansion", str(cfg), str(tmp_path / "out")) == 0


class TestRegressionBasisFit:
    """Without ``basis_modes``, the CLI keeps the most modes the path budget affords."""

    @pytest.fixture(scope="class")
    def cubic(self):
        return catalog_problem("cubic-1d")  # 64 modes

    @pytest.mark.parametrize("paths, degree2, fitted", [
        (400, False, 39), (400, True, 19), (129, False, 11), (650, False, None)])
    def test_fitted_size(self, cubic, capsys, paths, degree2, fitted):
        spec = spdecontrol.cli._regression_spec({"degree2_basis": degree2}, cubic, paths)
        assert spec.basis_modes == fitted
        err = capsys.readouterr().err
        if fitted is None:
            assert err == ""
            return
        assert f"using numerics.basis_modes = {fitted}" in err and len(err.splitlines()) == 1
        with pytest.raises(ConfigurationError):
            dataclasses.replace(spec, basis_modes=fitted + 1).check_paths(64, paths)

    @pytest.mark.parametrize("num, paths, message", [
        ({"basis_modes": 60}, 400, "61 basis functions wants at least 610 paths, got 400"),
        ({}, 19, "65 basis functions wants at least 650 paths, got 19")])
    def test_unaffordable_basis_still_fails(self, cubic, num, paths, message):
        with pytest.raises(ConfigurationError, match=message):
            spdecontrol.cli._regression_spec(num, cubic, paths)

    def test_smp_check_on_catalog_defaults(self, tmp_path, capsys):
        # smp-check takes no regression, so the basis is not fitted to the paths
        cfg = write_config(tmp_path, {"problem": "dirac-2d"})
        out = tmp_path / "out"
        assert run("smp-check", str(cfg), str(out)) == 0
        assert "using numerics.basis_modes" not in capsys.readouterr().err
        assert json.loads((out / "manifest.json").read_text())["complete"] is True


def manifests_at_blas_threads(tmp_path, script, threads):
    """stdout of ``script`` run on ``tmp_path / threads`` in a child with that many BLAS threads."""
    src = str(Path(spdecontrol.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    (tmp_path / threads).mkdir()
    return subprocess.run([sys.executable, "-c", script, str(tmp_path / threads)], env=env,
                          capture_output=True, text=True, timeout=300, check=True).stdout


_EVERY_SUBCOMMAND = """
import json, pathlib, sys
from spdecontrol.cli import SUBCOMMANDS, run
root = pathlib.Path(sys.argv[1])
for name, study in (("zero", {"iterations": 3}),
                    ("lq-oracle", {"control": "lq-oracle", "iterations": 3})):
    config = root / f"{name}.json"
    config.write_text(json.dumps({"problem": "lq-1d", "overrides": {"n_steps": 32},
                                  "numerics": {"paths": 200, "seed": 307}, "study": study}))
    for sub in SUBCOMMANDS:
        out = root / f"{name}-{sub}"
        assert run(sub, str(config), str(out)) == 0, (name, sub)
        print((out / "manifest.json").read_text())
"""


def test_every_subcommand_bytes_independent_of_blas_threads(tmp_path):
    one, two = (manifests_at_blas_threads(tmp_path, _EVERY_SUBCOMMAND, t) for t in ("1", "2"))
    assert one.count('"complete": true') == 2 * len(spdecontrol.cli.SUBCOMMANDS)
    assert one == two


_ADJOINT_CHECK_DEFAULTS = """
import json, pathlib, sys
from spdecontrol.cli import run
root = pathlib.Path(sys.argv[1])
config = root / "lq-1d.json"
config.write_text(json.dumps({"problem": "lq-1d"}))
assert run("adjoint-check", str(config), str(root / "out")) == 0
print((root / "out" / "manifest.json").read_text())
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="two BLAS threads need two CPUs")
def test_adjoint_check_default_bytes_independent_of_blas_threads(tmp_path):
    # lq-1d at the default seed 20250801 and 400 paths: a (400, 256) q-target regression
    # moved duality_eta.lhs in the last bit between 1 and 2 threads
    one, two = (manifests_at_blas_threads(tmp_path, _ADJOINT_CHECK_DEFAULTS, t) for t in ("1", "2"))
    assert '"complete": true' in one
    assert one == two


_PATHWISE_COMMANDS = """
import json, pathlib, sys
from spdecontrol.cli import run
root = pathlib.Path(sys.argv[1])
config = root / "cubic-1d.json"
config.write_text(json.dumps({"problem": "cubic-1d", "overrides": {"n_steps": 64},
                              "numerics": {"paths": 400}, "study": {"iterations": 3}}))
for sub in ("smp-check", "optimize"):
    assert run(sub, str(config), str(root / sub)) == 0, sub
    print((root / sub / "manifest.json").read_text())
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="two BLAS threads need two CPUs")
def test_pathwise_commands_bytes_independent_of_blas_threads(tmp_path):
    # catalog cubic-1d (64 modes, 39 basis modes at 400 paths): a step regression's
    # (40, 400) @ (400, 64) products moved gaps.csv, control.csv, descent.csv and
    # optimize.json between 1 and 2 threads; the pathwise sweep has no path-axis product
    one, two = (manifests_at_blas_threads(tmp_path, _PATHWISE_COMMANDS, t) for t in ("1", "2"))
    assert one.count('"complete": true') == 2
    assert one == two
