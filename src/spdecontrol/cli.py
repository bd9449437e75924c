"""Experiment runner: config-driven studies with reproducible artifacts.

Every run derives all randomness from one root seed, writes per-study CSV
and JSON artifacts into the output directory and finishes with a manifest
(config hash, seed, package versions, artifact hashes).  Identical config
and seed reproduce the artifacts byte for byte; path-level work is
vectorized and aggregation order is fixed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import jsonschema
import numpy as np
import scipy

from . import __version__
from .adjoint import (PathwiseAdjoint, RegressionSpec, adjoint_to_binary, diagnostics_to_json,
                      duality_residual, solve_adjoint_regression, weighted_norm_report)
from .control import (CATALOG, CATALOG_OVERRIDES, ControlProblem, catalog_problem,
                      check_maximum_principle, constant_control_for, cost_of_ensemble,
                      lq_optimal_control, optimize_control, problem_from_spec)
from .errors import ConfigurationError, GridError, SpdeControlError
from .forward import ControlProcess, trajectory_to_binary, trajectory_to_csv
from .noise import NoiseModel, sample_convolution, series_condition_v, supnorm_moment_study, trace_summand
from .spectral import DomainKind, make_domain, regularity_threshold, semigroup_apply
from .variation import cost_expansion_check, spike_order_study

SUBCOMMANDS = ("simulate", "noise-check", "spike-orders", "cost-expansion",
               "adjoint-check", "smp-check", "optimize", "selftest")
# the subcommands that run on a formula-only domain, which has no collocation grid
GRIDLESS_SUBCOMMANDS = ("noise-check", "selftest")

_MEASURE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["lebesgue", "dirac_combination"]},
        "points": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
        "weights": {"type": "array", "items": {"type": "number"}},
    },
}

_INLINE_PROBLEM_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["domain", "drift", "noise", "cost", "horizon", "n_steps", "x0"],
    "properties": {
        "domain": {
            "type": "object",
            "additionalProperties": False,
            "required": ["dimension", "modes_per_axis"],
            "properties": {
                # the smoothing exponent d/4 must stay below 1
                "dimension": {"type": "integer", "minimum": 1, "maximum": 3},
                "kind": {"enum": [k.value for k in DomainKind]},
                "modes_per_axis": {"type": "integer", "minimum": 1},
            },
        },
        "drift": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["cubic", "linear", "bistable"]},
                "a": {"type": "number"},
                "b": {"type": "number"},
            },
        },
        "noise": {
            "type": "object",
            "additionalProperties": False,
            "required": ["gamma", "alpha"],
            "properties": {
                "gamma": {"type": "number", "minimum": 0},
                "alpha": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 0.5},
            },
        },
        "cost": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["quadratic"]},
                "state_weight": {"type": "number"},
                "control_weight": {"type": "number"},
                "terminal_weight": {"type": "number"},
                "measure": _MEASURE_SCHEMA,
            },
        },
        "horizon": {"type": "number", "exclusiveMinimum": 0},
        "n_steps": {"type": "integer", "minimum": 1},
        "x0": {
            "type": "object",
            "additionalProperties": False,
            "required": ["sine"],
            "properties": {"sine": {"type": "object",
                                    "additionalProperties": {"type": "number"}}},
        },
    },
}


def _inline_fragment(section, leaf) -> dict:
    """The inline-problem schema of the value a catalog override replaces."""
    properties = _INLINE_PROBLEM_SCHEMA["properties"]
    return (properties[section]["properties"] if section else properties)[leaf]


CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["problem"],
    # overrides replace values of a catalog problem; an inline problem states its own
    "dependentSchemas": {"overrides": {"properties": {"problem": {
        "enum": list(CATALOG), "description": "overrides apply to catalog problems only"}}}},
    "properties": {
        "problem": {"oneOf": [{"enum": list(CATALOG)}, _INLINE_PROBLEM_SCHEMA]},
        "overrides": {
            "type": "object",
            "additionalProperties": False,
            "properties": {k: _inline_fragment(*where) for k, where in CATALOG_OVERRIDES.items()},
        },
        "numerics": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "seed": {"type": "integer", "minimum": 0},
                "paths": {"type": "integer", "minimum": 2},
                "r_prime": {"type": "number", "exclusiveMinimum": 1, "exclusiveMaximum": 2},
                "sobolev_s": {"type": "number"},
                "degree2_basis": {"type": "boolean"},
                "basis_modes": {"type": "integer", "minimum": 0},
            },
        },
        "study": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "control_value": {"type": "number"},
                "control": {"enum": ["zero", "constant", "lq-oracle"]},
                "truncations": {"type": "array", "items": {"type": "integer", "minimum": 1}},
                "moment_order": {"type": "number", "minimum": 2},
                "epsilons": {"type": "array", "minItems": 3,
                             "items": {"type": "number", "exclusiveMinimum": 0}},
                "spike_t0": {"type": "number"},
                "spike_w": {"type": "number"},
                "iterations": {"type": "integer", "minimum": 1},
                "step": {"type": "number", "exclusiveMinimum": 0},
                "v_count": {"type": "integer", "minimum": 1},
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "export_snapshots": {"type": "boolean"},
            },
        },
    },
}


@functools.cache
def _config_validator() -> jsonschema.Draft202012Validator:
    """The validator of ``CONFIG_SCHEMA``, its schema checked once per process."""
    jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)
    return jsonschema.Draft202012Validator(CONFIG_SCHEMA)


def validate_config(config: dict) -> dict:
    # the error jsonschema.validate would raise, without rebuilding the validator
    err = jsonschema.exceptions.best_match(_config_validator().iter_errors(config))
    if err is not None:
        where = "/".join(str(p) for p in err.absolute_path) or "<root>"
        hint = f" ({err.schema['description']})" if "description" in err.schema else ""
        raise ConfigurationError(f"config invalid at {where}: {err.message}{hint}")
    return config


def _check_flags(**flags):
    """Refuse a command-line ``--seed`` or ``--paths`` the schema refuses in ``numerics``."""
    given = {name: value for name, value in flags.items() if value is not None}
    numerics = jsonschema.Draft202012Validator(CONFIG_SCHEMA["properties"]["numerics"])
    err = jsonschema.exceptions.best_match(numerics.iter_errors(given))
    if err is not None:
        name = err.absolute_path[0]
        raise ConfigurationError(f"--{name} {given[name]}: {err.message}")


def build_problem(config: dict, root_seed: int) -> ControlProblem:
    spec = config["problem"]
    if isinstance(spec, dict):
        return problem_from_spec(spec, root_seed)
    overrides = {k: (int(v) if k in ("modes", "n_steps") else float(v))
                 for k, v in config.get("overrides", {}).items()}
    return catalog_problem(spec, seed=root_seed, **overrides)


# -- deterministic artifact writers ------------------------------------------


def _pyify(obj):
    if isinstance(obj, dict):
        return {k: _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_pyify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[dict]):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[h]) for h in header) + "\n")


def write_json(path: Path, payload: dict):
    with open(path, "w") as fh:
        json.dump(_pyify(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(path.read_bytes())
    return digest.hexdigest()


# -- study drivers --------------------------------------------------------------


def _numerics(config, seed, paths):
    num = dict(config.get("numerics", {}))
    seed = seed if seed is not None else num.get("seed", 20250801)
    paths = paths if paths is not None else num.get("paths", 400)
    return int(seed), int(paths), num


def _base_control(problem, study):
    choice = study.get("control", "constant" if "control_value" in study else "zero")
    if choice == "lq-oracle":
        oracle = lq_optimal_control(problem)
        return ControlProcess(values=oracle["u_star"], space=problem.control_space)
    value = float(study.get("control_value", 0.0))
    return constant_control_for(problem, value)


def _run_simulate(problem, seed, paths, num, study, out: Path) -> list[Path]:
    control = _base_control(problem, study)
    ens = problem.ensemble(control, paths, seed)
    sup = problem.domain.sup_norm(ens.modes[:, -1])
    l2 = np.linalg.norm(ens.modes[:, -1], axis=1)
    costs = cost_of_ensemble(problem, ens)
    rows = [{"path": i, "final_sup": sup[i], "final_l2": l2[i], "cost": costs[i]}
            for i in range(paths)]
    write_csv(out / "simulate.csv", ["path", "final_sup", "final_l2", "cost"], rows)
    write_json(out / "simulate.json", {
        "paths": paths,
        "final_sup_mean": float(sup.mean()), "final_sup_std": float(sup.std(ddof=1)),
        "final_l2_mean": float(l2.mean()), "final_l2_std": float(l2.std(ddof=1)),
        "cost_mean": float(costs.mean()),
        "cost_stderr": float(costs.std(ddof=1) / math.sqrt(paths)),
    })
    artifacts = [out / "simulate.csv", out / "simulate.json"]
    if study.get("export_snapshots", True):
        traj = ens.trajectory(0)
        trajectory_to_csv(traj, out / "trajectory0.csv")
        trajectory_to_binary(traj, out / "trajectory0.bin")
        artifacts += [out / "trajectory0.csv", out / "trajectory0.bin"]
    return artifacts


def _run_noise_check(problem, seed, paths, num, study, out: Path) -> list[Path]:
    domain, noise = problem.domain, problem.noise
    threshold = regularity_threshold(domain.dimension, domain.kind, noise.alpha)
    series = series_condition_v(domain, noise)
    report = {
        "gamma": noise.gamma, "alpha": noise.alpha,
        "threshold": threshold,
        "verdict": "regular" if noise.gamma > threshold else "irregular",
        "series_converges": series["converges"],
        "series_partial_sum": series["value"],
        "series_exponent": series["exponent"],
        "trace_summand": {str(t): trace_summand(domain, noise, t * problem.horizon)
                          for t in (0.25, 0.5, 1.0)},
    }
    write_json(out / "noise_report.json", report)
    if domain.kind is not DomainKind.HYPERCUBE:
        # formula-only domains have no collocation grid to reconstruct on
        return [out / "noise_report.json"]
    m = domain.n_modes_per_axis
    truncations = study.get("truncations") or sorted({max(1, m // 4), max(1, m // 2), m})
    rows = supnorm_moment_study(domain, noise, truncations, n_paths=min(paths, 200),
                                p=study.get("moment_order", 2.0),
                                horizon=problem.horizon)
    write_csv(out / "moment_study.csv",
              ["truncation", "modes_per_axis", "paths", "p", "estimate", "stderr"], rows)
    return [out / "noise_report.json", out / "moment_study.csv"]


def _default_epsilons(problem):
    """T/8 .. T/64 rounded down to whole steps; the widths shorter than a step are dropped."""
    n_steps = problem.n_steps
    widths = [n_steps // (8 << k) for k in range(4)]
    epsilons = [problem.horizon * (w / n_steps) for w in widths if w >= 1]
    if len(epsilons) < 3:
        raise GridError(f"default spike widths need n_steps >= 32, got {n_steps}; "
                        "raise n_steps or set study.epsilons")
    return epsilons


def _spike_args(problem, study):
    """Spike value, start and widths; the default start is the last grid node at or before T/2."""
    epsilons = study["epsilons"] if "epsilons" in study else _default_epsilons(problem)
    # bitwise T/2 on an even step count
    t0 = problem.horizon * ((problem.n_steps // 2) / problem.n_steps)
    return dict(w=study.get("spike_w", 0.8), t0=study.get("spike_t0", t0), epsilons=epsilons)


def _run_spike_orders(problem, seed, paths, num, study, out: Path) -> list[Path]:
    control = _base_control(problem, study)
    report = spike_order_study(problem, control, **_spike_args(problem, study),
                               n_paths=paths, seed=seed)
    write_csv(out / "spike_orders.csv", ["epsilon", "quantity", "estimate", "stderr"],
              report["rows"])
    write_json(out / "spike_orders.json", {
        "slopes": report["slopes"], "epsilons": report["epsilons"],
        "paths": report["n_paths"], "t0": report["t0"], "w": report["w"],
    })
    return [out / "spike_orders.csv", out / "spike_orders.json"]


def _run_cost_expansion(problem, seed, paths, num, study, out: Path) -> list[Path]:
    control = _base_control(problem, study)
    report = cost_expansion_check(problem, control, **_spike_args(problem, study),
                                  n_paths=paths, seed=seed)
    write_csv(out / "cost_expansion.csv",
              ["epsilon", "delta_j", "first_order", "residual"], report["rows"])
    write_json(out / "cost_expansion.json",
               {"slope": report["slope"], "epsilons": report["epsilons"],
                "paths": report["n_paths"]})
    return [out / "cost_expansion.csv", out / "cost_expansion.json"]


def _regression_spec(num, problem, paths):
    spec = RegressionSpec(degree2=num.get("degree2_basis", False),
                          basis_modes=num.get("basis_modes"))
    n_modes = problem.domain.n_modes
    if spec.basis_modes is None:
        # the full basis over the path budget: keep the most modes that fit
        fitting = spec.affordable_modes(n_modes, paths)
        if 1 <= fitting < n_modes:
            spec = dataclasses.replace(spec, basis_modes=fitting)
            print(f"note: {paths} paths cannot fit a regression on all {n_modes} modes; "
                  f"using numerics.basis_modes = {fitting}", file=sys.stderr)
    spec.check_paths(n_modes, paths)
    return spec


def _run_adjoint_check(problem, seed, paths, num, study, out: Path) -> list[Path]:
    domain = problem.domain
    spec = _regression_spec(num, problem, paths)
    gamma = np.zeros((problem.n_steps, domain.n_modes))
    gamma[:, 0] = 1.0
    if domain.n_modes > 2:
        gamma[:, 2] = 0.3

    # the pairings run under the zero control; the norms under the study's control,
    # which shares their ensemble and sweep when it is zero (bitwise, so -0.0 is not)
    control = _base_control(problem, study)
    sol = solve_adjoint_regression(problem, problem.ensemble(control, paths, seed), spec,
                                   sobolev_s=num.get("sobolev_s"))
    paired = sol
    zero = constant_control_for(problem, 0.0)
    if control.values.tobytes() != zero.values.tobytes():
        paired = solve_adjoint_regression(problem, problem.ensemble(zero, paths, seed), spec)
    res_gamma = duality_residual(problem, paired, forcing_gamma=gamma)
    res_eta = duality_residual(problem, paired, forcing_eta=problem.noise.b_coeffs)

    norms = weighted_norm_report(sol, r_prime=num.get("r_prime", 1.5))
    write_json(out / "adjoint_check.json", {
        "duality_gamma": res_gamma, "duality_eta": res_eta,
        "weighted_norms": norms, "paths": paths,
    })
    diagnostics_to_json(sol, out / "adjoint_diagnostics.json")
    adjoint_to_binary(sol.pair(0), out / "adjoint0.bin")
    return [out / "adjoint_check.json", out / "adjoint_diagnostics.json", out / "adjoint0.bin"]


def _run_smp_check(problem, seed, paths, num, study, out: Path) -> list[Path]:
    control = _base_control(problem, study)
    ens = problem.ensemble(control, paths, seed)
    report = check_maximum_principle(problem, PathwiseAdjoint(problem, ens),
                                     v_samples=problem.control_space.sample(
                                         study.get("v_count", 21)),
                                     tol=study.get("tol", 1e-3))
    rows = [{"time": ens.times[n], "v": report["v_samples"][j], "gap": report["gaps"][n, j]}
            for n in range(report["gaps"].shape[0]) for j in range(report["gaps"].shape[1])]
    write_csv(out / "gaps.csv", ["time", "v", "gap"], rows)
    write_json(out / "smp_report.json", {
        "min_gap": report["min_gap"], "argmin_t": report["argmin_t"],
        "argmin_v": report["argmin_v"], "fraction_violating": report["fraction_violating"],
        "tol": report["tol"], "paths": paths,
    })
    return [out / "gaps.csv", out / "smp_report.json"]


def _run_optimize(problem, seed, paths, num, study, out: Path) -> list[Path]:
    control0 = _base_control(problem, study)
    final, trace = optimize_control(problem, control0,
                                    iterations=study.get("iterations", 50),
                                    step_rule=study.get("step", 0.5),
                                    n_paths=paths, seed=seed)
    rows = [{"iteration": i, "J": trace["J"][i], "stderr": trace["stderr"][i],
             "grad_norm": trace["grad_norm"][i] if i < len(trace["grad_norm"]) else 0.0}
            for i in range(len(trace["J"]))]
    write_csv(out / "descent.csv", ["iteration", "J", "stderr", "grad_norm"], rows)
    write_csv(out / "control.csv", ["step", "u"],
              [{"step": n, "u": final.values[n]} for n in range(len(final))])

    report = check_maximum_principle(problem, PathwiseAdjoint(problem, trace["ensemble"]),
                                     tol=study.get("tol", 1e-2))
    write_json(out / "optimize.json", {
        "J_initial": trace["J"][0], "J_final": trace["J"][-1],
        "iterations": len(trace["J"]) - 1,
        "min_gap": report["min_gap"], "fraction_violating": report["fraction_violating"],
    })
    return [out / "descent.csv", out / "control.csv", out / "optimize.json"]


def _run_selftest(problem, seed, paths, num, study, out: Path) -> list[Path]:
    """Reduced property battery on the linear-quadratic instance."""
    checks = {}
    lq = problem if problem.name == "lq-1d" else catalog_problem("lq-1d", seed=seed)
    domain = lq.domain
    RegressionSpec().check_paths(domain.n_modes, min(paths, 500))

    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(domain.n_modes)
    run_a = semigroup_apply(domain, 0.3, semigroup_apply(domain, 0.2, coeffs))
    run_b = semigroup_apply(domain, 0.5, coeffs)
    err = float(np.max(np.abs(run_a - run_b) / (np.abs(run_b) + 1e-300)))
    checks["semigroup_property"] = {"pass": err < 1e-13, "value": err}

    rt = domain.to_coeffs(domain.to_field(coeffs))
    err = float(np.max(np.abs(rt - coeffs)))
    checks["transform_roundtrip"] = {"pass": err < 1e-12, "value": err}

    verdicts_agree = True
    for d in (1, 2, 3):
        for kind in DomainKind:
            for alpha in (0.1, 0.25, 0.4):
                for gamma in (0.0, 0.25, 0.5, 1.0):
                    dom = make_domain(d, 4, kind)
                    verdict = series_condition_v(dom, NoiseModel(dom, gamma, alpha, seed))
                    verdicts_agree &= verdict["converges"] == (
                        gamma > regularity_threshold(d, kind, alpha))
    checks["threshold_consistency"] = {"pass": bool(verdicts_agree), "value": verdicts_agree}

    n_paths = min(paths, 2000)
    finals = np.empty(n_paths)
    for i in range(n_paths):
        s = sample_convolution(domain, lq.noise, 32, 1.0, (seed, "wiener", i))
        finals[i] = s.mode_coeffs[-1, 0]
    mu1, b1 = domain.eigenvalues[0], lq.noise.b_coeffs[0]
    target = b1**2 * (1 - math.exp(-2 * mu1)) / (2 * mu1)
    z = abs(finals.var(ddof=1) - target) / (target * math.sqrt(2.0 / n_paths))
    checks["ou_variance"] = {"pass": z < 4.0, "value": z}

    oracle = lq_optimal_control(lq)
    control = ControlProcess(values=oracle["u_star"], space=lq.control_space)
    ens = lq.ensemble(control, min(paths, 500), seed)
    report = check_maximum_principle(lq, PathwiseAdjoint(lq, ens))
    checks["smp_at_lq_optimum"] = {"pass": report["min_gap"] >= -5e-3,
                                   "value": report["min_gap"]}

    gamma = np.zeros(domain.n_modes)
    gamma[0] = 1.0
    ens = lq.ensemble(constant_control_for(lq, 0.0), min(paths, 500), seed)
    res = duality_residual(lq, solve_adjoint_regression(lq, ens, compute_q=False),
                           forcing_gamma=gamma)
    checks["duality_gamma"] = {"pass": res["residual"] < 0.1, "value": res["residual"]}

    all_pass = all(c["pass"] for c in checks.values())
    write_json(out / "selftest.json", {"checks": checks, "all_pass": all_pass})
    write_csv(out / "selftest.csv", ["check", "passed", "value"],
              [{"check": k, "passed": int(v["pass"]), "value": v["value"]}
               for k, v in sorted(checks.items())])
    if not all_pass:
        raise SpdeControlError(f"selftest failures: "
                               f"{[k for k, v in checks.items() if not v['pass']]}")
    return [out / "selftest.json", out / "selftest.csv"]


_RUNNERS = {
    "simulate": _run_simulate,
    "noise-check": _run_noise_check,
    "spike-orders": _run_spike_orders,
    "cost-expansion": _run_cost_expansion,
    "adjoint-check": _run_adjoint_check,
    "smp-check": _run_smp_check,
    "optimize": _run_optimize,
    "selftest": _run_selftest,
}


def run(subcommand: str, config_path: str, out_dir: str, *, seed=None, paths=None) -> int:
    """Execute one study; returns the process exit status."""
    out = Path(out_dir)
    path = Path(config_path)
    if not path.is_file():
        print(f"error: config file {config_path} not found", file=sys.stderr)
        return 2
    try:
        config = validate_config(json.loads(path.read_text()))
        _check_flags(seed=seed, paths=paths)
    except (json.JSONDecodeError, ConfigurationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    root_seed, n_paths, num = _numerics(config, seed, paths)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "subcommand": subcommand,
        "config_sha256": hashlib.sha256(
            json.dumps(_pyify(config), sort_keys=True).encode()).hexdigest(),
        "seed": root_seed,
        "paths": n_paths,
        "versions": {"spdecontrol": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "artifacts": {},
        "complete": False,
    }
    try:
        problem = build_problem(config, root_seed)
        if problem.domain.kind is not DomainKind.HYPERCUBE and \
                subcommand not in GRIDLESS_SUBCOMMANDS:
            raise ConfigurationError(
                f"{subcommand} needs a collocation grid, which a {problem.domain.kind.value!r} "
                f"domain does not have; {' and '.join(GRIDLESS_SUBCOMMANDS)} run on it")
        artifacts = _RUNNERS[subcommand](problem, root_seed, n_paths, num,
                                         dict(config.get("study", {})), out)
    except SpdeControlError as err:
        write_json(out / "manifest.json", manifest)
        print(f"error: {err}", file=sys.stderr)
        return 1
    manifest["artifacts"] = {p.name: _sha256(p) for p in sorted(artifacts)}
    manifest["complete"] = True
    write_json(out / "manifest.json", manifest)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spdecontrol",
        description="Reproducible studies for controlled reaction-diffusion equations")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--out", required=True, help="output directory for artifacts")
    parser.add_argument("--seed", type=int, default=None, help="override the root seed")
    parser.add_argument("--paths", type=int, default=None, help="override the path count")
    args = parser.parse_args(argv)
    return run(args.subcommand, args.config, args.out, seed=args.seed, paths=args.paths)


if __name__ == "__main__":
    sys.exit(main())
