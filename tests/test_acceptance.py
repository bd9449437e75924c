"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured values (run with -s to see them inline).
Scales (mode counts, steps, path counts, tolerances) are fixed here and
not meant to be tuned."""

import json
import math
import warnings

import numpy as np
import pytest

import spdecontrol as sc
from spdecontrol.adjoint import RegressionSpec, backward_sweep, duality_residual
from spdecontrol.cli import run as cli_run
from spdecontrol.control import (ControlProblem, CostSpec, Measure, catalog_problem,
                                 constant_control_for, lq_adjoint_oracle,
                                 lq_optimal_control)
from spdecontrol.forward import ControlProcess, constant_control
from spdecontrol.noise import (NoiseModel, convolution_increments,
                               factorization_reconstruct, sample_convolution,
                               sample_singular_process, series_condition_v)
from spdecontrol.nonlinearity import linear_drift
from spdecontrol.rng import seed_sequence
from spdecontrol.spectral import (DomainKind, make_domain, regularity_threshold,
                                  semigroup_apply)
from spdecontrol.variation import cost_expansion_check, spike_order_study


def report(number: int, name: str, ok: bool, detail: str):
    print(f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_spectral_exactness():
    checks = []
    for d, m in ((1, 16), (2, 6), (3, 3)):
        dom = make_domain(d, m)
        exact = (dom.mode_indices.astype(float) ** 2).sum(axis=1)
        checks.append(np.array_equal(dom.eigenvalues, exact))
    dom = make_domain(2, 6)
    fine = 4 * dom.n_modes_per_axis
    axis = np.arange(1, fine + 1) * (math.pi / (fine + 1))
    grids = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    mat = dom.evaluate_modes(pts)
    gram = (math.pi / (fine + 1)) ** 2 * (mat.T @ mat)
    gram_err = float(np.max(np.abs(gram - np.eye(dom.n_modes))))
    checks.append(gram_err < 1e-8)

    dom1 = make_domain(1, 32)
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal(32)
    semi_err = 0.0
    for s, t in ((0.2, 0.3), (0.05, 0.9), (0.6, 0.6)):
        a = semigroup_apply(dom1, s, semigroup_apply(dom1, t, coeffs))
        b = semigroup_apply(dom1, s + t, coeffs)
        mask = np.abs(b) > 1e-280
        semi_err = max(semi_err, float(np.max(np.abs(a[mask] - b[mask]) / np.abs(b[mask]))))
    checks.append(semi_err < 1e-13)
    report(1, "spectral exactness", all(checks),
           f"gram_err={gram_err:.2e}, semigroup_rel_err={semi_err:.2e}")


def test_criterion_02_regularity_thresholds():
    exact = (regularity_threshold(2, DomainKind.HYPERCUBE, 0.1) == pytest.approx(0.1)
             and regularity_threshold(2, DomainKind.BALL_FORMULA, 0.1) == pytest.approx(0.35))
    agree = True
    count = 0
    for d in (1, 2, 3):
        for kind in (DomainKind.HYPERCUBE, DomainKind.BALL_FORMULA):
            for alpha in (0.05, 0.15, 0.25, 0.35, 0.45):
                for gamma in (0.0, 0.2, 0.45, 0.8, 1.5):
                    dom = make_domain(d, 3, kind)
                    verdict = series_condition_v(dom, NoiseModel(dom, gamma, alpha, 1))
                    agree &= verdict["converges"] == (
                        gamma > regularity_threshold(d, kind, alpha))
                    count += 1
    report(2, "regularity thresholds", exact and agree,
           f"exact formulas ok={exact}, verdict agreement on {count} tuples={agree}")


def test_criterion_03_noise_law():
    # per-mode OU variance over 1e4 paths
    dom = make_domain(1, 4)
    noise = NoiseModel(dom, 0.5, 0.25, 303)
    n_paths, n_steps, horizon = 10_000, 64, 1.0
    dt = horizon / n_steps
    normals = np.stack([
        np.random.default_rng(seed_sequence(303, "wiener", i)).standard_normal((n_steps, 4))
        for i in range(n_paths)])
    incr = convolution_increments(dom, noise, normals, dt)
    decay = np.exp(-dom.eigenvalues * dt)
    w = np.zeros((n_paths, 4))
    for n in range(n_steps):
        w = decay * w + incr[:, n]
    for i in range(3):
        direct = sample_convolution(dom, noise, n_steps, horizon, (303, "wiener", i))
        assert np.array_equal(direct.mode_coeffs[-1], w[i])
    target = noise.b_coeffs**2 * (1.0 - np.exp(-2.0 * dom.eigenvalues * horizon)) \
        / (2.0 * dom.eigenvalues)
    sample_var = w.var(axis=0, ddof=1)
    z = np.abs(sample_var - target) / (target * math.sqrt(2.0 / (n_paths - 1)))
    var_ok = bool(np.all(z < 4.0))

    # factorization reconstruction rate on a 2-point dt sweep
    dom1 = make_domain(1, 1)
    alpha = 0.25
    noise1 = NoiseModel(dom1, 0.0, alpha, 5)
    errs = []
    for dt_f in (1e-2, 5e-3):
        n = int(round(1.0 / dt_f))
        y = sample_singular_process(dom1, noise1, n, 1.0, (5, "wiener", 0))
        rec = factorization_reconstruct(dom1, noise1, y, alpha)
        direct = sample_convolution(dom1, noise1, n, 1.0, (5, "wiener", 0))
        errs.append(float(np.max(np.abs(rec.mode_coeffs - direct.mode_coeffs))))
    predicted = 2.0 ** min(alpha, 1.0 - alpha)
    rate_ok = predicted / 2.0 <= errs[0] / errs[1] <= predicted * 2.0
    report(3, "noise law", var_ok and rate_ok,
           f"max variance z={float(np.max(z)):.2f} (<4), "
           f"factorization ratio={errs[0] / errs[1]:.3f} vs 2^alpha={predicted:.3f}")


def test_criterion_04_spike_variation_orders():
    problem = catalog_problem("cubic-1d", seed=404)   # 64 modes, T/256 steps
    control = constant_control_for(problem, 0.0)
    eps = [problem.horizon / 8, problem.horizon / 16,
           problem.horizon / 32, problem.horizon / 64]
    study = spike_order_study(problem, control, w=0.8, t0=problem.horizon / 2,
                              epsilons=eps, n_paths=200, seed=404)
    s_xi = study["slopes"]["xi"]["slope"]
    s_eta = study["slopes"]["eta"]["slope"]
    ok = 1.8 <= s_xi <= 2.2 and s_eta >= s_xi + 0.5
    report(4, "spike variation orders", ok,
           f"s_xi={s_xi:.3f} in [1.8,2.2], s_eta={s_eta:.3f} >= s_xi+0.5")


def test_criterion_05_cost_expansion():
    problem = catalog_problem("lq-1d", seed=505)
    control = constant_control_for(problem, 0.0)
    eps = [problem.horizon / 8, problem.horizon / 16,
           problem.horizon / 32, problem.horizon / 64]
    study = cost_expansion_check(problem, control, w=0.8, t0=problem.horizon / 2,
                                 epsilons=eps, n_paths=200, seed=505)
    slope = study["slope"]["slope"]
    ok = 1.7 <= slope <= 2.3
    report(5, "cost expansion remainder", ok, f"residual slope={slope:.3f} in [1.7,2.3]")


def test_criterion_06_duality_identity():
    problem = catalog_problem("lq-1d", seed=606)      # dt = T/128
    gamma = np.zeros(problem.domain.n_modes)
    gamma[0], gamma[2] = 1.0, 0.3
    # both forcings pair on one zero-control ensemble and one q-sweep per grid
    sol = sc.solve_adjoint_regression(
        problem, problem.ensemble(constant_control_for(problem, 0.0), 2000, 606))
    res_g = duality_residual(problem, sol, forcing_gamma=gamma)
    res_e = duality_residual(problem, sol, forcing_eta=problem.noise.b_coeffs)

    fine = catalog_problem("lq-1d", n_steps=256, seed=606)
    sol2 = sc.solve_adjoint_regression(
        fine, fine.ensemble(constant_control_for(fine, 0.0), 4000, 606))
    res_g2 = duality_residual(fine, sol2, forcing_gamma=gamma)
    res_e2 = duality_residual(fine, sol2, forcing_eta=fine.noise.b_coeffs)
    # decrease under refinement, with a floor for residuals already at the
    # common-random-number noise level
    dec_ok = (res_g2["residual"] < res_g["residual"]) and \
        (res_e2["residual"] < res_e["residual"] or res_e2["residual"] < 0.01)
    ok = res_g["residual"] < 0.05 and res_e["residual"] < 0.10 and dec_ok
    report(6, "duality identity", ok,
           f"gamma={res_g['residual']:.4f} (<0.05), eta={res_e['residual']:.4f} (<0.10), "
           f"refined gamma={res_g2['residual']:.4f}, eta={res_e2['residual']:.6f}")


def test_criterion_07_adjoint_oracle():
    problem = catalog_problem("lq-1d", seed=707)
    control = constant_control(problem.control_space, 0.3, problem.n_steps)
    ens = problem.ensemble(control, 2000, 707)
    sol = sc.solve_adjoint_regression(problem, ens, compute_q=False)
    oracle = lq_adjoint_oracle(problem, ens)
    num = np.sqrt(np.mean(np.sum((sol.p_values - oracle) ** 2, axis=2)))
    den = np.sqrt(np.mean(np.sum(oracle**2, axis=2)))
    rel = float(num / den)

    dom = problem.domain
    g = np.zeros(dom.n_modes)
    g[0], g[2] = 1.0, 0.5
    det = backward_sweep(dom, ens, problem.drift, None,
                         lambda n, modes: np.broadcast_to(g, modes.shape),
                         RegressionSpec(include_modes=False),
                         fprime_active=False, compute_q=False)
    closed = g[None, :] * (1.0 - np.exp(-np.outer(problem.horizon - ens.times,
                                                  dom.eigenvalues))) / dom.eigenvalues
    det_err = float(np.max(np.abs(det.p_values[0] - closed)))
    ok = rel < 0.05 and det_err <= 1e-6
    report(7, "adjoint oracle", ok,
           f"regression vs propagator rel L2={rel:.4f} (<0.05), "
           f"deterministic-forcing err={det_err:.2e} (<=1e-6)")


def test_criterion_08_maximum_principle():
    problem = catalog_problem("lq-1d", seed=808)
    oracle = lq_optimal_control(problem)
    control = ControlProcess(values=oracle["u_star"], space=problem.control_space)
    ens = problem.ensemble(control, 2000, 808)
    sol = sc.solve_adjoint_regression(problem, ens, compute_q=False)
    rep = sc.check_maximum_principle(problem, sol,
                                     v_samples=problem.control_space.sample(21))
    lq_ok = rep["min_gap"] >= -1e-3

    cubic = catalog_problem("cubic-1d", seed=809)
    spec = RegressionSpec(basis_modes=16)
    start = constant_control_for(cubic, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        final, _ = sc.optimize_control(cubic, start, iterations=50, step_rule=0.5,
                                       n_paths=200, seed=809)
    ens_c = cubic.ensemble(final, 400, 810)
    sol_c = sc.solve_adjoint_regression(cubic, ens_c, spec, compute_q=False)
    rep_c = sc.check_maximum_principle(cubic, sol_c,
                                       v_samples=cubic.control_space.sample(21),
                                       tol=1e-2)
    cubic_ok = rep_c["fraction_violating"] <= 0.01
    report(8, "maximum principle", lq_ok and cubic_ok,
           f"LQ-oracle min gap={rep['min_gap']:.2e} (>=-1e-3), "
           f"cubic fraction below -1e-2={rep_c['fraction_violating']:.4f} (<=0.01)")


def test_criterion_09_weighted_norm_finiteness():
    xi0 = 0.35 * math.pi
    results = {}
    for modes in (32, 64):
        dom = make_domain(1, modes)
        cost = CostSpec(
            running=lambda t, s, u: np.zeros_like(np.asarray(s, dtype=float)),
            running_dsigma=lambda t, s, u: np.zeros_like(np.asarray(s, dtype=float)),
            terminal=lambda s: np.asarray(s, dtype=float),
            terminal_dsigma=lambda s: np.ones_like(np.asarray(s, dtype=float)),
            measure=Measure(kind="dirac_combination", points=np.array([[xi0]]),
                            weights=np.array([1.0])))
        problem = ControlProblem(domain=dom, drift=linear_drift(),
                                 noise=NoiseModel(dom, 0.5, 0.25, 909), cost=cost,
                                 horizon=1.0, x0=np.zeros(dom.n_modes), n_steps=8192,
                                 name="dirac-terminal")
        control = constant_control_for(problem, 0.0)
        ens = problem.ensemble(control, 16, 909)
        sol = sc.solve_adjoint_regression(problem, ens,
                                          RegressionSpec(include_modes=False),
                                          compute_q=False)
        rep = sc.weighted_norm_report(sol)
        results[modes] = (rep["p_weighted"], float(np.sum(sol.p_values[0, -2] ** 2)))
    weighted_change = abs(results[64][0] - results[32][0]) / results[32][0]
    growth = results[64][1] / results[32][1]
    ok = weighted_change < 0.20 and growth > 1.2
    report(9, "weighted norm finiteness", ok,
           f"weighted p-norm rel change 32->64 = {weighted_change:.4f} (<0.20), "
           f"pre-terminal |p|^2 growth = {growth:.2f}x (>1.2)")


def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "selftest.json"
    cfg.write_text(json.dumps({"problem": "lq-1d",
                               "numerics": {"seed": 1010, "paths": 400}}))
    rc1 = cli_run("selftest", str(cfg), str(tmp_path / "runA"))
    rc2 = cli_run("selftest", str(cfg), str(tmp_path / "runB"))
    bytes_a = (tmp_path / "runA" / "manifest.json").read_bytes()
    bytes_b = (tmp_path / "runB" / "manifest.json").read_bytes()
    ok = rc1 == 0 and rc2 == 0 and bytes_a == bytes_b
    report(10, "selftest determinism", ok,
           f"exit codes ({rc1},{rc2}), manifests byte-identical={bytes_a == bytes_b}")
