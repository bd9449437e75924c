import math

import numpy as np
import pytest
from scipy.integrate import quad

from spdecontrol.adjoint import (AdjointPair, RegressionSpec, _StepRegressor,
                                 adjoint_to_binary, backward_sweep, duality_residual,
                                 read_binary_adjoint, solve_adjoint_regression,
                                 weighted_norm_report)
from spdecontrol.control import catalog_problem, constant_control_for, lq_adjoint_oracle
from spdecontrol.errors import ConfigurationError, InstabilityError, RegressionError
from spdecontrol.forward import constant_control, weight_cell_integrals


@pytest.fixture(scope="module")
def lq_ensemble():
    problem = catalog_problem("lq-1d", seed=41)
    control = constant_control(problem.control_space, 0.3, problem.n_steps)
    return problem, problem.ensemble(control, 400, 41)


class TestBackwardSweep:
    def test_zero_data_zero_solution(self, lq_ensemble):
        problem, ens = lq_ensemble
        sol = backward_sweep(problem.domain, ens, problem.drift, None, None)
        assert np.all(sol.p_values == 0.0)
        assert np.all(sol.mean_q == 0.0)

    def test_deterministic_forcing_closed_form(self, lq_ensemble):
        # f(t) = g, zeta = 0, no multiplication term:
        # p_k(t) = g_k (1 - exp(-mu_k (T - t))) / mu_k, integrated exactly
        # by the phi1-weighted recursion
        problem, ens = lq_ensemble
        dom = problem.domain
        g = np.zeros(dom.n_modes)
        g[0], g[2] = 1.0, 0.5
        sol = backward_sweep(dom, ens, problem.drift, None,
                             lambda n, modes: np.broadcast_to(g, modes.shape),
                             RegressionSpec(include_modes=False),
                             fprime_active=False, compute_q=False)
        closed = g[None, :] * (1.0 - np.exp(-np.outer(problem.horizon - ens.times,
                                                      dom.eigenvalues))) / dom.eigenvalues
        assert np.max(np.abs(sol.p_values[0] - closed)) < 1e-6
        assert np.max(np.abs(sol.p_values - sol.p_values[:1])) == 0.0  # same on all paths

    def test_linearity_in_data(self, lq_ensemble):
        problem, ens = lq_ensemble
        dom = problem.domain
        rng = np.random.default_rng(0)
        zeta1 = np.broadcast_to(rng.standard_normal(dom.n_modes), (ens.n_paths, dom.n_modes))
        zeta2 = np.broadcast_to(rng.standard_normal(dom.n_modes), (ens.n_paths, dom.n_modes))
        kw = dict(spec=RegressionSpec(), fprime_active=True, compute_q=False)
        s1 = backward_sweep(dom, ens, problem.drift, zeta1, None, **kw)
        s2 = backward_sweep(dom, ens, problem.drift, zeta2, None, **kw)
        s12 = backward_sweep(dom, ens, problem.drift, zeta1 + zeta2, None, **kw)
        assert np.max(np.abs(s12.p_values - s1.p_values - s2.p_values)) < 1e-10

    def test_nonfinite_p_names_the_step(self, lq_ensemble):
        problem, ens = lq_ensemble
        dom = problem.domain

        def forcing_fn(n, modes):
            return np.full(modes.shape, np.nan if n == 5 else 0.0)

        with pytest.raises(InstabilityError, match="step 5") as err:
            backward_sweep(dom, ens, problem.drift, None, forcing_fn, compute_q=False)
        assert err.value.step == 5

    def test_path_requirement(self, lq_ensemble):
        problem, _ = lq_ensemble
        control = constant_control(problem.control_space, 0.0, problem.n_steps)
        tiny = problem.ensemble(control, 20, 1)
        with pytest.raises(ConfigurationError):
            solve_adjoint_regression(problem, tiny)


class TestLQOracle:
    def test_regression_matches_propagator(self, lq_ensemble):
        problem, ens = lq_ensemble
        sol = solve_adjoint_regression(problem, ens, compute_q=False)
        oracle = lq_adjoint_oracle(problem, ens)
        num = np.sqrt(np.mean(np.sum((sol.p_values - oracle) ** 2, axis=2)))
        den = np.sqrt(np.mean(np.sum(oracle**2, axis=2)))
        assert num / den < 0.06

    def test_martingale_diagnostic(self, lq_ensemble):
        problem, ens = lq_ensemble
        sol = solve_adjoint_regression(problem, ens, compute_q=False)
        assert max(d["residual_z_max"] for d in sol.diagnostics) < 4.0

    def test_uniqueness_under_basis_mixing(self, lq_ensemble):
        # an orthogonal recombination spans the same space, so the fitted
        # conditional expectations must coincide
        problem, ens = lq_ensemble
        plain = solve_adjoint_regression(problem, ens, RegressionSpec(), compute_q=False)
        mixed = solve_adjoint_regression(problem, ens, RegressionSpec(mixing_seed=99),
                                         compute_q=False)
        scale = np.max(np.abs(plain.p_values))
        assert np.max(np.abs(plain.p_values - mixed.p_values)) < 1e-8 * scale


class TestRegressor:
    def test_condition_error_on_collinear_features(self):
        rng = np.random.default_rng(1)
        col = rng.standard_normal(200)
        feats = np.stack([col, col * (1 + 1e-14)], axis=1)
        with pytest.raises(RegressionError):
            _StepRegressor(feats, RegressionSpec())

    def test_degenerate_columns_dropped(self):
        feats = np.ones((50, 3))   # zero variance everywhere
        reg = _StepRegressor(feats, RegressionSpec())
        assert reg.cond == 1.0
        fitted = reg.fit_predict(np.arange(50.0)[:, None])
        assert np.allclose(fitted, np.mean(np.arange(50.0)))


class TestDuality:
    def test_zero_everything(self):
        problem = catalog_problem("lq-1d", modes=8, n_steps=32, seed=47)
        import spdecontrol.control as ctl

        problem.cost = ctl.CostSpec(
            running=lambda t, s, u: np.zeros_like(np.asarray(s, dtype=float)),
            running_dsigma=lambda t, s, u: np.zeros_like(np.asarray(s, dtype=float)),
            terminal=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
            terminal_dsigma=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
            measure=ctl.Measure(kind="lebesgue"))
        out = duality_residual(problem, forcing_gamma=None, forcing_eta=None,
                               n_paths=100, seed=47)
        assert out["lhs"] == 0.0 and out["rhs"] == 0.0 and out["residual"] == 0.0

    def test_gamma_side_small_residual(self):
        problem = catalog_problem("lq-1d", seed=48)
        gamma = np.zeros(problem.domain.n_modes)
        gamma[0], gamma[2] = 1.0, 0.3
        out = duality_residual(problem, forcing_gamma=gamma, n_paths=500, seed=48)
        assert out["residual"] < 0.05

    def test_eta_side_small_residual(self):
        problem = catalog_problem("lq-1d", seed=49)
        out = duality_residual(problem, forcing_eta=problem.noise.b_coeffs,
                               n_paths=500, seed=49)
        assert out["residual"] < 0.1

    @pytest.mark.parametrize("name", ["lq-1d", "cubic-1d"])
    def test_pairing_on_one_sweep_equals_separate_calls(self, name):
        # one ensemble and one sweep with q (and another sobolev_s, which only
        # weights the q norm) serve both forcings, bit for bit
        problem = catalog_problem(name, modes=8, n_steps=32, seed=52)
        gamma = np.zeros((problem.n_steps, problem.domain.n_modes))
        gamma[:, 0], gamma[:, 2] = 1.0, 0.3
        eta = problem.noise.b_coeffs
        ens = problem.ensemble(constant_control_for(problem, 0.0), 100, 52)
        sol = solve_adjoint_regression(problem, ens, sobolev_s=1.25)
        assert duality_residual(problem, forcing_gamma=gamma, solution=sol) == \
            duality_residual(problem, forcing_gamma=gamma, n_paths=100, seed=52)
        assert duality_residual(problem, forcing_eta=eta, solution=sol) == \
            duality_residual(problem, forcing_eta=eta, n_paths=100, seed=52)

    def test_pairing_needs_the_ensemble_and_q(self, lq_ensemble):
        problem, ens = lq_ensemble
        sol = solve_adjoint_regression(problem, ens, compute_q=False)
        with pytest.raises(ConfigurationError, match="compute_q"):
            duality_residual(problem, forcing_eta=problem.noise.b_coeffs, solution=sol)
        sol.ensemble = None
        with pytest.raises(ConfigurationError, match="forward ensemble"):
            duality_residual(problem, forcing_gamma=np.ones(problem.domain.n_modes),
                             solution=sol)

    @pytest.mark.parametrize("arg", ["n_paths", "control", "seed", "spec", "n_steps"])
    def test_pairing_rejects_simulation_arguments(self, lq_ensemble, arg):
        # a given sweep fixes the control, paths and seed; nothing may silently override it
        problem, ens = lq_ensemble
        sol = solve_adjoint_regression(problem, ens, compute_q=False)
        value = {"n_paths": 100, "control": ens.control, "seed": 52, "spec": RegressionSpec(),
                 "n_steps": len(ens.control)}[arg]
        with pytest.raises(ConfigurationError, match=arg):
            duality_residual(problem, forcing_gamma=np.ones(problem.domain.n_modes),
                             solution=sol, **{arg: value})


class TestWeightedNorms:
    def test_weight_integral_sanity(self):
        lam, horizon = 0.25, 1.3
        cells = weight_cell_integrals(horizon, 200, lam)
        assert cells.sum() == pytest.approx(horizon ** (1 + lam) / (1 + lam), rel=1e-12)

    def test_deterministic_forcing_weighted_integral(self, lq_ensemble):
        # independent oracle: per-mode 1-d quadrature of the closed form
        problem, ens = lq_ensemble
        dom = problem.domain
        g = np.zeros(dom.n_modes)
        g[0], g[2] = 1.0, 0.5
        fine = catalog_problem("lq-1d", n_steps=2048, seed=41)
        control = constant_control(fine.control_space, 0.3, fine.n_steps)
        ens_fine = fine.ensemble(control, 16, 41)
        sol = backward_sweep(dom, ens_fine, fine.drift, None,
                             lambda n, modes: np.broadcast_to(g, modes.shape),
                             RegressionSpec(include_modes=False),
                             fprime_active=False, compute_q=False)
        lam, horizon = dom.lambda_exponent, fine.horizon
        expected = 0.0
        for k in (0, 2):
            mu = dom.eigenvalues[k]
            expected += quad(lambda t: (g[k] * (1 - math.exp(-mu * (horizon - t))) / mu) ** 2
                             * (horizon - t) ** lam, 0.0, horizon)[0]
        assert sol.p_weighted_per_path[0] == pytest.approx(expected, rel=2e-3)

    def test_report_moments_and_rprime_guard(self, lq_ensemble):
        problem, ens = lq_ensemble
        sol = solve_adjoint_regression(problem, ens)
        out = weighted_norm_report(sol, r_prime=1.5)
        assert out["p_weighted"] > 0 and out["q_norm"] > 0
        with pytest.raises(ConfigurationError):
            weighted_norm_report(sol, r_prime=2.5)


class TestExports:
    def test_binary_roundtrip(self, tmp_path, lq_ensemble):
        problem, ens = lq_ensemble
        sol = solve_adjoint_regression(problem, ens, compute_q=False)
        pair = sol.pair(0)
        path = tmp_path / "adjoint.bin"
        adjoint_to_binary(pair, path)
        horizon, p, q = read_binary_adjoint(path)
        assert horizon == problem.horizon
        assert np.array_equal(p, pair.p_coeffs)
        assert q is None

    def test_binary_with_q_block(self, tmp_path):
        times = np.linspace(0.0, 0.5, 5)
        rng = np.random.default_rng(0)
        pair = AdjointPair(times=times, p_coeffs=rng.standard_normal((5, 3)),
                           q_matrix=rng.standard_normal((4, 3, 3)))
        path = tmp_path / "adjoint_q.bin"
        adjoint_to_binary(pair, path)
        _, p, q = read_binary_adjoint(path)
        assert np.array_equal(p, pair.p_coeffs)
        assert np.array_equal(q, pair.q_matrix)
