import math
import struct

import numpy as np
import pytest
from scipy.integrate import quad

from spdecontrol.adjoint import (RegressionSpec, _StepRegressor, _default_features,
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
        # an orthogonal recombination of the features spans the same space, so
        # the fitted conditional expectations must coincide
        problem, ens = lq_ensemble
        rng = np.random.default_rng(99)
        for n in (1, 64, problem.n_steps - 1):
            features = _default_features(ens.modes[:, n], RegressionSpec())
            mix, _ = np.linalg.qr(rng.standard_normal((features.shape[1],) * 2))
            target = ens.modes[:, n + 1]
            plain = _StepRegressor(features).fit_predict(target)
            mixed = _StepRegressor(features @ mix).fit_predict(target)
            assert np.max(np.abs(plain - mixed)) < 1e-8 * np.max(np.abs(plain))


class TestRegressor:
    def test_condition_error_on_collinear_features(self):
        rng = np.random.default_rng(1)
        col = rng.standard_normal(200)
        feats = np.stack([col, col * (1 + 1e-14)], axis=1)
        with pytest.raises(RegressionError):
            _StepRegressor(feats)

    def test_degenerate_columns_dropped(self):
        feats = np.ones((50, 3))   # zero variance everywhere
        reg = _StepRegressor(feats)
        assert reg.cond == 1.0
        fitted = reg.fit_predict(np.arange(50.0)[:, None])
        assert np.allclose(fitted, np.mean(np.arange(50.0)))


def zero_control_sweep(problem, n_paths, seed, **kw):
    ens = problem.ensemble(constant_control_for(problem, 0.0), n_paths, seed)
    return solve_adjoint_regression(problem, ens, **kw)


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
        sol = zero_control_sweep(problem, 100, 47, compute_q=False)
        out = duality_residual(problem, sol, forcing_gamma=None, forcing_eta=None)
        assert out["lhs"] == 0.0 and out["rhs"] == 0.0 and out["residual"] == 0.0

    def test_gamma_side_small_residual(self):
        problem = catalog_problem("lq-1d", seed=48)
        gamma = np.zeros(problem.domain.n_modes)
        gamma[0], gamma[2] = 1.0, 0.3
        sol = zero_control_sweep(problem, 500, 48, compute_q=False)
        out = duality_residual(problem, sol, forcing_gamma=gamma)
        assert out["residual"] < 0.05

    def test_eta_side_small_residual(self):
        problem = catalog_problem("lq-1d", seed=49)
        sol = zero_control_sweep(problem, 500, 49)
        out = duality_residual(problem, sol, forcing_eta=problem.noise.b_coeffs)
        assert out["residual"] < 0.1

    @pytest.mark.parametrize("name", ["lq-1d", "cubic-1d"])
    def test_pairing_on_one_sweep_equals_separate_calls(self, name):
        # a sweep with q (and another sobolev_s, which only weights the q norm)
        # pairs gamma bit for bit like a sweep without q of the same ensemble,
        # so one q-sweep serves both forcings
        problem = catalog_problem(name, modes=8, n_steps=32, seed=52)
        gamma = np.zeros((problem.n_steps, problem.domain.n_modes))
        gamma[:, 0], gamma[:, 2] = 1.0, 0.3
        ens = problem.ensemble(constant_control_for(problem, 0.0), 100, 52)
        with_q = solve_adjoint_regression(problem, ens, sobolev_s=1.25)
        without_q = solve_adjoint_regression(problem, ens, compute_q=False)
        assert duality_residual(problem, with_q, forcing_gamma=gamma) == \
            duality_residual(problem, without_q, forcing_gamma=gamma)

    def test_pairing_needs_the_ensemble_and_q(self, lq_ensemble):
        problem, ens = lq_ensemble
        sol = solve_adjoint_regression(problem, ens, compute_q=False)
        with pytest.raises(ConfigurationError, match="compute_q"):
            duality_residual(problem, sol, forcing_eta=problem.noise.b_coeffs)
        sol.ensemble = None
        with pytest.raises(ConfigurationError, match="forward ensemble"):
            duality_residual(problem, sol, forcing_gamma=np.ones(problem.domain.n_modes))


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
        horizon, p = read_binary_adjoint(path)
        assert horizon == problem.horizon
        assert np.array_equal(p, pair.p_coeffs)

    @pytest.mark.parametrize("nk, has_q", [(3, 1), (3, 0)])
    def test_q_block_header_is_refused(self, tmp_path, nk, has_q):
        # the writer always puts N_K = 0 and has_q = 0; anything else is foreign input
        path = tmp_path / "adjoint_q.bin"
        path.write_bytes(b"SPDA" + struct.pack("<IIdII", 3, 4, 0.5, nk, has_q)
                         + bytes(8 * 5 * 3))
        with pytest.raises(ConfigurationError, match="q block"):
            read_binary_adjoint(path)
