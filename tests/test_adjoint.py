import dataclasses
import math
import struct
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chi2

from spdecontrol.adjoint import (PathwiseAdjoint, RegressionSpec, _StepRegressor,
                                 _backward_nodes, _default_features, adjoint_to_binary,
                                 backward_sweep, duality_residual, read_binary_adjoint,
                                 solve_adjoint_regression, weighted_norm_report)
from spdecontrol.control import (catalog_problem, check_maximum_principle, constant_control_for,
                                 lq_adjoint_oracle)
from spdecontrol.errors import ConfigurationError, InstabilityError, RegressionError
from spdecontrol.forward import ControlProcess, constant_control, weight_cell_integrals


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

    def test_nonfinite_p_raises_before_any_lower_forcing(self, lq_ensemble):
        problem, ens = lq_ensemble
        calls = []

        def forcing_fn(n, modes):
            calls.append(n)
            return np.full(modes.shape, np.nan if n == 5 else 0.0)

        terminal = np.zeros((ens.n_paths, problem.domain.n_modes))
        # the regression sweep, and the pathwise loop, which keeps each target
        for sweep in (lambda: backward_sweep(problem.domain, ens, problem.drift, None,
                                             forcing_fn, compute_q=False),
                      lambda: list(_backward_nodes(problem.domain, ens, problem.drift, terminal,
                                                   forcing_fn, spec=None))):
            calls.clear()
            with pytest.raises(InstabilityError, match="non-finite in step 5$") as err:
                sweep()
            assert err.value.step == 5
            assert calls == list(range(problem.n_steps - 1, 4, -1))

    def test_nonfinite_terminal_row_is_step_n_steps(self, lq_ensemble):
        problem, ens = lq_ensemble
        terminal = np.zeros((ens.n_paths, problem.domain.n_modes))
        terminal[3, 2] = np.inf
        calls = []
        with pytest.raises(InstabilityError, match=f"non-finite in step {problem.n_steps}$") as err:
            backward_sweep(problem.domain, ens, problem.drift, terminal,
                           lambda n, modes: calls.append(n), compute_q=False)
        assert err.value.step == problem.n_steps and calls == []

    def test_stream_fails_at_the_step_the_collected_sweep_names(self, lq_ensemble):
        problem, ens = lq_ensemble
        bad_time = ens.times[7]
        calls = []

        def running_dsigma(t, s, u):
            calls.append(t)
            return np.full_like(s, np.nan) if t == bad_time else 2.0 * s

        broken = dataclasses.replace(problem, cost=dataclasses.replace(
            problem.cost, running_dsigma=running_dsigma))
        for sweep in (lambda: solve_adjoint_regression(broken, ens, compute_q=False),
                      lambda: list(PathwiseAdjoint(broken, ens).nodes())):
            calls.clear()
            with pytest.raises(InstabilityError, match="non-finite in step 7$") as err:
                sweep()
            assert err.value.step == 7 and min(calls) == bad_time

        broken = dataclasses.replace(problem, cost=dataclasses.replace(
            problem.cost, terminal_dsigma=lambda s: np.full_like(s, np.nan),
            running_dsigma=running_dsigma))
        calls.clear()
        with pytest.raises(InstabilityError, match=f"non-finite in step {problem.n_steps}$"):
            next(PathwiseAdjoint(broken, ens).nodes())
        assert calls == []

    def test_later_nonfinite_p_comes_before_an_earlier_regression_error(self, lq_ensemble):
        # collinear features at step 3 make that step's fit fail; the sweep reaches
        # the non-finite p of step 5 first and now raises there
        problem, ens = lq_ensemble
        modes = ens.modes.copy()
        modes[:, 3, 1] = 2.0 * modes[:, 3, 0]
        collinear = dataclasses.replace(ens, modes=modes)
        nan_at_5 = lambda n, m: np.full(m.shape, np.nan if n == 5 else 0.0)
        with pytest.raises(RegressionError):
            backward_sweep(problem.domain, collinear, problem.drift, None, None, compute_q=False)
        with pytest.raises(InstabilityError, match="step 5"):
            backward_sweep(problem.domain, collinear, problem.drift, None, nan_at_5,
                           compute_q=False)

    def test_path_requirement(self, lq_ensemble):
        problem, _ = lq_ensemble
        control = constant_control(problem.control_space, 0.0, problem.n_steps)
        tiny = problem.ensemble(control, 20, 1)
        with pytest.raises(ConfigurationError):
            solve_adjoint_regression(problem, tiny)


def full_fit_q(problem, sol, spec, sobolev_s):
    """mean_q and per-step V'-norm integrals from the (P, N^2) q-target fit, per step."""
    ens, dom = sol.ensemble, problem.domain
    n_paths, n_plus, n_modes = ens.modes.shape
    vprime_w = (1.0 + dom.eigenvalues) ** (-sobolev_s)
    mean_q, iq_steps = np.empty((n_plus - 1, n_modes, n_modes)), np.empty((n_plus - 1, n_paths))
    for n in range(n_plus - 1):
        reg = _StepRegressor(_default_features(ens.modes[:, n], spec))
        dw = ens.normals[:, n] * math.sqrt(ens.dt)
        target = (sol.p_values[:, n + 1, :, None] * dw[:, None, :] / ens.dt).reshape(n_paths, -1)
        q_fit = reg.fit_predict(target).reshape(n_paths, n_modes, n_modes)
        mean_q[n] = q_fit.mean(axis=0)
        iq_steps[n] = np.sum(vprime_w[:, None] * q_fit**2, axis=(1, 2)) * ens.dt
    return mean_q, iq_steps


def rel_err(value, reference):
    return float(np.max(np.abs(value - reference)) / np.max(np.abs(reference)))


class TestReducedQ:
    """The reduced-form q equals the (P, N^2) regression of the q targets to rounding."""

    @pytest.mark.parametrize("name", ["lq-1d", "cubic-1d"])
    @pytest.mark.parametrize("spec", [RegressionSpec(), RegressionSpec(degree2=True),
                                      RegressionSpec(basis_modes=3)],
                             ids=["full", "degree2", "basis_modes"])
    def test_matches_the_full_fit(self, name, spec):
        problem = catalog_problem(name, modes=8, n_steps=32, seed=53)
        ens = problem.ensemble(constant_control_for(problem, 0.2), 200, 53)
        sol = solve_adjoint_regression(problem, ens, spec, sobolev_s=1.25)
        mean_q, iq_steps = full_fit_q(problem, sol, spec, 1.25)
        assert rel_err(sol.mean_q, mean_q) < 1e-12
        assert rel_err(sol.q_weighted_per_path, iq_steps.sum(axis=0)) < 1e-12

    def test_step_zero_fits_the_intercept_only(self, lq_ensemble):
        # every path starts at x0: all features have zero variance at step 0,
        # so the fit is the plain mean; a one-step sweep isolates that step
        problem, ens = lq_ensemble
        spec = RegressionSpec()
        assert not _StepRegressor(_default_features(ens.modes[:, 0], spec)).keep.any()
        sol = solve_adjoint_regression(problem, ens, spec)
        mean_q, iq_steps = full_fit_q(problem, sol, spec, problem.domain.dimension / 2.0 + 0.5)
        assert rel_err(sol.mean_q[0], mean_q[0]) < 1e-12
        first = dataclasses.replace(ens, times=ens.times[:2], modes=ens.modes[:, :2],
                                    normals=ens.normals[:, :1],
                                    control=ControlProcess(values=ens.control.values[:1],
                                                           space=ens.control.space))
        step0 = backward_sweep(problem.domain, first, problem.drift, sol.p_values[:, 1], None, spec)
        assert rel_err(step0.mean_q[0], mean_q[0]) < 1e-12
        assert rel_err(step0.q_weighted_per_path, iq_steps[0]) < 1e-12

    @pytest.mark.parametrize("compute_q", [False, True])
    def test_one_regression_per_step(self, lq_ensemble, monkeypatch, compute_q):
        # q takes no fit of its own: a (P, N^2) q regression must not come back
        problem, ens = lq_ensemble
        fits = []
        original = _StepRegressor.fit_predict

        def counting(self, targets):
            fits.append(targets.shape)
            return original(self, targets)

        monkeypatch.setattr(_StepRegressor, "fit_predict", counting)
        solve_adjoint_regression(problem, ens, compute_q=compute_q)
        assert fits == [(ens.n_paths, problem.domain.n_modes)] * problem.n_steps


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


class TestPathwiseSweep:
    """The pathwise p~ gives the gap and the gradient exactly, with an honest error bar."""

    def test_lq_path_means_and_gaps_match_the_regression(self, lq_ensemble):
        # f' is constant on lq-1d and the basis holds an intercept, so the fit keeps the
        # path mean of each step's target: the two sweeps differ by rounding only
        problem, ens = lq_ensemble
        fitted = solve_adjoint_regression(problem, ens, compute_q=False)
        steps = []
        for n, p in PathwiseAdjoint(problem, ens).nodes():
            steps.append(n)
            fitted_mean = fitted.p_mean[n]
            assert (np.max(np.abs(p.mean(axis=0) - fitted_mean))
                    <= 1e-12 * np.max(np.abs(fitted_mean)))
        assert steps == list(range(problem.n_steps - 1, -1, -1))
        gaps_fitted = check_maximum_principle(problem, fitted)["gaps"]
        gaps_pathwise = check_maximum_principle(problem, PathwiseAdjoint(problem, ens))["gaps"]
        assert np.all(np.max(np.abs(gaps_pathwise - gaps_fitted), axis=1)
                      <= 1e-12 * np.max(np.abs(gaps_fitted), axis=1))

    def test_per_path_stderr_matches_the_spread_over_seeds(self):
        # m_t = E<p~_t, c1>, c1 the coefficients of the constant field 1: the ensemble
        # means of 16 seeds spread as the per-path standard error says, within the
        # two-sided 0.1% chi-square interval of 15 degrees of freedom
        problem = catalog_problem("cubic-1d", modes=16, n_steps=64, seed=1000)
        control = constant_control_for(problem, 0.2)
        c1 = problem.domain.ones_coeffs()
        seeds, n_paths = range(1000, 1016), 200
        means, variances = [], []
        for seed in seeds:
            ens = problem.ensemble(control, n_paths, seed)
            m = np.empty((n_paths, problem.n_steps))   # p~ vanishes at T: no terminal cost
            for n, p in PathwiseAdjoint(problem, ens).nodes():
                m[:, n] = p @ c1
            means.append(m.mean(axis=0))
            variances.append(m.var(axis=0, ddof=1) / n_paths)
        ratio = math.sqrt(np.var(means, axis=0, ddof=1).mean() / np.mean(variances))
        df = len(seeds) - 1
        assert math.sqrt(chi2.ppf(0.001, df) / df) < ratio < math.sqrt(chi2.ppf(0.999, df) / df)


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


    @pytest.mark.parametrize("forcing", ["gamma", "eta"])
    def test_pairing_builds_no_y_array(self, forcing):
        # y is paired with f and zeta node by node as it is stepped
        problem = catalog_problem("lq-1d", modes=16, n_steps=64, seed=53)
        sol = zero_control_sweep(problem, 200, 53)
        kw = ({"forcing_gamma": np.ones(problem.domain.n_modes)} if forcing == "gamma"
              else {"forcing_eta": problem.noise.b_coeffs})
        duality_residual(problem, sol, **kw)    # a first call pays the one-time caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            duality_residual(problem, sol, **kw)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 200 * (64 + 1) * 16 * 8


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
        assert np.array_equal(p, pair.mode_coeffs)

    @pytest.mark.parametrize("nk, has_q", [(3, 1), (3, 0)])
    def test_q_block_header_is_refused(self, tmp_path, nk, has_q):
        # the writer always puts N_K = 0 and has_q = 0; anything else is foreign input
        path = tmp_path / "adjoint_q.bin"
        path.write_bytes(b"SPDA" + struct.pack("<IIdII", 3, 4, 0.5, nk, has_q)
                         + bytes(8 * 5 * 3))
        with pytest.raises(ConfigurationError, match="q block"):
            read_binary_adjoint(path)
