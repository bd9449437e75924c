import dataclasses
import math
import warnings

import numpy as np
import pytest

import spdecontrol.control as ctl
from spdecontrol.adjoint import solve_adjoint_regression
from spdecontrol.control import (ControlProblem, CostSpec, Measure, catalog_problem,
                                 check_maximum_principle, constant_control_for,
                                 cost_of_ensemble, evaluate_cost, hamiltonian,
                                 lq_exact_cost, lq_optimal_control, optimize_control,
                                 quadratic_cost, sine_profile_coeffs)
from spdecontrol.errors import ConfigurationError, ShapeError
from spdecontrol.forward import ControlProcess, constant_control
from spdecontrol.noise import NoiseModel
from spdecontrol.nonlinearity import ControlSpace, NemytskiiDrift, linear_drift
from spdecontrol.spectral import DENSE_TRANSFORM_MAX_MODES, make_domain


def zero_cost(measure=None):
    z = lambda *a: np.zeros_like(np.asarray(a[-2] if len(a) == 3 else a[-1], dtype=float))
    return CostSpec(running=lambda t, s, u: np.zeros_like(np.asarray(s, dtype=float)),
                    running_dsigma=lambda t, s, u: np.zeros_like(np.asarray(s, dtype=float)),
                    running_du=lambda t, s, u: np.zeros_like(np.asarray(s, dtype=float)),
                    terminal=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
                    terminal_dsigma=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
                    measure=measure or Measure(kind="lebesgue"))


class TestEvaluateCost:
    def test_zero_cost(self):
        problem = catalog_problem("lq-1d", modes=8, n_steps=32, seed=51)
        problem.cost = zero_cost()
        out = evaluate_cost(problem, constant_control_for(problem, 0.4), 16)
        assert out["J"] == 0.0 and out["stderr"] == 0.0

    def test_pure_control_cost_exact(self):
        problem = catalog_problem("lq-1d", modes=8, n_steps=32, seed=52)
        problem.cost = CostSpec(
            running=lambda t, s, u: (u**2 / math.pi) * np.ones_like(np.asarray(s, dtype=float)),
            running_dsigma=lambda t, s, u: np.zeros_like(np.asarray(s, dtype=float)),
            terminal=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
            terminal_dsigma=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
            measure=Measure(kind="lebesgue"))
        u0 = 0.7
        out = evaluate_cost(problem, constant_control_for(problem, u0), 8)
        assert out["J"] == pytest.approx(problem.horizon * u0**2, rel=1e-10)

    def test_lq_uncontrolled_cost_matches_ou_moments(self):
        # closed form: E X_k(t)^2 = x0_k^2 e^{-2 nu t} + b_k^2 (1-e^{-2 nu t})/(2 nu)
        problem = catalog_problem("lq-1d", n_steps=256, seed=53)
        nu = problem.domain.eigenvalues + 1.0
        b = problem.noise.b_coeffs
        x0, horizon = problem.x0, problem.horizon
        exact = 0.0
        for k in range(nu.size):
            decay = 1.0 - math.exp(-2.0 * nu[k] * horizon)
            exact += 0.5 * (x0[k] ** 2 * decay / (2 * nu[k])
                            + b[k] ** 2 / (2 * nu[k]) * (horizon - decay / (2 * nu[k])))
        out = evaluate_cost(problem, constant_control_for(problem, 0.0), 400)
        assert abs(out["J"] - exact) < 3 * out["stderr"] + 0.01 * exact

    def test_dirac_cost_by_point_reconstruction(self):
        problem = catalog_problem("dirac-2d", seed=54)
        ens = problem.ensemble(constant_control_for(problem, 0.0), 4, 54)
        vals = cost_of_ensemble(problem, ens)
        # independent recomputation: evaluate the density at the mass points
        pts = problem.cost.measure.points
        wts = problem.cost.measure.weights
        basis = problem.domain.evaluate_modes(pts)
        w = ctl.trapezoid_weights(problem.n_steps, problem.dt)
        expected = np.zeros(4)
        for n in range(problem.n_steps + 1):
            u_n = 0.0
            point_vals = ens.modes[:, n] @ basis.T
            expected += w[n] * ((0.5 * point_vals**2 + 0.5 * u_n**2) @ wts)
        point_vals = ens.modes[:, -1] @ basis.T
        expected += (0.5 * point_vals**2) @ wts
        assert np.allclose(vals, expected, rtol=1e-12)

    def test_mollified_point_mass_converges_to_dirac(self):
        # narrow normalized Gaussian weights approach the point evaluation
        problem = catalog_problem("lq-1d", modes=32, n_steps=64, seed=55)
        xi0 = 0.45 * math.pi
        dirac_cost = CostSpec(
            running=lambda t, s, u: np.zeros_like(np.asarray(s, dtype=float)),
            running_dsigma=lambda t, s, u: np.zeros_like(np.asarray(s, dtype=float)),
            terminal=lambda s: s**2,
            terminal_dsigma=lambda s: 2.0 * s,
            measure=Measure(kind="dirac_combination",
                            points=np.array([[xi0]]), weights=np.array([1.0])))
        ens = problem.ensemble(constant_control_for(problem, 0.0), 8, 55)
        ref = dirac_cost.terminal_value(problem.domain, ens.modes[:, -1])

        grid = np.linspace(0.0, math.pi, 2049)[1:-1][:, None]
        basis = problem.domain.evaluate_modes(grid)
        dgrid = grid[1, 0] - grid[0, 0]
        errs = []
        for width in (0.4, 0.2, 0.1):
            weights = np.exp(-0.5 * ((grid[:, 0] - xi0) / width) ** 2)
            weights /= weights.sum() * dgrid
            fields = ens.modes[:, -1] @ basis.T
            mollified = (fields**2 @ weights) * dgrid
            errs.append(np.mean(np.abs(mollified - ref)))
        assert errs[0] > errs[1] > errs[2]


class TestHamiltonian:
    def test_zero_p_reduces_to_running_cost(self):
        problem = catalog_problem("lq-1d", modes=8, n_steps=32)
        h = hamiltonian(problem, 0.0, problem.x0[None], np.zeros((1, 8)), 0.5)[0]
        expected = float(problem.cost.running_value(problem.domain, 0.0,
                                                    problem.x0[None], 0.5)[0])
        assert h == pytest.approx(expected, rel=1e-12)

    def test_pure_control_forcing_pairing(self):
        # f(sigma, u) = u so <p, F> = u <1, e_1> when p = e_1; the collocation
        # quadrature reproduces 2 sqrt(2/pi) to its own accuracy
        dom = make_domain(1, 64)
        drift = NemytskiiDrift(
            f=lambda s, u: u * np.ones_like(np.asarray(s, dtype=float)),
            f_prime=lambda s, u: np.zeros_like(np.asarray(s, dtype=float)),
            growth_degree=0, growth_const=2.0, dissipativity_bound=0.0,
            quasi_dissipativity_shift=1.0, name="forcing")
        problem = ControlProblem(domain=dom, drift=drift,
                                 noise=NoiseModel(dom, 0.5, 0.25, 1),
                                 cost=zero_cost(), horizon=1.0,
                                 x0=np.zeros(64), n_steps=32)
        p = np.zeros((1, 64))
        p[0, 0] = 1.0
        u = 0.7
        h = hamiltonian(problem, 0.0, np.zeros((1, 64)), p, u)[0]
        assert h == pytest.approx(u * 2.0 * math.sqrt(2.0 / math.pi), rel=1e-3)

    def test_linearity_in_p(self):
        problem = catalog_problem("lq-1d", modes=8, n_steps=32)
        modes = problem.x0[None]
        rng = np.random.default_rng(0)
        p = rng.standard_normal((1, 8))
        l_val = hamiltonian(problem, 0.0, modes, np.zeros((1, 8)), 0.3)[0]
        h1 = hamiltonian(problem, 0.0, modes, p, 0.3)[0]
        h2 = hamiltonian(problem, 0.0, modes, 2.0 * p, 0.3)[0]
        assert h2 - l_val == pytest.approx(2.0 * (h1 - l_val), rel=1e-12)

    @pytest.mark.parametrize("name", ["lq-1d", "dirac-2d"])
    def test_batch_equals_single_value_calls(self, name):
        # lq-1d exercises the Lebesgue boundary term, dirac-2d the point masses
        problem = catalog_problem(name, modes=8)
        rng = np.random.default_rng(1)
        modes = 0.3 * rng.standard_normal((5, problem.domain.n_modes))
        p = rng.standard_normal((5, problem.domain.n_modes))
        v = problem.control_space.sample(7)
        for u_derivative in (False, True):
            batch = hamiltonian(problem, 0.2, modes, p, v, u_derivative=u_derivative)
            single = np.stack([hamiltonian(problem, 0.2, modes, p, vj,
                                           u_derivative=u_derivative) for vj in v])
            assert batch.shape == (7, 5)
            assert np.array_equal(batch, single)

    @pytest.mark.parametrize("name", ["cubic-1d", "dirac-2d"])
    def test_u_derivative_matches_central_difference(self, name):
        # H is quadratic in u for the catalog problems, so the central
        # difference is exact up to rounding
        problem = catalog_problem(name, modes=8)
        rng = np.random.default_rng(2)
        modes = 0.3 * rng.standard_normal((4, problem.domain.n_modes))
        p = rng.standard_normal((4, problem.domain.n_modes))
        u, du = 0.3, 1e-3
        h_plus, h_minus = hamiltonian(problem, 0.1, modes, p, np.array([u + du, u - du]))
        fd = (h_plus - h_minus) / (2.0 * du)
        assert np.allclose(hamiltonian(problem, 0.1, modes, p, u, u_derivative=True),
                           fd, rtol=1e-8, atol=1e-10)

    @pytest.mark.parametrize("name, modes", [("lq-1d", 8), ("cubic-1d", 8), ("dirac-2d", 8),
                                             ("cubic-1d", DENSE_TRANSFORM_MAX_MODES + 44)])
    @pytest.mark.parametrize("u, u_derivative", [(0.3, False), (np.linspace(-1.0, 1.0, 5), False),
                                                 (np.linspace(-1.0, 1.0, 5), True)],
                             ids=["scalar", "values", "d_u"])
    def test_collocation_pairing_matches_the_transform(self, name, modes, u, u_derivative):
        # <p, to_coeffs(f)> = quad_weight * sum_j to_field(p)_j f_j, on the dense
        # sine matrix and, above DENSE_TRANSFORM_MAX_MODES, on the DST-I path
        problem = catalog_problem(name, modes=modes)
        domain, cost, drift = problem.domain, problem.cost, problem.drift
        rng = np.random.default_rng(3)
        x = 0.3 * rng.standard_normal((6, domain.n_modes))
        p = rng.standard_normal((6, domain.n_modes))
        density, reaction = ((cost.running_du, drift.f_u) if u_derivative
                             else (cost.running, drift.f))
        u_grid = np.asarray(u)[..., None, None]
        f_coeffs = domain.to_coeffs(np.broadcast_to(
            reaction(domain.to_field(x), u_grid), u_grid.shape[:-2] + x.shape))
        reference = (cost.integrate(domain, x, lambda s: density(0.2, s, u_grid))
                     + np.sum(p * f_coeffs, axis=-1))
        h = hamiltonian(problem, 0.2, x, p, u, u_derivative=u_derivative)
        assert h.shape == reference.shape == np.shape(u) + (6,)
        assert np.max(np.abs(h - reference)) < 1e-12 * np.max(np.abs(reference))

    def test_shape_and_configuration_errors(self):
        problem = catalog_problem("lq-1d", modes=8, n_steps=32)
        with pytest.raises(ShapeError):
            hamiltonian(problem, 0.0, np.zeros((3, 8)), np.zeros((2, 8)), 0.1)
        with pytest.raises(ShapeError):
            hamiltonian(problem, 0.0, np.zeros(8), np.zeros(8), 0.1)
        problem.cost = dataclasses.replace(problem.cost, running_du=None)
        with pytest.raises(ConfigurationError):
            hamiltonian(problem, 0.0, np.zeros((3, 8)), np.zeros((3, 8)), 0.1,
                        u_derivative=True)


class TestMaximumPrinciple:
    def test_lq_oracle_nonnegative_gap(self):
        problem = catalog_problem("lq-1d", seed=61)
        oracle = lq_optimal_control(problem)
        control = ControlProcess(values=oracle["u_star"], space=problem.control_space)
        ens = problem.ensemble(control, 600, 61)
        sol = solve_adjoint_regression(problem, ens, compute_q=False)
        report = check_maximum_principle(problem, sol)
        assert report["min_gap"] >= -1e-3

    def test_bad_control_shows_violations(self):
        problem = catalog_problem("lq-1d", seed=62)
        control = constant_control_for(problem, 0.9)
        ens = problem.ensemble(control, 600, 62)
        sol = solve_adjoint_regression(problem, ens, compute_q=False)
        report = check_maximum_principle(problem, sol)
        assert report["min_gap"] < -0.1
        assert report["fraction_violating"] > 0.05

    def test_singleton_control_space(self):
        problem = catalog_problem("lq-1d", modes=8, n_steps=32, seed=63)
        problem.control_space = ControlSpace(kind="finite_set", elements=np.array([0.2]))
        control = constant_control_for(problem, 0.2)
        ens = problem.ensemble(control, 200, 63)
        sol = solve_adjoint_regression(problem, ens, compute_q=False)
        report = check_maximum_principle(problem, sol,
                                         v_samples=problem.control_space.sample(1))
        assert report["min_gap"] == 0.0 and report["fraction_violating"] == 0.0


class TestLQOracles:
    def test_dp_beats_perturbations(self):
        # the dynamic-programming control must beat nearby admissible ones
        problem = catalog_problem("lq-1d", modes=8, n_steps=64, seed=64)
        oracle = lq_optimal_control(problem)
        j_star = lq_exact_cost(problem, oracle["u_star"])
        assert j_star == pytest.approx(oracle["J_star"], rel=1e-12)
        rng = np.random.default_rng(0)
        for _ in range(5):
            bump = 0.05 * rng.standard_normal(problem.n_steps)
            j_other = lq_exact_cost(problem, np.clip(oracle["u_star"] + bump, -1, 1))
            assert j_other >= j_star - 1e-12

    def test_exact_cost_matches_monte_carlo(self):
        problem = catalog_problem("lq-1d", seed=65)
        u = np.full(problem.n_steps, 0.25)
        exact = lq_exact_cost(problem, u)
        control = ControlProcess(values=u, space=problem.control_space)
        out = evaluate_cost(problem, control, 400)
        assert abs(out["J"] - exact) < 3.5 * out["stderr"]

    def test_oracle_requires_linear_drift(self):
        problem = catalog_problem("cubic-1d", modes=8, n_steps=64)
        with pytest.raises(ConfigurationError):
            lq_optimal_control(problem)


class TestOptimizer:
    def test_zero_cost_stops_immediately(self, monkeypatch):
        problem = catalog_problem("lq-1d", modes=8, n_steps=32, seed=66)
        problem.cost = zero_cost()
        control = constant_control_for(problem, 0.3)
        ensembles, simulate = [], ctl.simulate_ensemble

        def counting(*args, **kwargs):
            ensembles.append(args)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(ctl, "simulate_ensemble", counting)
        final, trace = optimize_control(problem, control, iterations=10, n_paths=120, seed=66)
        assert len(trace["grad_norm"]) == 1
        assert np.array_equal(final.values, control.values)
        # the control did not move, so its one ensemble is the final one
        assert len(ensembles) == 1
        assert trace["J"] == [trace["J"][0]] * 2 and trace["ensemble"].control is final

    def test_lq_descent_reaches_oracle(self):
        # the exact closed-form cost of the delivered control must come
        # within 2% of the dynamic-programming optimum (the Monte Carlo
        # trace itself carries the common-random-number offset)
        problem = catalog_problem("lq-1d", seed=67)
        oracle = lq_optimal_control(problem)
        control = constant_control_for(problem, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            final, trace = optimize_control(problem, control, iterations=40,
                                            step_rule=0.5, n_paths=200, seed=67)
        assert lq_exact_cost(problem, final.values) <= 1.02 * oracle["J_star"]
        assert trace["J"][-1] <= trace["J"][0]

    def test_descent_monotone_within_noise(self):
        problem = catalog_problem("lq-1d", seed=68)
        control = constant_control_for(problem, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _, trace = optimize_control(problem, control, iterations=15,
                                        step_rule=0.5, n_paths=200, seed=68)
        j, se = np.array(trace["J"]), np.array(trace["stderr"])
        assert np.all(np.diff(j) <= 2.0 * (se[:-1] + se[1:]))

    def test_violation_magnitude_shrinks_along_descent(self):
        problem = catalog_problem("lq-1d", modes=8, n_steps=64, seed=69)
        control = constant_control_for(problem, 0.8)
        magnitudes = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for iters in (0, 5, 20):
                if iters == 0:
                    current = control
                else:
                    current, _ = optimize_control(problem, control, iterations=iters,
                                                  step_rule=0.5, n_paths=200, seed=69)
                ens = problem.ensemble(current, 200, 69)
                sol = solve_adjoint_regression(problem, ens, compute_q=False)
                report = check_maximum_principle(problem, sol)
                magnitudes.append(max(0.0, -report["min_gap"]))
        assert magnitudes[1] <= magnitudes[0] + 1e-6
        assert magnitudes[2] <= magnitudes[1] + 1e-6

    def test_gradient_matches_finite_differences(self):
        # directional derivative of J against the adjoint-based gradient
        problem = catalog_problem("lq-1d", seed=70)
        n_steps = problem.n_steps
        u0 = np.full(n_steps, 0.2)
        du = np.sin(np.linspace(0.0, math.pi, n_steps))
        dt = problem.dt

        ens = problem.ensemble(ControlProcess(values=u0, space=problem.control_space),
                               2000, 70)
        sol = solve_adjoint_regression(problem, ens, compute_q=False)
        grad = np.array([np.mean(hamiltonian(problem, ens.times[n], ens.modes[:, n],
                                             sol.p_values[:, n], u0[n], u_derivative=True))
                         for n in range(n_steps)])
        adjoint_dir = float(np.sum(grad * du) * dt)

        for h in (1e-2, 1e-3):
            jp = lq_exact_cost(problem, u0 + h * du)
            jm = lq_exact_cost(problem, u0 - h * du)
            fd = (jp - jm) / (2 * h)
            assert fd == pytest.approx(adjoint_dir, rel=0.05)


class TestCatalogAndHelpers:
    def test_sine_profile_coeffs(self):
        dom = make_domain(1, 8)
        x0 = sine_profile_coeffs(dom, {1: 0.5})
        field = dom.to_field(x0)
        assert np.allclose(field, 0.5 * np.sin(dom.collocation_points[:, 0]), atol=1e-12)

    def test_unknown_problem(self):
        with pytest.raises(ConfigurationError):
            catalog_problem("mystery")

    def test_dt_beta_guard(self):
        with pytest.raises(ConfigurationError):
            catalog_problem("cubic-1d", n_steps=1, horizon=2.0)

    def test_dirac_points_interior(self):
        with pytest.raises(ConfigurationError):
            Measure(kind="dirac_combination", points=np.array([[0.0, 1.0]]),
                    weights=np.array([1.0]))
