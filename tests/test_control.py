import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import spdecontrol.adjoint as adj
import spdecontrol.control as ctl
from spdecontrol.adjoint import AdjointSolution, PathwiseAdjoint, solve_adjoint_regression
from spdecontrol.cli import _run_smp_check
from spdecontrol.control import (CATALOG, ControlProblem, CostSpec, Measure, catalog_problem,
                                 check_maximum_principle, constant_control_for,
                                 control_coefficients, control_pairings, cost_of_ensemble,
                                 lq_exact_cost, lq_optimal_control, optimize_control,
                                 sine_profile_coeffs)
from spdecontrol.errors import ConfigurationError
from spdecontrol.forward import ControlProcess
from spdecontrol.noise import NoiseModel
from spdecontrol.nonlinearity import ControlSpace, NemytskiiDrift
from spdecontrol.spectral import DENSE_TRANSFORM_MAX_MODES, make_domain


def zero_cost(measure=None):
    return CostSpec(running=lambda t, s, u: np.zeros_like(np.asarray(s, dtype=float)),
                    running_dsigma=lambda t, s, u: np.zeros_like(np.asarray(s, dtype=float)),
                    terminal=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
                    terminal_dsigma=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
                    measure=measure or Measure(kind="lebesgue"))


def mc_cost(problem, control, n_paths):
    """Monte Carlo cost estimate and its standard error, at the problem's noise seed."""
    vals = cost_of_ensemble(problem, problem.ensemble(control, n_paths, problem.noise.seed))
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_paths))


class TestEvaluateCost:
    """Realized costs of simulated ensembles."""

    def test_zero_cost(self):
        problem = catalog_problem("lq-1d", modes=8, n_steps=32, seed=51)
        problem.cost = zero_cost()
        cost, stderr = mc_cost(problem, constant_control_for(problem, 0.4), 16)
        assert cost == 0.0 and stderr == 0.0

    def test_pure_control_cost_exact(self):
        problem = catalog_problem("lq-1d", modes=8, n_steps=32, seed=52)
        problem.cost = CostSpec(
            running=lambda t, s, u: (u**2 / math.pi) * np.ones_like(np.asarray(s, dtype=float)),
            running_dsigma=lambda t, s, u: np.zeros_like(np.asarray(s, dtype=float)),
            terminal=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
            terminal_dsigma=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
            measure=Measure(kind="lebesgue"))
        u0 = 0.7
        cost, _ = mc_cost(problem, constant_control_for(problem, u0), 8)
        assert cost == pytest.approx(problem.horizon * u0**2, rel=1e-10)

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
        cost, stderr = mc_cost(problem, constant_control_for(problem, 0.0), 400)
        assert abs(cost - exact) < 3 * stderr + 0.01 * exact

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


# the step of the complex-step derivative: exact to rounding, whatever the form in u
COMPLEX_STEP = 1e-30


def d_u(fn):
    """d fn / du by the complex step, u being the last argument of ``fn``."""
    return lambda *args: np.imag(fn(*args[:-1], args[-1] + 1j * COMPLEX_STEP)) / COMPLEX_STEP


def hamiltonian(problem, t, modes, p, u, *, u_derivative=False):
    """Brute-force reference H(t, u, X, p) = L(t, X, u) + <p, F(X, u)> per path.

    ``modes`` and ``p`` are (P, N) coefficient batches.  A scalar ``u``
    gives a (P,) result; a (V,) array of control values gives (V, P), the
    running density and the reaction being evaluated on (V, P, N)
    collocation arrays.  ``u_derivative=True`` returns d_u H = d_u L +
    <p, d_u F>, by the complex step of ``cost.running`` and ``drift.f``, so
    the reference assumes nothing of their form in u.  The pairing is taken
    on the collocation grid: ``to_coeffs`` is ``quad_weight * to_field^T``,
    so <p, to_coeffs(f)> = quad_weight * sum_j to_field(p)_j f(sigma_j, u).
    """
    domain, cost, drift = problem.domain, problem.cost, problem.drift
    density, reaction = cost.running, drift.f
    if u_derivative:
        density, reaction = d_u(density), d_u(reaction)
    u = np.asarray(u, dtype=float)
    u_grid = u[..., None, None]                 # broadcasts against the (P, N) field
    pairing = domain.quad_weight * np.einsum("...pj,pj->...p",
                                             reaction(domain.to_field(modes), u_grid),
                                             domain.to_field(p))
    h = cost.integrate(domain, modes, lambda s: density(t, s, u_grid))
    return np.broadcast_to(h + pairing, u.shape + modes.shape[:1])


class TestHamiltonian:
    """The brute-force reference H against which the closed form is checked."""

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
            growth_degree=0, growth_const=2.0, dissipativity_bound=0.0, name="forcing")
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
        density, reaction = ((d_u(cost.running), d_u(drift.f)) if u_derivative
                             else (cost.running, drift.f))
        u_grid = np.asarray(u)[..., None, None]
        f_coeffs = domain.to_coeffs(np.broadcast_to(
            reaction(domain.to_field(x), u_grid), u_grid.shape[:-2] + x.shape))
        reference = (cost.integrate(domain, x, lambda s: density(0.2, s, u_grid))
                     + np.sum(p * f_coeffs, axis=-1))
        h = hamiltonian(problem, 0.2, x, p, u, u_derivative=u_derivative)
        assert h.shape == reference.shape == np.shape(u) + (6,)
        assert np.max(np.abs(h - reference)) < 1e-12 * np.max(np.abs(reference))


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
        cost, stderr = mc_cost(problem, control, 400)
        assert abs(cost - exact) < 3.5 * stderr

    def test_oracle_requires_linear_drift(self):
        problem = catalog_problem("cubic-1d", modes=8, n_steps=64)
        with pytest.raises(ConfigurationError):
            lq_optimal_control(problem)


def counted(fn, calls):
    """``fn``, appending the positional arguments of every call to ``calls``."""
    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return counting


class TestOptimizer:
    def test_zero_cost_stops_immediately(self, monkeypatch):
        problem = catalog_problem("lq-1d", modes=8, n_steps=32, seed=66)
        problem.cost = zero_cost()
        control = constant_control_for(problem, 0.3)
        ensembles, costs = [], []
        monkeypatch.setattr(ctl, "simulate_ensemble", counted(ctl.simulate_ensemble, ensembles))
        monkeypatch.setattr(ctl, "cost_of_ensemble", counted(ctl.cost_of_ensemble, costs))
        final, trace = optimize_control(problem, control, iterations=10, n_paths=120, seed=66)
        assert len(trace["grad_norm"]) == 1
        assert np.array_equal(final.values, control.values)
        # the control did not move, so its one ensemble is the final one, costed once
        assert len(ensembles) == 1 and len(costs) == 1
        assert len(trace["J"]) == len(trace["stderr"]) == 1
        assert trace["ensemble"].control is final

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


# reduced sizes of the three catalog problems
REDUCED = {"lq-1d": dict(n_steps=32), "cubic-1d": dict(modes=16, n_steps=32),
           "dirac-2d": dict(n_steps=32)}


def collected_pathwise(problem, ens):
    """The streamed p~ collected into an ``AdjointSolution``, which replays its stored rows."""
    p_values = np.empty_like(ens.modes)
    p_values[:, -1] = problem.cost.terminal_gradient_coeffs(problem.domain, ens.modes[:, -1])
    for n, p in PathwiseAdjoint(problem, ens).nodes():
        p_values[:, n] = p
    return AdjointSolution(times=ens.times, p_values=p_values, ensemble=ens)


def closed_form_gradient(problem, nodes, values):
    """d_u H = 2 kappa u_t + b m_t, m_t the mean of ``control_pairings`` over ``nodes``:
    the descent direction, in the arithmetic of ``optimize_control``."""
    b, kappa = control_coefficients(problem)
    mean = np.empty(values.size)
    for n, s in control_pairings(problem.domain, nodes):
        mean[n] = s.mean()
    return 2.0 * kappa * values + b * mean


def stored_descent(problem, control, iterations, step_rule, n_paths, seed):
    """The descent with a stored pathwise sweep at every control visited."""
    trace = {"J": [], "stderr": [], "grad_norm": []}
    values, normals = control.values.copy(), None
    for step in range(iterations + 1):
        ens = problem.ensemble(ControlProcess(values=values, space=problem.control_space),
                               n_paths, seed, normals=normals)
        normals = ens.normals
        costs = cost_of_ensemble(problem, ens)
        trace["J"].append(float(costs.mean()))
        trace["stderr"].append(float(costs.std(ddof=1) / math.sqrt(n_paths)))
        grad = closed_form_gradient(problem, collected_pathwise(problem, ens).nodes(), values)
        trace["grad_norm"].append(float(np.sqrt(np.sum(grad**2) * problem.dt)))
        if step < iterations:
            values = problem.control_space.project(values - step_rule * grad)
    return values, trace


class TestStreamedConsumers:
    """The descent and the gap check on the streamed p~ give the stored sweep's bytes."""

    @pytest.mark.parametrize("name", sorted(REDUCED))
    def test_descent_equals_the_stored_reference(self, name):
        problem = catalog_problem(name, seed=71, **REDUCED[name])
        control = constant_control_for(problem, 0.1)
        final, trace = optimize_control(problem, control, iterations=3, step_rule=0.5,
                                        n_paths=40, seed=71)
        values, reference = stored_descent(problem, control, 3, 0.5, 40, 71)
        assert final.values.tobytes() == values.tobytes()
        assert {k: trace[k] for k in reference} == reference

    @pytest.mark.parametrize("name", sorted(REDUCED))
    def test_gap_check_on_the_stream_equals_the_stored_solution(self, name):
        problem = catalog_problem(name, seed=72, **REDUCED[name])
        ens = problem.ensemble(constant_control_for(problem, 0.2), 40, 72)
        streamed = check_maximum_principle(problem, PathwiseAdjoint(problem, ens))
        stored = check_maximum_principle(problem, collected_pathwise(problem, ens))
        assert streamed.keys() == stored.keys()
        assert streamed["gaps"].tobytes() == stored["gaps"].tobytes()
        assert all(np.array_equal(streamed[k], stored[k]) for k in stored)


class TestClosedForm:
    """The gap table and the descent gradient, from (b, kappa) and m_t, against brute force."""

    @pytest.mark.parametrize("name", sorted(REDUCED))
    def test_gaps_and_gradient_match_the_brute_force_hamiltonian(self, name):
        # the descent's own gradient is closed_form_gradient byte for byte
        # (TestStreamedConsumers), so this checks the gradient it descends along
        problem = catalog_problem(name, seed=75, **REDUCED[name])
        values = np.linspace(-0.6, 0.8, problem.n_steps)
        ens = problem.ensemble(ControlProcess(values=values, space=problem.control_space),
                               40, 75)
        v = problem.control_space.sample(21)
        gaps = check_maximum_principle(problem, PathwiseAdjoint(problem, ens), v)["gaps"]
        grad = closed_form_gradient(problem, PathwiseAdjoint(problem, ens).nodes(), values)
        p_values = collected_pathwise(problem, ens).p_values
        ref_gaps, ref_grad = np.empty_like(gaps), np.empty_like(grad)
        for n in range(problem.n_steps):
            args = (problem, ens.times[n], ens.modes[:, n], p_values[:, n])
            h = hamiltonian(*args, np.concatenate([[values[n]], v]))
            ref_gaps[n] = np.mean(h[1:] - h[0], axis=1)
            ref_grad[n] = np.mean(hamiltonian(*args, values[n], u_derivative=True))
        assert np.max(np.abs(gaps - ref_gaps)) <= 1e-13 * np.max(np.abs(ref_gaps))
        assert np.max(np.abs(grad - ref_grad)) <= 1e-13 * np.max(np.abs(ref_grad))

    def test_refuses_drift_and_cost_outside_the_closed_form(self, monkeypatch):
        base = catalog_problem("lq-1d", seed=76, **REDUCED["lq-1d"])
        ens = base.ensemble(constant_control_for(base, 0.1), 8, 76)
        ones = lambda s: np.ones_like(np.asarray(s, dtype=float))
        squared = dataclasses.replace(base.drift, f=lambda s, u: -s + u**2, name="squared")
        changes = {
            "d_u f is 2u": {"drift": dataclasses.replace(squared, f_u=lambda s, u: 2.0 * u * ones(s))},
            "f is not affine in u": {"drift": squared},
            "no d_u f": {"drift": dataclasses.replace(base.drift, f_u=None)},
            "sigma u cost": {"cost": dataclasses.replace(
                base.cost, running=lambda t, s, u: 0.5 * s**2 + 0.5 / math.pi * u**2 + s * u)},
            "t u^2 cost": {"cost": dataclasses.replace(
                base.cost, running=lambda t, s, u: 0.5 * s**2 + (1.0 + t) / math.pi * u**2)},
        }
        sweeps, ensembles = [], []
        monkeypatch.setattr(adj, "_backward_nodes", counted(adj._backward_nodes, sweeps))
        monkeypatch.setattr(ctl, "simulate_ensemble", counted(ctl.simulate_ensemble, ensembles))
        for why, change in changes.items():
            problem = dataclasses.replace(base, **change)
            with pytest.raises(ConfigurationError, match="closed form|d_u f"):
                check_maximum_principle(problem, PathwiseAdjoint(problem, ens))
            with pytest.raises(ConfigurationError, match="closed form|d_u f"):
                optimize_control(problem, constant_control_for(problem, 0.1), iterations=2,
                                 n_paths=8, seed=76)
            assert (sweeps, ensembles) == ([], []), why
        assert control_coefficients(base) == (1.0, pytest.approx(0.5, rel=1e-15))


class TestNoPArray:
    """The descent and the gap check keep no (P, n_steps + 1, N) p array."""

    N_PATHS = 100

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def setup_problem(self):
        # 64 steps: the per-node work of the gap check is small beside a whole p array
        problem = catalog_problem("cubic-1d", modes=16, n_steps=64, seed=74)
        n_steps, n_modes = problem.n_steps, problem.domain.n_modes
        # the normals of one ensemble, and one (P, n_steps + 1, N) array: modes or p
        return (problem, self.N_PATHS * n_steps * n_modes * 8,
                self.N_PATHS * (n_steps + 1) * n_modes * 8)

    def test_descent_holds_one_ensemble_besides_its_normals(self):
        # a stored sweep per iteration peaks at 4.3 arrays: the last ensemble, its p and
        # the next ensemble
        problem, normals, array = self.setup_problem()
        control = constant_control_for(problem, 0.1)
        # a first small descent, untraced, pays the one-time imports and caches
        optimize_control(problem, control, iterations=1, n_paths=4, seed=74)
        peak = self.traced_peak(lambda: optimize_control(problem, control, iterations=3,
                                                         n_paths=self.N_PATHS, seed=74))
        assert (peak - normals) / array < 2.0

    def test_gap_check_holds_no_p_array(self, tmp_path):
        # on a stored sweep smp-check peaks at 1.9 p arrays above its ensemble
        problem, normals, array = self.setup_problem()
        _run_smp_check(problem, 74, 4, {}, {}, tmp_path)
        peak = self.traced_peak(lambda: _run_smp_check(problem, 74, self.N_PATHS, {}, {},
                                                       tmp_path))
        assert (peak - normals - array) / array < 1.5


class TestCatalogAndHelpers:
    def test_sine_profile_coeffs(self):
        dom = make_domain(1, 8)
        x0 = sine_profile_coeffs(dom, {1: 0.5})
        field = dom.to_field(x0)
        assert np.allclose(field, 0.5 * np.sin(dom.collocation_points[:, 0]), atol=1e-12)

    def test_unknown_problem(self):
        with pytest.raises(ConfigurationError):
            catalog_problem("mystery")

    def test_unknown_override(self):
        with pytest.raises(ConfigurationError, match=r"unknown catalog overrides \['mode'\]"):
            catalog_problem("lq-1d", mode=8)

    def test_overrides_replace_a_copy_of_the_spec(self):
        spec = json.dumps(CATALOG["dirac-2d"])
        problem = catalog_problem("dirac-2d", seed=3, modes=4, n_steps=16, horizon=0.25,
                                  gamma=0.3, alpha=0.2)
        assert problem.domain.n_modes_per_axis == 4 and problem.x0.shape == (16,)
        assert (problem.n_steps, problem.horizon) == (16, 0.25)
        assert (problem.noise.gamma, problem.noise.alpha, problem.noise.seed) == (0.3, 0.2, 3)
        assert json.dumps(CATALOG["dirac-2d"]) == spec

    def test_dt_beta_guard(self):
        with pytest.raises(ConfigurationError, match="raise n_steps above 2"):
            catalog_problem("cubic-1d", n_steps=1, horizon=2.0)

    @pytest.mark.parametrize("name", list(CATALOG))
    def test_cost_growth_spot_checks(self, name):
        cost = catalog_problem(name, modes=4).cost
        sigmas = np.linspace(-3.0, 3.0, 41)
        bound = cost.growth_const * (1.0 + np.abs(sigmas) ** cost.growth_degree)
        for u in (-1.0, 0.0, 1.0):
            assert np.all(np.abs(cost.running_dsigma(0.5, sigmas, u)) <= bound)
        assert np.all(np.abs(cost.terminal_dsigma(sigmas)) <= bound)

    def test_dirac_points_interior(self):
        with pytest.raises(ConfigurationError):
            Measure(kind="dirac_combination", points=np.array([[0.0, 1.0]]),
                    weights=np.array([1.0]))
