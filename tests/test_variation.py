import math

import numpy as np
import pytest

from spdecontrol.control import catalog_problem, constant_control_for
from spdecontrol.errors import ConfigurationError, GridError
from spdecontrol.forward import constant_control, simulate_state
from spdecontrol.noise import NoiseModel
from spdecontrol.nonlinearity import ControlSpace, linear_drift
from spdecontrol.spectral import make_domain
from spdecontrol.variation import (SpikeConfig, cost_expansion_check, first_variation,
                                   fit_loglog, spike_order_study, spike_perturb)

SPACE = ControlSpace(kind="interval", lower=-1.0, upper=1.0)


class TestSpikePerturb:
    def test_zero_width_rejected(self):
        ctrl = constant_control(SPACE, 0.0, 10)
        with pytest.raises(GridError):
            spike_perturb(ctrl, SpikeConfig(t0=0.5, epsilon=0.0, w=1.0), 1.0)

    def test_misaligned_rejected(self):
        ctrl = constant_control(SPACE, 0.0, 10)
        with pytest.raises(GridError):
            spike_perturb(ctrl, SpikeConfig(t0=0.55, epsilon=0.1, w=1.0), 1.0)

    def test_spike_at_boundary_rejected(self):
        ctrl = constant_control(SPACE, 0.0, 10)
        with pytest.raises(GridError):
            spike_perturb(ctrl, SpikeConfig(t0=0.0, epsilon=0.1, w=1.0), 1.0)
        with pytest.raises(GridError):
            spike_perturb(ctrl, SpikeConfig(t0=0.9, epsilon=0.1, w=1.0), 1.0)

    def test_noop_spike(self):
        ctrl = constant_control(SPACE, 0.3, 10)
        out = spike_perturb(ctrl, SpikeConfig(t0=0.5, epsilon=0.1, w=0.3), 1.0)
        assert np.array_equal(out.values, ctrl.values)

    def test_indicator_construction(self):
        ctrl = constant_control(SPACE, 0.0, 10)
        out = spike_perturb(ctrl, SpikeConfig(t0=0.5, epsilon=0.1, w=1.0), 1.0)
        expected = np.zeros(10)
        expected[5] = 1.0
        assert np.array_equal(out.values, expected)


def _linear_base(n_steps=128, modes=16, seed=4, u0=0.0):
    dom = make_domain(1, modes)
    noise = NoiseModel(dom, 0.5, 0.25, seed)
    ctrl = constant_control(SPACE, u0, n_steps)
    base = simulate_state(dom, linear_drift(), noise, ctrl, np.zeros(modes),
                          n_steps, 1.0, (seed, "wiener", 0))
    return dom, base


class TestFirstVariation:
    def test_noop_spike_gives_zero(self):
        dom, base = _linear_base()
        y = first_variation(dom, linear_drift(), base, SpikeConfig(0.5, 0.125, 0.0))
        assert np.all(y.mode_coeffs == 0.0)

    def test_linear_drift_closed_form(self):
        # response of mode k to a unit control bump on [t0, t0+eps):
        # (w - u) <1, e_k> int_spike exp(-(mu_k + 1)(T - s)) ds.
        # The collocation projection of the constant field matches the
        # analytic <1, e_k> up to quadrature error; the time integration is
        # checked against the per-mode ODE closed form driven by the
        # projection the discrete system actually receives.
        w, t0, eps = 0.8, 0.5, 0.125
        dom0, _ = _linear_base(n_steps=64)
        k = dom0.mode_indices[:4, 0].astype(float)
        analytic = math.sqrt(2 / math.pi) * (1 - np.cos(k * math.pi)) / k
        assert dom0.ones_coeffs()[0] == pytest.approx(analytic[0], rel=3e-3)
        assert dom0.ones_coeffs()[2] == pytest.approx(analytic[2], rel=3e-2)
        assert abs(dom0.ones_coeffs()[1]) < 1e-14 and analytic[1] == 0.0

        errs = []
        for n_steps in (64, 128):
            dom, base = _linear_base(n_steps=n_steps)
            y = first_variation(dom, linear_drift(), base, SpikeConfig(t0, eps, w))
            nu = dom.eigenvalues + 1.0
            integral = (np.exp(-nu * (1.0 - (t0 + eps))) - np.exp(-nu * (1.0 - t0))) / nu
            expected = w * dom.ones_coeffs() * integral
            errs.append(np.max(np.abs(y.mode_coeffs[-1] - expected)))
        assert errs[1] < errs[0]
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.35)

    def test_linearity_in_control_bump(self):
        dom, base = _linear_base()
        y1 = first_variation(dom, linear_drift(), base, SpikeConfig(0.5, 0.125, 0.4))
        y2 = first_variation(dom, linear_drift(), base, SpikeConfig(0.5, 0.125, 0.8))
        assert np.allclose(2.0 * y1.mode_coeffs, y2.mode_coeffs, atol=1e-13)

    def test_disjoint_spike_superposition(self):
        dom, base = _linear_base()
        s1, s2 = SpikeConfig(0.25, 0.0625, 0.5), SpikeConfig(0.625, 0.0625, 0.5)
        y1 = first_variation(dom, linear_drift(), base, s1)
        y2 = first_variation(dom, linear_drift(), base, s2)
        ctrl = base.control
        both = spike_perturb(spike_perturb(ctrl, s1, 1.0), s2, 1.0)
        # build the two-spike response through the single-spike machinery
        from spdecontrol.forward import linearized_modes

        def gamma_fn(n, modes):
            fields = dom.to_field(modes)
            diff = linear_drift().f(fields, both.values[n]) - linear_drift().f(fields, ctrl.values[n])
            return dom.to_coeffs(diff)

        y12 = linearized_modes(dom, linear_drift(), base.mode_coeffs[None],
                               base.normals[None], ctrl.values, base.dt,
                               gamma_fn=gamma_fn)[0]
        assert np.max(np.abs(y12 - y1.mode_coeffs - y2.mode_coeffs)) < 1e-13


class TestSpikeOrderStudy:
    @pytest.fixture(scope="class")
    @staticmethod
    def study():
        problem = catalog_problem("cubic-1d", modes=32, n_steps=128, seed=31)
        control = constant_control_for(problem, 0.0)
        return problem, spike_order_study(problem, control, w=0.8, t0=0.5,
                                          epsilons=[1 / 8, 1 / 16, 1 / 32],
                                          n_paths=64, seed=31)

    def test_first_order_quantities_scale_quadratically(self, study):
        _, report = study
        assert 1.8 <= report["slopes"]["xi"]["slope"] <= 2.2
        assert 1.8 <= report["slopes"]["Y"]["slope"] <= 2.2

    def test_remainder_is_higher_order(self, study):
        _, report = study
        assert report["slopes"]["eta"]["slope"] >= report["slopes"]["xi"]["slope"] + 0.5

    def test_difference_vanishes_before_spike(self):
        problem = catalog_problem("cubic-1d", modes=16, n_steps=64, seed=32)
        control = constant_control_for(problem, 0.0)
        base = problem.ensemble(control, 4, 32)
        spike = SpikeConfig(0.5, 0.125, 0.8)
        spiked = spike_perturb(control, spike, 1.0)
        pert = problem.ensemble(spiked, 4, 32, normals=base.normals)
        n_start = int(round(0.5 / base.dt))
        assert np.array_equal(pert.modes[:, : n_start + 1], base.modes[:, : n_start + 1])
        assert np.any(pert.modes[:, n_start + 1] != base.modes[:, n_start + 1])

    def test_pathwise_gronwall_envelope(self, study):
        # |xi_t|_sup <= exp(c t) * int_spike |delta F|_sup ds with c from the
        # realized-state Jacobian growth bound
        problem, _ = study
        control = constant_control_for(problem, 0.0)
        base = problem.ensemble(control, 16, 33)
        spike = SpikeConfig(0.5, 0.125, 0.8)
        spiked = spike_perturb(control, spike, 1.0)
        pert = problem.ensemble(spiked, 16, 33, normals=base.normals)
        dom, drift = problem.domain, problem.drift
        dt = base.dt
        n_start = int(round(0.5 / dt))
        width = int(round(0.125 / dt))
        for i in range(base.n_paths):
            sup_state = max(np.max(dom.sup_norm(base.modes[i])),
                            np.max(dom.sup_norm(pert.modes[i])))
            c = max(drift.dissipativity_bound, 0.0) + drift.growth_const * (
                1.0 + sup_state**drift.growth_degree)
            forcing = 0.0
            for n in range(n_start, n_start + width):
                fields = dom.to_field(base.modes[i, n])
                forcing += dt * np.max(np.abs(drift.f(fields, spiked.values[n])
                                              - drift.f(fields, control.values[n])))
            xi_sup = dom.sup_norm(pert.modes[i] - base.modes[i])
            bound = forcing * np.exp(c * base.times)
            # before the spike both sides vanish; afterwards the bound holds
            assert np.all(xi_sup[n_start + 1:] <= bound[n_start + 1:] * (1 + 1e-9))

    def test_too_few_epsilons(self):
        problem = catalog_problem("cubic-1d", modes=16, n_steps=64)
        control = constant_control_for(problem, 0.0)
        with pytest.raises(ConfigurationError):
            spike_order_study(problem, control, 0.8, 0.5, [1 / 8, 1 / 16], n_paths=4)


class TestCostExpansion:
    def test_noop_spike_zero_residual(self):
        problem = catalog_problem("lq-1d", modes=8, n_steps=64, seed=35)
        control = constant_control_for(problem, 0.0)
        report = cost_expansion_check(problem, control, w=0.0, t0=0.5,
                                      epsilons=[1 / 8, 1 / 16, 1 / 32], n_paths=16, seed=35)
        assert all(r["residual"] < 1e-14 for r in report["rows"])

    def test_state_independent_running_cost(self):
        # pure control cost: the expansion closes exactly (no state terms)
        import spdecontrol.control as ctl

        problem = catalog_problem("lq-1d", modes=8, n_steps=64, seed=36)
        measure = ctl.Measure(kind="lebesgue")
        problem.cost = ctl.CostSpec(
            running=lambda t, s, u: (u**2 / math.pi) * np.ones_like(np.asarray(s, dtype=float)),
            running_dsigma=lambda t, s, u: np.zeros_like(np.asarray(s, dtype=float)),
            terminal=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
            terminal_dsigma=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
            measure=measure)
        control = constant_control_for(problem, 0.0)
        report = cost_expansion_check(problem, control, w=0.8, t0=0.5,
                                      epsilons=[1 / 8, 1 / 16, 1 / 32], n_paths=16, seed=36)
        assert all(r["residual"] < 1e-12 for r in report["rows"])

    def test_lq_residual_slope_near_two(self):
        problem = catalog_problem("lq-1d", modes=16, n_steps=128, seed=37)
        control = constant_control_for(problem, 0.0)
        report = cost_expansion_check(problem, control, w=0.8, t0=0.5,
                                      epsilons=[1 / 8, 1 / 16, 1 / 32, 1 / 64],
                                      n_paths=64, seed=37)
        assert 1.7 <= report["slope"]["slope"] <= 2.3


class TestFitLogLog:
    def test_recovers_power_law(self):
        eps = np.array([0.1, 0.05, 0.025, 0.0125])
        vals = 3.0 * eps**2.5
        fit = fit_loglog(eps, vals)
        assert fit["slope"] == pytest.approx(2.5, abs=1e-9)

    def test_drops_noisy_smallest(self):
        eps = [0.1, 0.05, 0.025]
        vals = [1e-2, 2.5e-3, 9e-4]
        fit_all = fit_loglog(eps, vals, stderrs=[1e-4, 1e-4, 1e-5])
        fit_drop = fit_loglog(eps, vals, stderrs=[1e-4, 1e-4, 9e-4])
        assert fit_all["used"] == 3
        assert fit_drop["used"] == 2
