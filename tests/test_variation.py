import copy
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import spdecontrol.forward
import spdecontrol.variation
from spdecontrol.control import catalog_problem, constant_control_for, cost_of_ensemble
from spdecontrol.errors import ConfigurationError, GridError, InstabilityError
from spdecontrol.forward import constant_control, linearized_modes, simulate_ensemble
from spdecontrol.noise import NoiseModel
from spdecontrol.nonlinearity import ControlSpace, linear_drift
from spdecontrol.spectral import make_domain
from spdecontrol.variation import (SpikeConfig, _spike_sup_norms, _spike_window, _spiked_tail,
                                   cost_expansion_check, first_variation_ensemble, fit_loglog,
                                   spike_order_study)

SPACE = ControlSpace(kind="interval", lower=-1.0, upper=1.0)


class TestSpikePerturb:
    """Spiked controls and their windows, as ``_spike_window`` builds them."""

    def test_zero_width_rejected(self):
        ctrl = constant_control(SPACE, 0.0, 10)
        with pytest.raises(GridError):
            _spike_window(ctrl, SpikeConfig(t0=0.5, epsilon=0.0, w=1.0), 1.0)

    def test_misaligned_rejected(self):
        ctrl = constant_control(SPACE, 0.0, 10)
        with pytest.raises(GridError):
            _spike_window(ctrl, SpikeConfig(t0=0.55, epsilon=0.1, w=1.0), 1.0)

    def test_spike_at_boundary_rejected(self):
        ctrl = constant_control(SPACE, 0.0, 10)
        with pytest.raises(GridError):
            _spike_window(ctrl, SpikeConfig(t0=0.0, epsilon=0.1, w=1.0), 1.0)
        with pytest.raises(GridError):
            _spike_window(ctrl, SpikeConfig(t0=0.9, epsilon=0.1, w=1.0), 1.0)

    def test_noop_spike(self):
        ctrl = constant_control(SPACE, 0.3, 10)
        out, _ = _spike_window(ctrl, SpikeConfig(t0=0.5, epsilon=0.1, w=0.3), 1.0)
        assert np.array_equal(out.values, ctrl.values)

    def test_indicator_construction(self):
        ctrl = constant_control(SPACE, 0.0, 10)
        out, start = _spike_window(ctrl, SpikeConfig(t0=0.5, epsilon=0.1, w=1.0), 1.0)
        expected = np.zeros(10)
        expected[5] = 1.0
        assert np.array_equal(out.values, expected) and start == 5


def _linear_base(n_steps=128, modes=16, seed=4, u0=0.0, n_paths=2):
    dom = make_domain(1, modes)
    noise = NoiseModel(dom, 0.5, 0.25, seed)
    ctrl = constant_control(SPACE, u0, n_steps)
    base = simulate_ensemble(dom, linear_drift(), noise, ctrl, np.zeros(modes),
                             1.0, n_paths, seed)
    return dom, base


def _collect(nodes):
    """The (P, N) nodes of a linearized stream stacked into shape (P, n_nodes, N)."""
    return np.stack(list(nodes), axis=1)


def _full_horizon(y, base):
    """First-variation rows from the spike start on, zero-padded to every grid node."""
    out = np.zeros(base.modes.shape)
    out[:, out.shape[1] - y.shape[1]:] = y
    return out


class TestFirstVariation:
    def test_noop_spike_gives_zero(self):
        dom, base = _linear_base()
        y = _collect(first_variation_ensemble(dom, linear_drift(), base,
                                              SpikeConfig(0.5, 0.125, 0.0)))
        assert np.all(y == 0.0)

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
            y = _collect(first_variation_ensemble(dom, linear_drift(), base,
                                                  SpikeConfig(t0, eps, w)))
            nu = dom.eigenvalues + 1.0
            integral = (np.exp(-nu * (1.0 - (t0 + eps))) - np.exp(-nu * (1.0 - t0))) / nu
            expected = w * dom.ones_coeffs() * integral
            errs.append(np.max(np.abs(y[:, -1] - expected)))
        assert errs[1] < errs[0]
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.35)

    def test_linearity_in_control_bump(self):
        dom, base = _linear_base()
        y1 = _collect(first_variation_ensemble(dom, linear_drift(), base,
                                               SpikeConfig(0.5, 0.125, 0.4)))
        y2 = _collect(first_variation_ensemble(dom, linear_drift(), base,
                                               SpikeConfig(0.5, 0.125, 0.8)))
        assert np.allclose(2.0 * y1, y2, atol=1e-13)

    def test_disjoint_spike_superposition(self):
        dom, base = _linear_base()
        s1, s2 = SpikeConfig(0.25, 0.0625, 0.5), SpikeConfig(0.625, 0.0625, 0.5)
        y1 = _full_horizon(_collect(first_variation_ensemble(dom, linear_drift(), base, s1)),
                           base)
        y2 = _full_horizon(_collect(first_variation_ensemble(dom, linear_drift(), base, s2)),
                           base)
        ctrl = base.control
        both = _spike_window(_spike_window(ctrl, s1, 1.0)[0], s2, 1.0)[0]

        # build the two-spike response through the single-spike machinery
        def gamma_fn(n, modes):
            fields = dom.to_field(modes)
            diff = linear_drift().f(fields, both.values[n]) - linear_drift().f(fields, ctrl.values[n])
            return dom.to_coeffs(diff)

        y12 = _collect(linearized_modes(dom, linear_drift(), base.modes, base.normals,
                                        ctrl.values, base.dt, gamma_fn=gamma_fn))
        assert np.max(np.abs(y12 - y1 - y2)) < 1e-13


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
        spiked, _ = _spike_window(control, spike, 1.0)
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
        spiked, _ = _spike_window(control, spike, 1.0)
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


class TestSpikeWindow:
    """Stepping from the spike start gives the full-horizon bits."""

    @pytest.fixture(scope="class")
    @staticmethod
    def cubic():
        problem = catalog_problem("cubic-1d", modes=32, n_steps=128, seed=41)
        control = constant_control_for(problem, 0.0)
        return problem, control, problem.ensemble(control, 16, 41)

    # t0 = T/2 and the earliest legal start, one step in
    SPIKES = [SpikeConfig(0.5, 0.125, 0.8), SpikeConfig(1 / 128, 1 / 32, -0.6)]

    @pytest.mark.parametrize("spike", SPIKES)
    def test_rerun_equals_full_horizon_rerun(self, cubic, spike):
        problem, control, base = cubic
        spiked, _ = _spike_window(control, spike, problem.horizon)
        start = int(round(spike.t0 / base.dt))
        tail = np.stack(list(_spiked_tail(problem, base, spiked, start)), axis=1)
        full = problem.ensemble(spiked, base.n_paths, 41, normals=base.normals)
        # the base nodes before the spike, then the tail, are the full rerun's nodes
        assert np.array_equal(full.modes[:, :start], base.modes[:, :start])
        assert np.array_equal(tail, full.modes[:, start:])

    @pytest.mark.parametrize("spike", SPIKES)
    def test_first_variation_equals_full_horizon_solve(self, cubic, spike):
        problem, control, base = cubic
        dom, drift = problem.domain, problem.drift
        spiked, _ = _spike_window(control, spike, problem.horizon)

        def gamma_fn(n, modes):
            if spiked.values[n] == control.values[n]:
                return np.zeros_like(modes)
            fields = dom.to_field(modes)
            return dom.to_coeffs(drift.f(fields, spiked.values[n])
                                 - drift.f(fields, control.values[n]))

        reference = _collect(linearized_modes(dom, drift, base.modes, base.normals,
                                              control.values, base.dt, gamma_fn=gamma_fn))
        # only the nodes from the spike start on are yielded; the full solve is zero before it
        y = _collect(first_variation_ensemble(dom, drift, base, spike))
        start = int(round(spike.t0 / base.dt))
        assert y.shape == (base.n_paths, base.modes.shape[1] - start, dom.n_modes)
        assert np.array_equal(y, reference[:, start:]) and np.all(reference[:, :start] == 0.0)
        assert np.all(y[:, 0] == 0.0) and np.any(y[:, 1] != 0.0)

    def test_failures_name_the_absolute_step(self, cubic):
        problem, control, base = cubic
        spike = self.SPIKES[0]
        start = int(round(spike.t0 / base.dt))
        broken = copy.copy(base)
        broken.modes = base.modes.copy()
        broken.modes[3, start + 4, 0] = np.nan
        with pytest.raises(InstabilityError, match=f"step {start + 4}") as err:
            list(first_variation_ensemble(problem.domain, problem.drift, broken, spike))
        assert err.value.step == start + 4
        broken.modes[3, start, 0] = 1e7
        spiked, _ = _spike_window(control, spike, problem.horizon)
        with pytest.raises(InstabilityError, match=f"step {start}") as err:
            list(_spiked_tail(problem, broken, spiked, start))
        assert err.value.step == start

    def test_the_earlier_failure_is_raised(self, cubic):
        # a huge normal blows the rerun up at node start + 3; Y fails at a later node, then
        # at an earlier one, and whichever failure comes at the earlier node is raised
        problem, control, base = cubic
        spike = self.SPIKES[0]
        spiked, start = _spike_window(control, spike, problem.horizon)
        broken = copy.copy(base)
        broken.modes, broken.normals = base.modes.copy(), base.normals.copy()
        broken.normals[3, start + 2, 0] = 1e9
        for y_step, raised in ((start + 6, start + 3), (start + 1, start + 1)):
            broken.modes[3, y_step, 0] = np.nan
            with pytest.raises(InstabilityError) as err:
                _spike_sup_norms(problem, broken, spike, spiked, start)
            assert err.value.step == raised

    def test_study_steps_only_after_the_spike(self, monkeypatch):
        # the base is stepped once over the horizon, every epsilon only from the spike on
        stepped = {"exp_euler": [], "linearized": []}
        exp_euler, linearized = spdecontrol.forward._exp_euler_nodes, linearized_modes

        def counting_exp_euler(domain, drift, values, x0, normals, *args, **kwargs):
            stepped["exp_euler"].append(normals.shape[1])
            return exp_euler(domain, drift, values, x0, normals, *args, **kwargs)

        def counting_linearized(domain, drift, base_modes, *args, **kwargs):
            stepped["linearized"].append(base_modes.shape[1] - 1)
            return linearized(domain, drift, base_modes, *args, **kwargs)

        for module in (spdecontrol.forward, spdecontrol.variation):
            monkeypatch.setattr(module, "_exp_euler_nodes", counting_exp_euler)
            monkeypatch.setattr(module, "linearized_modes", counting_linearized)
        problem = catalog_problem("cubic-1d", modes=16, n_steps=64, seed=42)
        control = constant_control_for(problem, 0.0)
        spike_order_study(problem, control, w=0.8, t0=0.5,
                          epsilons=[1 / 8, 1 / 16, 1 / 32], n_paths=8, seed=42)
        start = 32
        assert stepped == {"exp_euler": [64] + [64 - start] * 3,
                           "linearized": [64 - start] * 3}

    def test_study_builds_only_the_window(self, monkeypatch):
        # the zero nodes of Y before the spike are not stepped (nor is any Y or rerun array
        # built: both are streamed, as the traced peaks of TestStudyReducesAsItSteps show)
        shapes = []
        first_variation = spdecontrol.variation.first_variation_ensemble

        def recording(*args, **kwargs):
            nodes = []
            shapes.append(nodes)
            for node in first_variation(*args, **kwargs):
                nodes.append(node.shape)
                yield node

        monkeypatch.setattr(spdecontrol.variation, "first_variation_ensemble", recording)
        problem = catalog_problem("cubic-1d", modes=16, n_steps=64, seed=42)
        spike_order_study(problem, constant_control_for(problem, 0.0), w=0.8, t0=0.5,
                          epsilons=[1 / 8, 1 / 16, 1 / 32], n_paths=8, seed=42)
        assert shapes == [[(8, 16)] * (64 + 1 - 32)] * 3


class TestStudyReducesAsItSteps:
    """The order study reduces each node as it steps, to the materialized result."""

    # ascending, the order the study reports them in
    EPSILONS = {"cubic-1d": [1 / 32, 1 / 16, 1 / 8], "dirac-2d": [1 / 64, 1 / 32, 1 / 16]}

    N_PATHS, N_MODES, START = 64, 16, 32
    # the base ensemble's normals and modes, and one Y window, in bytes
    NORMALS_AND_MODES = N_PATHS * (64 + 65) * N_MODES * 8
    Y_WINDOW = N_PATHS * (64 + 1 - START) * N_MODES * 8

    def traced_peak(self, study):
        """Peak traced bytes of ``study`` on cubic-1d, 16 modes, 64 steps, 64 paths."""
        problem = catalog_problem("cubic-1d", modes=self.N_MODES, n_steps=64, seed=43)
        control = constant_control_for(problem, 0.0)
        kw = dict(w=0.8, t0=0.5, epsilons=self.EPSILONS["cubic-1d"], seed=43)
        # a first small study, untraced, pays the one-time imports and caches
        study(problem, control, n_paths=2, **kw)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            study(problem, control, n_paths=self.N_PATHS, **kw)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def test_peak_memory_stays_below_one_and_a_half_windows(self):
        peak = self.traced_peak(spike_order_study)
        assert peak - self.NORMALS_AND_MODES < 1.5 * self.Y_WINDOW

    def test_cost_expansion_builds_no_rerun_array(self):
        # a full (P, n_steps + 1, N) rerun per epsilon peaks at over five Y windows
        peak = self.traced_peak(cost_expansion_check)
        assert peak - self.NORMALS_AND_MODES < 3.5 * self.Y_WINDOW

    @pytest.mark.parametrize("study", [spike_order_study, cost_expansion_check],
                             ids=["spike_order_study", "cost_expansion_check"])
    def test_peak_stays_below_three_quarters_of_a_window(self, study):
        # Y is streamed like the rerun; a Y window built per epsilon alone reads one window
        peak = self.traced_peak(study)
        assert peak - self.NORMALS_AND_MODES < 0.75 * self.Y_WINDOW

    @pytest.mark.parametrize("name", ["cubic-1d", "dirac-2d"])
    def test_rows_and_slopes_equal_the_materialized_reference(self, name):
        problem = catalog_problem(name, n_steps=32, seed=44)
        control = constant_control_for(problem, 0.0)
        t0, n_paths = problem.horizon / 2, 24
        report = spike_order_study(problem, control, w=0.8, t0=t0,
                                   epsilons=self.EPSILONS[name], n_paths=n_paths, seed=44)

        base = problem.ensemble(control, n_paths, 44)
        rows, estimates = [], {"xi": [], "Y": [], "eta": []}
        for eps in self.EPSILONS[name]:
            spike = SpikeConfig(t0, eps, 0.8)
            spiked, start = _spike_window(control, spike, problem.horizon)
            rerun = problem.ensemble(spiked, n_paths, 44, normals=base.normals)
            xi = rerun.modes[:, start:] - base.modes[:, start:]
            y = _collect(first_variation_ensemble(problem.domain, problem.drift, base, spike))
            for label, arr in (("xi", xi), ("Y", y), ("eta", xi - y)):
                sup2 = np.max(problem.domain.sup_norm(arr), axis=1) ** 2
                est, se = float(sup2.mean()), float(sup2.std(ddof=1) / math.sqrt(n_paths))
                rows.append({"epsilon": spike.epsilon, "quantity": label,
                             "estimate": est, "stderr": se})
                estimates[label].append((est, se))
        slopes = {label: fit_loglog(report["epsilons"], [e for e, _ in pairs],
                                    [se for _, se in pairs])
                  for label, pairs in estimates.items()}
        assert report["rows"] == rows
        np.testing.assert_equal(report["slopes"], slopes)


_SPIKE_MANIFESTS = """
import json, pathlib, sys
from spdecontrol.cli import run
root = pathlib.Path(sys.argv[1])
for problem in ("cubic-1d", "lq-1d"):
    config = root / f"{problem}.json"
    config.write_text(json.dumps({"problem": problem,
                                  "overrides": {"modes": 16, "n_steps": 64},
                                  "numerics": {"paths": 32, "seed": 7}}))
    for sub in ("spike-orders", "cost-expansion"):
        out = root / f"{problem}-{sub}"
        assert run(sub, str(config), str(out)) == 0
        print((out / "manifest.json").read_text())
"""


def test_spike_study_bytes_independent_of_blas_threads(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    manifests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        (tmp_path / threads).mkdir()
        run = subprocess.run([sys.executable, "-c", _SPIKE_MANIFESTS, str(tmp_path / threads)],
                             env=env, capture_output=True, text=True, timeout=300, check=True)
        manifests.append(run.stdout)
    assert manifests[0].count('"complete": true') == 4
    assert manifests[0] == manifests[1]


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

    @pytest.mark.parametrize("name", ["lq-1d", "cubic-1d"])
    def test_delta_j_equals_the_full_rerun_costs(self, name):
        # summed from the spike start, J(u^eps) - J(u) is the difference of the full costs
        problem = catalog_problem(name, modes=16, n_steps=64, seed=38)
        control = constant_control_for(problem, 0.0)
        epsilons = [1 / 8, 1 / 16, 1 / 32]
        report = cost_expansion_check(problem, control, w=0.8, t0=0.5, epsilons=epsilons,
                                      n_paths=32, seed=38)
        base = problem.ensemble(control, 32, 38)
        j_base = cost_of_ensemble(problem, base)
        for row in report["rows"]:
            spiked, _ = _spike_window(control, SpikeConfig(0.5, row["epsilon"], 0.8),
                                      problem.horizon)
            rerun = problem.ensemble(spiked, 32, 38, normals=base.normals)
            reference = float((cost_of_ensemble(problem, rerun) - j_base).mean())
            assert row["delta_j"] == pytest.approx(reference, rel=1e-12, abs=0)

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
        assert "reason" not in fit_all and "reason" not in fit_drop

    def test_nan_fits_give_a_reason(self):
        eps = [0.03125, 0.015625, 0.0078125]
        fit = fit_loglog(eps, [1e-3, 2e-4, -1e-9])
        assert math.isnan(fit["slope"]) and fit["used"] == 3
        assert fit["reason"] == "non-positive or NaN estimate -1e-09 at epsilon=0.0078125"
        fit = fit_loglog(eps, [1e-3, float("nan"), 1e-5])
        assert "at epsilon=0.015625" in fit["reason"]
        fit = fit_loglog([0.1], [1e-2])
        assert math.isnan(fit["slope"]) and fit["used"] == 1
        assert fit["reason"].startswith("fewer than 2 points")
