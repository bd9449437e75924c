import math

import numpy as np
import pytest

from spdecontrol.errors import (ConfigurationError, InstabilityError, ShapeError)
from spdecontrol.forward import (ControlProcess, constant_control, estimate_forward_bound,
                                 linearized_modes, read_binary_trajectory, simulate_auxiliary,
                                 simulate_ensemble, simulate_state, trajectory_to_binary,
                                 trajectory_to_csv, weight_cell_integrals)
from spdecontrol.noise import (NoiseModel, aggregate_increments, convolution_increments,
                               sample_convolution, wiener_normals)
from spdecontrol.nonlinearity import ControlSpace, NemytskiiDrift, cubic_drift, linear_drift
from spdecontrol.spectral import make_domain

SPACE = ControlSpace(kind="interval", lower=-1.0, upper=1.0)

ZERO_DRIFT = NemytskiiDrift(
    f=lambda s, u: np.zeros_like(np.asarray(s, dtype=float)),
    f_prime=lambda s, u: np.zeros_like(np.asarray(s, dtype=float)),
    growth_degree=0, growth_const=1.0,
    dissipativity_bound=0.0, quasi_dissipativity_shift=1.0, name="zero")


def unit_mode(domain, k=0):
    x = np.zeros(domain.n_modes)
    x[k] = 1.0
    return x


class TestSimulateState:
    def test_pure_heat_decay_exact(self):
        dom = make_domain(1, 16)
        noise = NoiseModel(dom, 0.5, 0.25, 1)
        traj = simulate_state(dom, ZERO_DRIFT, noise, constant_control(SPACE, 0.0, 64),
                              unit_mode(dom), 64, 1.0, 0,
                              noise_increments=np.zeros((64, 16)))
        assert traj.mode_coeffs[-1, 0] == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert np.max(np.abs(traj.mode_coeffs[-1, 1:])) == 0.0

    def test_linear_drift_first_order_in_dt(self):
        dom = make_domain(1, 16)
        noise = NoiseModel(dom, 0.5, 0.25, 1)
        errs = []
        for n in (64, 128):
            traj = simulate_state(dom, linear_drift(), noise,
                                  constant_control(SPACE, 0.0, n), unit_mode(dom),
                                  n, 1.0, 0, noise_increments=np.zeros((n, 16)))
            errs.append(abs(traj.mode_coeffs[-1, 0] - math.exp(-2.0)))
        assert errs[1] < errs[0]
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.25)

    def test_determinism_with_noise(self):
        dom = make_domain(1, 8)
        noise = NoiseModel(dom, 0.5, 0.25, 5)
        args = (dom, cubic_drift(), noise, constant_control(SPACE, 0.2, 32),
                0.1 * unit_mode(dom), 32, 1.0, (5, "wiener", 2))
        a, b = simulate_state(*args), simulate_state(*args)
        assert np.array_equal(a.mode_coeffs, b.mode_coeffs)

    def test_mild_consistency_zero_drift(self):
        # with no reaction the path is exactly semigroup decay + convolution
        dom = make_domain(1, 12)
        noise = NoiseModel(dom, 0.5, 0.25, 9)
        x0 = 0.7 * unit_mode(dom) + 0.2 * unit_mode(dom, 3)
        traj = simulate_state(dom, ZERO_DRIFT, noise, constant_control(SPACE, 0.0, 40),
                              x0, 40, 1.0, (9, "wiener", 0))
        conv = sample_convolution(dom, noise, 40, 1.0, (9, "wiener", 0))
        expected = x0 * np.exp(-np.outer(traj.times, dom.eigenvalues)) + conv.mode_coeffs
        assert np.max(np.abs(traj.mode_coeffs - expected)) < 1e-13

    def test_stability_guard(self):
        dom = make_domain(1, 8)
        with pytest.raises(ConfigurationError):
            simulate_state(dom, cubic_drift(a=1.0), NoiseModel(dom, 0.5, 0.25, 1),
                           constant_control(SPACE, 0.0, 4), unit_mode(dom), 4, 8.0, 0)

    @pytest.mark.parametrize("stepper", ["state", "ensemble"])
    def test_blowup_guard_names_step(self, stepper):
        growth = NemytskiiDrift(
            f=lambda s, u: 3.0 * s, f_prime=lambda s, u: 3.0 * np.ones_like(np.asarray(s)),
            growth_degree=1, growth_const=4.0, dissipativity_bound=3.0,
            quasi_dissipativity_shift=4.0, name="amplifier")
        dom = make_domain(1, 8)
        noise = NoiseModel(dom, 0.5, 0.25, 1)
        args = (dom, growth, noise, constant_control(SPACE, 0.0, 64), unit_mode(dom), 64, 1.0)
        with pytest.raises(InstabilityError) as err:
            if stepper == "state":
                simulate_state(*args, 0, noise_increments=np.zeros((64, 8)), blowup_bound=2.0)
            else:
                # the route spike reruns take: stored normals of a base ensemble
                simulate_ensemble(*args, 2, 0, normals=np.zeros((2, 64, 8)), blowup_bound=2.0)
        assert err.value.step is not None and err.value.step > 0

    @pytest.mark.parametrize("stepper", ["state", "ensemble"])
    def test_blowup_in_the_last_step_names_the_final_node(self, stepper):
        dom = make_domain(1, 8)
        noise = NoiseModel(dom, 0.5, 0.25, 1)
        args = (dom, ZERO_DRIFT, noise, constant_control(SPACE, 0.0, 16), unit_mode(dom), 16, 1.0)
        with pytest.raises(InstabilityError, match="at step 16") as err:
            if stepper == "state":
                increments = np.zeros((16, 8))
                increments[15, 0] = 1e9      # step 15 of 16 fills node 16
                simulate_state(*args, 0, noise_increments=increments)
            else:
                normals = np.zeros((2, 16, 8))
                normals[1, 15, 0] = 1e10
                simulate_ensemble(*args, 2, 0, normals=normals)
        assert err.value.step == 16

    def test_dissipative_sup_norm_damping(self):
        drift = cubic_drift(a=0.0, b=0.0)    # f = -sigma^3
        dom = make_domain(1, 64)
        noise = NoiseModel(dom, 0.5, 0.25, 1)
        x0 = dom.to_coeffs(0.9 * np.sin(dom.collocation_points[:, 0]))
        traj = simulate_state(dom, drift, noise, constant_control(SPACE, 0.0, 128),
                              x0, 128, 1.0, 0, noise_increments=np.zeros((128, 64)))
        sups = traj.sup_norms()
        assert np.all(np.diff(sups) <= 1e-12)

    def test_strong_order_against_fine_reference(self):
        # rms-over-paths error against a dt/8 reference sharing the Wiener
        # path (exact aggregation of fine-step increments); with the noise
        # handled exactly the drift quadrature leaves strong order one
        dom = make_domain(1, 16)
        noise = NoiseModel(dom, 0.5, 0.25, 13)
        drift = cubic_drift()
        n_fine = 4096
        dt_fine = 1.0 / n_fine
        x0 = 0.4 * unit_mode(dom)

        def run(n_steps, incr_fine):
            ratio = n_fine // n_steps
            incr = incr_fine if ratio == 1 else aggregate_increments(
                incr_fine, dom.eigenvalues, dt_fine, ratio)
            return simulate_state(dom, drift, noise, constant_control(SPACE, 0.3, n_steps),
                                  x0, n_steps, 1.0, 0, noise_increments=incr)

        sq_errs = {32: 0.0, 64: 0.0}
        for i in range(8):
            normals = wiener_normals((13, "wiener", i), n_fine, 16)
            incr_fine = convolution_increments(dom, noise, normals, dt_fine)
            for n in sq_errs:
                diff = run(n, incr_fine).mode_coeffs[-1] - run(8 * n, incr_fine).mode_coeffs[-1]
                sq_errs[n] += np.sum(diff**2) / 8
        ratio = math.sqrt(sq_errs[32] / sq_errs[64])
        assert ratio > 1.8   # at least first order in dt

    def test_control_length_mismatch(self):
        dom = make_domain(1, 4)
        with pytest.raises(ShapeError):
            simulate_state(dom, ZERO_DRIFT, NoiseModel(dom, 0.5, 0.25, 1),
                           constant_control(SPACE, 0.0, 5), unit_mode(dom), 8, 1.0, 0)


class TestEnsemble:
    def test_matches_single_paths(self):
        dom = make_domain(1, 8)
        noise = NoiseModel(dom, 0.5, 0.25, 17)
        ctrl = constant_control(SPACE, 0.1, 16)
        ens = simulate_ensemble(dom, cubic_drift(), noise, ctrl, 0.2 * unit_mode(dom),
                                16, 1.0, 3, 17)
        for i in range(3):
            single = simulate_state(dom, cubic_drift(), noise, ctrl, 0.2 * unit_mode(dom),
                                    16, 1.0, (17, "wiener", i))
            assert np.allclose(ens.modes[i], single.mode_coeffs, atol=1e-15)

    def test_normals_shape_mismatch(self):
        # stored normals from a run on another grid must not be rerun silently
        dom = make_domain(1, 8)
        noise = NoiseModel(dom, 0.5, 0.25, 17)
        ctrl = constant_control(SPACE, 0.1, 16)
        with pytest.raises(ShapeError):
            simulate_ensemble(dom, cubic_drift(), noise, ctrl, 0.2 * unit_mode(dom),
                              16, 1.0, 3, 17, normals=np.zeros((3, 8, 8)))


class TestAuxiliary:
    def _base(self, drift, n_steps=64, modes=12, seed=3):
        dom = make_domain(1, modes)
        noise = NoiseModel(dom, 0.5, 0.25, seed)
        ctrl = constant_control(SPACE, 0.0, n_steps)
        base = simulate_state(dom, drift, noise, ctrl, 0.3 * unit_mode(dom),
                              n_steps, 1.0, (seed, "wiener", 0))
        return dom, noise, ctrl, base

    def test_zero_forcings_zero_solution(self):
        dom, _, ctrl, base = self._base(cubic_drift())
        aux = simulate_auxiliary(dom, cubic_drift(), base, ctrl)
        assert np.all(aux.mode_coeffs == 0.0)

    def test_constant_gamma_closed_form(self):
        dom, _, ctrl, base = self._base(linear_drift())
        g = np.zeros(dom.n_modes)
        g[0], g[2] = 1.0, -0.5
        errs = []
        for n_steps in (64, 128):
            dom2, _, ctrl2, base2 = self._base(linear_drift(), n_steps=n_steps)
            aux = simulate_auxiliary(dom2, linear_drift(), base2, ctrl2, forcing_gamma=g)
            nu = dom2.eigenvalues + 1.0
            expected = g * (1.0 - np.exp(-nu * 1.0)) / nu
            errs.append(np.max(np.abs(aux.mode_coeffs[-1] - expected)))
        assert errs[1] < errs[0]
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.3)

    def test_eta_covariance_reproduces_convolution(self):
        dom, noise, ctrl, base = self._base(ZERO_DRIFT)
        aux = simulate_auxiliary(dom, ZERO_DRIFT, base, ctrl,
                                 forcing_eta=noise.b_coeffs)
        conv = sample_convolution(dom, noise, base.n_steps, 1.0, base.path_seed)
        assert np.max(np.abs(aux.mode_coeffs - conv.mode_coeffs)) < 1e-14

    def test_superposition_exact(self):
        dom, noise, ctrl, base = self._base(cubic_drift())
        rng = np.random.default_rng(0)
        g1 = rng.standard_normal(dom.n_modes)
        g2 = rng.standard_normal(dom.n_modes)
        y1 = simulate_auxiliary(dom, cubic_drift(), base, ctrl, forcing_gamma=g1)
        y2 = simulate_auxiliary(dom, cubic_drift(), base, ctrl, forcing_gamma=g2)
        y12 = simulate_auxiliary(dom, cubic_drift(), base, ctrl, forcing_gamma=g1 + g2)
        assert np.max(np.abs(y12.mode_coeffs - y1.mode_coeffs - y2.mode_coeffs)) < 1e-12

    def test_matrix_eta_mixes_noise_modes(self):
        dom, noise, ctrl, base = self._base(ZERO_DRIFT, modes=4)
        eta = np.zeros((4, 4))
        eta[0, 1] = 1.0   # mode 0 driven by noise mode 1
        aux = simulate_auxiliary(dom, ZERO_DRIFT, base, ctrl, forcing_eta=eta)
        assert np.any(aux.mode_coeffs[:, 0] != 0.0)
        assert np.all(aux.mode_coeffs[:, 1:] == 0.0)

    def test_nonfinite_solution_names_step(self):
        dom, _, ctrl, base = self._base(cubic_drift())
        modes = np.repeat(base.mode_coeffs[None], 3, axis=0)
        modes[1, 5, 2] = np.nan
        with pytest.raises(InstabilityError, match="step 5") as err:
            linearized_modes(dom, cubic_drift(), modes, None, ctrl.values, base.dt,
                             forcing_gamma=np.ones(dom.n_modes))
        assert err.value.step == 5


class TestForwardBound:
    def _aux_ensemble(self, gamma, eta, n_paths=20):
        dom = make_domain(1, 8)
        noise = NoiseModel(dom, 0.5, 0.25, 23)
        ctrl = constant_control(SPACE, 0.0, 32)
        paths = []
        for i in range(n_paths):
            base = simulate_state(dom, linear_drift(), noise, ctrl,
                                  np.zeros(8), 32, 1.0, (23, "wiener", i))
            paths.append(simulate_auxiliary(dom, linear_drift(), base, ctrl,
                                            forcing_gamma=gamma, forcing_eta=eta))
        return dom, paths

    def test_zero_forcings(self):
        dom, paths = self._aux_ensemble(None, None, n_paths=3)
        out = estimate_forward_bound(dom, paths)
        assert out["lhs"] == 0.0 and out["rhs"] == 0.0

    def test_quadratic_scaling_exact(self):
        g = np.zeros(8)
        g[0] = 1.0
        dom, paths1 = self._aux_ensemble(g, None)
        _, paths2 = self._aux_ensemble(2.0 * g, None)
        out1 = estimate_forward_bound(dom, paths1, forcing_gamma=g)
        out2 = estimate_forward_bound(dom, paths2, forcing_gamma=2.0 * g)
        assert out2["lhs"] / out1["lhs"] == pytest.approx(4.0, rel=1e-10)
        assert out2["rhs"] / out1["rhs"] == pytest.approx(4.0, rel=1e-10)

    def test_eta_side_bound_finite(self):
        dom = make_domain(1, 8)
        noise = NoiseModel(dom, 0.5, 0.25, 23)
        _, paths = self._aux_ensemble(None, noise.b_coeffs)
        out = estimate_forward_bound(dom, paths, forcing_eta=noise.b_coeffs)
        assert out["lhs"] > 0 and out["rhs"] > 0

    def test_weight_integral_sanity(self):
        lam, horizon = 0.25, 1.0
        cells = weight_cell_integrals(horizon, 128, -lam)
        assert cells.sum() == pytest.approx(horizon ** (1 - lam) / (1 - lam), rel=1e-12)
        cells = weight_cell_integrals(horizon, 128, lam)
        assert cells.sum() == pytest.approx(horizon ** (1 + lam) / (1 + lam), rel=1e-12)


class TestExports:
    def test_csv_and_binary_roundtrip(self, tmp_path):
        dom = make_domain(1, 6)
        noise = NoiseModel(dom, 0.5, 0.25, 2)
        traj = simulate_state(dom, ZERO_DRIFT, noise, constant_control(SPACE, 0.0, 8),
                              np.arange(6.0), 8, 0.5, (2, "wiener", 0))
        csv_path = tmp_path / "traj.csv"
        bin_path = tmp_path / "traj.bin"
        trajectory_to_csv(traj, csv_path)
        trajectory_to_binary(traj, bin_path)

        lines = csv_path.read_text().splitlines()
        assert lines[0] == "time,mode,coefficient"
        assert len(lines) == 1 + 9 * 6

        horizon, data = read_binary_trajectory(bin_path)
        assert horizon == 0.5
        assert np.array_equal(data, traj.mode_coeffs)

    def test_control_validation(self):
        with pytest.raises(ConfigurationError):
            ControlProcess(values=np.array([0.0, 2.0]), space=SPACE)
