import math

import numpy as np
import pytest

import spdecontrol.forward
from spdecontrol.adjoint import adjoint_to_binary, read_binary_adjoint
from spdecontrol.control import catalog_problem
from spdecontrol.errors import (ConfigurationError, InstabilityError, ShapeError)
from spdecontrol.forward import (ControlProcess, _exp_euler, _exp_euler_nodes, constant_control,
                                 linearized_modes, read_binary_trajectory, simulate_ensemble,
                                 trajectory_to_binary, trajectory_to_csv, weight_cell_integrals)
from spdecontrol.noise import (NoiseModel, PathRecord, aggregate_increments,
                               convolution_increments, increment_scale, sample_convolution,
                               wiener_normals)
from spdecontrol.nonlinearity import ControlSpace, NemytskiiDrift, cubic_drift, linear_drift
from spdecontrol.spectral import make_domain

SPACE = ControlSpace(kind="interval", lower=-1.0, upper=1.0)

ZERO_DRIFT = NemytskiiDrift(
    f=lambda s, u: np.zeros_like(np.asarray(s, dtype=float)),
    f_prime=lambda s, u: np.zeros_like(np.asarray(s, dtype=float)),
    growth_degree=0, growth_const=1.0,
    dissipativity_bound=0.0, name="zero")


def unit_mode(domain, k=0):
    x = np.zeros(domain.n_modes)
    x[k] = 1.0
    return x


class TestSimulateState:
    """The exponential-Euler stepper, driven through ``simulate_ensemble``."""

    def test_pure_heat_decay_exact(self):
        dom = make_domain(1, 16)
        noise = NoiseModel(dom, 0.5, 0.25, 1)
        ens = simulate_ensemble(dom, ZERO_DRIFT, noise, constant_control(SPACE, 0.0, 64),
                                unit_mode(dom), 1.0, 1, 0, normals=np.zeros((1, 64, 16)))
        assert ens.modes[0, -1, 0] == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert np.max(np.abs(ens.modes[0, -1, 1:])) == 0.0

    def test_linear_drift_first_order_in_dt(self):
        dom = make_domain(1, 16)
        noise = NoiseModel(dom, 0.5, 0.25, 1)
        errs = []
        for n in (64, 128):
            ens = simulate_ensemble(dom, linear_drift(), noise,
                                    constant_control(SPACE, 0.0, n), unit_mode(dom),
                                    1.0, 1, 0, normals=np.zeros((1, n, 16)))
            errs.append(abs(ens.modes[0, -1, 0] - math.exp(-2.0)))
        assert errs[1] < errs[0]
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.25)

    def test_determinism_with_noise(self):
        dom = make_domain(1, 8)
        noise = NoiseModel(dom, 0.5, 0.25, 5)
        args = (dom, cubic_drift(), noise, constant_control(SPACE, 0.2, 32),
                0.1 * unit_mode(dom), 1.0, 3, 5)
        a, b = simulate_ensemble(*args), simulate_ensemble(*args)
        assert np.array_equal(a.modes, b.modes)

    def test_mild_consistency_zero_drift(self):
        # with no reaction the path is exactly semigroup decay + convolution
        dom = make_domain(1, 12)
        noise = NoiseModel(dom, 0.5, 0.25, 9)
        x0 = 0.7 * unit_mode(dom) + 0.2 * unit_mode(dom, 3)
        ens = simulate_ensemble(dom, ZERO_DRIFT, noise, constant_control(SPACE, 0.0, 40),
                                x0, 1.0, 1, 9)
        conv = sample_convolution(dom, noise, 40, 1.0, (9, "wiener", 0))
        expected = x0 * np.exp(-np.outer(ens.times, dom.eigenvalues)) + conv.mode_coeffs
        assert np.max(np.abs(ens.modes[0] - expected)) < 1e-13

    def test_stability_guard(self):
        dom = make_domain(1, 8)
        with pytest.raises(ConfigurationError):
            simulate_ensemble(dom, cubic_drift(a=1.0), NoiseModel(dom, 0.5, 0.25, 1),
                              constant_control(SPACE, 0.0, 4), unit_mode(dom), 8.0, 1, 0)

    def test_problem_and_ensemble_refuse_one_step_count_alike(self):
        # cubic-1d has beta = 1: on a horizon of 2.5, 3 steps are stable and 1 is not
        problem = catalog_problem("cubic-1d", modes=8, n_steps=3, horizon=2.5)
        with pytest.raises(ConfigurationError) as built:
            catalog_problem("cubic-1d", modes=8, n_steps=1, horizon=2.5)
        with pytest.raises(ConfigurationError) as simulated:
            simulate_ensemble(problem.domain, problem.drift, problem.noise,
                              constant_control(SPACE, 0.0, 1), problem.x0, 2.5, 1, 0)
        assert str(built.value) == str(simulated.value) == \
            "dt*beta = 2.5 must stay below 1; raise n_steps above 2 or weaken the drift"

    # one state path, and a batch of two
    @pytest.mark.parametrize("n_paths", [1, 2], ids=["state", "ensemble"])
    def test_blowup_guard_names_step(self, monkeypatch, n_paths):
        growth = NemytskiiDrift(
            f=lambda s, u: 3.0 * s, f_prime=lambda s, u: 3.0 * np.ones_like(np.asarray(s)),
            growth_degree=1, growth_const=4.0, dissipativity_bound=3.0, name="amplifier")
        dom = make_domain(1, 8)
        noise = NoiseModel(dom, 0.5, 0.25, 1)
        monkeypatch.setattr(spdecontrol.forward, "BLOWUP_BOUND", 2.0)
        with pytest.raises(InstabilityError) as err:
            # the route spike reruns take: stored normals of a base ensemble
            simulate_ensemble(dom, growth, noise, constant_control(SPACE, 0.0, 64),
                              unit_mode(dom), 1.0, n_paths, 0,
                              normals=np.zeros((n_paths, 64, 8)))
        assert err.value.step is not None and err.value.step > 0

    @pytest.mark.parametrize("n_paths", [1, 2], ids=["state", "ensemble"])
    def test_blowup_in_the_last_step_names_the_final_node(self, n_paths):
        dom = make_domain(1, 8)
        noise = NoiseModel(dom, 0.5, 0.25, 1)
        normals = np.zeros((n_paths, 16, 8))
        normals[-1, 15, 0] = 1e10     # step 15 of 16 fills node 16 on the last path
        with pytest.raises(InstabilityError, match="at step 16") as err:
            simulate_ensemble(dom, ZERO_DRIFT, noise, constant_control(SPACE, 0.0, 16),
                              unit_mode(dom), 1.0, n_paths, 0, normals=normals)
        assert err.value.step == 16

    def test_collected_nodes_and_the_guard_of_a_later_start(self):
        # _exp_euler is the stacked node stream; a tail started at node 5 names
        # the absolute node it blows up at, after yielding the nodes before it
        dom = make_domain(1, 8)
        noise = NoiseModel(dom, 0.5, 0.25, 3)
        dt, values = 1.0 / 16, np.full(16, 0.2)
        normals = np.stack([wiener_normals((3, "wiener", i), 16, 8) for i in range(3)])
        scale = increment_scale(dom, noise, dt)
        x0 = 0.3 * unit_mode(dom)
        modes = _exp_euler(dom, cubic_drift(), values, x0, normals, scale, dt)
        nodes = list(_exp_euler_nodes(dom, cubic_drift(), values, x0, normals, scale, dt))
        assert np.array_equal(modes, np.stack(nodes, axis=1))
        incr = convolution_increments(dom, noise, normals, dt)
        assert np.array_equal(modes, _exp_euler(dom, cubic_drift(), values, x0, incr, 1.0, dt))

        normals[1, 8, 0] = 1e10       # the tail's step 3 fills node 9
        tail = []
        with pytest.raises(InstabilityError, match="at step 9") as err:
            for state in _exp_euler_nodes(dom, cubic_drift(), values[5:], modes[:, 5],
                                          normals[:, 5:], scale, dt, first_step=5):
                tail.append(state)
        assert err.value.step == 9
        assert np.array_equal(np.stack(tail, axis=1), modes[:, 5:9])

    def test_dissipative_sup_norm_damping(self):
        drift = cubic_drift(a=0.0, b=0.0)    # f = -sigma^3
        dom = make_domain(1, 64)
        noise = NoiseModel(dom, 0.5, 0.25, 1)
        x0 = dom.to_coeffs(0.9 * np.sin(dom.collocation_points[:, 0]))
        ens = simulate_ensemble(dom, drift, noise, constant_control(SPACE, 0.0, 128),
                                x0, 1.0, 1, 0, normals=np.zeros((1, 128, 64)))
        sups = dom.sup_norm(ens.modes[0])
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
            return _exp_euler(dom, drift, np.full(n_steps, 0.3), x0, incr[None], 1.0,
                              1.0 / n_steps)[0]

        sq_errs = {32: 0.0, 64: 0.0}
        for i in range(8):
            normals = wiener_normals((13, "wiener", i), n_fine, 16)
            incr_fine = convolution_increments(dom, noise, normals, dt_fine)
            for n in sq_errs:
                diff = run(n, incr_fine)[-1] - run(8 * n, incr_fine)[-1]
                sq_errs[n] += np.sum(diff**2) / 8
        ratio = math.sqrt(sq_errs[32] / sq_errs[64])
        assert ratio > 1.8   # at least first order in dt


class TestEnsemble:
    def test_normals_shape_mismatch(self):
        # stored normals from a run on another grid must not be rerun silently
        dom = make_domain(1, 8)
        noise = NoiseModel(dom, 0.5, 0.25, 17)
        ctrl = constant_control(SPACE, 0.1, 16)
        with pytest.raises(ShapeError):
            simulate_ensemble(dom, cubic_drift(), noise, ctrl, 0.2 * unit_mode(dom),
                              1.0, 3, 17, normals=np.zeros((3, 8, 8)))

    def test_x0_shape_mismatch(self):
        dom = make_domain(1, 8)
        with pytest.raises(ShapeError):
            simulate_ensemble(dom, cubic_drift(), NoiseModel(dom, 0.5, 0.25, 1),
                              constant_control(SPACE, 0.0, 4), np.zeros(9), 1.0, 2, 0)


class TestAuxiliary:
    """``linearized_modes`` along a batch of base paths."""

    N_PATHS = 2

    def _base(self, drift, n_steps=64, modes=12, seed=3):
        dom = make_domain(1, modes)
        noise = NoiseModel(dom, 0.5, 0.25, seed)
        ctrl = constant_control(SPACE, 0.0, n_steps)
        base = simulate_ensemble(dom, drift, noise, ctrl, 0.3 * unit_mode(dom),
                                 1.0, self.N_PATHS, seed)
        return dom, noise, base

    @staticmethod
    def _stream(dom, drift, base, gamma=None, eta=None):
        gamma_fn = None if gamma is None else (lambda n, _: gamma)
        return linearized_modes(dom, drift, base.modes, base.normals, base.control.values,
                                base.dt, gamma_fn=gamma_fn, forcing_eta=eta)

    def _solve(self, *args, **kwargs):
        """The stream's nodes collected into modes of shape (P, n_steps + 1, N)."""
        return np.stack(list(self._stream(*args, **kwargs)), axis=1)

    def test_zero_forcings_zero_solution(self):
        dom, _, base = self._base(cubic_drift())
        assert np.all(self._solve(dom, cubic_drift(), base) == 0.0)

    def test_constant_gamma_closed_form(self):
        g = np.zeros(12)
        g[0], g[2] = 1.0, -0.5
        errs = []
        for n_steps in (64, 128):
            dom, _, base = self._base(linear_drift(), n_steps=n_steps)
            y = self._solve(dom, linear_drift(), base, gamma=g)
            nu = dom.eigenvalues + 1.0
            expected = g * (1.0 - np.exp(-nu * 1.0)) / nu
            errs.append(np.max(np.abs(y[:, -1] - expected)))
        assert errs[1] < errs[0]
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.3)

    def test_eta_covariance_reproduces_convolution(self):
        dom, noise, base = self._base(ZERO_DRIFT)
        y = self._solve(dom, ZERO_DRIFT, base, eta=noise.b_coeffs)
        for i in range(self.N_PATHS):
            conv = sample_convolution(dom, noise, 64, 1.0, (3, "wiener", i))
            assert np.max(np.abs(y[i] - conv.mode_coeffs)) < 1e-14

    def test_superposition_exact(self):
        dom, noise, base = self._base(cubic_drift())
        rng = np.random.default_rng(0)
        g1 = rng.standard_normal(dom.n_modes)
        g2 = rng.standard_normal(dom.n_modes)
        y1 = self._solve(dom, cubic_drift(), base, gamma=g1)
        y2 = self._solve(dom, cubic_drift(), base, gamma=g2)
        y12 = self._solve(dom, cubic_drift(), base, gamma=g1 + g2)
        assert np.max(np.abs(y12 - y1 - y2)) < 1e-12

    def test_eta_must_be_diagonal(self):
        # raised at the call, before any node is drawn
        dom, _, base = self._base(ZERO_DRIFT, modes=4)
        with pytest.raises(ShapeError):
            self._stream(dom, ZERO_DRIFT, base, eta=np.eye(4))

    def test_nonfinite_solution_names_step(self):
        dom, _, base = self._base(cubic_drift())
        base.modes = base.modes.copy()
        base.modes[1, 5, 2] = np.nan
        nodes = []
        with pytest.raises(InstabilityError, match="step 5") as err:
            for node in self._stream(dom, cubic_drift(), base, gamma=np.ones(dom.n_modes)):
                nodes.append(node)
        # step 5 reads base node 5 and produces node 6, which is never yielded
        assert err.value.step == 5 and len(nodes) == 6


class TestForwardBound:
    """Cell integrals of the (T - s)^lambda weight of the adjoint's weighted norms."""

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
        traj = simulate_ensemble(dom, ZERO_DRIFT, noise, constant_control(SPACE, 0.0, 8),
                                 np.arange(6.0), 0.5, 1, 2).trajectory(0)
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

    @pytest.mark.parametrize("write, read", [(trajectory_to_binary, read_binary_trajectory),
                                             (adjoint_to_binary, read_binary_adjoint)],
                             ids=["SPDT", "SPDA"])
    @pytest.mark.parametrize("damage, message", [
        (lambda data: data[:-8], "holds 112 matrix bytes"),
        (lambda data: data + bytes(8), "holds 128 matrix bytes"),
        (lambda data: data[:12], "truncated inside its header"),
        (lambda data: b"SPDX" + data[4:], "not a")], ids=["short", "trailing", "header", "magic"])
    def test_damaged_snapshot_is_refused(self, tmp_path, write, read, damage, message):
        record = PathRecord(times=np.linspace(0.0, 0.5, 5),
                            mode_coeffs=np.arange(15.0).reshape(5, 3))
        path = tmp_path / "snapshot.bin"
        write(record, path)
        horizon, data = read(path)
        assert horizon == 0.5 and np.array_equal(data, record.mode_coeffs)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ConfigurationError, match=message):
            read(path)

    def test_control_validation(self):
        with pytest.raises(ConfigurationError):
            ControlProcess(values=np.array([0.0, 2.0]), space=SPACE)
