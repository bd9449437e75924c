"""Spike variations and the order estimates behind the optimality argument.

A spike replaces the control on a short window [t0, t0 + eps) and the
perturbed state is rerun with the identical noise path (the ensemble
stepper driven by the base ensemble's normals), so the pathwise
differences isolate the control effect.  Before t0 the spiked rerun equals
the base bit for bit and the first variation is exactly zero, so both are
stepped from the spike start only, on the base's noise, and the ensemble
first variation holds only those rows.  The order study uses the rerun's
rows from the spike on too; the cost expansion copies the base prefix into
the rerun, whose full cost it needs.  The studies here fit the growth orders
in eps of

    xi  = X_spiked - X          (first-order response, O(eps)),
    Y   = solution of the linearized equation forced by the drift mismatch,
    eta = xi - Y                (what linearization misses, o(eps)),

and of the cost-expansion remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control import ControlProblem, cost_of_ensemble, trapezoid_weights
from .errors import ConfigurationError, GridError, InstabilityError
from .forward import (BLOWUP_BOUND, ControlProcess, EnsembleStates, StateTrajectory,
                      _exp_euler, linearized_modes, simulate_ensemble)
from .noise import convolution_increments
from .spectral import SpectralDomain


@dataclass(frozen=True)
class SpikeConfig:
    """Replacement window [t0, t0 + epsilon) with control value w.

    Both endpoints must be grid-aligned and the closed window must stay
    strictly inside (0, T).
    """

    t0: float
    epsilon: float
    w: float


def _spike_steps(spike: SpikeConfig, dt: float, n_steps: int) -> tuple[int, int]:
    start = spike.t0 / dt
    width = spike.epsilon / dt
    if abs(start - round(start)) > 1e-9 or abs(width - round(width)) > 1e-9:
        raise GridError(f"spike [{spike.t0}, {spike.t0 + spike.epsilon}] is not aligned "
                        f"with the step dt={dt}")
    start, width = int(round(start)), int(round(width))
    if width < 1:
        raise GridError("spike must cover at least one step")
    if start < 1 or start + width >= n_steps:
        raise GridError("spike window must sit strictly inside (0, T)")
    return start, width


def _spike_window(control: ControlProcess, spike: SpikeConfig,
                  horizon: float) -> tuple[ControlProcess, int]:
    """The spiked control and the step its window starts on."""
    n_steps = len(control)
    start, width = _spike_steps(spike, horizon / n_steps, n_steps)
    values = control.values.copy()
    values[start:start + width] = spike.w
    return ControlProcess(values=values, space=control.space), start


def spike_perturb(control: ControlProcess, spike: SpikeConfig, horizon: float) -> ControlProcess:
    """Control equal to w on the spike window and unchanged elsewhere."""
    return _spike_window(control, spike, horizon)[0]


def _spiked_tail(problem: ControlProblem, base: EnsembleStates,
                 spiked: ControlProcess, start: int) -> np.ndarray:
    """Rows ``start:`` of the rerun of ``base`` under ``spiked`` on the same noise.

    Before the spike the controls agree and the noise is shared, so the
    rerun's rows ``:start`` equal the base rows bit for bit.
    """
    domain, dt = problem.domain, problem.horizon / len(spiked)
    increments = convolution_increments(domain, problem.noise, base.normals[:, start:], dt)
    return _exp_euler(domain, problem.drift, spiked.values[start:], base.modes[:, start],
                      increments, dt, BLOWUP_BOUND, first_step=start)


def _spiked_ensemble(problem: ControlProblem, base: EnsembleStates,
                     spiked: ControlProcess, start: int) -> EnsembleStates:
    """The full rerun: base rows ``:start`` followed by the stepped tail."""
    modes = np.concatenate([base.modes[:, :start],
                            _spiked_tail(problem, base, spiked, start)], axis=1)
    return EnsembleStates(domain=problem.domain, times=base.times, modes=modes,
                          normals=base.normals, control=spiked, root_seed=base.root_seed)


def _first_variation_modes(domain: SpectralDomain, drift, base_modes: np.ndarray,
                           control: ControlProcess, spike: SpikeConfig,
                           times: np.ndarray) -> tuple[np.ndarray, int]:
    """Y for (P, n_steps + 1, N) base paths from the spike start on, and that start.

    Y is exactly zero up to the spike start, so only the rows from it on are
    stepped and returned, shape (P, n_steps + 1 - start, N).  The forcing is
    the drift mismatch and has no noise term.
    """
    spiked, start = _spike_window(control, spike, float(times[-1]))
    base_values, spiked_values = control.values[start:], spiked.values[start:]

    def gamma_fn(n, modes):
        # delta F_t = F(X_t, u^eps_t) - F(X_t, u_t), zero off the spike
        if spiked_values[n] == base_values[n]:
            return np.zeros_like(modes)
        fields = domain.to_field(modes)
        return domain.to_coeffs(drift.f(fields, spiked_values[n])
                                - drift.f(fields, base_values[n]))

    try:
        rows = linearized_modes(domain, drift, base_modes[:, start:], None,
                                base_values, float(times[1] - times[0]),
                                gamma_fn=gamma_fn)
    except InstabilityError as err:
        step = start + err.step
        raise InstabilityError(f"first variation turned non-finite in step {step}",
                               step=step) from err
    return rows, start


def first_variation(domain: SpectralDomain, drift, base: StateTrajectory,
                    spike: SpikeConfig) -> StateTrajectory:
    """Linearized response Y to the spike's drift mismatch along ``base``."""
    rows, start = _first_variation_modes(domain, drift, base.mode_coeffs[None], base.control,
                                         spike, base.times)
    coeffs = np.zeros(base.mode_coeffs.shape)
    coeffs[start:] = rows[0]
    return StateTrajectory(domain=domain, times=base.times, mode_coeffs=coeffs,
                           control=base.control, path_seed=base.path_seed,
                           normals=base.normals)


def first_variation_ensemble(domain: SpectralDomain, drift, base: EnsembleStates,
                             spike: SpikeConfig) -> np.ndarray:
    """Y along every base path from the spike start on, shape (P, n_steps + 1 - start, N).

    Row ``i`` is grid node ``start + i``; Y is exactly zero before the
    spike start, so those rows are not built.
    """
    return _first_variation_modes(domain, drift, base.modes, base.control, spike,
                                  base.times)[0]


def fit_loglog(epsilons, estimates, stderrs=None, drop_rel_stderr: float = 0.25):
    """Least-squares slope of log(estimate) vs log(epsilon).

    The smallest epsilon is dropped when its Monte Carlo relative standard
    error exceeds ``drop_rel_stderr`` (variance dominates bias there).
    A fit that cannot be made returns NaNs and a ``"reason"``.
    """
    eps = np.asarray(epsilons, dtype=float)
    vals = np.asarray(estimates, dtype=float)
    keep = np.ones(eps.size, dtype=bool)
    if stderrs is not None and eps.size > 2:
        smallest = int(np.argmin(eps))
        if vals[smallest] <= 0 or stderrs[smallest] / max(vals[smallest], 1e-300) > drop_rel_stderr:
            keep[smallest] = False
    bad = keep & ~(vals > 0)
    reason = None
    if keep.sum() < 2:
        reason = f"fewer than 2 points to fit ({int(keep.sum())} kept of {eps.size})"
    elif bad.any():
        i = int(np.argmax(bad))
        reason = f"non-positive or NaN estimate {float(vals[i])!r} at epsilon={float(eps[i])!r}"
    if reason is not None:
        return {"slope": float("nan"), "intercept": float("nan"), "stderr": float("nan"),
                "used": int(keep.sum()), "reason": reason}
    x, y = np.log(eps[keep]), np.log(vals[keep])
    if x.size == 2:
        slope = (y[1] - y[0]) / (x[1] - x[0])
        return {"slope": float(slope), "intercept": float(y[0] - slope * x[0]),
                "stderr": float("nan"), "used": 2}
    coeffs, cov = np.polyfit(x, y, 1, cov=True)
    return {"slope": float(coeffs[0]), "intercept": float(coeffs[1]),
            "stderr": float(np.sqrt(cov[0, 0])), "used": int(keep.sum())}


def spike_order_study(problem: ControlProblem, control: ControlProcess,
                      w: float, t0: float, epsilons, n_paths: int = 200,
                      seed=None) -> dict:
    """Fit the eps-orders of sup-norm second moments of (xi, Y, eta).

    Every epsilon reruns the same noise paths; expected slopes are about 2
    for xi and Y and strictly larger for eta.
    """
    epsilons = sorted(float(e) for e in epsilons)
    if len(epsilons) < 3:
        raise ConfigurationError("need at least three epsilons to fit an order")
    spikes = [SpikeConfig(t0=t0, epsilon=eps, w=w) for eps in epsilons]
    # every window is checked against the grid before the base ensemble is simulated
    windows = [_spike_window(control, spike, problem.horizon) for spike in spikes]
    seed = seed if seed is not None else problem.noise.seed
    domain = problem.domain
    n_steps = len(control)
    base = simulate_ensemble(domain, problem.drift, problem.noise, control, problem.x0,
                             n_steps, problem.horizon, n_paths, seed)

    rows = []
    sup2 = {}
    for eps, spike, (spiked_control, start) in zip(epsilons, spikes, windows):
        tail = _spiked_tail(problem, base, spiked_control, start)
        y_modes = first_variation_ensemble(domain, problem.drift, base, spike)

        # rows before the spike are exactly zero in all three
        xi = tail - base.modes[:, start:]
        eta = xi - y_modes
        for label, arr in (("xi", xi), ("Y", y_modes), ("eta", eta)):
            sup_t = np.max(domain.sup_norm(arr), axis=1) ** 2     # per path
            est = float(sup_t.mean())
            se = float(sup_t.std(ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
            rows.append({"epsilon": eps, "quantity": label, "estimate": est, "stderr": se})
            sup2.setdefault(label, []).append((est, se))

    slopes = {}
    for label, pairs in sup2.items():
        est = [p[0] for p in pairs]
        se = [p[1] for p in pairs]
        slopes[label] = fit_loglog(epsilons, est, se)
    return {"rows": rows, "slopes": slopes, "epsilons": epsilons,
            "n_paths": n_paths, "t0": t0, "w": w}


def cost_expansion_check(problem: ControlProblem, control: ControlProcess,
                         w: float, t0: float, epsilons, n_paths: int = 200,
                         seed=None) -> dict:
    """Remainder of the first-order cost expansion across spike widths.

    R(eps) = |J(u^eps) - J(u) - first-order term| with the first-order term
    E int [delta L + D_x L . Y] dt + E[D_x G(X_T) Y_T], all under common
    random numbers; its log-log slope should exceed 1.
    """
    epsilons = sorted(float(e) for e in epsilons)
    if len(epsilons) < 3:
        raise ConfigurationError("need at least three epsilons to fit an order")
    spikes = [SpikeConfig(t0=t0, epsilon=eps, w=w) for eps in epsilons]
    # every window is checked against the grid before the base ensemble is simulated
    windows = [_spike_window(control, spike, problem.horizon) for spike in spikes]
    seed = seed if seed is not None else problem.noise.seed
    domain, cost = problem.domain, problem.cost
    n_steps = len(control)
    base = simulate_ensemble(domain, problem.drift, problem.noise, control, problem.x0,
                             n_steps, problem.horizon, n_paths, seed)
    dt = base.dt
    j_base = cost_of_ensemble(problem, base)
    wq = trapezoid_weights(n_steps, dt)

    rows = []
    for eps, spike, (spiked_control, start) in zip(epsilons, spikes, windows):
        perturbed = _spiked_ensemble(problem, base, spiked_control, start)
        j_spiked = cost_of_ensemble(problem, perturbed)
        delta_j = float((j_spiked - j_base).mean())

        y_modes = first_variation_ensemble(domain, problem.drift, base, spike)
        first_order = np.zeros(base.n_paths)
        for n in range(start, n_steps + 1):     # Y and delta L vanish before the spike
            u_n = control.values[min(n, n_steps - 1)]
            ue_n = spiked_control.values[min(n, n_steps - 1)]
            if ue_n != u_n:
                first_order += wq[n] * (
                    cost.running_value(domain, base.times[n], base.modes[:, n], ue_n)
                    - cost.running_value(domain, base.times[n], base.modes[:, n], u_n))
            dl = cost.running_gradient_coeffs(domain, base.times[n], base.modes[:, n], u_n)
            first_order += wq[n] * np.sum(dl * y_modes[:, n - start], axis=1)
        dg = cost.terminal_gradient_coeffs(domain, base.modes[:, -1])
        first_order += np.sum(dg * y_modes[:, -1], axis=1)

        residual = abs(delta_j - float(first_order.mean()))
        rows.append({"epsilon": eps, "delta_j": delta_j,
                     "first_order": float(first_order.mean()), "residual": residual})

    fit = fit_loglog(epsilons, [r["residual"] for r in rows])
    return {"rows": rows, "slope": fit, "epsilons": epsilons, "n_paths": n_paths}
