"""Spike variations and the order estimates behind the optimality argument.

A spike replaces the control on a short window [t0, t0 + eps) and the
perturbed state is rerun with the identical noise path (the ensemble
stepper driven by the base ensemble's normals), so the pathwise
differences isolate the control effect.  Before t0 the spiked rerun equals
the base bit for bit and the first variation is exactly zero, so both are
streamed from the spike start only, on the base's noise.  Each study
walks a spike once, the rerun's node and then Y's at every node: the
order study keeps per-path running maxima of the sup-norms of xi, Y and
eta, the cost expansion sums the cost difference and the first-order
term, and no rerun, Y, xi or eta array is built.  They fit the orders in
eps of

    xi  = X_spiked - X          (first-order response, O(eps)),
    Y   = solution of the linearized equation forced by the drift mismatch,
    eta = xi - Y                (what linearization misses, o(eps)),

and of the cost-expansion remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control import ControlProblem, trapezoid_weights
from .errors import ConfigurationError, GridError
from .forward import (ControlProcess, EnsembleStates, _exp_euler_nodes, linearized_modes,
                      simulate_ensemble)
from .noise import increment_scale
from .spectral import SpectralDomain

# fit_loglog drops the smallest epsilon above this Monte Carlo relative standard error
DROP_REL_STDERR = 0.25


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


def _spiked_tail(problem: ControlProblem, base: EnsembleStates,
                 spiked: ControlProcess, start: int):
    """Nodes ``start:`` of the rerun of ``base`` under ``spiked`` on the same noise,
    yielded one (P, N) state at a time.

    Before the spike the controls agree and the noise is shared, so the
    rerun's nodes before ``start`` equal the base nodes bit for bit.
    """
    domain, dt = problem.domain, problem.horizon / len(spiked)
    return _exp_euler_nodes(domain, problem.drift, spiked.values[start:], base.modes[:, start],
                            base.normals[:, start:], increment_scale(domain, problem.noise, dt),
                            dt, first_step=start)


def first_variation_ensemble(domain: SpectralDomain, drift, base: EnsembleStates,
                             spike: SpikeConfig):
    """Y along every base path, the stream of its (P, N) nodes start ... n_steps.

    Y is exactly zero before the spike start, so those nodes are not
    stepped.  The spike window is checked at the call; a non-finite node
    raises ``InstabilityError`` naming its absolute step.  The forcing is
    the drift mismatch and has no noise term.
    """
    control = base.control
    spiked, start = _spike_window(control, spike, float(base.times[-1]))
    base_values, spiked_values = control.values[start:], spiked.values[start:]

    def gamma_fn(n, modes):
        # delta F_t = F(X_t, u^eps_t) - F(X_t, u_t), zero off the spike
        if spiked_values[n] == base_values[n]:
            return np.zeros_like(modes)
        fields = domain.to_field(modes)
        return domain.to_coeffs(drift.f(fields, spiked_values[n])
                                - drift.f(fields, base_values[n]))

    return linearized_modes(domain, drift, base.modes[:, start:], None, base_values, base.dt,
                            gamma_fn=gamma_fn, first_step=start)


def _spike_walk(problem: ControlProblem, base: EnsembleStates, spike: SpikeConfig,
                spiked: ControlProcess, start: int):
    """(n, rerun node, Y node) for n = start ... n_steps; the rerun's node is drawn first,
    so when both fail the earlier node's failure is raised (the rerun's on a tie)."""
    ys = first_variation_ensemble(problem.domain, problem.drift, base, spike)
    yield from zip(range(start, len(spiked) + 1), _spiked_tail(problem, base, spiked, start), ys)


def fit_loglog(epsilons, estimates, stderrs=None):
    """Least-squares slope of log(estimate) vs log(epsilon).

    The smallest epsilon is dropped when its Monte Carlo relative standard
    error exceeds ``DROP_REL_STDERR`` (variance dominates bias there).
    A fit that cannot be made returns NaNs and a ``"reason"``.
    """
    eps = np.asarray(epsilons, dtype=float)
    vals = np.asarray(estimates, dtype=float)
    keep = np.ones(eps.size, dtype=bool)
    if stderrs is not None and eps.size > 2:
        smallest = int(np.argmin(eps))
        if vals[smallest] <= 0 or stderrs[smallest] / max(vals[smallest], 1e-300) > DROP_REL_STDERR:
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


def _spike_study_setup(problem: ControlProblem, control: ControlProcess, w: float,
                       t0: float, epsilons, n_paths: int, seed):
    """Sorted epsilons, (spike, spiked control, start) per epsilon, and the base ensemble.

    Every window is checked against the grid before the base ensemble is
    simulated; ``seed`` defaults to the problem's noise seed.
    """
    epsilons = sorted(float(e) for e in epsilons)
    if len(epsilons) < 3:
        raise ConfigurationError("need at least three epsilons to fit an order")
    spikes = []
    for eps in epsilons:
        spike = SpikeConfig(t0=t0, epsilon=eps, w=w)
        spikes.append((spike, *_spike_window(control, spike, problem.horizon)))
    seed = seed if seed is not None else problem.noise.seed
    base = simulate_ensemble(problem.domain, problem.drift, problem.noise, control,
                             problem.x0, problem.horizon, n_paths, seed)
    return epsilons, spikes, base


def _spike_sup_norms(problem: ControlProblem, base: EnsembleStates, spike: SpikeConfig,
                     spiked: ControlProcess, start: int):
    """Per-path sup-norms over time and space of xi, Y and eta for one spike.

    All three are exactly zero before the spike.  Each node of the walk
    only updates a running maximum, which is exact.
    """
    domain = problem.domain
    sup_xi, sup_y, sup_eta = (np.zeros(base.n_paths) for _ in range(3))
    for n, state, y in _spike_walk(problem, base, spike, spiked, start):
        xi = state - base.modes[:, n]
        np.maximum(sup_xi, domain.sup_norm(xi), out=sup_xi)
        np.maximum(sup_y, domain.sup_norm(y), out=sup_y)
        np.maximum(sup_eta, domain.sup_norm(xi - y), out=sup_eta)
    return sup_xi, sup_y, sup_eta


def spike_order_study(problem: ControlProblem, control: ControlProcess,
                      w: float, t0: float, epsilons, n_paths: int = 200,
                      seed=None) -> dict:
    """Fit the eps-orders of sup-norm second moments of (xi, Y, eta).

    Every epsilon reruns the same noise paths; expected slopes are about 2
    for xi and Y and strictly larger for eta.
    """
    epsilons, spikes, base = _spike_study_setup(problem, control, w, t0, epsilons,
                                                n_paths, seed)
    rows = []
    sup2 = {}
    for spike, spiked_control, start in spikes:
        sups = _spike_sup_norms(problem, base, spike, spiked_control, start)
        for label, sup in zip(("xi", "Y", "eta"), sups):
            sup_t = sup ** 2     # per path
            est = float(sup_t.mean())
            se = float(sup_t.std(ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
            rows.append({"epsilon": spike.epsilon, "quantity": label, "estimate": est, "stderr": se})
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
    random numbers; its log-log slope should exceed 1.  Both vanish before
    the spike, so they are summed from its start in one walk of the spike.
    """
    epsilons, spikes, base = _spike_study_setup(problem, control, w, t0, epsilons,
                                                n_paths, seed)
    domain, cost = problem.domain, problem.cost
    n_steps = len(control)
    wq = trapezoid_weights(n_steps, base.dt)

    rows = []
    for spike, spiked_control, start in spikes:
        delta_paths = np.zeros(base.n_paths)
        first_order = np.zeros(base.n_paths)
        for n, state, y in _spike_walk(problem, base, spike, spiked_control, start):
            t_n, x_n = base.times[n], base.modes[:, n]
            u_n = control.values[min(n, n_steps - 1)]
            ue_n = spiked_control.values[min(n, n_steps - 1)]
            l_n = cost.running_value(domain, t_n, x_n, u_n)
            delta_paths += wq[n] * (cost.running_value(domain, t_n, state, ue_n) - l_n)
            if ue_n != u_n:
                first_order += wq[n] * (cost.running_value(domain, t_n, x_n, ue_n) - l_n)
            dl = cost.running_gradient_coeffs(domain, t_n, x_n, u_n)
            first_order += wq[n] * np.sum(dl * y, axis=1)
        # the walk ends on node n_steps: state, x_n and y are the terminal nodes
        delta_paths += cost.terminal_value(domain, state) - cost.terminal_value(domain, x_n)
        delta_j = float(delta_paths.mean())
        dg = cost.terminal_gradient_coeffs(domain, x_n)
        first_order += np.sum(dg * y, axis=1)

        residual = abs(delta_j - float(first_order.mean()))
        rows.append({"epsilon": spike.epsilon, "delta_j": delta_j,
                     "first_order": float(first_order.mean()), "residual": residual})

    fit = fit_loglog(epsilons, [r["residual"] for r in rows])
    return {"rows": rows, "slope": fit, "epsilons": epsilons, "n_paths": n_paths}
