"""Cost functionals, the maximum-principle check and a descent optimizer
used to manufacture near-optimal control/trajectory pairs.

Costs are of composition type: a scalar density integrated over the domain
against either the Lebesgue measure or a finite combination of point
masses (the latter is only meaningful in the continuous-function setting
and is evaluated by spectral reconstruction at the points).

Controls here are deterministic piecewise-constant processes; the
Hamiltonian inequality is therefore checked in ensemble-averaged form,
which is also what the spike-variation argument yields for this class.
Every drift is f0(sigma) + b u and every running cost L0 + kappa u^2, so
the gap and d_u H (the optimizer's descent direction) take p only through
m_t = E<p_t, c_1> (``control_coefficients``, ``control_pairings``).
"""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .adjoint import AdjointSolution, PathwiseAdjoint
from .errors import ConfigurationError, ShapeError
from .forward import (ControlProcess, EnsembleStates, _step_weights, check_step_stability,
                      constant_control, simulate_ensemble)
from .noise import NoiseModel, ou_factors
from .nonlinearity import ControlSpace, NemytskiiDrift, drift_from_config
from .spectral import DomainKind, SpectralDomain, make_domain


@dataclass(frozen=True)
class Measure:
    kind: str                               # "lebesgue" | "dirac_combination"
    points: Optional[np.ndarray] = None     # (n_pts, d), strictly interior
    weights: Optional[np.ndarray] = None    # (n_pts,)
    # (domain, its mode values at the points), set by the first mode_values call
    _mode_values: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("lebesgue", "dirac_combination"):
            raise ConfigurationError(f"unknown measure kind {self.kind!r}")
        if self.kind == "dirac_combination":
            pts = np.atleast_2d(np.asarray(self.points, dtype=float))
            if np.any(pts <= 0.0) or np.any(pts >= math.pi):
                raise ConfigurationError("point masses must lie strictly inside (0, pi)^d")
            object.__setattr__(self, "points", pts)
            object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))

    def mode_values(self, domain: SpectralDomain) -> np.ndarray:
        """The (n_pts, N) matrix e_k(xi) at the point masses, for ``domain``.

        Each problem builds its own measure, so the matrix is computed on the
        first call and kept for later calls on the same domain object.
        """
        kept = self._mode_values
        if kept is None or kept[0] is not domain:
            kept = (domain, domain.evaluate_modes(self.points))
            object.__setattr__(self, "_mode_values", kept)
        return kept[1]


@dataclass(frozen=True)
class CostSpec:
    """Running density l(t, sigma, u) and terminal density g(sigma).

    All densities are vectorized in sigma.  The growth constants bound
    |d_sigma l| and |g'| by K (1 + |sigma|^k) and are spot-checked by the
    test suite.
    """

    running: Callable                   # (t, sigma, u) -> density
    running_dsigma: Callable
    terminal: Callable                  # (sigma,) -> density
    terminal_dsigma: Callable
    measure: Measure
    growth_degree: int = 1
    growth_const: float = 1.0

    # -- measure integrals, vectorized over a path batch -------------------

    def integrate(self, domain: SpectralDomain, modes: np.ndarray, density) -> np.ndarray:
        """integral density(X(xi)) mu(dxi) for each path; modes is (P, N).

        The Lebesgue quadrature pairs the interior collocation sum with the
        boundary nodes, where the state vanishes (Dirichlet), so constant
        densities integrate exactly to their measure-pi^d value.  Leading
        axes the density adds (one per control value) stay before the paths.
        """
        modes = np.atleast_2d(modes)
        if self.measure.kind == "lebesgue":
            interior = np.sum(density(domain.to_field(modes)), axis=-1) * domain.quad_weight
            boundary_mass = math.pi ** domain.dimension - \
                domain.quad_weight * domain.n_modes_per_axis ** domain.dimension
            return interior + boundary_mass * np.asarray(density(np.zeros(1)), dtype=float)[..., 0]
        vals = density(modes @ self.measure.mode_values(domain).T)   # (..., P, n_pts)
        return vals @ self.measure.weights

    def gradient_coeffs(self, domain: SpectralDomain, modes: np.ndarray, density_dsigma) -> np.ndarray:
        """Riesz coefficients of the cost gradient for each path."""
        modes = np.atleast_2d(modes)
        if self.measure.kind == "lebesgue":
            return domain.to_coeffs(density_dsigma(domain.to_field(modes)))
        basis = self.measure.mode_values(domain)
        weighted = density_dsigma(modes @ basis.T) * self.measure.weights
        return weighted @ basis

    def running_value(self, domain, t, modes, u) -> np.ndarray:
        return self.integrate(domain, modes, lambda s: self.running(t, s, u))

    def running_gradient_coeffs(self, domain, t, modes, u) -> np.ndarray:
        return self.gradient_coeffs(domain, modes, lambda s: self.running_dsigma(t, s, u))

    def terminal_value(self, domain, modes) -> np.ndarray:
        return self.integrate(domain, modes, self.terminal)

    def terminal_gradient_coeffs(self, domain, modes) -> np.ndarray:
        return self.gradient_coeffs(domain, modes, self.terminal_dsigma)


def quadratic_cost(measure: Measure, control_weight: float = 0.5,
                   state_weight: float = 0.5, terminal_weight: float = 0.0) -> CostSpec:
    """Density l = state_weight*sigma^2/... canonical quadratic running cost.

    With the Lebesgue measure on (0, pi)^d the control term is scaled by
    1/pi^d so the integrated cost is state_weight*|X|_H^2 + control_weight*u^2.
    """
    return CostSpec(
        running=lambda t, s, u: state_weight * s**2 + control_weight * u**2,
        running_dsigma=lambda t, s, u: 2.0 * state_weight * s,
        terminal=lambda s: terminal_weight * s**2,
        terminal_dsigma=lambda s: 2.0 * terminal_weight * s,
        measure=measure,
        growth_degree=1,
        growth_const=2.0 * max(state_weight, terminal_weight, 1.0),
    )


@dataclass
class ControlProblem:
    domain: SpectralDomain
    drift: NemytskiiDrift
    noise: NoiseModel
    cost: CostSpec
    horizon: float
    x0: np.ndarray
    n_steps: int
    control_space: ControlSpace = field(
        default_factory=lambda: ControlSpace(kind="interval", lower=-1.0, upper=1.0))
    name: str = "custom"

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        if self.x0.shape != (self.domain.n_modes,):
            raise ShapeError(f"x0 must have {self.domain.n_modes} coefficients")
        check_step_stability(self.drift, self.horizon, self.n_steps)

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    def ensemble(self, control: ControlProcess, n_paths: int, seed: int,
                 **kw) -> EnsembleStates:
        return simulate_ensemble(self.domain, self.drift, self.noise, control,
                                 self.x0, self.horizon, n_paths, seed, **kw)


def constant_control_for(problem: ControlProblem, value: float) -> ControlProcess:
    return constant_control(problem.control_space, value, problem.n_steps)


# -- problem catalog -----------------------------------------------------------

def sine_profile_coeffs(domain: SpectralDomain, amplitudes: dict) -> np.ndarray:
    """x0 from {axis-1 mode index k: amplitude of sin(k xi)} (1-d helper)."""
    x0 = np.zeros(domain.n_modes)
    scale = (math.pi / 2.0) ** (domain.dimension / 2.0)
    for i, k in enumerate(domain.mode_indices):
        key = int(k[0]) if domain.dimension == 1 else tuple(int(v) for v in k)
        if key in amplitudes:
            x0[i] = amplitudes[key] * scale
    return x0


# the named study instances, from fully solvable to merely well-posed, each in
# the form of a config's inline "problem" object:
# lq-1d    linear drift + quadratic Lebesgue cost, every oracle closed form
# cubic-1d dissipative cubic drift + quadratic cost
# dirac-2d cubic drift in d=2, running cost sampled at three interior points
CATALOG = {
    "lq-1d": {
        "domain": {"dimension": 1, "modes_per_axis": 16},
        "drift": {"kind": "linear"},
        "noise": {"gamma": 0.5, "alpha": 0.25},
        "cost": {"kind": "quadratic", "control_weight": 0.5 / math.pi},
        "horizon": 1.0, "n_steps": 128,
        "x0": {"sine": {"1": 0.5, "3": 0.2}},
    },
    "cubic-1d": {
        "domain": {"dimension": 1, "modes_per_axis": 64},
        "drift": {"kind": "cubic", "a": 1.0, "b": 1.0},
        "noise": {"gamma": 0.5, "alpha": 0.25},
        "cost": {"kind": "quadratic", "control_weight": 0.5 / math.pi},
        "horizon": 1.0, "n_steps": 256,
        "x0": {"sine": {"1": 0.5, "2": 0.2}},
    },
    "dirac-2d": {
        "domain": {"dimension": 2, "modes_per_axis": 8},
        "drift": {"kind": "cubic", "a": 1.0, "b": 1.0},
        "noise": {"gamma": 0.6, "alpha": 0.25},
        "cost": {"kind": "quadratic", "control_weight": 0.5, "terminal_weight": 0.5,
                 "measure": {"kind": "dirac_combination",
                             "points": [[0.3 * math.pi, 0.4 * math.pi],
                                        [0.6 * math.pi, 0.7 * math.pi],
                                        [0.5 * math.pi, 0.25 * math.pi]],
                             "weights": [0.5, 0.3, 0.2]}},
        "horizon": 0.5, "n_steps": 64,
        "x0": {"sine": {"1,1": 0.5, "2,1": 0.2}},
    },
}

# catalog override -> (section of the spec or None for the top level, key it replaces)
CATALOG_OVERRIDES = {"modes": ("domain", "modes_per_axis"), "n_steps": (None, "n_steps"),
                     "horizon": (None, "horizon"), "gamma": ("noise", "gamma"),
                     "alpha": ("noise", "alpha")}


def problem_from_spec(spec: dict, seed: int, name: str = "inline") -> ControlProblem:
    """The problem a config's inline "problem" object describes, its noise seeded by ``seed``."""
    domain = make_domain(spec["domain"]["dimension"],
                         spec["domain"]["modes_per_axis"],
                         spec["domain"].get("kind", DomainKind.HYPERCUBE))
    cost_cfg = dict(spec.get("cost", {}))
    cost_cfg.pop("kind", None)
    measure = Measure(**cost_cfg.pop("measure", {"kind": "lebesgue"}))
    amplitudes = {}
    for key, amp in spec["x0"]["sine"].items():
        parts = tuple(int(p) for p in key.split(","))
        amplitudes[parts[0] if len(parts) == 1 else parts] = float(amp)
    return ControlProblem(domain=domain, drift=drift_from_config(spec["drift"]),
                          noise=NoiseModel(domain, spec["noise"]["gamma"],
                                           spec["noise"]["alpha"], seed),
                          cost=quadratic_cost(measure, **cost_cfg),
                          horizon=float(spec["horizon"]),
                          x0=sine_profile_coeffs(domain, amplitudes),
                          n_steps=int(spec["n_steps"]), name=name)


def catalog_problem(name: str, *, seed: int = 20250801, **overrides) -> ControlProblem:
    """The ``CATALOG`` problem ``name``, with the ``CATALOG_OVERRIDES`` given replaced as is."""
    if name not in CATALOG:
        raise ConfigurationError(f"unknown catalog problem {name!r}; known: {', '.join(CATALOG)}")
    unknown = sorted(set(overrides) - set(CATALOG_OVERRIDES))
    if unknown:
        raise ConfigurationError(f"unknown catalog overrides {unknown}; "
                                 f"known: {', '.join(CATALOG_OVERRIDES)}")
    spec = copy.deepcopy(CATALOG[name])
    for key, value in overrides.items():
        section, leaf = CATALOG_OVERRIDES[key]
        (spec[section] if section else spec)[leaf] = value
    return problem_from_spec(spec, seed, name)


# -- cost evaluation ------------------------------------------------------------

def trapezoid_weights(n_steps: int, dt: float) -> np.ndarray:
    w = np.full(n_steps + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def cost_of_ensemble(problem: ControlProblem, ens: EnsembleStates) -> np.ndarray:
    """Per-path realized cost by trapezoid time quadrature."""
    cost, domain = problem.cost, problem.domain
    n_steps = len(ens.control)
    w = trapezoid_weights(n_steps, ens.dt)
    u = ens.control.values
    total = 0.0
    for n in range(n_steps + 1):
        total += w[n] * cost.running_value(domain, ens.times[n], ens.modes[:, n],
                                           u[min(n, n_steps - 1)])
    return total + cost.terminal_value(domain, ens.modes[:, -1])


# -- the control-affine Hamiltonian and the maximum-principle check ---------------

def control_coefficients(problem: ControlProblem) -> tuple[float, float]:
    """(b, kappa) of a drift f0(sigma) + b u and a running cost L0(t, X) + kappa u^2.

    b is read from ``drift.f_u`` and kappa = int [l(t, 0, 1) - l(t, 0, 0)] dmu
    from ``cost.running``.  Both are spot-checked at u in {-1, 1/2, 1}, at
    the states 0 and x0 and at t in {0, T}, to 1e-12 relative; a drift or
    cost of any other form raises ``ConfigurationError``, before any sweep.
    """
    domain, drift, cost = problem.domain, problem.drift, problem.cost
    if drift.f_u is None:
        raise ConfigurationError("the control-affine Hamiltonian needs the drift's d_u f")
    states = np.stack([np.zeros(domain.n_modes), problem.x0])
    fields = domain.to_field(states)
    u = np.array([-1.0, 0.5, 1.0])[:, None, None]     # broadcasts against the (2, N) states

    def agrees(value, expected, *terms):
        return bool(np.all(np.abs(value - expected) <= 1e-12 * sum(map(np.abs, terms))))

    b = float(np.asarray(drift.f_u(fields[:1], 0.0), dtype=float).flat[0])
    f_v, f_0 = drift.f(fields, u), drift.f(fields, 0.0)
    if not agrees(f_v - f_0, b * u, f_v, f_0):
        raise ConfigurationError(f"drift {drift.name!r} is not f0(sigma) + b u; "
                                 "the Hamiltonian gap has no closed form")
    kappa = float(cost.integrate(domain, states[:1], lambda s: cost.running(0.0, s, 1.0)
                                 - cost.running(0.0, s, 0.0))[0])
    for t in (0.0, problem.horizon):
        l_v, l_0 = (cost.running_value(domain, t, states, v) for v in (u, 0.0))
        if not agrees(l_v - l_0, kappa * u[..., 0] ** 2, l_v, l_0):
            raise ConfigurationError("running cost is not L0(t, X) + kappa u^2; "
                                     "the Hamiltonian gap has no closed form")
    return b, kappa


def control_pairings(domain: SpectralDomain, nodes):
    """(n, s_n) for each node (n, p_n) of a ``nodes()`` stream, s_n = <p_n, c_1> per path.

    c_1, ``to_coeffs`` of the field 1, pairs p with the forcing b u c_1; ``np.einsum``
    sums outside BLAS, so the bytes do not depend on the thread count.
    """
    c1 = domain.ones_coeffs()
    for n, p in nodes:
        yield n, np.einsum("pj,j->p", p, c1)


def _adjoint_mean(domain: SpectralDomain, solution) -> np.ndarray:
    """m_n = E<p_n, c_1> at each grid node n of ``solution.nodes()``."""
    mean = np.empty(len(solution.ensemble.control))
    for n, s in control_pairings(domain, solution.nodes()):
        mean[n] = s.mean()
    return mean


def gap_report(ensemble: EnsembleStates, adjoint_mean: np.ndarray, b: float, kappa: float,
               v_samples: Optional[np.ndarray] = None, tol: float = 1e-3) -> dict:
    """The maximum-principle report of ``ensemble`` from its m_t and ``control_coefficients``:
    gap(t, v) = kappa (v^2 - u_t^2) + b (v - u_t) m_t at each grid node t and ``v_samples`` v."""
    if v_samples is None:
        v_samples = ensemble.control.space.sample(21)
    v = np.asarray(v_samples, dtype=float)[None, :]
    u = ensemble.control.values[:, None]
    gaps = kappa * (v**2 - u**2) + b * (v - u) * adjoint_mean[:, None]
    worst = np.unravel_index(np.argmin(gaps), gaps.shape)
    return {
        "min_gap": float(gaps.min()),
        "argmin_t": float(ensemble.times[worst[0]]),
        "argmin_v": float(v[0, worst[1]]),
        "fraction_violating": float(np.mean(gaps < -tol)),
        "tol": tol,
        "gaps": gaps,
        "v_samples": v[0],
    }


def check_maximum_principle(problem: ControlProblem,
                            solution: AdjointSolution | PathwiseAdjoint,
                            v_samples: Optional[np.ndarray] = None,
                            tol: float = 1e-3) -> dict:
    """Ensemble-averaged Hamiltonian gaps over grid times and control values.

    gap(t, v) = E[H(t, v, X_t, p_t) - H(t, u_t, X_t, p_t)], with u, X and p
    those of the sweep's forward ensemble; at an optimal control every gap
    is nonnegative up to Monte Carlo noise.  By ``control_coefficients`` the
    gap takes p only through m_t = E<p_t, c_1> (``gap_report``), so a
    regression and a pathwise sweep estimate the same gaps.  m_t is taken
    node by node from ``solution.nodes()``: a stored ``AdjointSolution``
    replays its p rows, a ``PathwiseAdjoint`` streams p~_n and stores no p.
    """
    ens = solution.ensemble
    if ens is None:
        raise ConfigurationError("adjoint solution does not reference its forward ensemble")
    b, kappa = control_coefficients(problem)
    return gap_report(ens, _adjoint_mean(problem.domain, solution), b, kappa, v_samples, tol)


# -- descent optimizer -----------------------------------------------------------

# descent stops once the gradient's L2 norm in time falls below this
GRAD_TOL = 1e-10


def optimize_control(problem: ControlProblem, control: ControlProcess,
                     iterations: int = 50, step_rule: float = 0.5, *, n_paths: int = 100,
                     seed: Optional[int] = None) -> tuple[ControlProcess, dict]:
    """Projected gradient descent on piecewise-constant controls, fixed step ``step_rule``.

    The descent direction is d_u H = 2 kappa u_t + b m_t, with m_t the mean
    of <p~_t, c_1> over the pathwise p~ streamed from a ``PathwiseAdjoint``.
    Iterations share one set of noise streams (common random numbers),
    drawn by the first ensemble, so the recorded costs are comparable; each
    ensemble is dropped, its normals kept, before the next is simulated.
    Descent stops after ``iterations`` steps, or early once the gradient
    norm falls below ``GRAD_TOL``.  Each control visited, the returned one
    included, is costed and swept once: the trace holds "J", "stderr" and
    "grad_norm" for each, and the returned control's "ensemble" and
    "adjoint_mean" m_t, for ``gap_report`` to certify without a new sweep.
    """
    b, kappa = control_coefficients(problem)
    seed = seed if seed is not None else problem.noise.seed
    dt = problem.horizon / len(control)

    trace = {"J": [], "stderr": [], "grad_norm": []}
    non_decreasing = 0
    ctrl = ControlProcess(values=control.values.copy(), space=problem.control_space)
    ens = problem.ensemble(ctrl, n_paths, seed)
    for step in range(iterations + 1):
        costs = cost_of_ensemble(problem, ens)
        trace["J"].append(float(costs.mean()))
        trace["stderr"].append(float(costs.std(ddof=1) / math.sqrt(n_paths)))
        if step > 0 and trace["J"][-1] >= trace["J"][-2]:
            non_decreasing += 1
            if non_decreasing >= 5:
                warnings.warn("cost failed to decrease for 5 consecutive iterations; "
                              "descent may have stagnated", RuntimeWarning)
                non_decreasing = 0
        else:
            non_decreasing = 0

        mean = _adjoint_mean(problem.domain, PathwiseAdjoint(problem, ens))
        grad = 2.0 * kappa * ctrl.values + b * mean
        gnorm = float(np.sqrt(np.sum(grad**2) * dt))
        trace["grad_norm"].append(gnorm)
        if gnorm < GRAD_TOL or step == iterations:
            break
        values = problem.control_space.project(ctrl.values - step_rule * grad)
        ctrl = ControlProcess(values=values, space=problem.control_space)
        normals = ens.normals
        del ens     # its modes go before the next ensemble's are built
        ens = problem.ensemble(ctrl, n_paths, seed, normals=normals)
    trace["ensemble"], trace["adjoint_mean"] = ens, mean
    return ctrl, trace


# -- oracles for the linear-quadratic instance ------------------------------------

def _lq_discrete_system(problem: ControlProblem):
    """Exact one-step mean dynamics of the discretized lq-1d instance."""
    if problem.drift.name != "linear":
        raise ConfigurationError("discrete LQ oracle applies to the linear drift only")
    decay, wdrift = _step_weights(problem.domain, problem.dt)
    d = decay - wdrift                       # multiplies the state (drift -sigma)
    h = wdrift * problem.domain.ones_coeffs()  # multiplies the scalar control
    return d, h


def lq_optimal_control(problem: ControlProblem) -> dict:
    """Dynamic-programming optimum of the discretized mean problem.

    The additive-noise part of the cost is control independent, so the
    deterministic-control optimum is the classical discrete LQR of the mean
    dynamics; the noise contribution is added back in closed form.  The
    control effort is charged with the exact piecewise-constant integral
    (uniform dt weight per step), which keeps the optimum aligned with the
    pointwise Hamiltonian condition at every node, while the state part
    follows the trapezoid quadrature of the evaluator.  Assumes the
    quadratic catalog cost (state weight 1/2, control weight integrating to
    u^2/2) and checks the unconstrained optimum stays admissible.
    """
    d, h = _lq_discrete_system(problem)
    n_steps, dt = problem.n_steps, problem.dt
    wq = trapezoid_weights(n_steps, dt)

    n = problem.domain.n_modes
    p_mat = wq[-1] * np.eye(n)
    gains = np.empty((n_steps, n))
    for m in range(n_steps - 1, -1, -1):
        ph = p_mat @ h
        denom = dt + float(h @ ph)
        gains[m] = (d * ph) / denom
        p_mat = wq[m] * np.eye(n) + d[:, None] * p_mat * d[None, :] - np.outer(d * ph, d * ph) / denom
        p_mat = 0.5 * (p_mat + p_mat.T)

    mean = problem.x0.copy()
    u_star = np.empty(n_steps)
    for m in range(n_steps):
        u_star[m] = -float(gains[m] @ mean)
        mean = d * mean + h * u_star[m]
    if not all(problem.control_space.contains(v) for v in u_star):
        raise ConfigurationError("unconstrained LQ optimum leaves the admissible set; "
                                 "shrink x0 or enlarge the control interval")

    return {"u_star": u_star, "J_star": lq_exact_cost(problem, u_star)}


def lq_exact_cost(problem: ControlProblem, u_values: np.ndarray) -> float:
    """Closed-form trapezoid cost of the lq-1d instance under a given control.

    Mean and variance of every mode follow the exact one-step recursions of
    the simulator, so this reproduces the mean of ``cost_of_ensemble`` over
    a Monte Carlo ensemble, without sampling error.
    """
    d, h = _lq_discrete_system(problem)
    n_steps, dt = problem.n_steps, problem.dt
    wq = trapezoid_weights(n_steps, dt)
    _, sd = ou_factors(problem.domain.eigenvalues, dt)
    noise_var_step = (problem.noise.b_coeffs * sd) ** 2

    mean = problem.x0.copy()
    var = np.zeros_like(mean)
    total = 0.0
    for m in range(n_steps + 1):
        u_m = u_values[min(m, n_steps - 1)]
        total += 0.5 * wq[m] * (float(mean @ mean) + float(var.sum()) + u_m**2)
        if m < n_steps:
            mean = d * mean + h * u_values[m]
            var = d**2 * var + noise_var_step
    return total


def lq_adjoint_oracle(problem: ControlProblem, ensemble: EnsembleStates) -> np.ndarray:
    """Propagator-form adjoint for the lq-1d instance under a constant control.

    p_k(t) = E[ int_t^T e^{-(mu_k + 1)(s - t)} X_k(s) ds | F_t ]
           = a_k(t) X_k(t) + c_k(t)
    with the conditional means of the drifted OU modes inserted in closed
    form; requires the control to be constant in time.
    """
    u_vals = ensemble.control.values
    if not np.allclose(u_vals, u_vals[0]):
        raise ConfigurationError("closed-form adjoint oracle needs a constant control")
    u0 = float(u_vals[0])
    domain = problem.domain
    if domain.dimension != 1:
        raise ConfigurationError("oracle is for the one-dimensional instance")
    nu = domain.eigenvalues + 1.0
    k = domain.mode_indices[:, 0].astype(float)
    ones_exact = math.sqrt(2.0 / math.pi) * (1.0 - np.cos(k * math.pi)) / k
    tau = problem.horizon - ensemble.times                    # (n_steps + 1,)
    a = -np.expm1(-2.0 * np.outer(tau, nu)) / (2.0 * nu)      # (n_steps + 1, N)
    e1 = -np.expm1(-np.outer(tau, nu))
    e2 = -np.expm1(-2.0 * np.outer(tau, nu))
    c = (u0 * ones_exact / nu) * (e1 / nu - e2 / (2.0 * nu))
    return a[None, :, :] * ensemble.modes + c[None, :, :]
