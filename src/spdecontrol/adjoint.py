"""Backward equation for the adjoint pair (p, q), by step regression or pathwise.

The backward recursion is the exact algebraic transpose of the forward
exponential-Euler step.  ``_backward_nodes`` is its one loop: it yields the
nodes n = n_steps - 1 ... 0 one at a time, each with p_n and what a
collector needs, and raises ``InstabilityError`` at the first node whose p
is not finite.  Only the conditional expectation of each step's target
varies:

- a ``RegressionSpec``: least-squares Monte Carlo (Longstaff-Schwartz
  style) on basis functions of the current state's mode coefficients.  Its
  fit is the adapted p.  q_n = E[p_{n+1} (x) dW_n | F_n] / dt is kept in
  reduced form: with U the regression's orthonormal factor, the intercept
  makes the mean of the fit the mean of the targets, and the per-path
  V'-norm is U_i M U_i^T with M = C diag(w) C^T, C = U^T (p_{n+1} (x) dW_n)
  / dt, so no (P, N N_K) array is built.  ``backward_sweep`` collects it
  into an ``AdjointSolution`` for ``adjoint-check`` and ``selftest``'s
  duality check, which need the adapted p (on p~ the duality identity
  holds path by path, so it would test nothing).
- no spec: each path keeps its own target, the pathwise p~.  Controls here
  are deterministic, so the Hamiltonian gap and the control gradient take
  the adjoint only through E<p_t, G(X_t)> with G known at time t, which the
  tower property makes the same for p~: unbiased, with no basis, path
  budget or SVD, and with independent per-path values whose spread is an
  honest standard error.  It has no q.  ``PathwiseAdjoint`` streams it node
  by node to the descent and the gap checks, and stores no p array.

The truncated spectral setting regularizes spatially by itself, so the
semigroup mollification and Lipschitz regularization of the continuous
theory are not needed; the drift derivative is merely clipped at
``FPRIME_CLIP`` and the clip rate reported.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError, InstabilityError, RegressionError, ShapeError
from .forward import (EnsembleStates, linearized_modes, weight_cell_integrals, _read_snapshot,
                      _step_weights, _write_snapshot)
from .noise import PathRecord
from .spectral import SpectralDomain

if TYPE_CHECKING:
    from .control import ControlProblem

# a step regression past this condition number is refused
CONDITION_LIMIT = 1e10
# the backward step clips the drift derivative f' to [-FPRIME_CLIP, FPRIME_CLIP]
FPRIME_CLIP = 1e3
# fewest paths per basis function a regression is run on
MIN_PATHS_PER_FEATURE = 10


@dataclass(frozen=True)
class RegressionSpec:
    """Basis and conditioning policy for the conditional expectations.

    The default basis {1} u {mode coefficients} is exact for
    linear-quadratic problems, where p is affine in the state.
    ``basis_modes`` restricts the mode features to the lowest that many
    modes, which keeps the path requirement affordable on fine truncations
    (the discarded high modes are nearly decoupled there).  The condition
    limit and the path budget per feature are the module constants
    ``CONDITION_LIMIT`` and ``MIN_PATHS_PER_FEATURE``.
    """

    include_modes: bool = True
    basis_modes: Optional[int] = None
    degree2: bool = False

    @property
    def _features_per_mode(self) -> int:
        return int(self.include_modes) + int(self.degree2)

    def check_paths(self, n_modes: int, n_paths: int):
        """Raise unless ``n_paths`` affords this basis on ``n_modes`` state modes."""
        core_modes = n_modes if self.basis_modes is None else min(self.basis_modes, n_modes)
        n_features = 1 + self._features_per_mode * core_modes
        if n_paths < MIN_PATHS_PER_FEATURE * n_features:
            raise ConfigurationError(
                f"regression with {n_features} basis functions wants at least "
                f"{MIN_PATHS_PER_FEATURE * n_features} paths, got {n_paths}")

    def affordable_modes(self, n_modes: int, n_paths: int) -> int:
        """The most of the ``n_modes`` lowest modes whose basis ``n_paths`` affords,
        ``check_paths`` inverted; below 1 when not even one mode is affordable."""
        if self._features_per_mode == 0:
            return n_modes
        return min(n_modes, (n_paths // MIN_PATHS_PER_FEATURE - 1) // self._features_per_mode)

    def step(self, modes: np.ndarray) -> _StepRegressor:
        """The conditional expectation of one step, fitted on the state modes (P, N)."""
        return _StepRegressor(_default_features(modes, self))


class _StepRegressor:
    """Center-and-scale least squares with zero-variance columns dropped."""

    def __init__(self, features: np.ndarray):
        self.n_paths = features.shape[0]
        mean = features.mean(axis=0)
        std = features.std(axis=0)
        self.keep = keep = std > 1e-12 * (1.0 + np.abs(mean))
        core = (features[:, keep] - mean[keep]) / std[keep]
        phi = np.concatenate([np.ones((self.n_paths, 1)), core], axis=1)
        u, s, vt = np.linalg.svd(phi, full_matrices=False)
        self.cond = float(s[0] / s[-1]) if s[-1] > 0 else np.inf
        if self.cond > CONDITION_LIMIT:
            raise RegressionError(
                f"regression condition number {self.cond:.2e} exceeds "
                f"{CONDITION_LIMIT:.0e}; reduce the basis (e.g. drop degree-2 terms)")
        self.u, self.s, self.vt = u, s, vt
        self.phi = phi

    def fit_predict(self, targets: np.ndarray):
        """Least-squares fit of each target column; returns fitted values."""
        coef = self.vt.T @ ((self.u.T @ targets) / self.s[:, None])
        return self.phi @ coef

    def residual_report(self, targets: np.ndarray, fitted: np.ndarray) -> dict:
        """Largest z-score of a target column's mean residual (a martingale check)."""
        resid = targets - fitted
        resid_sd = resid.std(axis=0, ddof=1) if self.n_paths > 1 else np.ones(targets.shape[1])
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.abs(resid.mean(axis=0)) / np.where(resid_sd > 0,
                                                      resid_sd / np.sqrt(self.n_paths), np.inf)
        return {"residual_z_max": float(np.max(z))}


def _default_features(modes: np.ndarray, spec: RegressionSpec) -> np.ndarray:
    core = modes if spec.basis_modes is None else modes[:, :spec.basis_modes]
    feats = [core] if spec.include_modes else []
    if spec.degree2:
        feats.append(core**2)
    if not feats:
        return np.empty((modes.shape[0], 0))
    return np.concatenate(feats, axis=1)


@dataclass
class AdjointSolution:
    """Backward-sweep solution over a forward ensemble.

    ``p_values[i, n]`` is p for path i at grid node n, the fitted
    conditional expectation.  The sweep may keep q, in reduced form: its
    ensemble mean per step (the mean of the regression targets
    p_{n+1} (x) dW_n / dt, which the intercept makes equal to the mean of
    the fit) and the per-path weighted norm integrals (U_i M U_i^T per
    step, from the F x F matrix M of the fit's coefficients), which is what
    the duality and norm diagnostics consume.
    """

    times: np.ndarray
    p_values: np.ndarray                     # (P, n_steps + 1, N)
    mean_q: Optional[np.ndarray] = None      # (n_steps, N, N_K)
    p_weighted_per_path: np.ndarray = None   # (P,) int |p|^2 (T-t)^lambda dt
    q_weighted_per_path: Optional[np.ndarray] = None  # (P,) int ||q||_{V'}^2 dt
    diagnostics: list = field(default_factory=list)
    ensemble: Optional[EnsembleStates] = None

    @property
    def n_paths(self) -> int:
        return self.p_values.shape[0]

    @property
    def p_mean(self) -> np.ndarray:
        return self.p_values.mean(axis=0)

    def pair(self, i: int) -> PathRecord:
        """Path i's p on the forward grid."""
        return PathRecord(times=self.times, mode_coeffs=self.p_values[i])

    def nodes(self):
        """The stored p rows as (n, p_n) for n = 0 ... n_steps - 1."""
        for n in range(self.p_values.shape[1] - 1):
            yield n, self.p_values[:, n]


class _BackwardNode(NamedTuple):
    """One node of the backward loop: p_n and what produced it."""

    step: int
    p: np.ndarray                      # p_n (P, N), forcing included
    fit: Optional[_StepRegressor]      # None on the pathwise loop
    target: np.ndarray                 # the step's target, before conditioning
    fitted: np.ndarray                 # its conditional expectation, before the forcing
    clip_rate: float


def _terminal_row(terminal: Optional[np.ndarray], n_paths: int, n_modes: int,
                  n_steps: int) -> np.ndarray:
    """The checked terminal p, node ``n_steps`` of the sweep (zero if ``terminal`` is None)."""
    p = np.zeros((n_paths, n_modes)) if terminal is None else np.array(terminal, dtype=float)
    if p.shape != (n_paths, n_modes):
        raise ShapeError(f"terminal data must have shape ({n_paths}, {n_modes})")
    _check_finite(p, n_steps)
    return p


def _check_finite(p: np.ndarray, step: int):
    if not np.isfinite(p).all():
        raise InstabilityError(f"adjoint p turned non-finite in step {step}", step=step)


def _backward_nodes(domain: SpectralDomain, ensemble: EnsembleStates, drift,
                    p_terminal: np.ndarray, forcing_fn: Optional[Callable],
                    spec: Optional[RegressionSpec], fprime_active: bool = True):
    """The backward loop: nodes n = n_steps - 1 ... 0, yielded one at a time.

    Each step conditions its target by the regression ``spec`` and then
    adds the F_n-measurable forcing, so only the genuinely future-measurable
    part is conditioned; with ``spec`` None each path keeps its target (p~)
    and the node's ``fit`` is None.  A non-finite p_n raises
    ``InstabilityError`` naming step n before the node is yielded, so no
    forcing below it is evaluated.
    """
    modes = ensemble.modes
    decay, wdrift = _step_weights(domain, ensemble.dt)
    control_values = ensemble.control.values
    p_next = p_terminal
    for n in range(modes.shape[1] - 2, -1, -1):
        state = modes[:, n]
        target = decay * p_next
        clip_rate = 0.0
        if fprime_active:
            mult = np.asarray(drift.f_prime(domain.to_field(state), control_values[n]), dtype=float)
            clipped = np.clip(mult, -FPRIME_CLIP, FPRIME_CLIP)
            clip_rate = float(np.mean(clipped != mult))
            target = target + domain.to_coeffs(clipped * domain.to_field(wdrift * p_next))
        fit = None if spec is None else spec.step(state)
        fitted = target if fit is None else fit.fit_predict(target)
        p = fitted if forcing_fn is None else fitted + wdrift * forcing_fn(n, state)
        _check_finite(p, n)
        yield _BackwardNode(n, p, fit, target, fitted, clip_rate)
        p_next = p


def backward_sweep(domain: SpectralDomain, ensemble: EnsembleStates, drift,
                   terminal: Optional[np.ndarray],
                   forcing_fn: Optional[Callable], spec: RegressionSpec = None, *,
                   fprime_active: bool = True, compute_q: bool = True,
                   sobolev_s: Optional[float] = None) -> AdjointSolution:
    """Regression pass given explicit terminal data and forcing, collected into a solution.

    ``terminal`` is a (P, N) coefficient array (zero if None); ``forcing_fn``
    maps (step, state modes (P, N)) to the running-forcing coefficients.
    ``spec`` (a default ``RegressionSpec`` if None) sets the basis each
    step's target is fitted on.  Every diagnostics entry holds the step's
    ``condition``, ``clip_rate`` and ``residual_z_max``.  A non-finite p
    raises ``InstabilityError`` at once, naming the step that produced it
    (the terminal row is step n_steps).
    """
    spec = spec or RegressionSpec()
    modes = ensemble.modes
    n_paths, n_plus, n_modes = modes.shape
    n_steps = n_plus - 1
    dt = ensemble.dt
    spec.check_paths(n_modes, n_paths)
    if sobolev_s is None:
        sobolev_s = domain.dimension / 2.0 + 0.5

    cells = weight_cell_integrals(float(ensemble.times[-1]), n_steps, domain.lambda_exponent)
    vprime_w = (1.0 + domain.eigenvalues) ** (-sobolev_s)

    p_values = np.empty((n_paths, n_steps + 1, n_modes))
    p_next = _terminal_row(terminal, n_paths, n_modes, n_steps)
    p_values[:, n_steps] = p_next

    mean_q = np.zeros((n_steps, n_modes, n_modes)) if compute_q else None
    ip = np.zeros(n_paths)
    iq = np.zeros(n_paths) if compute_q else None
    diagnostics = []

    for node in _backward_nodes(domain, ensemble, drift, p_next, forcing_fn, spec,
                                fprime_active):
        n, reg = node.step, node.fit
        diagnostics.append({"step": n, "condition": reg.cond, "clip_rate": node.clip_rate,
                            **reg.residual_report(node.target, node.fitted)})
        if compute_q:
            # the fit of q_target = p_next (x) dw / dt is U C with C = U^T q_target, built
            # one feature at a time: an (N, P) @ (P, N_K) product each, small enough to give
            # the same bytes at 1 and 2 BLAS threads on lq-1d
            dw = ensemble.normals[:, n] * np.sqrt(dt)
            mean_q[n] = p_next.T @ dw / (n_paths * dt)
            c = np.stack([(u_f[:, None] * p_next).T @ dw for u_f in reg.u.T]) / dt
            m = (c * vprime_w[:, None]).reshape(len(c), -1) @ c.reshape(len(c), -1).T
            iq += np.sum((reg.u @ m) * reg.u, axis=1) * dt
        p_values[:, n] = node.p
        ip += np.sum(node.p**2, axis=1) * cells[n]
        p_next = node.p

    diagnostics.reverse()
    return AdjointSolution(times=ensemble.times, p_values=p_values,
                           mean_q=mean_q, p_weighted_per_path=ip,
                           q_weighted_per_path=iq, diagnostics=diagnostics,
                           ensemble=ensemble)


@dataclass
class PathwiseAdjoint:
    """The pathwise p~ along a forward ensemble, streamed node by node and never stored.

    Same terminal datum and forcing as ``solve_adjoint_regression``, with
    each step's target kept per path: exact for E<p_t, G(X_t)> with G known
    at time t, which is all the Hamiltonian gap and the control gradient
    take from the adjoint.  It has no path budget and no q.
    ``nodes()`` runs the backward loop and yields (n, p~_n); each call runs
    the loop afresh.
    """

    problem: ControlProblem
    ensemble: EnsembleStates

    def nodes(self):
        problem, ens = self.problem, self.ensemble
        n_paths, n_plus, n_modes = ens.modes.shape
        terminal, forcing_fn = _cost_data(problem, ens)
        p_terminal = _terminal_row(terminal, n_paths, n_modes, n_plus - 1)
        for node in _backward_nodes(problem.domain, ens, problem.drift, p_terminal, forcing_fn,
                                    spec=None):
            yield node.step, node.p


def solve_adjoint_regression(problem, ensemble: EnsembleStates,
                             spec: RegressionSpec = None, *, compute_q: bool = True,
                             sobolev_s: Optional[float] = None) -> AdjointSolution:
    """Adjoint pair for ``problem`` along a forward ensemble, by regression.

    Terminal datum and running forcing are the cost gradients
    zeta = D_x G(X_T)* and f(t) = D_x L(t, X_t, u_t)*, taken from the
    problem's cost specification.
    """
    terminal, forcing_fn = _cost_data(problem, ensemble)
    return backward_sweep(problem.domain, ensemble, problem.drift, terminal, forcing_fn,
                          spec, compute_q=compute_q, sobolev_s=sobolev_s)


def _cost_data(problem, ensemble):
    """The sweep's terminal datum and running forcing, from the problem's cost."""
    domain, cost = problem.domain, problem.cost
    terminal = cost.terminal_gradient_coeffs(domain, ensemble.modes[:, -1])
    u = ensemble.control.values

    def forcing_fn(n, state_modes):
        return cost.running_gradient_coeffs(domain, ensemble.times[n], state_modes, u[n])

    return terminal, forcing_fn


# -- duality -------------------------------------------------------------------

def duality_residual(problem, solution: AdjointSolution, forcing_gamma=None,
                     forcing_eta=None) -> dict:
    """Monte Carlo check of the pairing that defines (p, q), on a given sweep.

    Both sides of  E int <p, gamma> dt + E int <q, eta> dt
                 = E int <f, y> dt + E <zeta, y(T)>
    are estimated on the sweep's forward ensemble, under its control and on
    its noise; gamma is constant (N,) or per step (n_steps, N) in mode
    coefficients and eta a diagonal (N,).  The returned relative residual
    is |LHS - RHS| / (|LHS| + |RHS| + floor).  Several forcings thus share one
    ensemble and one sweep.  An eta forcing pairs with q and needs a sweep
    taken with ``compute_q=True``.  p does not depend on whether q was
    computed, and ``sobolev_s`` only weights the q norm, so a gamma pairing
    gives the same bytes on either sweep.
    """
    ens = solution.ensemble
    if ens is None:
        raise ConfigurationError("adjoint solution does not reference its forward ensemble")
    if forcing_eta is not None and solution.mean_q is None:
        raise ConfigurationError("an eta forcing pairs with q: sweep with compute_q=True")
    domain, control = problem.domain, ens.control
    n_paths, n_steps, dt = ens.n_paths, len(control), ens.dt

    lhs = 0.0
    gamma_fn = None
    if forcing_gamma is not None:
        g = np.asarray(forcing_gamma, dtype=float)
        if g.ndim == 1:
            g = np.broadcast_to(g, (n_steps, g.size))
        lhs += float(np.sum(solution.p_mean[:-1] * g) * dt)
        gamma_fn = lambda n, _: g[n]
    y = linearized_modes(domain, problem.drift, ens.modes, ens.normals,
                         control.values, dt, gamma_fn=gamma_fn, forcing_eta=forcing_eta)
    if forcing_eta is not None:
        e = np.diag(np.asarray(forcing_eta, dtype=float))
        lhs += float(np.einsum("nkj,kj->", solution.mean_q, e) * dt)

    # y's nodes 0 ... n_steps - 1 pair with f_n as they come; the last, y(T), with zeta
    cost = problem.cost
    rhs_paths = np.zeros(n_paths)
    for n, y_n in zip(range(n_steps), y):
        f_n = cost.running_gradient_coeffs(domain, ens.times[n], ens.modes[:, n],
                                           control.values[n])
        rhs_paths += np.sum(f_n * y_n, axis=1) * dt
    zeta = cost.terminal_gradient_coeffs(domain, ens.modes[:, -1])
    rhs_paths += np.sum(zeta * next(y), axis=1)
    rhs = float(rhs_paths.mean())

    residual = abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-12)
    return {"residual": residual, "lhs": lhs, "rhs": rhs,
            "rhs_stderr": float(rhs_paths.std(ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0}


# -- weighted norms --------------------------------------------------------------

def weighted_norm_report(solution: AdjointSolution, r_prime: float = 1.5) -> dict:
    """Moments of the (T-t)^lambda-weighted p-norm and the V'-weighted q-norm.

    Reports (E I^r')^(1/r') for I the per-path integrals; the final grid
    node is excluded from the p integral (left cells only), which is where
    point-mass terminal data blows up by design.
    """
    if not 1.0 < r_prime < 2.0:
        raise ConfigurationError(f"r' must lie in (1, 2), got {r_prime}")
    ip = solution.p_weighted_per_path
    p_weighted = float(np.mean(ip ** r_prime) ** (1.0 / r_prime))
    q_norm = None
    if solution.q_weighted_per_path is not None:
        q_norm = float(np.mean(solution.q_weighted_per_path ** r_prime) ** (1.0 / r_prime))
    return {"p_weighted": p_weighted, "q_norm": q_norm}


# -- exports ---------------------------------------------------------------------

def adjoint_to_binary(pair: PathRecord, path: str):
    """Snapshot with magic b"SPDA" and two extra header fields, u32 N_K = 0 and
    u32 has_q = 0: the p matrix only."""
    _write_snapshot(pair, path, b"SPDA", (0, 0))


def read_binary_adjoint(path: str):
    """Return (horizon, p matrix) from an adjoint snapshot."""
    horizon, (nk, has_q), p = _read_snapshot(path, b"SPDA", "not an adjoint snapshot", 2)
    if nk or has_q:
        raise ConfigurationError(f"adjoint snapshot with a q block (N_K = {nk}, "
                                 f"has_q = {has_q}); only p snapshots are read")
    return horizon, p


def diagnostics_to_json(solution: AdjointSolution, path: str):
    with open(path, "w") as fh:
        json.dump({"steps": solution.diagnostics}, fh, indent=2, sort_keys=True)
        fh.write("\n")
