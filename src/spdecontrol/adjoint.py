"""Backward equation for the adjoint pair (p, q) by least-squares Monte Carlo.

The backward recursion is the exact algebraic transpose of the forward
exponential-Euler step, with conditional expectations realized by
regression on basis functions of the current state's mode coefficients
(Longstaff-Schwartz style).  q is extracted from the martingale increment
at the same step, q_n = E[p_{n+1} (x) dW_n | F_n] / dt, and is kept in
reduced form.  Its fitted values are the projection U U^T q_target, with U
the regression's orthonormal factor; since the basis holds an intercept,
the ensemble mean of the fit is the plain mean of the targets, and the
per-path V'-norm is U_i M U_i^T with the F x F matrix M = C diag(w) C^T,
C = U^T (p_{n+1} (x) dW_n) / dt.  No (P, N N_K) target or fitted array is
built.

Instead of the double smoothing used in the continuous theory (semigroup
mollification of the data plus Lipschitz regularization of the drift), the
truncated spectral setting regularizes spatially by itself; the drift
derivative is merely clipped at a configurable level and the activation
rate reported.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, InstabilityError, RegressionError, ShapeError
from .forward import EnsembleStates, linearized_modes, weight_cell_integrals, _step_weights
from .spectral import SpectralDomain

# a step regression past this condition number is refused
CONDITION_LIMIT = 1e10
# fewest paths per basis function a regression is run on
MIN_PATHS_PER_FEATURE = 10


@dataclass(frozen=True)
class RegressionSpec:
    """Basis and conditioning policy for the conditional expectations.

    The default basis {1} u {mode coefficients} is exact for
    linear-quadratic problems, where p is affine in the state.
    ``basis_modes`` restricts the mode features to the lowest that many
    modes, which keeps the path requirement affordable on fine truncations
    (the discarded high modes are nearly decoupled there).  ``clip``
    bounds the drift derivative in the backward step.  The condition limit
    and the path budget per feature are the module constants
    ``CONDITION_LIMIT`` and ``MIN_PATHS_PER_FEATURE``.
    """

    include_modes: bool = True
    basis_modes: Optional[int] = None
    degree2: bool = False
    clip: float = 1e3

    def check_paths(self, n_modes: int, n_paths: int):
        """Raise unless ``n_paths`` affords this basis on ``n_modes`` state modes."""
        core_modes = n_modes if self.basis_modes is None else min(self.basis_modes, n_modes)
        n_features = 1 + (core_modes if self.include_modes else 0) + (core_modes if self.degree2 else 0)
        if n_paths < MIN_PATHS_PER_FEATURE * n_features:
            raise ConfigurationError(
                f"regression with {n_features} basis functions wants at least "
                f"{MIN_PATHS_PER_FEATURE * n_features} paths, got {n_paths}")


@dataclass
class AdjointPair:
    """One path's p on the forward grid."""

    times: np.ndarray
    p_coeffs: np.ndarray                 # (n_steps + 1, N)


class _StepRegressor:
    """Center-and-scale least squares with zero-variance columns dropped."""

    def __init__(self, features: np.ndarray):
        self.n_paths = features.shape[0]
        mean = features.mean(axis=0)
        std = features.std(axis=0)
        keep = std > 1e-12 * (1.0 + np.abs(mean))
        self.mean, self.std, self.keep = mean, std, keep
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
    """Regression solution over a forward ensemble.

    ``p_values[i, n]`` is the fitted conditional expectation for path i at
    grid node n.  q is kept in reduced form: its ensemble mean per step
    (the mean of the regression targets p_{n+1} (x) dW_n / dt, which the
    intercept makes equal to the mean of the fit) and the per-path weighted
    norm integrals (U_i M U_i^T per step, from the F x F matrix M of the
    fit's coefficients), which is what the duality and norm diagnostics
    consume.
    """

    domain: SpectralDomain
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

    def pair(self, i: int) -> AdjointPair:
        return AdjointPair(times=self.times, p_coeffs=self.p_values[i])


def backward_sweep(domain: SpectralDomain, ensemble: EnsembleStates, drift,
                   terminal: Optional[np.ndarray],
                   forcing_fn: Optional[Callable], spec: RegressionSpec = None, *,
                   fprime_active: bool = True, compute_q: bool = True,
                   sobolev_s: Optional[float] = None) -> AdjointSolution:
    """Backward regression pass given explicit terminal data and forcing.

    ``terminal`` is a (P, N) coefficient array (zero if None); ``forcing_fn``
    maps (step, state modes (P, N)) to the running-forcing coefficients.
    The F_n-measurable forcing is added outside the regression; only the
    genuinely future-measurable part is conditioned.  A non-finite p raises
    ``InstabilityError`` naming the step that produced it first (step n
    fills node n; checked once, after the loop).
    """
    spec = spec or RegressionSpec()
    modes = ensemble.modes
    n_paths, n_plus, n_modes = modes.shape
    n_steps = n_plus - 1
    dt = ensemble.dt
    horizon = float(ensemble.times[-1])
    spec.check_paths(n_modes, n_paths)
    if sobolev_s is None:
        sobolev_s = domain.dimension / 2.0 + 0.5

    decay, wdrift = _step_weights(domain, dt)
    cells = weight_cell_integrals(horizon, n_steps, domain.lambda_exponent)
    vprime_w = (1.0 + domain.eigenvalues) ** (-sobolev_s)

    p_values = np.empty((n_paths, n_steps + 1, n_modes))
    p_next = np.zeros((n_paths, n_modes)) if terminal is None else np.array(terminal, dtype=float)
    if p_next.shape != (n_paths, n_modes):
        raise ShapeError(f"terminal data must have shape ({n_paths}, {n_modes})")
    p_values[:, n_steps] = p_next

    mean_q = np.zeros((n_steps, n_modes, n_modes)) if compute_q else None
    ip = np.zeros(n_paths)
    iq = np.zeros(n_paths) if compute_q else None
    diagnostics = []

    control_values = ensemble.control.values
    for n in range(n_steps - 1, -1, -1):
        target = decay * p_next
        clip_rate = 0.0
        if fprime_active:
            fields = domain.to_field(modes[:, n])
            mult = np.asarray(drift.f_prime(fields, control_values[n]), dtype=float)
            clipped = np.clip(mult, -spec.clip, spec.clip)
            clip_rate = float(np.mean(clipped != mult))
            target = target + domain.to_coeffs(clipped * domain.to_field(wdrift * p_next))

        reg = _StepRegressor(_default_features(modes[:, n], spec))
        p_fit = reg.fit_predict(target)
        resid = target - p_fit
        resid_sd = resid.std(axis=0, ddof=1) if n_paths > 1 else np.ones(n_modes)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.abs(resid.mean(axis=0)) / np.where(resid_sd > 0,
                                                      resid_sd / np.sqrt(n_paths), np.inf)
        diag = {"step": n, "condition": reg.cond, "clip_rate": clip_rate,
                "residual_z_max": float(np.max(z))}

        if compute_q:
            # the fit of q_target = p_next (x) dw / dt is U C with C = U^T q_target, built
            # one feature at a time: an (N, P) @ (P, N_K) product each, small enough to give
            # the same bytes at 1 and 2 BLAS threads on lq-1d
            dw = ensemble.normals[:, n] * np.sqrt(dt)
            mean_q[n] = p_next.T @ dw / (n_paths * dt)
            c = np.stack([(u_f[:, None] * p_next).T @ dw for u_f in reg.u.T]) / dt
            m = (c * vprime_w[:, None]).reshape(len(c), -1) @ c.reshape(len(c), -1).T
            iq += np.sum((reg.u @ m) * reg.u, axis=1) * dt

        if forcing_fn is not None:
            p_fit = p_fit + wdrift * forcing_fn(n, modes[:, n])
        p_values[:, n] = p_fit
        ip += np.sum(p_fit**2, axis=1) * cells[n]
        diagnostics.append(diag)
        p_next = p_fit

    if not np.isfinite(p_values).all():
        # the sweep runs backwards: the highest non-finite row came first
        step = int(np.flatnonzero(~np.isfinite(p_values).all(axis=(0, 2)))[-1])
        raise InstabilityError(f"adjoint p turned non-finite in step {step}", step=step)
    diagnostics.reverse()
    return AdjointSolution(domain=domain, times=ensemble.times, p_values=p_values,
                           mean_q=mean_q, p_weighted_per_path=ip,
                           q_weighted_per_path=iq, diagnostics=diagnostics,
                           ensemble=ensemble)


def solve_adjoint_regression(problem, ensemble: EnsembleStates,
                             spec: RegressionSpec = None, *, compute_q: bool = True,
                             sobolev_s: Optional[float] = None) -> AdjointSolution:
    """Adjoint pair for ``problem`` along a forward ensemble.

    Terminal datum and running forcing are the cost gradients
    zeta = D_x G(X_T)* and f(t) = D_x L(t, X_t, u_t)*, taken from the
    problem's cost specification.
    """
    domain, cost = problem.domain, problem.cost
    terminal = cost.terminal_gradient_coeffs(domain, ensemble.modes[:, -1])
    u = ensemble.control.values

    def forcing_fn(n, state_modes):
        return cost.running_gradient_coeffs(domain, ensemble.times[n], state_modes, u[n])

    return backward_sweep(domain, ensemble, problem.drift, terminal, forcing_fn,
                          spec, compute_q=compute_q, sobolev_s=sobolev_s)


# -- duality -------------------------------------------------------------------

def duality_residual(problem, solution: AdjointSolution, forcing_gamma=None,
                     forcing_eta=None) -> dict:
    """Monte Carlo check of the pairing that defines (p, q), on a given sweep.

    Both sides of  E int <p, gamma> dt + E int <q, eta> dt
                 = E int <f, y> dt + E <zeta, y(T)>
    are estimated on the sweep's forward ensemble, under its control and on
    its noise; the returned relative residual is
    |LHS - RHS| / (|LHS| + |RHS| + floor).  Several forcings thus share one
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
    if forcing_gamma is not None:
        g = np.asarray(forcing_gamma, dtype=float)
        if g.ndim == 1:
            g = np.broadcast_to(g, (n_steps, g.size))
        lhs += float(np.sum(solution.p_mean[:-1] * g) * dt)
    if forcing_eta is not None:
        e = np.asarray(forcing_eta, dtype=float)
        if e.ndim == 1:
            e = np.diag(e)
        lhs += float(np.einsum("nkj,kj->", solution.mean_q, e) * dt)

    y = linearized_modes(domain, problem.drift, ens.modes, ens.normals,
                         control.values, dt, forcing_gamma=forcing_gamma,
                         forcing_eta=forcing_eta)
    cost = problem.cost
    rhs_paths = np.zeros(n_paths)
    for n in range(n_steps):
        f_n = cost.running_gradient_coeffs(domain, ens.times[n], ens.modes[:, n],
                                           control.values[n])
        rhs_paths += np.sum(f_n * y[:, n], axis=1) * dt
    zeta = cost.terminal_gradient_coeffs(domain, ens.modes[:, -1])
    rhs_paths += np.sum(zeta * y[:, -1], axis=1)
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

_MAGIC = b"SPDA"


def adjoint_to_binary(pair: AdjointPair, path: str):
    """Little-endian: b"SPDA", u32 N, u32 n_steps, f64 horizon, u32 N_K = 0,
    u32 has_q = 0, then the p matrix row-major float64."""
    n_steps = pair.times.size - 1
    n_modes = pair.p_coeffs.shape[1]
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIdII", n_modes, n_steps, float(pair.times[-1]), 0, 0))
        fh.write(np.ascontiguousarray(pair.p_coeffs, dtype="<f8").tobytes())


def read_binary_adjoint(path: str):
    """Return (horizon, p matrix) from an adjoint snapshot."""
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ConfigurationError("not an adjoint snapshot")
        n_modes, n_steps, horizon, nk, has_q = struct.unpack("<IIdII", fh.read(24))
        if nk or has_q:
            raise ConfigurationError(f"adjoint snapshot with a q block (N_K = {nk}, "
                                     f"has_q = {has_q}); only p snapshots are read")
        p = np.frombuffer(fh.read(8 * (n_steps + 1) * n_modes),
                          dtype="<f8").reshape(n_steps + 1, n_modes)
    return horizon, p


def diagnostics_to_json(solution: AdjointSolution, path: str):
    with open(path, "w") as fh:
        json.dump({"steps": solution.diagnostics}, fh, indent=2, sort_keys=True)
        fh.write("\n")
