"""Backward equation for the adjoint pair (p, q) by least-squares Monte Carlo.

The backward recursion is the exact algebraic transpose of the forward
exponential-Euler step, with conditional expectations realized by
regression on basis functions of the current state's mode coefficients
(Longstaff-Schwartz style).  q is extracted from the martingale increment
at the same step, q_n = E[p_{n+1} (x) dW_n | F_n] / dt.

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
from .forward import (EnsembleStates, linearized_modes, simulate_ensemble,
                      weight_cell_integrals, _step_weights)
from .rng import make_rng
from .spectral import SpectralDomain


@dataclass(frozen=True)
class RegressionSpec:
    """Basis and conditioning policy for the conditional expectations.

    The default basis {1} u {mode coefficients} is exact for
    linear-quadratic problems, where p is affine in the state.
    ``basis_modes`` restricts the mode features to the lowest that many
    modes, which keeps the path requirement affordable on fine truncations
    (the discarded high modes are nearly decoupled there).
    ``mixing_seed`` applies a random orthogonal recombination of the
    features; it changes nothing in exact arithmetic (same span) and is
    used to probe uniqueness of the regression solution.
    """

    include_modes: bool = True
    basis_modes: Optional[int] = None
    degree2: bool = False
    mixing_seed: Optional[int] = None
    clip: float = 1e3
    condition_limit: float = 1e10
    min_paths_per_feature: int = 10

    def check_paths(self, n_modes: int, n_paths: int):
        """Raise unless ``n_paths`` affords this basis on ``n_modes`` state modes."""
        core_modes = n_modes if self.basis_modes is None else min(self.basis_modes, n_modes)
        n_features = 1 + (core_modes if self.include_modes else 0) + (core_modes if self.degree2 else 0)
        if n_paths < self.min_paths_per_feature * n_features:
            raise ConfigurationError(
                f"regression with {n_features} basis functions wants at least "
                f"{self.min_paths_per_feature * n_features} paths, got {n_paths}")


@dataclass
class AdjointPair:
    """One path's adjoint processes on the forward grid.

    ``q_matrix`` maps truncated noise modes to state modes per step and may
    be absent when only p was requested.
    """

    times: np.ndarray
    p_coeffs: np.ndarray                 # (n_steps + 1, N)
    q_matrix: Optional[np.ndarray] = None  # (n_steps, N, N_K)


class _StepRegressor:
    """Center-and-scale least squares with zero-variance columns dropped."""

    def __init__(self, features: np.ndarray, spec: RegressionSpec):
        self.n_paths = features.shape[0]
        mean = features.mean(axis=0)
        std = features.std(axis=0)
        keep = std > 1e-12 * (1.0 + np.abs(mean))
        self.mean, self.std, self.keep = mean, std, keep
        core = (features[:, keep] - mean[keep]) / std[keep]
        if spec.mixing_seed is not None and core.shape[1] > 0:
            rng = make_rng((spec.mixing_seed, "basis", 0))
            raw = rng.standard_normal((core.shape[1], core.shape[1]))
            mix, _ = np.linalg.qr(raw)
            core = core @ mix
        phi = np.concatenate([np.ones((self.n_paths, 1)), core], axis=1)
        u, s, vt = np.linalg.svd(phi, full_matrices=False)
        self.cond = float(s[0] / s[-1]) if s[-1] > 0 else np.inf
        if self.cond > spec.condition_limit:
            raise RegressionError(
                f"regression condition number {self.cond:.2e} exceeds "
                f"{spec.condition_limit:.0e}; reduce the basis (e.g. drop degree-2 terms)")
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
    grid node n.  q is kept in reduced form: its ensemble mean per step and
    the per-path weighted norm integrals, which is what the duality and
    norm diagnostics consume.
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

        reg = _StepRegressor(_default_features(modes[:, n], spec), spec)
        p_fit = reg.fit_predict(target)
        resid = target - p_fit
        resid_sd = resid.std(axis=0, ddof=1) if n_paths > 1 else np.ones(n_modes)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.abs(resid.mean(axis=0)) / np.where(resid_sd > 0,
                                                      resid_sd / np.sqrt(n_paths), np.inf)
        diag = {"step": n, "condition": reg.cond, "clip_rate": clip_rate,
                "residual_z_max": float(np.max(z))}

        if compute_q:
            dw = ensemble.normals[:, n] * np.sqrt(dt)
            q_target = (p_next[:, :, None] * dw[:, None, :] / dt).reshape(n_paths, -1)
            q_fit = reg.fit_predict(q_target).reshape(n_paths, n_modes, n_modes)
            mean_q[n] = q_fit.mean(axis=0)
            iq += np.sum(vprime_w[None, :, None] * q_fit**2, axis=(1, 2)) * dt

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
                          spec, compute_q=compute_q,
                          sobolev_s=sobolev_s if sobolev_s is not None
                          else getattr(problem, "sobolev_s", None))


# -- duality -------------------------------------------------------------------

def duality_residual(problem, forcing_gamma=None, forcing_eta=None,
                     n_paths: Optional[int] = None, *,
                     control=None, seed: Optional[int] = None,
                     spec: RegressionSpec = None, n_steps: Optional[int] = None,
                     solution: Optional[AdjointSolution] = None) -> dict:
    """Monte Carlo check of the pairing that defines (p, q).

    Both sides of  E int <p, gamma> dt + E int <q, eta> dt
                 = E int <f, y> dt + E <zeta, y(T)>
    are estimated on a common ensemble and noise streams; the returned
    relative residual is |LHS - RHS| / (|LHS| + |RHS| + floor).

    Without ``solution`` this simulates ``n_paths`` (500 by default) paths
    under ``control`` (zero by default), sweeps them (with q only for an eta
    forcing) and pairs.  Given a ``solution`` that references its forward
    ensemble, it only pairs, under that ensemble's control and paths:
    several forcings then share one ensemble and one sweep.  The two routes
    exclude each other, so ``solution`` together with any of ``n_paths``,
    ``control``, ``seed``, ``spec`` or ``n_steps`` is a ConfigurationError.
    p does not depend on whether q was computed, and ``sobolev_s`` only
    weights the q norm, so either route gives the same bytes.
    """
    if solution is not None:
        given = [name for name, value in (("n_paths", n_paths), ("control", control),
                                          ("seed", seed), ("spec", spec),
                                          ("n_steps", n_steps)) if value is not None]
        if given:
            raise ConfigurationError(f"duality_residual pairs on the given solution's ensemble; "
                                     f"{', '.join(given)} would be ignored")
    else:
        from .control import constant_control_for  # local import to avoid a cycle

        n_paths = n_paths if n_paths is not None else 500
        n_steps = n_steps or problem.n_steps
        control = control if control is not None else constant_control_for(problem, 0.0, n_steps)
        seed = seed if seed is not None else problem.noise.seed
        ens = simulate_ensemble(problem.domain, problem.drift, problem.noise, control,
                                problem.x0, n_steps, problem.horizon, n_paths, seed)
        solution = solve_adjoint_regression(problem, ens, spec,
                                            compute_q=forcing_eta is not None)
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
    """Little-endian: b"SPDA", u32 N, u32 n_steps, f64 horizon, u32 N_K,
    u32 has_q, p matrix row-major float64, then the q tensor if present."""
    n_steps = pair.times.size - 1
    n_modes = pair.p_coeffs.shape[1]
    nk = pair.q_matrix.shape[2] if pair.q_matrix is not None else 0
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIdII", n_modes, n_steps, float(pair.times[-1]),
                             nk, 1 if pair.q_matrix is not None else 0))
        fh.write(np.ascontiguousarray(pair.p_coeffs, dtype="<f8").tobytes())
        if pair.q_matrix is not None:
            fh.write(np.ascontiguousarray(pair.q_matrix, dtype="<f8").tobytes())


def read_binary_adjoint(path: str):
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ConfigurationError("not an adjoint snapshot")
        n_modes, n_steps, horizon, nk, has_q = struct.unpack("<IIdII", fh.read(24))
        p = np.frombuffer(fh.read(8 * (n_steps + 1) * n_modes),
                          dtype="<f8").reshape(n_steps + 1, n_modes)
        q = None
        if has_q:
            q = np.frombuffer(fh.read(), dtype="<f8").reshape(n_steps, n_modes, nk)
    return horizon, p, q


def diagnostics_to_json(solution: AdjointSolution, path: str):
    with open(path, "w") as fh:
        json.dump({"steps": solution.diagnostics}, fh, indent=2, sort_keys=True)
        fh.write("\n")
