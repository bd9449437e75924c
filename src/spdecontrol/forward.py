"""Mild-solution integrator for the controlled state equation.

Time stepping is exponential Euler in the eigenbasis: the semigroup is
applied exactly, the reaction term is evaluated pseudospectrally (pointwise
on the collocation grid, projected back by the exact sine-transform
pairing) and weighted by the phi1 factor (1 - exp(-mu dt))/mu so constant
forcings are integrated without quadrature error, and the noise increment
reuses the exact Ornstein-Uhlenbeck transition of the stochastic
convolution.

One stepper, ``_exp_euler_nodes``, holds the nonlinear step and its
blow-up guard for a batch of paths and yields the checked state node by
node, scaling each step's standard normals itself.  ``simulate_ensemble``
collects its nodes, on fresh normals or on an earlier ensemble's; the spike
studies consume the nodes of their reruns one at a time.
``linearized_modes`` streams the linearized equation, with a forcing gamma
and a diagonal noise coefficient eta, along a batch of base paths on their
normals.  A path is exported as a ``PathRecord``, in CSV or in the binary
snapshot layout the adjoint's export shares.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, InstabilityError, ShapeError
from .noise import NoiseModel, PathRecord, increment_scale, ou_factors, wiener_normals
from .nonlinearity import ControlSpace, NemytskiiDrift
from .rng import seed_sequence
from .spectral import SpectralDomain

# Sup-norm above which a simulated state counts as blown up.
BLOWUP_BOUND = 1e6


@dataclass
class ControlProcess:
    """Piecewise-constant control: values[n] acts on [t_n, t_{n+1})."""

    values: np.ndarray
    space: ControlSpace

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        for v in self.values:
            if not self.space.contains(v):
                raise ConfigurationError(f"control value {v} outside the admissible set")

    def __len__(self):
        return self.values.size


def constant_control(space: ControlSpace, value: float, n_steps: int) -> ControlProcess:
    return ControlProcess(values=np.full(n_steps, float(value)), space=space)


# -- core integrator ----------------------------------------------------------

def _step_weights(domain: SpectralDomain, dt: float):
    mu = domain.eigenvalues
    decay = np.exp(-mu * dt)
    wdrift = -np.expm1(-mu * dt) / mu          # dt * phi1(-mu dt), exact for mu > 0
    return decay, wdrift


def check_step_stability(drift: NemytskiiDrift, horizon: float, n_steps: int):
    """Refuse a grid that breaks dt*beta < 1, naming the step count to exceed."""
    beta = drift.dissipativity_bound
    if horizon / n_steps * beta >= 1.0:
        raise ConfigurationError(
            f"dt*beta = {horizon / n_steps * beta:.3g} must stay below 1; raise n_steps "
            f"above {math.floor(horizon * beta)} or weaken the drift")


def _exp_euler_nodes(domain: SpectralDomain, drift: NemytskiiDrift,
                     control_values: np.ndarray, x0: np.ndarray, normals: np.ndarray,
                     noise_scale: np.ndarray, dt: float, first_step: int = 0):
    """Exponential-Euler states of a batch of paths, yielded one grid node at a time.

    ``normals`` has shape (P, n_steps, N) and step n adds ``normals[:, n] *
    noise_scale``, so no increments array is built.  Each yielded (P, N)
    state has passed the blow-up guard: a non-finite sup-norm over the
    paths, or one above ``BLOWUP_BOUND``, raises ``InstabilityError``
    naming the node, counted from ``first_step`` when the paths start later
    than t = 0.  The last node is checked too.
    """
    n_paths, n_steps, n_modes = normals.shape
    decay, wdrift = _step_weights(domain, dt)
    state = np.broadcast_to(np.asarray(x0, dtype=float), (n_paths, n_modes)).copy()
    for n in range(n_steps + 1):
        field = domain.to_field(state)
        peak = np.max(np.abs(field))
        if not np.isfinite(peak) or peak > BLOWUP_BOUND:
            step = first_step + n
            raise InstabilityError(
                f"state sup-norm {peak:.3e} exceeded {BLOWUP_BOUND:.1e} at step {step}",
                step=step)
        yield state
        if n == n_steps:
            return
        reaction = domain.to_coeffs(drift.f(field, control_values[n]))
        state = decay * state + wdrift * reaction + normals[:, n] * noise_scale


def _exp_euler(domain: SpectralDomain, drift: NemytskiiDrift, control_values: np.ndarray,
               x0: np.ndarray, normals: np.ndarray, noise_scale: np.ndarray,
               dt: float) -> np.ndarray:
    """The nodes of ``_exp_euler_nodes`` collected into modes of shape (P, n_steps + 1, N)."""
    n_paths, n_steps, n_modes = normals.shape
    modes = np.empty((n_paths, n_steps + 1, n_modes))
    for n, state in enumerate(_exp_euler_nodes(domain, drift, control_values, x0, normals,
                                               noise_scale, dt)):
        modes[:, n] = state
    return modes


@dataclass
class EnsembleStates:
    """A batch of paths simulated under one control with per-path streams."""

    times: np.ndarray
    modes: np.ndarray      # (n_paths, n_steps + 1, N)
    normals: np.ndarray    # (n_paths, n_steps, N)
    control: ControlProcess

    @property
    def n_paths(self) -> int:
        return self.modes.shape[0]

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def trajectory(self, i: int) -> PathRecord:
        return PathRecord(times=self.times, mode_coeffs=self.modes[i])


def simulate_ensemble(domain: SpectralDomain, drift: NemytskiiDrift, noise: NoiseModel,
                      control: ControlProcess, x0: np.ndarray, horizon: float,
                      n_paths: int, root_seed: int, *,
                      normals: Optional[np.ndarray] = None) -> EnsembleStates:
    """Sample ``n_paths`` mild-solution paths under one control, path ``i``
    driven by the normals of stream ``(root_seed, "wiener", i)``; the control
    has one value per step.

    Passing the ``normals`` of an earlier ensemble reruns its noise paths
    under another control from t = 0.
    """
    n_steps = len(control)
    check_step_stability(drift, horizon, n_steps)
    if np.shape(x0) != (domain.n_modes,):
        raise ShapeError(f"x0 must have shape ({domain.n_modes},), got {np.shape(x0)}")
    dt = horizon / n_steps
    if normals is None:
        normals = np.empty((n_paths, n_steps, domain.n_modes))
        for i in range(n_paths):
            normals[i] = wiener_normals(seed_sequence(root_seed, "wiener", i), n_steps,
                                        domain.n_modes)
    elif normals.shape != (n_paths, n_steps, domain.n_modes):
        raise ShapeError(f"normals must have shape {(n_paths, n_steps, domain.n_modes)}, "
                         f"got {normals.shape}")
    modes = _exp_euler(domain, drift, control.values, x0, normals,
                       increment_scale(domain, noise, dt), dt)
    return EnsembleStates(times=np.linspace(0.0, horizon, n_steps + 1),
                          modes=modes, normals=normals, control=control)


# -- linearized equation with forcings ----------------------------------------

def linearized_modes(domain: SpectralDomain, drift: NemytskiiDrift,
                     base_modes: np.ndarray, normals, control_values: np.ndarray,
                     dt: float, gamma_fn=None, forcing_eta=None, first_step: int = 0):
    """Linearized dynamics along a batch of base paths, yielded one grid node at a time.

    Solves dy = [A y + f'(X_t, u_t) y + gamma] dt + eta dW with y(0) = 0 for
    ``base_modes`` of shape (P, n_steps + 1, N): the multiplication
    coefficient is frozen per step at the base state, ``gamma_fn(n,
    base_step_modes) -> (P, N)`` (or a broadcastable (N,)) supplies the
    forcing in mode coefficients, and the diagonal ``forcing_eta`` (N,)
    scales the base path's own ``normals`` (shared noise).  Returns a stream
    of the (P, N) nodes 0 ... n_steps from the zero start; the arguments are
    checked at the call, and a non-finite node raises ``InstabilityError``
    naming the step that produced it, counted from ``first_step``.
    """
    n_paths, n_plus, n_modes = base_modes.shape
    n_steps = n_plus - 1
    if control_values.size != n_steps:
        raise ShapeError(f"control has {control_values.size} values for {n_steps} steps")
    if forcing_eta is not None:
        if normals is None:
            raise ConfigurationError("eta forcing needs the base path's stored normals")
        forcing_eta = np.asarray(forcing_eta, dtype=float)
        if forcing_eta.shape != (n_modes,):
            raise ShapeError(f"eta must be a diagonal of shape ({n_modes},), "
                             f"got {forcing_eta.shape}")

    decay, wdrift = _step_weights(domain, dt)
    _, sd = ou_factors(domain.eigenvalues, dt)

    def nodes():
        y = np.zeros((n_paths, n_modes))
        yield y
        for n in range(n_steps):
            forcing = np.zeros((n_paths, n_modes))
            if gamma_fn is not None:
                forcing += gamma_fn(n, base_modes[:, n])
            mult = drift.f_prime(domain.to_field(base_modes[:, n]), control_values[n])
            forcing += domain.to_coeffs(mult * domain.to_field(y))
            y = decay * y + wdrift * forcing
            if forcing_eta is not None:
                y += forcing_eta * sd * normals[:, n]
            if not np.isfinite(y).all():
                raise InstabilityError("linearized solution turned non-finite in step "
                                       f"{first_step + n}", step=first_step + n)
            yield y

    return nodes()


def weight_cell_integrals(horizon: float, n_steps: int, exponent: float) -> np.ndarray:
    """Exact integrals of (T - s)^exponent over each grid cell (singular at s=T allowed)."""
    edges = np.linspace(0.0, horizon, n_steps + 1)
    tau = horizon - edges
    q = exponent + 1.0
    return (tau[:-1] ** q - tau[1:] ** q) / q


# -- exports -------------------------------------------------------------------


def trajectory_to_csv(traj: PathRecord, path: str):
    """Rows (time, mode index, coefficient), deterministic %.17g formatting."""
    with open(path, "w") as fh:
        fh.write("time,mode,coefficient\n")
        for t, row in zip(traj.times, traj.mode_coeffs):
            for k, value in enumerate(row):
                fh.write(f"{t:.17g},{k},{value:.17g}\n")


def _write_snapshot(record: PathRecord, path: str, magic: bytes, extra: tuple = ()):
    """Little-endian snapshot: ``magic``, u32 N, u32 n_steps, f64 horizon, the
    u32 fields ``extra``, then the (n_steps+1) x N coefficient matrix as
    row-major float64."""
    n_plus, n_modes = record.mode_coeffs.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(f"<4sIId{len(extra)}I", magic, n_modes, n_plus - 1,
                             float(record.times[-1]), *extra))
        fh.write(np.ascontiguousarray(record.mode_coeffs, dtype="<f8").tobytes())


def _read_snapshot(path: str, magic: bytes, refusal: str, n_extra: int = 0):
    """(horizon, the ``n_extra`` u32 fields, coefficient matrix) of a ``_write_snapshot``
    file; ``ConfigurationError`` if its magic is not ``magic`` (with ``refusal``,
    formatted with the magic read) or its size is not the one its header gives."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != magic:
        raise ConfigurationError(refusal.format(data[:4]))
    header = struct.Struct(f"<4sIId{n_extra}I")
    if len(data) < header.size:
        raise ConfigurationError(f"snapshot {path} is truncated inside its header")
    _, n_modes, n_steps, horizon, *extra = header.unpack_from(data)
    if len(data) - header.size != 8 * (n_steps + 1) * n_modes:
        raise ConfigurationError(
            f"snapshot {path} holds {len(data) - header.size} matrix bytes; its header "
            f"(N = {n_modes}, n_steps = {n_steps}) wants {8 * (n_steps + 1) * n_modes}")
    matrix = np.frombuffer(data, dtype="<f8", offset=header.size)
    return horizon, extra, matrix.reshape(n_steps + 1, n_modes)


def trajectory_to_binary(traj: PathRecord, path: str):
    """Snapshot with magic b"SPDT" and no extra header fields."""
    _write_snapshot(traj, path, b"SPDT")


def read_binary_trajectory(path: str):
    """Return (horizon, coefficient matrix) from a binary snapshot."""
    horizon, _, data = _read_snapshot(path, b"SPDT",
                                      "not a trajectory snapshot: bad magic {!r}")
    return horizon, data
