"""Colored cylindrical noise in the eigenbasis.

The covariance is diagonal, b_k = mu_k^(-gamma), so each mode of the
stochastic convolution is a scalar Ornstein-Uhlenbeck process.  Sampling
uses the exact per-step OU transition w_{n+1} = exp(-mu dt) w_n + b sd xi
(no Euler bias in law): ``ou_paths`` applies it to one path's increments
for ``sample_convolution``, and the sup-norm moment study steps it over a
block of paths at once, one node at a time, keeping only a running sup per
path.  The only approximation anywhere is the mode truncation, which is
exactly what the regularity diagnostics in this module are meant to probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .rng import make_rng, seed_sequence
from .spectral import DomainKind, SpectralDomain, make_domain


@dataclass(frozen=True)
class NoiseModel:
    domain: SpectralDomain
    gamma: float
    alpha: float
    seed: int

    def __post_init__(self):
        if self.gamma < 0:
            raise ConfigurationError(f"gamma must be nonnegative, got {self.gamma}")
        if not 0.0 < self.alpha < 0.5:
            raise ConfigurationError(f"alpha must lie in (0, 1/2), got {self.alpha}")

    @property
    def b_coeffs(self) -> np.ndarray:
        return self.domain.eigenvalues ** (-self.gamma)


@dataclass
class PathRecord:
    """One path of mode coefficients on the time grid: a state, an adjoint or a
    stochastic-convolution path, as the exporters write it."""

    times: np.ndarray        # (n_steps + 1,)
    mode_coeffs: np.ndarray  # (n_steps + 1, N)


def ou_factors(mu: np.ndarray, dt: float):
    """Per-mode decay exp(-mu dt) and transition standard deviation.

    The stochastic integral of exp(-mu (t-s)) over one step has variance
    (1 - exp(-2 mu dt)) / (2 mu); the mu -> 0 limit dt is handled too.
    """
    mu = np.asarray(mu, dtype=float)
    decay = np.exp(-mu * dt)
    with np.errstate(divide="ignore", invalid="ignore"):
        var = np.where(mu > 0, -np.expm1(-2.0 * mu * dt) / (2.0 * mu), dt)
    return decay, np.sqrt(var)


def wiener_normals(path_seed, n_steps: int, n_modes: int) -> np.ndarray:
    """The (n_steps, n_modes) standard normals that drive one path."""
    return make_rng(path_seed).standard_normal((n_steps, n_modes))


def increment_scale(domain: SpectralDomain, noise: NoiseModel, dt: float) -> np.ndarray:
    """Per-mode factor b_k * sd_k that turns one step's standard normals into
    exact-in-law stochastic-convolution increments."""
    _, sd = ou_factors(domain.eigenvalues, dt)
    return noise.b_coeffs * sd


def convolution_increments(domain: SpectralDomain, noise: NoiseModel,
                           normals: np.ndarray, dt: float) -> np.ndarray:
    """Exact-in-law per-step stochastic-convolution increments b_k * sd_k * xi."""
    return normals * increment_scale(domain, noise, dt)


def ou_paths(mu: np.ndarray, dt: float, increments: np.ndarray) -> np.ndarray:
    """Ornstein-Uhlenbeck paths from their per-step increments.

    w_0 = 0 and w_{n+1} = exp(-mu dt) w_n + increments[n]; ``increments``
    has shape (n_steps, N) and the result (n_steps + 1, N).
    """
    n_steps, n_modes = increments.shape
    decay = np.exp(-np.asarray(mu, dtype=float) * dt)
    out = np.zeros((n_steps + 1, n_modes))
    for n in range(n_steps):
        out[n + 1] = decay * out[n] + increments[n]
    return out


def aggregate_increments(increments: np.ndarray, mu: np.ndarray,
                         dt_fine: float, ratio: int) -> np.ndarray:
    """Collapse fine-step convolution increments onto a grid ``ratio`` x coarser.

    A fine increment laid down j sub-steps before the coarse node decays by
    exp(-mu * j * dt_fine); summing reproduces the coarse-step increment of
    the same underlying Wiener path exactly.
    """
    n_fine, n_modes = increments.shape
    if n_fine % ratio:
        raise ConfigurationError("fine step count must be a multiple of the ratio")
    out = np.zeros((n_fine // ratio, n_modes))
    for j in range(ratio):
        decay = np.exp(-np.asarray(mu) * dt_fine * (ratio - 1 - j))
        out += increments[j::ratio] * decay
    return out


def sample_convolution(domain: SpectralDomain, noise: NoiseModel, n_steps: int,
                       horizon: float, path_seed) -> PathRecord:
    """One path of the stochastic convolution on a uniform grid, row 0 zero.

    The per-step recursion w_{n+1} = exp(-mu dt) w_n + b sd xi matches the
    continuous-time Gaussian law at every grid node exactly.
    """
    if n_steps < 1:
        raise ConfigurationError("need at least one time step")
    dt = horizon / n_steps
    normals = wiener_normals(path_seed, n_steps, domain.n_modes)
    incr = convolution_increments(domain, noise, normals, dt)
    return PathRecord(times=np.linspace(0.0, horizon, n_steps + 1),
                      mode_coeffs=ou_paths(domain.eigenvalues, dt, incr))


# -- analytic diagnostics ----------------------------------------------------

def trace_summand(domain: SpectralDomain, noise: NoiseModel, t: float) -> float:
    """Truncated trace of the convolution covariance at time t.

    sum_k b_k^2 (1 - exp(-2 mu_k t)) / (2 mu_k); nondecreasing in the mode
    count, and finite for every truncation.
    """
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    mu = domain.eigenvalues
    return float(np.sum(noise.b_coeffs**2 * -np.expm1(-2.0 * mu * t) / (2.0 * mu)))


def eigenfunction_growth(domain: SpectralDomain) -> np.ndarray:
    """Sup-norm growth profile c_k: constant for the hypercube, mu^((d-1)/4) worst case."""
    if domain.kind is DomainKind.BALL_FORMULA:
        return domain.eigenvalues ** ((domain.dimension - 1) / 4.0)
    return np.ones(domain.n_modes)


def series_condition_v(domain: SpectralDomain, noise: NoiseModel) -> dict:
    """Convergence verdict for sum_k b_k^2 mu_k^(2 alpha - 1) c_k^2.

    The analytic verdict comes from the integral test against the Weyl
    eigenvalue density mu^(d/2): with theta the summand exponent, the
    series converges iff theta < -d/2, which is equivalent to
    gamma > regularity_threshold(...).  A truncated partial sum is
    returned alongside as a numerical sanity value.
    """
    d = domain.dimension
    theta = 2.0 * noise.alpha - 1.0 - 2.0 * noise.gamma
    if domain.kind is DomainKind.BALL_FORMULA:
        theta += (d - 1) / 2.0
    converges = theta < -d / 2.0
    ck = eigenfunction_growth(domain)
    value = float(np.sum(noise.b_coeffs**2
                         * domain.eigenvalues ** (2.0 * noise.alpha - 1.0) * ck**2))
    return {"value": value, "converges": bool(converges), "exponent": float(theta)}


# -- sup-norm moment study ----------------------------------------------------

# bytes of per-path normals the moment study holds at once; it steps that many paths together
MOMENT_BLOCK_BYTES = 1 << 20


def supnorm_moment_study(domain: SpectralDomain, noise: NoiseModel,
                         truncations: list[int], n_paths: int = 200, p: float = 2.0,
                         n_steps: int = 32, horizon: float = 1.0) -> list[dict]:
    """Empirical E sup_{t,xi} |W_A|^p at increasing mode truncations.

    ``truncations`` are per-axis mode counts, each at most the per-axis
    count of ``domain``.  All truncations of one path share the underlying
    normals of the finest one (the shared low modes see identical noise),
    so growth of the estimates isolates the effect of the added modes.
    Stabilizing estimates indicate the regular regime; growth indicates
    super-threshold irregularity.

    Path i draws its normals from its own stream ``(seed, "moment", i)``.
    The paths are taken in blocks whose normals fit in
    ``MOMENT_BLOCK_BYTES``; for each truncation the block steps the
    Ornstein-Uhlenbeck recursion together, gathering one step's normals at
    a time, and keeps a running sup per path, so no path or increments
    array of the whole horizon is built.
    """
    if p < 2:
        raise ConfigurationError(f"moment order must be >= 2, got {p}")
    m_max = max(truncations)
    if m_max > domain.n_modes_per_axis:
        raise ConfigurationError("truncation exceeds the domain's modes per axis")
    d = domain.dimension
    dt = horizon / n_steps
    subdomains = {m: make_domain(d, m) for m in truncations}
    sub_noises = {m: NoiseModel(sub, noise.gamma, noise.alpha, noise.seed)
                  for m, sub in subdomains.items()}

    sups = {m: np.zeros(n_paths) for m in truncations}
    tensor_shape = (m_max,) * d
    # blocks of two paths or more: a one-row transform takes BLAS's matrix-vector
    # kernel, whose rows can differ in the last bit from those of a matrix product
    size = max(2, MOMENT_BLOCK_BYTES // (8 * n_steps * m_max**d))
    starts = list(range(0, n_paths, size))
    if len(starts) > 1 and n_paths - starts[-1] == 1:
        starts.pop()
    block = np.empty((min(size + 1, n_paths), n_steps) + tensor_shape)
    for first, stop in zip(starts, starts[1:] + [n_paths]):
        paths = range(first, stop)
        normals = block[:len(paths)]
        for b, i in enumerate(paths):
            rng = np.random.default_rng(seed_sequence(noise.seed, "moment", i))
            normals[b] = rng.standard_normal((n_steps,) + tensor_shape)
        for m in truncations:
            sub = subdomains[m]
            decay = np.exp(-sub.eigenvalues * dt)
            slicer = (slice(None),) + (slice(0, m),) * d
            w = np.zeros((len(paths), sub.n_modes))
            sup = np.zeros(len(paths))
            for n in range(n_steps):
                # tensor-layout normals gathered into the subdomain's sorted mode order
                xi = normals[:, n][slicer].reshape(len(paths), -1)[:, sub._tensor_index]
                w = decay * w + convolution_increments(sub, sub_noises[m], xi, dt)
                sup = np.maximum(sup, sub.sup_norm(w))
            sups[m][first:stop] = sup

    rows = []
    for m in truncations:
        vals = sups[m] ** p
        rows.append({
            "truncation": m ** d,
            "modes_per_axis": m,
            "paths": n_paths,
            "p": p,
            "estimate": float(vals.mean()),
            "stderr": float(vals.std(ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0,
        })
    return rows


# -- factorization representation ---------------------------------------------

def factorization_prefactor(alpha: float) -> float:
    """The constant sin(pi alpha)/pi in the factorization identity."""
    return math.sin(math.pi * alpha) / math.pi


@dataclass
class SingularKernelSample:
    """The intermediate process Y(sigma) = int_0^sigma S(sigma-s)(sigma-s)^(-alpha) B dW."""
    times: np.ndarray        # evaluation times (cell midpoints)
    mode_coeffs: np.ndarray  # (len(times), N)
    dt: float


def sample_singular_process(domain: SpectralDomain, noise: NoiseModel, n_steps: int,
                            horizon: float, path_seed) -> SingularKernelSample:
    """Sample Y at cell midpoints from piecewise-constant Wiener increments.

    Within each cell the singular factor (sigma - s)^(-alpha) is integrated
    exactly and the exponential is frozen at the cell midpoint, so the
    quadrature keeps its rate despite the integrable singularity.
    """
    dt = horizon / n_steps
    dw = wiener_normals(path_seed, n_steps, domain.n_modes) * math.sqrt(dt)
    a = noise.alpha
    mu = domain.eigenvalues
    mids = (np.arange(n_steps) + 0.5) * dt
    edges = np.arange(n_steps + 1) * dt
    coeffs = np.zeros((n_steps, domain.n_modes))
    for m, sigma in enumerate(mids):
        j = np.arange(m + 1)
        right = np.minimum(edges[j + 1], sigma)
        # exact cell integrals of (sigma - s)^(-alpha)
        kern = ((sigma - edges[j]) ** (1.0 - a) - (sigma - right) ** (1.0 - a)) / (1.0 - a)
        centers = 0.5 * (edges[j] + right)
        decay = np.exp(-np.outer(sigma - centers, mu))
        weights = (right - edges[j])
        with np.errstate(invalid="ignore"):
            scale = np.where(weights > 0, kern / weights, 0.0)
        coeffs[m] = noise.b_coeffs * np.sum(decay * (dw[: m + 1] * scale[:, None]), axis=0)
    return SingularKernelSample(times=mids, mode_coeffs=coeffs, dt=dt)


def factorization_reconstruct(domain: SpectralDomain, noise: NoiseModel,
                              y_sample: SingularKernelSample, alpha: float) -> PathRecord:
    """Rebuild the convolution from Y through the singular-kernel integral.

    W_A(t) = sin(pi alpha)/pi * int_0^t S(t-sigma) (t-sigma)^(alpha-1) Y(sigma) dsigma,
    evaluated by midpoint quadrature with the kernel integrated exactly on
    each cell.  Driven by the same increments it agrees with the direct
    sample pathwise up to quadrature error.
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 1/2), got {alpha}")
    dt = y_sample.dt
    n_steps = len(y_sample.times)
    mu = domain.eigenvalues
    prefactor = factorization_prefactor(alpha)
    coeffs = np.zeros((n_steps + 1, domain.n_modes))
    edges = np.arange(n_steps + 1) * dt
    for n in range(1, n_steps + 1):
        t = edges[n]
        m = np.arange(n)
        kern = ((t - edges[m]) ** alpha - (t - edges[m + 1]) ** alpha) / alpha
        decay = np.exp(-np.outer(t - y_sample.times[:n], mu))
        coeffs[n] = prefactor * np.sum(decay * y_sample.mode_coeffs[:n] * kern[:, None], axis=0)
    return PathRecord(times=edges, mode_coeffs=coeffs)
