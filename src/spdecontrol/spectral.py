"""Truncated Dirichlet-Laplacian eigenbasis on [0, pi]^d.

The spatial discretization used everywhere in the package: fields are
represented either by coefficients in the sine eigenbasis or by values on
the interior collocation grid xi_j = j*pi/(M+1).  With that grid the two
representations are exchanged by an exactly invertible discrete sine
transform (DST-I), so projection/reconstruction round-trips are lossless
at truncation order M per axis.  Up to ``DENSE_TRANSFORM_MAX_MODES``
modes the transform is one product with the precomputed sine matrix;
above it, pocketfft's DST-I.  It is the same transform either way.

The unit ball never gets a discretization here; it participates only
through its eigenfunction-growth profile in the noise-regularity
formulas (``regularity_threshold`` and friends).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import CapacityError, ConfigurationError


# Largest n_modes whose transforms use the dense sine matrix.  Below it one
# matrix product beats pocketfft's per-call overhead on the short rows used
# here; above it the DST wins and the N x N matrix would cost O(N^2) memory.
# Single-thread timings put the crossover between 384 modes (a tie) and 512
# (the DST about 2x faster on one row); 256 keeps each matrix at 512 KiB.
DENSE_TRANSFORM_MAX_MODES = 256


class DomainKind(str, Enum):
    HYPERCUBE = "interval_or_hypercube"
    BALL_FORMULA = "ball_formula_only"


@dataclass(frozen=True)
class SpectralDomain:
    """Immutable truncated spectral representation.

    ``eigenvalues`` are sorted ascending; degenerate values are ordered by
    lexicographic multi-index so the mode numbering is deterministic.
    ``lambda_exponent`` is the heat-semigroup L2->sup smoothing exponent
    d/4, which must stay below 1 (hence d <= 3).
    """

    dimension: int
    kind: DomainKind
    n_modes_per_axis: int
    eigenvalues: np.ndarray          # (N,)
    mode_indices: np.ndarray         # (N, d), entries >= 1
    lambda_exponent: float
    collocation_points: np.ndarray   # (N, d) interior grid, hypercube only
    quad_weight: float               # (pi/(M+1))**d
    _tensor_index: np.ndarray = field(repr=False, default=None)  # sorted -> flat tensor position
    # dense sine matrices (N, N), None above DENSE_TRANSFORM_MAX_MODES:
    # synthesis[k, j] = e_k(xi_j), analysis = quad_weight * synthesis.T
    _synthesis: np.ndarray = field(repr=False, compare=False, default=None)
    _analysis: np.ndarray = field(repr=False, compare=False, default=None)

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.size

    # -- representation changes ------------------------------------------

    def _require_grid(self):
        if self.kind is not DomainKind.HYPERCUBE:
            raise ConfigurationError(
                "ball-formula domains carry no collocation grid; "
                "only threshold/series formulas are available")

    def to_field(self, coeffs: np.ndarray) -> np.ndarray:
        """Eigen-coefficients (..., N) -> collocation values (..., N)."""
        self._require_grid()
        coeffs = np.asarray(coeffs, dtype=float)
        if self._synthesis is None:
            return _dst_to_field(self, coeffs)
        return _rowwise_product(coeffs, self._synthesis)

    def to_coeffs(self, field_values: np.ndarray) -> np.ndarray:
        """Collocation values (..., N) -> eigen-coefficients (..., N)."""
        self._require_grid()
        field_values = np.asarray(field_values, dtype=float)
        if self._analysis is None:
            return _dst_to_coeffs(self, field_values)
        return _rowwise_product(field_values, self._analysis)

    def evaluate_modes(self, points: np.ndarray) -> np.ndarray:
        """Matrix e_k(xi) of shape (n_points, N) at arbitrary interior points."""
        self._require_grid()
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dimension:
            raise ConfigurationError(
                f"points must have {self.dimension} coordinates, got {pts.shape[1]}")
        vals = np.ones((pts.shape[0], self.n_modes))
        for axis in range(self.dimension):
            vals *= np.sin(np.outer(pts[:, axis], self.mode_indices[:, axis]))
        vals *= (2.0 / math.pi) ** (self.dimension / 2.0)
        return vals

    def sup_norm(self, coeffs: np.ndarray) -> np.ndarray:
        """Sup norm over the collocation grid (a lower bound on the true sup)."""
        return np.max(np.abs(self.to_field(coeffs)), axis=-1)

    def ones_coeffs(self) -> np.ndarray:
        """Collocation projection of the constant field 1."""
        return self.to_coeffs(np.ones(self.n_modes))


def make_domain(dimension: int, n_modes_per_axis: int,
                kind: DomainKind | str = DomainKind.HYPERCUBE) -> SpectralDomain:
    kind = DomainKind(kind)
    if dimension not in (1, 2, 3):
        raise ConfigurationError(
            f"dimension must be 1, 2 or 3 so that the smoothing exponent d/4 < 1; got {dimension}")
    if n_modes_per_axis < 1:
        raise ConfigurationError("need at least one mode per axis")

    m = int(n_modes_per_axis)
    d = int(dimension)
    axes = [np.arange(1, m + 1)] * d
    grids = np.meshgrid(*axes, indexing="ij")
    indices = np.stack([g.ravel() for g in grids], axis=1)           # (N, d) tensor order
    eigenvalues = (indices.astype(float) ** 2).sum(axis=1)

    # sort by eigenvalue, ties by lexicographic multi-index
    order = np.lexsort(tuple(indices[:, i] for i in reversed(range(d))) + (eigenvalues,))
    indices = indices[order]
    eigenvalues = eigenvalues[order]
    tensor_index = np.ravel_multi_index((indices - 1).T, (m,) * d)

    synthesis = analysis = None
    quad_weight = (math.pi / (m + 1)) ** d
    if kind is DomainKind.HYPERCUBE:
        pts_axis = np.arange(1, m + 1) * (math.pi / (m + 1))
        pgrids = np.meshgrid(*([pts_axis] * d), indexing="ij")
        colloc = np.stack([g.ravel() for g in pgrids], axis=1)
        if m ** d <= DENSE_TRANSFORM_MAX_MODES:
            synthesis = _sine_matrix(m, d)[tensor_index]
            analysis = np.ascontiguousarray(quad_weight * synthesis.T)
    else:
        colloc = np.empty((0, d))

    return SpectralDomain(
        dimension=d,
        kind=kind,
        n_modes_per_axis=m,
        eigenvalues=eigenvalues,
        mode_indices=indices,
        lambda_exponent=d / 4.0,
        collocation_points=colloc,
        quad_weight=quad_weight,
        _tensor_index=tensor_index,
        _synthesis=synthesis,
        _analysis=analysis,
    )


# -- transform kernels -------------------------------------------------------

def _sine_matrix(m: int, d: int) -> np.ndarray:
    """e_k(xi_j) with rows and columns in tensor-ravel order, shape (m^d, m^d).

    The 1-D table sin(pi k j / (m+1)) reduces k j modulo 2 (m+1) in exact
    integers first, so no entry is the sine of a large, already rounded
    angle.
    """
    k = np.arange(1, m + 1)
    table = np.sin(np.outer(k, k) % (2 * (m + 1)) * (math.pi / (m + 1)))
    out = np.ones((1, 1))
    for _ in range(d):
        out = np.kron(out, table)
    return out * (2.0 / math.pi) ** (d / 2.0)


def _rowwise_product(values: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """values (..., N) @ matrix as one 2-D product over all leading axes."""
    flat = values.reshape(-1, values.shape[-1]) if values.ndim > 2 else values
    return (flat @ matrix).reshape(values.shape)


def _dst_to_field(domain: SpectralDomain, coeffs: np.ndarray) -> np.ndarray:
    """``to_field`` by pocketfft DST-I: the large-N path and the test reference."""
    import scipy.fft  # the package's slowest import; only transforms above 256 modes need it

    tens = np.zeros(coeffs.shape, dtype=float)
    tens[..., domain._tensor_index] = coeffs
    d = domain.dimension
    shape = coeffs.shape[:-1] + (domain.n_modes_per_axis,) * d
    axes = tuple(range(-d, 0))
    out = scipy.fft.dstn(tens.reshape(shape), type=1, axes=axes)
    out *= (0.5 ** d) * (2.0 / math.pi) ** (d / 2.0)
    return out.reshape(coeffs.shape)


def _dst_to_coeffs(domain: SpectralDomain, field_values: np.ndarray) -> np.ndarray:
    """``to_coeffs`` by pocketfft DST-I: the large-N path and the test reference."""
    import scipy.fft

    d = domain.dimension
    shape = field_values.shape[:-1] + (domain.n_modes_per_axis,) * d
    axes = tuple(range(-d, 0))
    tens = scipy.fft.dstn(field_values.reshape(shape), type=1, axes=axes)
    tens *= (0.5 ** d) * (2.0 / math.pi) ** (d / 2.0) * domain.quad_weight
    return tens.reshape(field_values.shape)[..., domain._tensor_index]


# -- operations ------------------------------------------------------------

def eigenpairs(domain: SpectralDomain, count: int):
    """First ``count`` (multi-index, eigenvalue, evaluator) triples."""
    if count > domain.n_modes:
        raise CapacityError(
            f"requested {count} eigenpairs but the truncation holds {domain.n_modes}")
    out = []
    scale = (2.0 / math.pi) ** (domain.dimension / 2.0)
    for i in range(count):
        k = tuple(int(v) for v in domain.mode_indices[i])

        def evaluator(xi, _k=np.array(k, dtype=float)):
            xi = np.asarray(xi, dtype=float)
            pts = xi.reshape(-1, domain.dimension)
            vals = scale * np.prod(np.sin(pts * _k), axis=1)
            return vals[0] if xi.ndim <= 1 else vals.reshape(xi.shape[:-1])

        out.append((k, float(domain.eigenvalues[i]), evaluator))
    return out


def _two_product(a: np.ndarray, b: float):
    """(hi, lo) with hi = fl(a*b) and hi + lo = a*b exactly (Veltkamp/Dekker)."""
    split = 134217729.0                     # 2^27 + 1
    ca, cb = split * a, split * b
    a_hi = ca - (ca - a)
    a_lo = a - a_hi
    b_hi = cb - (cb - b)
    b_lo = b - b_hi
    hi = a * b
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi, lo


def semigroup_apply(domain: SpectralDomain, t: float, coeffs: np.ndarray) -> np.ndarray:
    """Heat semigroup in coefficients: mode k is scaled by exp(-mu_k t).

    The exponent mu_k t is split exactly into hi + lo, so the rounding of
    the product does not enter the factor; S(s) S(t) and S(s + t) then
    differ only by the rounding of s + t.
    """
    if t < 0:
        raise ValueError(f"semigroup time must be nonnegative, got {t}")
    hi, lo = _two_product(domain.eigenvalues, float(t))
    return np.asarray(coeffs, dtype=float) * (np.exp(-hi) * np.exp(-lo))


def ultracontractivity_witness(domain: SpectralDomain, t: float, probe: np.ndarray) -> float:
    """Smoothing ratio |S(t)x|_sup / |x|_L2 via collocation reconstruction."""
    if t <= 0:
        raise ValueError(f"witness requires t > 0, got {t}")
    probe = np.asarray(probe, dtype=float)
    norm = np.linalg.norm(probe)
    if norm == 0.0:
        raise ValueError("witness requires a nonzero probe")
    return float(domain.sup_norm(semigroup_apply(domain, t, probe)) / norm)


def weyl_count(domain: SpectralDomain, mu: float) -> int:
    """Number of computed eigenvalues not exceeding mu."""
    if mu < 0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    return int(np.searchsorted(domain.eigenvalues, mu, side="right"))


def regularity_threshold(dimension: int, kind: DomainKind | str, alpha: float) -> float:
    """Strict lower bound on the coloring exponent gamma.

    gamma > (d-2)/4 + alpha guarantees a continuous stochastic convolution
    on the hypercube; the ball worst case needs gamma > (2d-3)/4 + alpha.
    The caller must compare with strict inequality.
    """
    if dimension not in (1, 2, 3):
        raise ConfigurationError(f"dimension must be 1, 2 or 3, got {dimension}")
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 1/2), got {alpha}")
    kind = DomainKind(kind)
    if kind is DomainKind.BALL_FORMULA:
        return (2 * dimension - 3) / 4.0 + alpha
    return (dimension - 2) / 4.0 + alpha
