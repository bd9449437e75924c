"""Dissipative reaction terms applied pointwise on the collocation grid.

A drift is a scalar function f(sigma, u) with derivative bounded above
(f' <= beta), so the reaction part never destabilizes the heat flow even
without a global Lipschitz bound.  ``yosida_resolvent``/``yosida_drift``
give the standard Lipschitz regularization f_alpha = f o (I - alpha f)^-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, NumericError


@dataclass(frozen=True)
class NemytskiiDrift:
    f: Callable                     # (sigma, u) -> value, vectorized in sigma
    f_prime: Callable               # d f / d sigma
    growth_degree: int              # |f| + |f'| <= C (1 + |sigma|^k)
    growth_const: float
    dissipativity_bound: float      # beta with f' <= beta everywhere
    quasi_dissipativity_shift: float
    f_u: Optional[Callable] = None  # d f / d u, when available
    name: str = "custom"


@dataclass(frozen=True)
class ControlSpace:
    """Admissible control values: an interval or a finite set."""

    kind: str                        # "interval" | "finite_set"
    lower: float = -1.0
    upper: float = 1.0
    elements: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("interval", "finite_set"):
            raise ConfigurationError(f"unknown control-space kind {self.kind!r}")
        if self.kind == "interval" and not self.lower < self.upper:
            raise ConfigurationError("interval control space needs lower < upper")
        if self.kind == "finite_set" and (self.elements is None or len(self.elements) == 0):
            raise ConfigurationError("finite control space needs at least one element")

    def sample(self, n: int) -> np.ndarray:
        """Deterministic sweep of n admissible values."""
        if self.kind == "interval":
            if n == 1:
                return np.array([0.5 * (self.lower + self.upper)])
            return np.linspace(self.lower, self.upper, n)
        elems = np.asarray(self.elements, dtype=float)
        reps = int(np.ceil(n / elems.size))
        return np.tile(elems, reps)[:n]

    def contains(self, value: float, tol: float = 1e-12) -> bool:
        if self.kind == "interval":
            return self.lower - tol <= value <= self.upper + tol
        return bool(np.any(np.abs(np.asarray(self.elements) - value) <= tol))

    def project(self, value):
        if self.kind == "interval":
            return np.clip(value, self.lower, self.upper)
        elems = np.asarray(self.elements, dtype=float)
        value = np.asarray(value, dtype=float)
        return elems[np.argmin(np.abs(elems[..., None] - value.ravel()), axis=0)].reshape(value.shape)


# -- drift catalog ----------------------------------------------------------

def cubic_drift(a: float = 1.0, b: float = 1.0, u_bound: float = 1.0) -> NemytskiiDrift:
    """f(sigma, u) = -sigma^3 + a*sigma + b*u, dissipative with beta = a."""
    growth_const = 4.0 + 2.0 * abs(a) + abs(b) * u_bound
    return NemytskiiDrift(
        f=lambda s, u: -(s * s * s) + a * s + b * u,
        f_prime=lambda s, u: -3.0 * s**2 + a,
        growth_degree=3,
        growth_const=growth_const,
        dissipativity_bound=a,
        quasi_dissipativity_shift=max(a, 0.0) + 1.0,
        f_u=lambda s, u: b * np.ones_like(np.asarray(s, dtype=float)),
        name="cubic",
    )


def linear_drift(u_bound: float = 1.0) -> NemytskiiDrift:
    """f(sigma, u) = -sigma + u; the fully solvable baseline."""
    return NemytskiiDrift(
        f=lambda s, u: -s + u,
        f_prime=lambda s, u: -np.ones_like(np.asarray(s, dtype=float)),
        growth_degree=1,
        growth_const=2.0 + u_bound,
        dissipativity_bound=-1.0,
        quasi_dissipativity_shift=1.0,
        f_u=lambda s, u: np.ones_like(np.asarray(s, dtype=float)),
        name="linear",
    )


def bistable_drift(u_bound: float = 1.0) -> NemytskiiDrift:
    """f(sigma, u) = sigma - sigma^3 + u (double-well reaction)."""
    return NemytskiiDrift(
        f=lambda s, u: s - s * s * s + u,
        f_prime=lambda s, u: 1.0 - 3.0 * s**2,
        growth_degree=3,
        growth_const=6.0 + u_bound,
        dissipativity_bound=1.0,
        quasi_dissipativity_shift=2.0,
        f_u=lambda s, u: np.ones_like(np.asarray(s, dtype=float)),
        name="bistable",
    )


_CATALOG = {"cubic": cubic_drift, "linear": linear_drift, "bistable": bistable_drift}


def drift_from_config(config: dict) -> NemytskiiDrift:
    cfg = dict(config)
    kind = cfg.pop("kind")
    if kind not in _CATALOG:
        raise ConfigurationError(f"unknown drift kind {kind!r}; known: {sorted(_CATALOG)}")
    return _CATALOG[kind](**cfg)


# -- operations ------------------------------------------------------------

def _check_finite(values: np.ndarray, what: str):
    bad = ~np.isfinite(values)
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise NumericError(f"non-finite {what} at index {idx}", index=idx)


def apply_drift(drift: NemytskiiDrift, state_values: np.ndarray, u) -> np.ndarray:
    """Pointwise reaction: out_j = f(state_j, u)."""
    state_values = np.asarray(state_values, dtype=float)
    _check_finite(state_values, "state value")
    return np.asarray(drift.f(state_values, u), dtype=float)


def apply_drift_jacobian(drift: NemytskiiDrift, state_values: np.ndarray, u,
                         direction: np.ndarray) -> np.ndarray:
    """Multiplication-operator differential: out_j = f'(state_j, u) * dir_j."""
    state_values = np.asarray(state_values, dtype=float)
    direction = np.asarray(direction, dtype=float)
    _check_finite(state_values, "state value")
    _check_finite(direction, "direction value")
    return np.asarray(drift.f_prime(state_values, u), dtype=float) * direction


def yosida_resolvent(drift: NemytskiiDrift, alpha: float, sigma: float, u) -> float:
    """Unique root r of r - alpha*f(r, u) = sigma.

    Requires alpha*beta < 1 so that r -> r - alpha f(r) is strictly
    increasing; solved by bracketed root finding to 1e-12, polished with a
    Newton step when f' is available.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    beta = drift.dissipativity_bound
    if alpha * beta >= 1.0:
        raise ConfigurationError(
            f"resolvent needs alpha*beta < 1; got alpha={alpha}, beta={beta}")

    def g(r):
        return r - alpha * float(drift.f(r, u)) - sigma

    pad = alpha * drift.growth_const * (1.0 + abs(sigma) ** drift.growth_degree) + 1.0
    lo, hi = sigma - pad, sigma + pad
    for _ in range(60):
        if g(lo) <= 0.0 <= g(hi):
            break
        lo, hi = sigma - 2 * (sigma - lo), sigma + 2 * (hi - sigma)
    else:
        raise NumericError(f"could not bracket the resolvent root for sigma={sigma}")

    from scipy.optimize import brentq  # a slow import that only the Yosida helpers need

    root = brentq(g, lo, hi, xtol=1e-13, rtol=8.9e-16)
    fp = 1.0 - alpha * float(drift.f_prime(root, u))
    if fp > 0:
        root -= g(root) / fp
    return float(root)


def yosida_drift(drift: NemytskiiDrift, alpha: float, sigma: float, u) -> float:
    """Lipschitz regularization f_alpha(sigma, u) = f(J_alpha(sigma, u), u)."""
    return float(drift.f(yosida_resolvent(drift, alpha, sigma, u), u))
