"""Dissipative reaction terms applied pointwise on the collocation grid.

A drift is a scalar function f(sigma, u) with derivative bounded above
(f' <= beta), so the reaction part never destabilizes the heat flow even
without a global Lipschitz bound.  The steppers evaluate ``f`` and ``f'``
on the collocation values of the state; in the truncated spectral setting
no Lipschitz regularization of f is needed.  The catalog drifts' growth
constants hold for |u| <= 1, the interval [-1, 1] being the only control
set a config builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class NemytskiiDrift:
    f: Callable                     # (sigma, u) -> value, vectorized in sigma
    f_prime: Callable               # d f / d sigma
    growth_degree: int              # |f| + |f'| <= C (1 + |sigma|^k)
    growth_const: float
    dissipativity_bound: float      # beta with f' <= beta everywhere
    f_u: Optional[Callable] = None  # d f / d u, the constant gain b of f = f0(sigma) + b u
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

def cubic_drift(a: float = 1.0, b: float = 1.0) -> NemytskiiDrift:
    """f(sigma, u) = -sigma^3 + a*sigma + b*u, dissipative with beta = a."""
    return NemytskiiDrift(
        f=lambda s, u: -(s * s * s) + a * s + b * u,
        f_prime=lambda s, u: -3.0 * s**2 + a,
        growth_degree=3,
        growth_const=4.0 + 2.0 * abs(a) + abs(b),
        dissipativity_bound=a,
        f_u=lambda s, u: b * np.ones_like(np.asarray(s, dtype=float)),
        name="cubic",
    )


def linear_drift() -> NemytskiiDrift:
    """f(sigma, u) = -sigma + u; the fully solvable baseline."""
    return NemytskiiDrift(
        f=lambda s, u: -s + u,
        f_prime=lambda s, u: -np.ones_like(np.asarray(s, dtype=float)),
        growth_degree=1,
        growth_const=3.0,
        dissipativity_bound=-1.0,
        f_u=lambda s, u: np.ones_like(np.asarray(s, dtype=float)),
        name="linear",
    )


def bistable_drift() -> NemytskiiDrift:
    """f(sigma, u) = sigma - sigma^3 + u (double-well reaction)."""
    return NemytskiiDrift(
        f=lambda s, u: s - s * s * s + u,
        f_prime=lambda s, u: 1.0 - 3.0 * s**2,
        growth_degree=3,
        growth_const=7.0,
        dissipativity_bound=1.0,
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

