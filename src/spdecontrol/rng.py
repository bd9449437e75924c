"""Deterministic random-stream derivation.

Every stochastic routine in the package draws from a ``numpy`` generator
derived from ``(root_seed, stream_tag, path_index)`` through
``SeedSequence`` spawn keys.  Re-running with the same triple is
bit-identical, and distinct paths get statistically independent streams,
which keeps path-level fan-out reproducible regardless of scheduling.
"""

from __future__ import annotations

import numpy as np

# Stable integer tags for the independent stream families.
STREAM_TAGS = {
    "wiener": 1,      # driving cylindrical Wiener increments
    "moment": 2,      # sup-norm moment studies
}


def seed_sequence(root_seed: int, tag: str, path_index: int = 0) -> np.random.SeedSequence:
    if tag not in STREAM_TAGS:
        raise KeyError(f"unknown stream tag {tag!r}; known: {sorted(STREAM_TAGS)}")
    return np.random.SeedSequence(entropy=int(root_seed) & (2**64 - 1),
                                  spawn_key=(STREAM_TAGS[tag], int(path_index)))


def make_rng(seed) -> np.random.Generator:
    """A generator from a ``SeedSequence`` or a ``(root_seed, tag, path_index)`` tuple."""
    if isinstance(seed, tuple):
        seed = seed_sequence(*seed)
    if not isinstance(seed, np.random.SeedSequence):
        raise TypeError(f"seed must be a SeedSequence or a (root_seed, tag, path_index) "
                        f"tuple, got {seed!r}")
    return np.random.default_rng(seed)
