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
    """Build a generator from a seed of any supported flavour.

    Accepts an int, a ``SeedSequence``, an existing ``Generator`` (returned
    as is), or a ``(root_seed, tag, path_index)`` tuple.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if isinstance(seed, tuple) and len(seed) == 3 and isinstance(seed[1], str):
        return np.random.default_rng(seed_sequence(*seed))
    return np.random.default_rng(np.random.SeedSequence(int(seed) & (2**64 - 1)))
