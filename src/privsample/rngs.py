"""Reproducible random streams.

All randomness flows through counter-based Philox generators derived from
a single recorded seed via SeedSequence spawning, so every experiment can
be replayed bit-identically and rollout batches can own independent
streams without coordination.
"""
from __future__ import annotations

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    """Root generator for a run."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def substream(seed: int, *path: int) -> np.random.Generator:
    """Deterministic stream addressed by a path of integers under a seed."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=tuple(path)))
    )
