"""Seeded random generation.

All randomness flows through Philox (counter-based) generators so runs are
bit-reproducible from an integer seed and substreams can be derived without
overlap.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed) -> np.random.Generator:
    """Generator for a seed: an int, a tuple of ints, or a SeedSequence
    (such as a child from SeedSequence.spawn)."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(seed))
