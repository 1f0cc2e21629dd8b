"""Deterministic random streams.

All randomness in the toolkit flows through counter-based Philox streams
addressed by (seed, *path). Streams with distinct paths are statistically
independent and reproducible regardless of evaluation order, which is what
makes training runs bit-repeatable.
"""

from __future__ import annotations

import numpy as np

# Stream path roots, one per consumer, so streams never collide.
INIT = 0
DROPOUT = 1
SHUFFLE = 2
SPLIT = 3
EMBED = 4
PROBE = 5
FIXTURE = 6
GRADCHECK = 7


def stream(seed: int, *path: int) -> np.random.Generator:
    """A Philox generator for the given seed and stream path."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(ss))
