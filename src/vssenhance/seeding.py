"""Derivation of per-component RNG streams from the single run seed.

Every source of randomness in a run flows from one 64-bit seed; components
get independent streams at fixed offsets so adding a consumer never perturbs
the draws of another.
"""

from __future__ import annotations

import numpy as np

# numpy imports its random module on first use, about 12 ms; every model
# command draws from it in set-up, so it is loaded with the package
import numpy.random  # noqa: F401

# Fixed stream offsets. Append only; reordering breaks run reproducibility.
STREAMS = {
    "model": 1,
    "data": 2,
    "train": 3,
}


def derive_rng(seed: int, stream: str) -> np.random.Generator:
    if stream not in STREAMS:
        raise KeyError(f"unknown rng stream {stream!r}")
    return np.random.Generator(np.random.PCG64(int(seed) + STREAMS[stream]))
