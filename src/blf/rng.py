"""Deterministic named RNG substreams.

All randomness in a run flows from one root seed. Each consumer gets its own
named stream so adding a consumer never shifts the draws of another.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _name_key(name: str) -> tuple[int, ...]:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))


def substream(seed: int, name: str) -> np.random.Generator:
    """Generator for the (seed, name) pair; stable across runs and platforms."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=_name_key(name))
    return np.random.Generator(np.random.PCG64(ss))
