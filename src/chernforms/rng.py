"""Deterministic, splittable random streams.

All sampling in the package draws from counter-based Philox generators keyed
by a user seed plus an integer path (check index, trial block, ...).  Distinct
paths give statistically independent streams, and a stream's output depends
only on (seed, path), never on how many other streams were consumed first.
Verdicts are therefore reproducible under any execution order or thread
count.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1


def _seed_sequence(seed: int, path) -> np.random.SeedSequence:
    """The SeedSequence keyed by (seed, path).  The seed is reduced to 64
    bits; path components are reduced to 32 bits (numpy spawn keys are
    uint32 words)."""
    key = tuple(int(p) & _MASK32 for p in path)
    return np.random.SeedSequence(int(seed) & _MASK64, spawn_key=key)


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream keyed by (seed, path)."""
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, path)))


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex normal draws: E|z|^2 = 1, independent entries."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)


def derive_seed(seed: int, *path: int) -> int:
    """A fresh 64-bit seed deterministically derived from (seed, path);
    feeds one check's stream without coupling it to its siblings."""
    state = _seed_sequence(seed, path).generate_state(2, np.uint32)
    return (int(state[0]) << 32) | int(state[1])
