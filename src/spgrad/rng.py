"""Counter-based randomness addressed by one master seed.

Every draw is addressed by the master seed plus integer keys, so the same
address always yields the same numbers, whatever order draws are made in
and however they are split up.

* ``uniform_rows(seed, k, first, n, width)``: rows ``first .. first+n-1`` of
  iteration ``k``'s array of uniforms, one row per trajectory.  Iteration
  ``k`` has one Philox key, ``(seed, k)``, and row ``i`` lives at a fixed
  counter offset (Salmon et al., "Parallel random numbers: as easy as 1, 2,
  3", SC'11), so one array draw returns a whole block and row ``i`` depends
  only on ``(seed, k, i)``.
* ``substream(seed, *path)``: a generator per key path, for code that draws
  one value at a time through ``np.random.Generator`` methods.

Normal variates for array draws come from ``box_muller``, which spends
exactly two uniforms per normal; a fixed count is what keeps every row at
its counter offset.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError

_MAX_SEED = 2**64 - 1
_PHILOX_WORDS = 4  # 64-bit outputs per Philox counter step; random() takes one per uniform


def _check_address(master_seed: int, path: "tuple[int, ...]") -> "tuple[int, tuple[int, ...]]":
    if not 0 <= int(master_seed) <= _MAX_SEED:
        raise ConfigurationError(f"seed must be an unsigned 64-bit integer, got {master_seed}")
    key = tuple(int(p) for p in path)
    if any(p < 0 for p in key):
        raise ConfigurationError(f"stream path must be non-negative, got {key}")
    return int(master_seed), key


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Return the generator for the stream addressed by ``path``."""
    seed, key = _check_address(master_seed, path)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def uniform_rows(master_seed: int, iteration: int, first: int, n: int, width: int) -> np.ndarray:
    """Rows ``first .. first+n-1`` of ``iteration``'s uniforms in [0, 1), shape (n, width).

    The rows are those of ``Generator(Philox(key=[seed, iteration])).random``
    drawn as one (rows, W) array, W being ``width`` padded to a multiple of
    four, then cut to ``width`` columns.  Row i starts at counter step
    ``i * W / 4``, so advancing the counter there reproduces it: any split of
    the rows into blocks gives the same numbers.
    """
    seed, (iteration, first) = _check_address(master_seed, (iteration, first))
    padded = -(-width // _PHILOX_WORDS) * _PHILOX_WORDS
    bits = np.random.Philox(key=np.array([seed, iteration], dtype=np.uint64))
    bits.advance(first * padded // _PHILOX_WORDS)
    return np.random.Generator(bits).random((n, padded))[:, :width]


def box_muller(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Standard normals from two arrays of uniforms in [0, 1), one pair per normal.

    ``sqrt(-2 log(1 - u1)) * cos(2 pi u2)``: finite on all of [0, 1), and 0
    at u1 = 0.
    """
    return np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * math.pi * u2)
