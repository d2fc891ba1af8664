"""Randomness addressed by one master seed.

Every draw is addressed by the master seed plus integer keys, so the same
address always yields the same numbers, whatever order draws are made in
and however they are split up (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11).

* ``UniformRows(seed, k, width).take(first, n)``: rows ``first .. first+n-1``
  of iteration ``k``'s array of uniforms, one row per trajectory.  Iteration
  ``k`` has one PCG64DXSM stream (O'Neill, HMC-CS-2014-0905) and row ``i``
  is its ``width`` outputs from ``i * width`` on, reached by ``advance`` in
  O(log i) steps, so one array draw returns a whole block and row ``i``
  depends only on ``(seed, k, i)``.
* ``substream(seed, *path)``: a generator per key path, for code that draws
  one value at a time through ``np.random.Generator`` methods.

Normal variates for array draws come from ``box_muller``, which spends
exactly two uniforms per normal; a fixed count is what keeps every row at
its offset.  Draws from tables of discrete distributions come from
``inverse_cdf``, one uniform each.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError

_MAX_SEED = 2**64 - 1
# substream's SeedSequence entropy is the seed's 32-bit words, at most two,
# zero-padded to four before a path: no path sets the third word, as this does
_ROWS_TAG = 1 << 64


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


class UniformRows:
    """Iteration ``k``'s uniforms in [0, 1), read as rows of ``width``.

    The rows are those of ``Generator(PCG64DXSM(s)).random`` drawn as one
    (rows, width) array, ``s`` being ``SeedSequence(_ROWS_TAG | seed, spawn_key=(k,))``.
    Each uniform takes one 64-bit output, so row i starts at output
    ``i * width``: reading on from the last read needs no positioning, any
    other read is one ``advance``, and any split of the rows gives the same numbers.
    """

    def __init__(self, master_seed: int, iteration: int, width: int) -> None:
        seed, (iteration,) = _check_address(master_seed, (iteration,))
        self._width = width
        address = np.random.SeedSequence(_ROWS_TAG | seed, spawn_key=(iteration,))
        self._bits = np.random.PCG64DXSM(address)
        self._random = np.random.Generator(self._bits).random
        self._next = 0

    def take(self, first: int, n: int, out: "np.ndarray | None" = None) -> np.ndarray:
        """Rows ``first .. first+n-1``, shape (n, width).

        ``out``, if given, is an (N, width) buffer with N >= n that the rows
        are written into in place of a new array; the array returned is then
        a view of its first n rows, valid until the buffer is written again.
        """
        _, (first,) = _check_address(0, (first,))
        if first != self._next:
            # the state has 128 bits, so a move back is an advance modulo 2**128
            self._bits.advance(((first - self._next) * self._width) % 2**128)
        self._next = first + n
        if out is None:
            return self._random((n, self._width))
        return self._random(out=out[:n])


def box_muller(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Standard normals from two arrays of uniforms in [0, 1), one pair per normal.

    ``sqrt(-2 log(1 - u1)) * cos(2 pi u2)``: finite on all of [0, 1), and 0
    at u1 = 0.  It runs ``np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * math.pi
    * u2)`` operation by operation, in place in two new arrays.
    """
    radius = np.negative(u1)
    np.log1p(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle = np.multiply(2.0 * math.pi, u2)
    np.cos(angle, out=angle)
    radius *= angle
    return radius


def inverse_cdf(cdf: "list[np.ndarray]", u: np.ndarray) -> np.ndarray:
    """Draw i is ``np.searchsorted(row_i, u[i], side="right")`` clamped to the
    last index A - 1, row_i being draw i's cumulative distribution over A
    outcomes: entry j of it is ``cdf[j][i]`` for j < A - 1.  ``cdf`` holds
    those first A - 1 columns only, so it is empty for A = 1.

    The draw counts the entries of row_i at or below u[i], which is what
    side="right" finds on a non-decreasing row, one column of all the rows
    per call.  The last column is not needed: where it is at or below u[i],
    so is every entry before it, the count over the others is A - 1, and
    the clamp would take that column's count away again.
    """
    if not cdf:
        return np.zeros(len(u), dtype=np.intp)
    count = (cdf[0] <= u).astype(np.intp)
    for column in cdf[1:]:
        count += column <= u
    return count
