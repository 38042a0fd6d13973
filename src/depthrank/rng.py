"""Deterministic pseudo-random number generator for datasets and training.

Every random draw in this package flows through :class:`SplitMix64`, a
64-bit counter-based generator (state advances by a fixed odd constant,
the output is a bijective bit-mix of the state).  The algorithm is fully
specified here, so the integer stream is reproducible bit-for-bit from a
seed on any platform, independent of Python or numpy RNG internals.

Derived floating-point streams (uniforms, normals) use only IEEE-754
double operations plus libm ``log``/``sqrt``/``cos``/``sin``; they are
bit-stable across runs on a given platform, which is what the
reproducibility contract and the byte-identity tests rely on.

Scalar draws and block draws are interchangeable: ``u64_block(n)``
produces exactly the same values as ``n`` calls to ``next_u64``.  Output
``i`` is ``mix(state + i * gamma)``, so blocks split anywhere are the same
stream.  Normals split the same way: ``normals(c)`` takes
``2 * ceil(c / 2)`` draws and Box-Muller pairs never cross calls, so
consecutive ``normals(c_1)``, ``normals(c_2)`` ... calls equal the rows of
one block of ``sum(2 * ceil(c_k / 2))`` draws through one transform, each
row of odd ``c_k`` less its last value.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# 2^-53; (u64 >> 11) * _TO_DOUBLE covers [0, 1) on an even grid.
_TO_DOUBLE = 1.0 / 9007199254740992.0


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * _MIX1 & _MASK64
    z = (z ^ (z >> 27)) * _MIX2 & _MASK64
    return z ^ (z >> 31)


def _box_muller(raw: np.ndarray) -> np.ndarray:
    """Standard normals from raw draws, one per draw: each consecutive
    pair ``(raw[2i], raw[2i + 1])`` gives the cosine and sine normal of
    one Box-Muller step.  ``raw`` has even length."""
    # u1 in (0, 1] so log(u1) is finite.
    u1 = ((raw[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * _TO_DOUBLE
    u2 = (raw[1::2] >> np.uint64(11)).astype(np.float64) * _TO_DOUBLE
    radius = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * math.pi) * u2
    out = np.empty(raw.size, dtype=np.float64)
    out[0::2] = radius * np.cos(theta)
    out[1::2] = radius * np.sin(theta)
    return out


class SplitMix64:
    """Seeded splitmix64 stream with scalar and vectorized output paths."""

    def __init__(self, seed: int):
        if not isinstance(seed, int) or seed < 0 or seed > _MASK64:
            raise InvalidInputError(f"seed must be an integer in [0, 2^64): {seed!r}")
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)

    def u64_block(self, count: int) -> np.ndarray:
        """Next ``count`` outputs as a uint64 array, advancing the state once per value."""
        if count < 0:
            raise InvalidInputError(f"count must be >= 0: {count}")
        base = self._state
        self._state = (self._state + count * _GAMMA) & _MASK64
        z = (np.uint64(base) + np.uint64(_GAMMA) * np.arange(1, count + 1, dtype=np.uint64))
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

    def uniforms(self, count: int) -> np.ndarray:
        """``count`` doubles in [0, 1)."""
        return ((self.u64_block(count) >> np.uint64(11)).astype(np.float64)) * _TO_DOUBLE

    def normals(self, count: int) -> np.ndarray:
        """``count`` standard normals via Box-Muller.

        Consumes ``2 * ceil(count / 2)`` integer draws; an odd request
        discards the second member of the final pair.  So consecutive
        ``normals(c_1)``, ``normals(c_2)`` ... calls equal the rows of one
        block passed through :func:`_box_muller`: row ``k`` holds
        ``2 * ceil(c_k / 2)`` draws, and an odd ``c_k`` drops its last value.
        """
        if count < 0:
            raise InvalidInputError(f"count must be >= 0: {count}")
        return _box_muller(self.u64_block(2 * ((count + 1) // 2)))[:count]

    def below(self, bound: int) -> int:
        """One integer uniform on [0, bound).

        Uses the modulo reduction; for the small bounds used here the bias
        is at most bound / 2^64 and the result is identical everywhere.
        """
        if bound <= 0:
            raise InvalidInputError(f"bound must be positive: {bound}")
        return self.next_u64() % bound

    def shuffle_prefix(self, n: int, k: int) -> np.ndarray:
        """``range(n)`` after ``k`` Fisher-Yates steps, consuming exactly ``k`` draws.

        Step ``i`` swaps position ``i`` with ``i + u % (n - i)`` for the next
        draw ``u``, so the first ``k`` entries are a uniform ordered subset.
        """
        if not 0 <= k <= n:
            raise InvalidInputError(f"need 0 <= k <= n, got k={k}, n={n}")
        # Python ints swap about three times faster than numpy scalars.
        out = list(range(n))
        draws = self.u64_block(k) % np.arange(n, n - k, -1, dtype=np.uint64)
        for i, u in enumerate(draws.tolist()):
            j = i + u
            out[i], out[j] = out[j], out[i]
        return np.array(out, dtype=np.intp)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of ``range(n)``; consumes ``max(n - 1, 0)`` draws."""
        if n < 0:
            raise InvalidInputError(f"n must be >= 0: {n}")
        return self.shuffle_prefix(n, max(n - 1, 0))
