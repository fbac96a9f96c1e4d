"""Deterministic, portable random number generation.

All stochastic pieces of the pipeline (initialization, dropout, shuffling,
split selection) draw from `RngState`, a counter-based SplitMix64 generator:
draw k is `mix64(seed + k * GOLDEN)`.  The mapping is pure 64-bit integer
arithmetic, so a given seed produces the same stream on every platform and
the state serializes as just (seed, counter).
"""
from __future__ import annotations

import numpy as np

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def mix64(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64 finalizer, bijective on 64-bit words (wraparound intended).

    Mixes the uint64 array `z` in place, with one scratch array of its shape
    (`scratch`, or a new one), and returns it.
    """
    t = np.empty_like(z) if scratch is None else scratch
    with np.errstate(over="ignore"):
        z ^= np.right_shift(z, np.uint64(30), out=t)
        z *= _M1
        z ^= np.right_shift(z, np.uint64(27), out=t)
        z *= _M2
        z ^= np.right_shift(z, np.uint64(31), out=t)
    return z


def derive_seed(seed: int, tag: int) -> int:
    """Stable sub-stream seed, e.g. one shuffle stream per epoch."""
    base = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        word = base + GOLDEN * np.uint64(tag & 0xFFFFFFFFFFFFFFFF)
    return int(mix64(np.array([word]))[0])


class RngState:
    """Counter-based SplitMix64 stream with serializable position."""

    def __init__(self, seed: int, counter: int = 0):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.counter = int(counter)

    def _raw(self, n: int) -> np.ndarray:
        z = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        with np.errstate(over="ignore"):
            z *= GOLDEN
            z += np.uint64(self.seed)
        return mix64(z)

    def random(self, shape=()) -> np.ndarray:
        """Uniform float64 in [0, 1), one draw per element."""
        n = int(np.prod(shape)) if shape else 1
        raw = self._raw(n)
        raw >>= np.uint64(11)
        u = raw.astype(np.float64)
        u *= 2.0 ** -53
        return u.reshape(shape) if shape else u[0]

    def uniform(self, low: float, high: float, shape=()) -> np.ndarray:
        return low + (high - low) * self.random(shape)

    def randint(self, n: int) -> int:
        """Integer in [0, n); negligible modulo bias for desk-scale n."""
        return int(self._raw(1)[0] % np.uint64(n))

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        perm = np.arange(n)
        for i in range(n - 1, 0, -1):
            j = self.randint(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm

    def state(self) -> tuple[int, int]:
        return (self.seed, self.counter)

    @classmethod
    def from_state(cls, state) -> "RngState":
        seed, counter = state
        return cls(seed, counter)

    def __repr__(self) -> str:
        return f"RngState(seed={self.seed}, counter={self.counter})"
