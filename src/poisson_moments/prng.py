"""Counter-based uniform random numbers with (seed, stream, counter)
addressing.

Each value is a pure hash of its address, so sampling is reproducible
bit-for-bit regardless of platform or block layout: a row of
`uniform_block` does not depend on the other streams drawn with it, and
a column prefix equals the shorter block.  The mixer is the splitmix64
finalizer applied to a Weyl sequence, evaluated vectorized in numpy.
"""

from __future__ import annotations

import numpy as np

__all__ = ["uniform_block"]

_MASK = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_STREAM_SALT = np.uint64(0xD1B54A32D192ED03)
_INV_2_53 = float(2.0 ** -53)


def _finalize(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MUL1
    z = (z ^ (z >> np.uint64(27))) * _MUL2
    return z ^ (z >> np.uint64(31))


def _stream_keys(seed: int, streams: np.ndarray) -> np.ndarray:
    seed_hash = _finalize(np.array([seed & _MASK], dtype=np.uint64))[0]
    return _finalize((streams.astype(np.uint64) * _STREAM_SALT) ^ seed_hash)


def _to_uniform(words: np.ndarray) -> np.ndarray:
    # 53 random bits, offset by half an ulp: values lie strictly in (0, 1).
    return ((words >> np.uint64(11)).astype(np.float64) + 0.5) * _INV_2_53


def uniform_block(seed: int, streams: np.ndarray, n: int) -> np.ndarray:
    """Uniforms for counters 0..n-1 of many streams; shape (len(streams), n)."""
    keys = _stream_keys(seed, np.asarray(streams, dtype=np.uint64))
    counters = np.arange(1, n + 1, dtype=np.uint64) * _GOLDEN
    return _to_uniform(_finalize(keys[:, None] + counters[None, :]))
