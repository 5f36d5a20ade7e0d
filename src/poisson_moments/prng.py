"""Counter-based uniform random numbers with (seed, stream, counter)
addressing.

Each value is a pure hash of its address, so sampling is reproducible
bit-for-bit regardless of platform or block layout: a row of
`uniform_block` does not depend on the other streams drawn with it, and
a column prefix equals the shorter block.  The mixer is the splitmix64
finalizer applied to a Weyl sequence, evaluated vectorized in numpy.
`uniform_block` hashes the words and writes the floats over them in the
one array it returns, one tile at a time, so besides that array a call
holds only one tile of scratch, which stays in cache.
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
# Words hashed and converted per tile: a 512 KiB tile and its scratch stay
# in cache across the hash and conversion passes.  The tiling changes no
# value.
_TILE = 1 << 16


def _finalize(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, applied to z in place; t is scratch of
    z's shape."""
    for shift, mul in ((30, _MUL1), (27, _MUL2), (31, None)):
        np.right_shift(z, np.uint64(shift), out=t)
        np.bitwise_xor(z, t, out=z)
        if mul is not None:
            np.multiply(z, mul, out=z)
    return z


def _stream_keys(seed: int, streams: np.ndarray) -> np.ndarray:
    seed_word = np.array([seed & _MASK], dtype=np.uint64)
    seed_hash = _finalize(seed_word, np.empty_like(seed_word))[0]
    keys = (streams.astype(np.uint64) * _STREAM_SALT) ^ seed_hash
    return _finalize(keys, np.empty_like(keys))


def _to_uniform(words: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(m + 0.5) * 2^-53 for the top 53 bits m of each word, written over
    the words: values lie strictly in (0, 1), and m is exact in float64.
    The float passes through the scratch t (of the words' shape), because
    numpy copies the input of a cast whose output overlaps it."""
    np.right_shift(words, np.uint64(11), out=words)
    u = t.view(np.float64)
    np.add(words, 0.5, out=u)
    return np.multiply(u, _INV_2_53, out=words.view(np.float64))


def uniform_block(seed: int, streams: np.ndarray, n: int) -> np.ndarray:
    """Uniforms for counters 0..n-1 of many streams; shape (len(streams), n)."""
    keys = _stream_keys(seed, np.asarray(streams, dtype=np.uint64))
    counters = np.arange(1, n + 1, dtype=np.uint64) * _GOLDEN
    words = keys[:, None] + counters[None, :]
    flat = words.reshape(-1)
    t = np.empty(min(flat.size, _TILE), dtype=np.uint64)
    for lo in range(0, flat.size, _TILE):
        tile = flat[lo:lo + _TILE]
        scratch = t[:tile.size]
        _to_uniform(_finalize(tile, scratch), scratch)
    return words.view(np.float64)
