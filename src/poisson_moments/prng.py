"""Counter-based uniform random numbers with (seed, stream, counter)
addressing.

Each value is a pure hash of its address, so sampling is reproducible
bit-for-bit regardless of platform or block layout: a row of
`uniform_block` does not depend on the other streams drawn with it, and
a column prefix equals the shorter block.  The mixer is the splitmix64
finalizer applied to a Weyl sequence, evaluated vectorized in numpy.
`draw` hashes and converts one tile, whole rows or a piece of one row, in
the array it writes, with one tile of scratch; tiles of `_TILE` words
stay in cache.  `uniform_block` fills its block with it tile by tile, and
the Monte Carlo samplers reduce each tile before drawing the next.
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
# in cache.  It changes no uniform, nor the sum of a row no wider than it.
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


def stream_keys(seed: int, streams) -> np.ndarray:
    """The key of each stream: its first Weyl word is key + golden."""
    streams = np.asarray(streams, dtype=np.uint64)
    seed_word = np.array([seed & _MASK], dtype=np.uint64)
    seed_hash = _finalize(seed_word, np.empty_like(seed_word))[0]
    keys = streams * _STREAM_SALT
    keys ^= seed_hash
    return _finalize(keys, np.empty_like(keys))


def counter_words(n: int) -> np.ndarray:
    """The Weyl steps of counters 0..n-1, which `draw` adds to the keys."""
    words = np.arange(1, n + 1, dtype=np.uint64)
    words *= _GOLDEN
    return words


def _to_uniform(words: np.ndarray, t: np.ndarray,
                negate: bool = False) -> np.ndarray:
    """(m + 0.5) * 2^-53 for the top 53 bits m of each word, or its exact
    negation, written over the words: values lie strictly in (0, 1), and m
    is exact in float64.  The float passes through the scratch t (of the
    words' shape), because numpy copies the input of a cast whose output
    overlaps it."""
    np.right_shift(words, np.uint64(11), out=words)
    u = t.view(np.float64)
    np.add(words, 0.5, out=u)
    scale = -_INV_2_53 if negate else _INV_2_53
    return np.multiply(u, scale, out=words.view(np.float64))


def draw(keys: np.ndarray, counters: np.ndarray, c0: int, out: np.ndarray,
         t: np.ndarray, negate: bool = False) -> np.ndarray:
    """Write into out, of shape (len(keys), m), the uniforms of counters
    c0..c0+m-1 of the streams with these keys, negated if asked (scaling by
    -2^-53 is exact).  counters = counter_words(at least m); t is flat
    scratch of at least out.size words."""
    if c0:
        keys = keys + np.uint64(c0 * int(_GOLDEN) & _MASK)
    words = out.view(np.uint64)
    np.add(keys[:, None], counters[:words.shape[1]], out=words)
    s = t.view(np.uint64)[:words.size].reshape(words.shape)
    return _to_uniform(_finalize(words, s), s, negate)


def uniform_block(seed: int, streams: np.ndarray, n: int) -> np.ndarray:
    """Uniforms for counters 0..n-1 of many streams; shape (len(streams), n)."""
    keys = stream_keys(seed, streams)
    out = np.empty((len(keys), n))
    cols = min(n, _TILE) or 1
    step = _TILE // cols
    counters = counter_words(cols)
    t = np.empty(min(out.size, _TILE), dtype=np.uint64)
    for r0 in range(0, len(keys), step):
        for c0 in range(0, n, cols):
            r1, c1 = r0 + step, c0 + cols
            draw(keys[r0:r1], counters, c0, out[r0:r1, c0:c1], t)
    return out
