"""Counter-based uniform random numbers with (seed, stream, counter)
addressing.

Each value is a pure hash of its address, so sampling is reproducible
bit-for-bit regardless of platform or block layout: a row of
`uniform_block` does not depend on the other streams drawn with it, and
a column prefix equals the shorter block.  The mixer is the splitmix64
finalizer applied to a Weyl sequence, evaluated vectorized in numpy.
`tiles` hashes and converts a draw one tile at a time, whole rows or a
piece of one row, in place with one tile of scratch; tiles of `_TILE`
words stay in cache.  It always yields minus the uniforms, -U, which is
exact.  `uniform_block` flips each tile's sign back into one block, and
the Monte Carlo samplers turn each tile into gaps before the next is drawn.
"""

from __future__ import annotations

import numpy as np

__all__ = ["tiles", "uniform_block"]

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


def _to_uniform(words: np.ndarray, t: np.ndarray) -> np.ndarray:
    """-U = (m + 0.5) * -2^-53 for the top 53 bits m of each word, written
    over the words: U lies strictly in (0, 1), m is exact in float64, and
    so is the scaling.  The float passes through the scratch t (of the
    words' shape), because numpy copies the input of a cast whose output
    overlaps it."""
    np.right_shift(words, np.uint64(11), out=words)
    u = t.view(np.float64)
    np.add(words, 0.5, out=u)
    return np.multiply(u, -_INV_2_53, out=words.view(np.float64))


def tiles(seed: int, streams: list, width: int):
    """Walk minus the uniforms, -U, of counters 0..width-1 of each array of
    streams in streams, one tile at a time: yield (r0, r1, c0, tiles),
    where tiles holds, per array, the (r1 - r0, m) values -U of its streams
    r0..r1-1 at counters c0..c0+m-1.  A tile is whole rows, _TILE // width
    of them (read at call time), or _TILE columns of a wider row; the walk
    goes down the rows, and along each row's column tiles in order.  Each
    tile is overwritten by the next."""
    keys = [stream_keys(seed, s) for s in streams]
    rows = len(keys[0])
    cols = min(width, _TILE) or 1        # columns per tile
    step = _TILE // cols                 # rows per tile
    counters = np.arange(1, cols + 1, dtype=np.uint64) * _GOLDEN  # Weyl steps
    # One allocation holds the scratch and a tile of each array.  Freed
    # whole, it raises glibc's dynamic mmap and trim thresholds past a
    # slice's working set, so that later calls reuse heap pages instead of
    # faulting in fresh ones (x86_64).
    size = min(rows, step) * cols
    t, *buf = np.empty((len(keys) + 1) * size,
                       dtype=np.uint64).reshape(len(keys) + 1, size)
    for r0 in range(0, rows, step):
        r1 = min(r0 + step, rows)
        for c0 in range(0, width, cols):
            m = min(cols, width - c0)
            out = []
            for b, k in zip(buf, keys):
                k = k[r0:r1]
                if c0:
                    k = k + np.uint64(c0 * int(_GOLDEN) & _MASK)
                words = b[:(r1 - r0) * m].reshape(r1 - r0, m)
                np.add(k[:, None], counters[:m], out=words)
                s = t[:words.size].reshape(words.shape)
                out.append(_to_uniform(_finalize(words, s), s))
            yield r0, r1, c0, out


def uniform_block(seed: int, streams: np.ndarray, n: int) -> np.ndarray:
    """Uniforms for counters 0..n-1 of many streams; shape (len(streams), n)."""
    out = np.empty((len(streams), n))
    for r0, r1, c0, (u,) in tiles(seed, [streams], n):
        np.negative(u, out=out[r0:r1, c0:c0 + u.shape[1]])
    return out
