"""Counter-based uniform random numbers with (seed, stream, counter)
addressing.

Each uniform is a pure hash of its address, made by integer hashing and
exact float steps, so it is bit-for-bit the same on every platform and in
every block layout: a row of `uniform_block` does not depend on the other
streams drawn with it, and a column prefix equals the shorter block.  (The
samplers' gaps go through numpy's `log`, whose last bits may differ
between its SIMD kernels.)  The mixer is the splitmix64 finalizer applied
to a Weyl sequence, evaluated vectorized in numpy.  `tiles` hashes and
converts a draw, counters 0..width-1 of each stream, one tile at a time,
whole rows or a piece of one row, in place with one tile of scratch;
tiles of `_TILE` words stay in cache.  It yields V = 1 - U in (0, 1], on
the 2^-52 grid, whose log is minus a finite gap, or that log, signed by
bit 0 of the word; `uniform_block` copies the tiles into one block.  This
module alone decides the tile layout and, in `add_row_sums`, the row-sum
order that goes with it: a row of at most `_TILE // _MAJOR_ROWS` = 128
words is stored counter-major and summed in counter order, a wider one
pairwise, with the tile sums of a row wider than a tile added in column
order.
"""

from __future__ import annotations

import numpy as np

__all__ = ["add_row_sums", "tiles", "uniform_block"]

_MASK = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_STREAM_SALT = np.uint64(0xD1B54A32D192ED03)
_ONE = np.uint64(0x3FF0000000000000)   # the exponent bits of 1.0
# Words hashed and converted per tile: a 512 KiB tile and its scratch stay
# in cache.  It changes no uniform; it is part of the reduction order of a
# row wider than it, and of which rows are summed in counter order.
_TILE = 1 << 16
# Rows per tile from which tiles are stored counter-major: numpy then runs
# the Weyl add, a row sum and a running sum as one loop across the rows per
# counter, and releases the GIL in a 2-D running sum from about 500 rows.
_MAJOR_ROWS = 512


def _counter_major(cols: int) -> bool:
    """Whether tiles of cols columns, so rows no wider than _TILE //
    _MAJOR_ROWS = 128 words, are stored counter-major."""
    return cols <= _TILE // _MAJOR_ROWS


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
    """The key of each stream: its first Weyl word is key + golden.  The
    seed is one 64-bit word: any other would draw some other seed's
    streams."""
    if not 0 <= seed <= _MASK:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    streams = np.asarray(streams, dtype=np.uint64)
    seed_word = np.array([seed], dtype=np.uint64)
    seed_hash = _finalize(seed_word, np.empty_like(seed_word))[0]
    keys = streams * _STREAM_SALT
    keys ^= seed_hash
    return _finalize(keys, np.empty_like(keys))


def _to_uniform(words: np.ndarray) -> np.ndarray:
    """V = 2 - f, written over the words, where f in [1, 2) is the float
    with the exponent of 1.0 and the top 52 bits of each word as its
    mantissa: V lies in (0, 1] on the 2^-52 grid, and both steps are exact
    (the subtraction by Sterbenz's lemma)."""
    np.right_shift(words, np.uint64(12), out=words)
    f = np.bitwise_or(words, _ONE, out=words).view(np.float64)
    return np.subtract(2.0, f, out=f)


def tiles(seed: int, streams, width: int, signed=None):
    """Walk the uniforms V in (0, 1] of counters 0..width-1 of each stream,
    one tile at a time: yield (r0, r1, c0, tile), where tile holds the
    (r1 - r0, m) values V of streams r0..r1-1 at counters c0..c0+m-1.  A
    tile is whole rows, _TILE // width of them (read at call time), or
    _TILE columns of a wider row; the walk goes down the rows, and along
    each row's column tiles in order.  Where a full tile holds at least
    _MAJOR_ROWS rows, every tile is stored counter-major, each counter's
    values for all its rows together, and yielded as the same (rows, m)
    view, transposed.  Each tile is overwritten by the next.

    Given signed = s, a tile holds log V, minus a gap E per counter, and
    the first s counters of each row are signed steps S E, the sign S
    from bit 0 of the word, which V does not use: Laplace(0, 1), the law of
    a difference E - E' of gaps, from one word."""
    keys = stream_keys(seed, streams)
    rows = len(keys)
    cols = min(width, _TILE) or 1        # columns per tile
    step = _TILE // cols                 # rows per tile
    major = _counter_major(cols)
    counters = np.arange(1, cols + 1, dtype=np.uint64) * _GOLDEN  # Weyl steps
    # One allocation holds the tile and its scratch.  Freed whole, it raises
    # glibc's dynamic mmap and trim thresholds past a slice's working set,
    # so that later calls reuse heap pages instead of faulting in fresh ones
    # (x86_64).
    size = min(rows, step) * cols
    buf, t = np.empty(2 * size, dtype=np.uint64).reshape(2, size)
    for r0 in range(0, rows, step):
        r1 = min(r0 + step, rows)
        for c0 in range(0, width, cols):
            m = min(cols, width - c0)
            k = keys[r0:r1]
            if c0:
                k = k + np.uint64(c0 * int(_GOLDEN) & _MASK)
            words, scratch = buf[:(r1 - r0) * m], t[:(r1 - r0) * m]
            tile, sign = ((a.reshape(m, r1 - r0).T if major
                           else a.reshape(r1 - r0, m)) for a in (words, scratch))
            np.add(k[:, None], counters[:m], out=tile)
            _finalize(words, scratch)
            s = min(m, max(0, (signed or 0) - c0))  # signed columns here
            if s:  # each sign bit, kept while the word still holds it
                np.left_shift(tile[:, :s], np.uint64(63), out=sign[:, :s])
            f = _to_uniform(words)
            if signed is not None:
                np.log(f, out=f)
            if s:
                np.bitwise_xor(tile[:, :s], sign[:, :s], out=tile[:, :s])
            yield r0, r1, c0, tile.view(np.float64)


def add_row_sums(sums: np.ndarray, r0: int, r1: int, c0: int, tile):
    """Write the row sums of a float tile that tiles yielded at (r0, r1, c0),
    or that was computed from one, into sums[r0:r1], or add them there for
    the later column tiles of a wide row.  A row of a counter-major tile is
    summed in counter order, a lone one by its last running sum (np.sum
    would add one contiguous row pairwise), and other rows pairwise."""
    if c0:
        sums[r0:r1] += np.sum(tile, axis=1)
    elif r1 - r0 == 1 and _counter_major(tile.shape[1]):
        sums[r0] = np.cumsum(tile[0])[-1]
    else:
        np.sum(tile, axis=1, out=sums[r0:r1])


def uniform_block(seed: int, streams: np.ndarray, n: int) -> np.ndarray:
    """The uniforms V in (0, 1] that tiles yields for counters 0..n-1 of
    many streams, as one block of shape (len(streams), n)."""
    out = np.empty((len(streams), n))
    for r0, r1, c0, u in tiles(seed, streams, n):
        out[r0:r1, c0:c0 + u.shape[1]] = u
    return out
