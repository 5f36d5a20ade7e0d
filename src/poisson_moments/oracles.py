"""Independent ground-truth generators for the moment formulas.

Two routes that share no code with the closed forms:

* `exact_moment_first_principles` integrates the Gamma densities
  symbolically, as one integer sum over one power-of-two denominator,
  and imports nothing from the exact kernel (`exact_arith`).
* `mc_moment` estimates moments (including non-integer exponents) by
  deterministic, stream-addressed Monte Carlo.

Every Monte Carlo estimate draws arrival times at rate 1, divides each
distance by the rate before raising it to b, and reduces the values with
`blocked_estimate`, in blocks of bounded memory.  `mc_moment` takes its
route by shape: with k + r <= `_GAP_SHAPES` it sums X_{k+r} - Y_k as k
signed steps E - E' and r gaps of one counter stream, a word each;
otherwise X_{k+r} and Y_k are each one Gamma variate from numpy's
`standard_gamma`, on one SFC64 stream per `_CHUNK_ROWS`-row chunk and
arrival time (`gamma_variates`).  Within a block the gap route never
holds a block-sized or row-sized array: it turns each cache-sized tile
that `prng.tiles` draws (of whole rows, or of one wide row's columns)
into gaps and keeps its row sums (by `prng.add_row_sums`, in the order
prng fixes) before the next.  Each block's rows are sampled as
contiguous slices cut evenly, one per CPU the process may run on (fewer
for a small block), the first on the calling thread and the rest on the
process's thread pool, and joined in row order.  Row i of every sampler
is a pure function of its stream addresses (the PRNG is counter-based
and every sum and running sum runs along the row), or of its chunk's
stream and its place in the chunk (a slice that starts inside a chunk
re-draws the chunk's leading variates), so the block, and with it every
mean and stderr, is bit-identical for any number of threads.
numpy is imported inside the functions that draw or reduce samples,
`numpy.random` only on the Gamma route, and the thread pool only for
blocks of several slices, so the exact oracle (and every caller that
never samples) loads none of them.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from fractions import Fraction
from numbers import Integral

__all__ = [
    "MCEstimate",
    "exact_moment_first_principles",
    "sample_arrivals",
    "mc_moment",
]

# Rows per block and uniforms per stream block; they fix the summation order.
_BLOCK_ROWS = 1 << 16
_BLOCK_UNIFORMS = 1 << 22
# A block gets one row slice per started 2^15 uniforms, up to one per CPU
# (_WORKERS): a small block is not worth a thread handoff.  The result
# depends on neither constant.
_SLICE_UNIFORMS = 1 << 15
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
# Where k + r is at most this, mc_moment sums X_{k+r} - Y_k from one
# counter stream, else it draws both as Gamma variates (gamma_variates).
# On one thread of a 2-vCPU x86_64 VM with numpy 2.4.6, at 2^17 pairs, the
# Gamma route took 1.6-2.2x as long at k + r = 3 and 4, and 0.75-0.82x at
# 10 and 12 (ROADMAP item 11).  At 12, acceptance criterion 6's shapes
# (11 at most) stay on the counter streams.
_GAP_SHAPES = 12
# Rows per Gamma-route chunk, whose rows draw in order from one generator per
# arrival time: a generator costs ~10.5 us to build, and a slice that starts
# inside a chunk re-draws up to a chunk of variates, so 4,096 balances them.
_CHUNK_ROWS = 1 << 12


def integer(name: str, value) -> int:
    """value as a Python int; a ValueError naming it if it is no integer."""
    if not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


class MCEstimate(namedtuple("MCEstimate", "mean stderr")):
    __slots__ = ()

    def zscore(self, exact: float) -> float:
        return (self.mean - exact) / self.stderr


def exact_moment_first_principles(i: int, k: int, a: int,
                                  lam: Fraction | int = 1) -> Fraction:
    """E|X_i - Y_k|^a by direct symbolic integration of the densities.

    Expands |t-y|^a as the full-line polynomial term plus, for odd a, a
    -2 * lower-tail correction; every integral is a factorial or a binomial
    over a power of two dividing 2^(a+k+i-2), so the moment is one integer
    sum over that one denominator.  Imports nothing from the exact kernel
    or the closed forms, so it serves as an independent oracle.
    """
    if i < 1 or k < 1 or a < 1:
        raise ValueError("i, k, a must all be >= 1")
    if lam <= 0:
        raise ValueError(f"lambda must be > 0, got {lam}")
    # Full-line term: E(X-Y)^a expanded through the independent raw
    # moments E[X_i^j] lam^j = perm(i+j-1, j) and, with c = a-j+k-1,
    # E[Y_k^(a-j)] lam^(a-j) = perm(c, a-j).
    # Odd a: subtract twice the lower-tail integral.  The inner
    # incomplete-Gamma integral contributes the full-line term again
    # (with sign -2) plus exponential-tail corrections whose outer
    # integrals are elementary: for M = a-j+k-1+l,
    #   integral_0^inf y^M e^(-2*lam*y) * lam^(k+l+1) / ((k-1)! l!) dy
    #     = M! / ((k-1)! l! 2^(M+1) lam^(a-j)).
    # As M = c+l, M!/((k-1)! l!) = perm(c, a-j) C(c+l, l): term j's
    # perm(c, a-j) becomes perm(c, a-j) (tail - 1), tail = sum_{l<i+j}
    # C(c+l, l) / 2^(c+l), and c+l <= e = a+k+i-2 for every such term.
    e = a + k + i - 2
    total = 0
    for j in range(a + 1):
        c = a - j + k - 1
        term = math.comb(a, j) * math.perm(i + j - 1, j) * math.perm(c, a - j)
        if a % 2:
            tail, binom = 0, 1  # tail * 2^e; binom = C(c+l, l)
            for l in range(i + j):
                tail += binom << (e - c - l)
                binom = binom * (c + l + 1) // (l + 1)
            term *= tail - (1 << e)
        else:
            term <<= e
        total += -term if (a - j) % 2 else term
    return Fraction(total, 1 << e) / Fraction(lam) ** a


def gap_sums(seed: int, streams, width: int, signed: int = 0) -> np.ndarray:
    """Sum along each row of log(V), minus the rate-1 gaps, all finite, of
    counters 0..width-1 of the streams, the first `signed` of them signed
    steps (prng.tiles)."""
    import numpy as np

    from .prng import add_row_sums, tiles

    sums = np.empty(len(streams))
    for r0, r1, c0, g in tiles(seed, streams, width, signed=signed):
        add_row_sums(sums, r0, r1, c0, g)
    return sums


def gamma_variates(seed: int, which: int, lo: int, hi: int,
                   shape: int) -> np.ndarray:
    """One Gamma(shape) variate at rate 1 for each of rows lo..hi-1: the rows
    of chunk c = row // _CHUNK_ROWS take, in order, the values of numpy's
    standard_gamma on Generator(SFC64(SeedSequence((seed, which, c)))),
    which = 0 for X_{k+r} and 1 for Y_k.  A call from inside a chunk draws
    and drops that chunk's variates before lo."""
    import numpy as np
    from numpy.random import SFC64, Generator, SeedSequence

    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    out = np.empty(hi - lo)
    for c0 in range(lo - lo % _CHUNK_ROWS, hi, _CHUNK_ROWS):
        g = Generator(SFC64(SeedSequence((seed, which, c0 // _CHUNK_ROWS))))
        if c0 < lo:
            g.standard_gamma(shape, size=lo - c0)
        g.standard_gamma(shape, out=out[max(c0 - lo, 0):c0 - lo + _CHUNK_ROWS])
    return out


def _sum_sq(d: np.ndarray, weight=1.0) -> tuple[float, int]:
    """sum(weight * d^2) as (q, e) with the sum = q * 4^e, taken on the exact
    d * 2^-e so that squares near the float floor do not underflow; d is
    overwritten."""
    import numpy as np

    e = int(np.frexp(np.max(np.abs(d, out=d)))[1])
    np.square(np.ldexp(d, -e, out=d), out=d)
    d *= weight
    return float(np.sum(d)), e


# The pool for every slice of a block but the first, as ((pid, _WORKERS),
# pool), kept from first use so that one thread, and one glibc malloc arena,
# serve every block.  With a pool per call, a thread that started before
# the last had handed back its arena got a new one, which kept ~2 MB of
# freed blocks: ~3 MB more peak RSS in the monte_carlo benchmark (x86_64).
_POOL = None


def _pool():
    global _POOL
    from concurrent.futures import ThreadPoolExecutor

    key = (os.getpid(), _WORKERS)
    if _POOL is None or _POOL[0] != key:
        _POOL = key, ThreadPoolExecutor(_WORKERS - 1)
    return _POOL[1]


def blocked_estimate(sample, rows: int, width: int) -> MCEstimate:
    """Mean and stderr of the values that sample(lo, hi) returns for rows
    lo..hi-1, for any lo, where one stream draws `width` uniforms per row,
    or a row costs about that many.  Each block is sampled as contiguous row
    slices cut evenly, one per started `_SLICE_UNIFORMS` uniforms up to
    `_WORKERS` and the block's rows, the first on the calling thread and the
    rest on the process's pool (_pool; so sample may not call
    blocked_estimate), and joined in row order (a one-slice block is
    reduced in the array that sample returned); blocks are merged in order
    by their (n, sum, M2) (Chan, Golub & LeVeque 1979).  Values beyond
    float range come out as inf or nan, an M2 beyond it as stderr = inf.
    """
    import numpy as np

    def part(lo: int, hi: int) -> np.ndarray:
        # numpy's error state is per thread; a worker does not inherit it.
        with np.errstate(over="ignore", invalid="ignore"):
            return sample(lo, hi)

    def slices(n: int) -> int:
        return min(_WORKERS, n, -(-n * width // _SLICE_UNIFORMS))

    step = min(_BLOCK_ROWS, max(1, _BLOCK_UNIFORMS // width))
    blocks = []
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        # The first block is the largest, so unless it has several slices
        # no block does, and neither the pool nor its module is loaded.
        run = _pool().map if slices(min(step, rows)) > 1 else map
        for lo in range(0, rows, step):
            hi = min(lo + step, rows)
            w = slices(hi - lo)
            cuts = [lo + (hi - lo) * t // w for t in range(w + 1)]
            # The calling thread samples the first slice, which keeps part
            # of each block in the main malloc arena: with every slice on
            # pool threads, glibc held on to freed blocks in the threads'
            # arenas and peak RSS grew by up to two thirds (x86_64).
            rest = run(part, cuts[1:-1], cuts[2:])
            v = part(cuts[0], cuts[1])
            if w > 1:
                v = np.concatenate([v, *rest])
            s = float(np.sum(v))
            v -= s / len(v)
            blocks.append((len(v), s / len(v), _sum_sq(v)))
            total += s
            del v  # freed before the next block is sampled
        mean = total / rows
        n, means, parts = zip(*blocks)
        parts += (_sum_sq(np.array(means) - mean, np.array(n, dtype=float)),)
        top = max((e for q, e in parts if q), default=0)
        m2 = sum(math.ldexp(q, 2 * (e - top)) for q, e in parts)  # M2 / 4^top
        stderr = float(np.ldexp(math.sqrt(m2 / (rows - 1) / rows), top))
        if not math.isfinite(np.ldexp(m2, 2 * top)):
            stderr = math.inf
    return MCEstimate(mean=mean, stderr=stderr)


def sample_arrivals(n: int, lam: float, seed: int, stream: int = 0) -> np.ndarray:
    """First n arrival times of a rate-lam Poisson process.

    The arrivals are the cumulative sums of the stream's rate-1 gaps,
    divided by lam, so identical (seed, stream, n, lam) always reproduces
    the identical sequence.  The row holds the log of prng.tiles' V,
    minus the gaps, whose cumulative sums are divided in place by -lam.
    """
    import numpy as np

    from .prng import tiles

    n, stream = integer("n", n), integer("stream", stream)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 < lam < math.inf:
        raise ValueError(f"lambda must be finite and > 0, got {lam}")
    if not 0 <= stream < 1 << 64:
        raise ValueError(f"stream must be in [0, 2^64), got {stream}")
    row = np.empty(n)
    for r0, r1, c0, u in tiles(seed, [stream], n):
        np.log(u[0], out=row[c0:c0 + u.shape[1]])
    return np.divide(np.cumsum(row, out=row), -lam, out=row)


def mc_moment(k: int, r: int, b: float, lam: float,
              samples: int, seed: int) -> MCEstimate:
    """Monte Carlo estimate of E|X_{k+r} - Y_k|^b (any finite real b > 0).

    The route depends on the shape alone, and the result is a pure function
    of (seed, k, r, b, lam, samples); k and r are integers.  On the gap
    route, k + r <= _GAP_SHAPES, pair m's X_{k+r} - Y_k is k signed steps
    E - E' and r gaps, k + r words of stream 2m (prng.tiles); otherwise it
    is X_{k+r} - Y_k of two Gamma variates (gamma_variates).
    """
    import numpy as np

    samples = integer("samples", samples)
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    if not (isinstance(k, Integral) and isinstance(r, Integral)):
        raise ValueError(f"k and r must be integers, got k={k!r}, r={r!r}")
    if not (k >= 1 and r >= 0 and 0 < b < math.inf and 0 < lam < math.inf):
        raise ValueError("require k >= 1, r >= 0, 0 < b < inf, 0 < lam < inf")
    gaps = k + r <= _GAP_SHAPES
    if not gaps:
        # Loaded on the calling thread: loaded in a pool thread, OpenSSL
        # (through secrets) kept its allocations in that thread's malloc
        # arena, ~1.5 MB more peak RSS in the monte_carlo benchmark.
        import numpy.random

    def distances(lo: int, hi: int) -> np.ndarray:
        # gap_sums gives minus the sums, which |x| does not see; **= takes
        # numpy's scalar-power fast paths as ** does.
        if gaps:
            streams = np.arange(lo, hi, dtype=np.uint64)
            streams *= 2
            x = gap_sums(seed, streams, k + r, signed=k)
        else:
            x = gamma_variates(seed, 0, lo, hi, k + r)
            x -= gamma_variates(seed, 1, lo, hi, k)
        np.abs(x, out=x)
        x /= lam
        x **= b
        return x

    return blocked_estimate(distances, samples, k + r if gaps else 2)  # 2 variates
