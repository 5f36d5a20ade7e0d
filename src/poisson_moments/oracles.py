"""Independent ground-truth generators for the moment formulas.

Two routes that share no code with the closed forms:

* `exact_moment_first_principles` integrates the Gamma densities
  symbolically, as one integer sum over one power-of-two denominator,
  and imports nothing from the exact kernel (`exact_arith`).
* `mc_moment` estimates moments (including non-integer exponents) by
  deterministic, stream-addressed Monte Carlo.

Every Monte Carlo estimate draws arrival times at rate 1, divides each
distance by the rate before raising it to b, and reduces the values with
`blocked_estimate`, in blocks of bounded memory.  `mc_moment` sums an
arrival time of shape (index) s <= `_GAP_SHAPES` from its s gaps, and
draws a larger one as one Gamma(s) variate, by Marsaglia and Tsang's
method from 3 uniforms per attempt (`gamma_variates`).  Within a block a
sampler never holds a block-sized or row-sized array: it turns each
cache-sized tile that `prng.tiles` draws (of whole rows, or of one wide
row's columns) into gaps or Gamma attempts, transforms it and keeps its
per-row results (row sums by `prng.add_row_sums`, in the order prng
fixes) before the next.  Each
block's rows are sampled as contiguous slices, one per CPU the process
may run on (fewer for a small block), the first on the calling thread
and the rest on a thread pool, and joined in row order.  Row i of every
sampler is a pure function of its stream addresses (the PRNG is
counter-based, every sum and running sum runs along the row, and a Gamma
attempt reads its own row's counters alone), so the
block, and with it every mean and stderr, is bit-identical for any
number of threads.
numpy is imported inside the functions that draw or reduce samples, and
the thread pool only for blocks of several slices, so the exact oracle
(and every caller that never samples) loads neither.
"""

from __future__ import annotations

import contextlib
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
# An arrival time of a shape up to this is a sum of gaps, of a larger one a
# Gamma variate (gamma_variates).  On one thread of a 2-vCPU x86_64 VM with
# numpy 2.4.6, a variate cost ~90 ns and a sum ~10 ns per gap, so they cross
# near shape 10; a monte_carlo benchmark pass took 314, 322 and 336 ms at 9,
# 12 and 16 here (614 ms with gaps alone).  At 12, acceptance criterion 6's
# shapes (11 at most) stay on gaps.
_GAP_SHAPES = 12


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


def gap_sums(seed: int, streams, width: int) -> np.ndarray:
    """Sum along each row of log(V), minus the rate-1 gaps, all finite, of
    counters 0..width-1 of the streams (prng.tiles yields V in (0, 1])."""
    import numpy as np

    from .prng import add_row_sums, tiles

    sums = np.empty(len(streams))
    for r0, r1, c0, (g,) in tiles(seed, [streams], width):
        np.log(g, out=g)
        add_row_sums(sums, r0, r1, c0, g)
    return sums


def gamma_variates(seed: int, streams: np.ndarray, shape: int) -> np.ndarray:
    """One Gamma(shape) variate at rate 1 per stream, for a shape above 9, by
    Marsaglia & Tsang (2000).  With d = shape - 1/3, attempt j reads the
    stream's counters 3j..3j+2: V1 and V2 for the normal
    x = sqrt(-2 log V1) sin(pi (V2 - 1/2)) (Box & Muller 1958, with a
    half-circle angle, whose sine is distributed as the full circle's
    cosine), V3 for the test log V3 - x^2/2 < d (1 - v + log v), where
    v = (1 + x / sqrt(9 d))^3; the first attempt that passes gives d v.
    As V1 >= 2^-52, |x| <= sqrt(104 log 2) < 8.5, so v > 0 for every such
    shape.  Each attempt walks the rows still rejected through prng.tiles,
    so a row is a function of its stream alone."""
    import numpy as np

    from .prng import tiles

    d = shape - 1 / 3
    c = 1 / math.sqrt(9 * d)
    out = np.empty(len(streams))
    todo, draw = None, streams  # the rows still to draw (None: all), streams
    first = 0  # the attempt's first counter
    while len(draw):
        rejected = []
        for r0, r1, c0, (v,) in tiles(seed, [draw], first + 3):
            lo, hi = max(c0, first), c0 + v.shape[1]
            if lo >= hi:
                continue  # counters of earlier attempts alone
            if hi - lo < 3:
                # The attempt spans column tiles, which only tiles narrower
                # than 3j + 3 words make: its counters are gathered first.
                if lo == first:
                    split = np.empty((3, r1 - r0))
                split[lo - first:hi - first] = v[:, lo - c0:].T
                if hi < first + 3:
                    continue
                v = split.T
            x, t, u = v[:, -3:].T
            np.log(x, out=x)  # x: the normal
            x *= -2.0
            np.sqrt(x, out=x)
            t -= 0.5
            t *= math.pi
            np.sin(t, out=t)
            x *= t
            np.multiply(x, c, out=t)  # t: 1 + x / sqrt(9 d)
            t += 1.0
            np.log(u, out=u)  # u: log V3 - x^2/2
            np.square(x, out=x)
            x *= 0.5
            u -= x
            np.multiply(t, t, out=x)  # x: v
            x *= t
            np.log(x, out=t)  # t: d (1 - v + log v)
            t -= x
            t += 1.0
            t *= d
            x *= d
            rows = np.arange(r0, r1) if todo is None else todo[r0:r1]
            out[rows] = x  # a rejected row is overwritten by a later attempt
            rejected.append(rows[~(u < t)])
        todo = np.concatenate(rejected)
        draw = streams[todo]
        first += 3
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


def blocked_estimate(sample, rows: int, width: int) -> MCEstimate:
    """Mean and stderr of the values that sample(lo, hi) returns for rows
    lo..hi-1, where one stream draws `width` uniforms per row.  Each block
    is sampled as contiguous row slices, one per started `_SLICE_UNIFORMS`
    uniforms up to `_WORKERS` (some empty when the block has fewer rows
    than slices), the first on the calling thread and the rest on a pool,
    and joined in row order (a one-slice block is reduced in the array
    that sample returned); blocks are merged in order by their
    (n, sum, M2) (Chan, Golub & LeVeque 1979).  Values beyond float range
    come out as inf or nan, an M2 beyond it as stderr = inf.
    """
    import numpy as np

    def part(lo: int, hi: int) -> np.ndarray:
        # numpy's error state is per thread; a worker does not inherit it.
        with np.errstate(over="ignore", invalid="ignore"):
            return sample(lo, hi)

    def slices(lo: int, hi: int) -> int:
        return min(_WORKERS, -(-(hi - lo) * width // _SLICE_UNIFORMS))

    step = min(_BLOCK_ROWS, max(1, _BLOCK_UNIFORMS // width))
    blocks = []
    total = 0.0
    with contextlib.ExitStack() as stack, \
            np.errstate(over="ignore", invalid="ignore"):
        # The first block is the largest, so unless it has several slices
        # no block does, and neither the pool nor its module is loaded.
        run = map
        if slices(0, min(step, rows)) > 1:
            from concurrent.futures import ThreadPoolExecutor

            run = stack.enter_context(ThreadPoolExecutor(_WORKERS - 1)).map
        for lo in range(0, rows, step):
            hi = min(lo + step, rows)
            w = slices(lo, hi)
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

    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 < lam < math.inf:
        raise ValueError(f"lambda must be finite and > 0, got {lam}")
    if not 0 <= stream < 1 << 64:
        raise ValueError(f"stream must be in [0, 2^64), got {stream}")
    row = np.empty(n)
    for r0, r1, c0, (u,) in tiles(seed, [[stream]], n):
        np.log(u[0], out=row[c0:c0 + u.shape[1]])
    return np.divide(np.cumsum(row, out=row), -lam, out=row)


def mc_moment(k: int, r: int, b: float, lam: float,
              samples: int, seed: int) -> MCEstimate:
    """Monte Carlo estimate of E|X_{k+r} - Y_k|^b (any finite real b > 0).

    Pair m draws its two processes from streams 2m and 2m+1, so the
    result is a pure function of (seed, k, r, b, lam, samples).  An
    arrival time of shape up to _GAP_SHAPES is the sum of its gaps, a
    later one a Gamma variate (gamma_variates); k and r are integers.
    """
    import numpy as np

    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    if not (isinstance(k, Integral) and isinstance(r, Integral)):
        raise ValueError(f"k and r must be integers, got k={k!r}, r={r!r}")
    if not (k >= 1 and r >= 0 and 0 < b < math.inf and 0 < lam < math.inf):
        raise ValueError("require k >= 1, r >= 0, 0 < b < inf, 0 < lam < inf")

    def arrivals(streams: np.ndarray, shape: int) -> np.ndarray:
        # Minus the arrival times, as gap_sums gives them.
        if shape <= _GAP_SHAPES:
            return gap_sums(seed, streams, shape)
        g = gamma_variates(seed, streams, shape)
        return np.negative(g, out=g)

    def distances(lo: int, hi: int) -> np.ndarray:
        # x and y are minus the arrival times, so |x - y| is unchanged;
        # **= takes numpy's scalar-power fast paths as ** does.
        streams = np.arange(lo, hi, dtype=np.uint64)
        streams *= 2
        x = arrivals(streams, k + r)
        streams += 1
        x -= arrivals(streams, k)
        np.abs(x, out=x)
        x /= lam
        x **= b
        return x

    # The uniforms a stream draws per row: its shape, or a Gamma attempt's 3.
    width = max(s if s <= _GAP_SHAPES else 3 for s in (k + r, k))
    return blocked_estimate(distances, samples, width)
