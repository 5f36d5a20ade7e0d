"""Independent ground-truth generators for the moment formulas.

Two routes that share no code with the closed forms:

* `exact_moment_first_principles` integrates the Gamma densities
  symbolically, reducing everything to factorials and powers of 1/2 in
  exact rational arithmetic.
* `mc_moment` estimates moments (including non-integer exponents) by
  deterministic, stream-addressed Monte Carlo.

Every Monte Carlo estimate draws rate-1 gaps (`rate1_gaps`), divides each
distance by the rate before raising it to b, and reduces the values with
`blocked_estimate`, in blocks of bounded memory.  Each block's rows are
sampled as contiguous slices, one per CPU the process may run on, the
first on the calling thread and the rest on a thread pool, and joined in
row order.  Row i of every sampler is a pure function of its stream
addresses (the PRNG is counter-based, and sums and cumulative sums run
along the row), so the block, and with it every mean and stderr, is
bit-identical for any number of threads.  numpy and the thread pool are
imported inside the functions that draw or reduce samples, so the exact
oracle (and every caller that never samples) loads neither.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .exact_arith import Rat

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MCEstimate",
    "exact_moment_first_principles",
    "sample_arrivals",
    "mc_moment",
]

# Rows per block and uniforms per stream block; they fix the summation order.
_BLOCK_ROWS = 1 << 16
_BLOCK_UNIFORMS = 1 << 22
# Threads that sample one block's row slices; the result does not depend on it.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    stderr: float

    def zscore(self, exact: float) -> float:
        return (self.mean - exact) / self.stderr


def _raw_moment(idx: int, j: int) -> Rat:
    """E[X_idx^j] * lambda^j = idx (idx+1) ... (idx+j-1), from factorials."""
    return Rat(math.factorial(idx + j - 1), math.factorial(idx - 1))


def exact_moment_first_principles(i: int, k: int, a: int,
                                  lam: Rat | int = 1) -> Rat:
    """E|X_i - Y_k|^a by direct symbolic integration of the densities.

    Expands |t-y|^a as the full-line polynomial term plus, for odd a, a
    -2 * lower-tail correction; every integral reduces to a factorial or
    a binomial over a power of two.  Uses none of the closed-form
    theorem machinery, so it serves as an independent oracle.
    """
    if i < 1 or k < 1 or a < 1:
        raise ValueError("i, k, a must all be >= 1")
    lam = Rat(lam)
    # Full-line term: E(X-Y)^a expanded through independent raw moments.
    full_line = Rat(0)
    for j in range(a + 1):
        full_line += (Rat(math.comb(a, j)) * (-1) ** (a - j)
                      * _raw_moment(i, j) * _raw_moment(k, a - j))
    if a % 2 == 0:
        return full_line / lam ** a

    # Odd a: subtract twice the lower-tail integral.  The inner
    # incomplete-Gamma integral contributes the full-line term again
    # (with sign -2) plus exponential-tail corrections whose outer
    # integrals are elementary: for M = a-j+k-1+l,
    #   integral_0^inf y^M e^(-2*lam*y) * lam^(k+l+1) / ((k-1)! l!) dy
    #     = M! / ((k-1)! l! 2^(M+1) lam^(a-j)).
    correction = Rat(0)
    for j in range(a + 1):
        tail = Rat(0)
        for l in range(i + j):
            m_exp = a - j + k - 1 + l
            tail += Fraction(math.factorial(m_exp),
                             math.factorial(k - 1) * math.factorial(l)
                             * 2 ** m_exp)
        correction += (Rat(math.comb(a, j)) * (-1) ** (a - j)
                       * _raw_moment(i, j)
                       * (tail - 2 * _raw_moment(k, a - j)))
    return (full_line + correction) / lam ** a


def rate1_gaps(seed: int, streams, n: int) -> np.ndarray:
    """Inverse-CDF Exp(1) gaps -log(1-U) for counters 0..n-1 of each
    stream; shape (len(streams), n)."""
    import numpy as np

    from .prng import uniform_block

    return -np.log1p(-uniform_block(seed, streams, n))


def _sum_sq(d: np.ndarray, weight=1.0) -> tuple[float, int]:
    """sum(weight * d^2) as (q, e) with the sum = q * 4^e, taken on the exact
    d * 2^-e so that squares near the float floor do not underflow."""
    import numpy as np

    e = int(np.frexp(np.max(np.abs(d)))[1])
    return float(np.sum(weight * np.ldexp(d, -e) ** 2)), e


def blocked_estimate(sample, rows: int, width: int) -> MCEstimate:
    """Mean and stderr of the values that sample(lo, hi) returns for rows
    lo..hi-1, where one stream draws `width` uniforms per row.  Each block
    is sampled as `_WORKERS` contiguous row slices (some empty when the
    block has fewer rows), the first on the calling thread and the rest on
    a pool, and joined in row order; blocks are merged in order by their
    (n, sum, M2) (Chan, Golub & LeVeque 1979).  Values beyond float range
    come out as inf or nan, an M2 beyond it as stderr = inf.
    """
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    def part(lo: int, hi: int) -> np.ndarray:
        # numpy's error state is per thread; a worker does not inherit it.
        with np.errstate(over="ignore", invalid="ignore"):
            return sample(lo, hi)

    step = min(_BLOCK_ROWS, max(1, _BLOCK_UNIFORMS // width))
    blocks = []
    total = 0.0
    # The calling thread samples the first slice, so with one worker the
    # pool gets no task and starts no thread.  It also keeps part of each
    # block in the main malloc arena: with every slice on pool threads,
    # glibc held on to freed blocks and the monte_carlo benchmark's peak
    # RSS read 214 MB on one CPU and up to 161 MB on two, against 157 MB
    # sampled serially and 128 MB this way (x86_64).
    with ThreadPoolExecutor(max(1, _WORKERS - 1)) as pool, \
            np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, rows, step):
            hi = min(lo + step, rows)
            cuts = [lo + (hi - lo) * t // _WORKERS for t in range(_WORKERS + 1)]
            rest = pool.map(part, cuts[1:-1], cuts[2:])
            v = np.concatenate([part(cuts[0], cuts[1]), *rest])
            s = float(np.sum(v))
            blocks.append((len(v), s / len(v), _sum_sq(v - s / len(v))))
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
    the identical sequence.
    """
    import numpy as np

    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not lam > 0:
        raise ValueError(f"lambda must be > 0, got {lam}")
    return np.cumsum(rate1_gaps(seed, [stream], n)[0]) / lam


def mc_moment(k: int, r: int, b: float, lam: float,
              samples: int, seed: int) -> MCEstimate:
    """Monte Carlo estimate of E|X_{k+r} - Y_k|^b (any real b > 0).

    Pair m draws its two processes from streams 2m and 2m+1, so the
    result is a pure function of (seed, k, r, b, lam, samples).
    """
    import numpy as np

    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    if not (k >= 1 and r >= 0 and b > 0 and lam > 0):
        raise ValueError("require k >= 1, r >= 0, b > 0, lam > 0")

    def distances(lo: int, hi: int) -> np.ndarray:
        pairs = np.arange(lo, hi, dtype=np.uint64)
        x = np.sum(rate1_gaps(seed, 2 * pairs, k + r), axis=1)
        y = np.sum(rate1_gaps(seed, 2 * pairs + 1, k), axis=1)
        return (np.abs(x - y) / lam) ** b

    return blocked_estimate(distances, samples, k + r)
