"""Independent ground-truth generators for the moment formulas.

Two routes that share no code with the closed forms:

* `exact_moment_first_principles` integrates the Gamma densities
  symbolically, reducing everything to factorials and powers of 1/2 in
  exact rational arithmetic.
* `mc_moment` estimates moments (including non-integer exponents) by
  deterministic, stream-addressed Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact_arith import Rat
from .prng import uniform_block, uniforms

__all__ = [
    "MCEstimate",
    "ArrivalSequence",
    "exact_moment_first_principles",
    "sample_arrivals",
    "mc_moment",
]

_CHUNK = 1 << 16  # fixed reduction granularity keeps sums deterministic


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    stderr: float
    samples: int
    seed: int

    def zscore(self, exact: float) -> float:
        return (self.mean - exact) / self.stderr


@dataclass(frozen=True)
class ArrivalSequence:
    """Strictly increasing arrival times of one sampled Poisson process."""

    times: np.ndarray
    rate: float

    def __post_init__(self) -> None:
        if len(self.times) and not np.all(np.diff(self.times) > 0):
            raise ValueError("arrival times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)


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


def sample_arrivals(n: int, lam: float, seed: int, stream: int = 0) -> ArrivalSequence:
    """First n arrival times of a rate-lam Poisson process.

    Gaps are inverse-CDF exponentials -log(1-U)/lam from the
    counter-based stream, so identical (seed, stream, n, lam) always
    reproduces the identical sequence.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if lam <= 0:
        raise ValueError(f"lambda must be > 0, got {lam}")
    gaps = -np.log1p(-uniforms(seed, stream, n)) / lam
    return ArrivalSequence(times=np.cumsum(gaps), rate=lam)


def _pair_distances(k: int, r: int, lam: float, seed: int,
                    lo: int, hi: int) -> np.ndarray:
    """|X_{k+r} - Y_k| for sample pairs lo..hi-1 (streams 2m and 2m+1)."""
    pairs = np.arange(lo, hi, dtype=np.uint64)
    ux = uniform_block(seed, 2 * pairs, k + r)
    uy = uniform_block(seed, 2 * pairs + 1, k)
    x = np.sum(-np.log1p(-ux), axis=1) / lam
    y = np.sum(-np.log1p(-uy), axis=1) / lam
    return np.abs(x - y)


def mc_moment(k: int, r: int, b: float, lam: float,
              samples: int, seed: int) -> MCEstimate:
    """Monte Carlo estimate of E|X_{k+r} - Y_k|^b (any real b > 0).

    Pair m draws its two processes from streams 2m and 2m+1; chunks are
    reduced in fixed order, so the result is a pure function of
    (seed, k, r, b, lam, samples).
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    if k < 1 or r < 0 or b <= 0 or lam <= 0:
        raise ValueError("require k >= 1, r >= 0, b > 0, lam > 0")
    total = 0.0
    total_sq = 0.0
    for lo in range(0, samples, _CHUNK):
        hi = min(lo + _CHUNK, samples)
        vals = _pair_distances(k, r, lam, seed, lo, hi) ** b
        total += float(np.sum(vals))
        total_sq += float(np.sum(vals * vals))
    mean = total / samples
    var = (total_sq - samples * mean * mean) / (samples - 1)
    # var is inf or nan only when the sum of squares left float range.
    stderr = math.sqrt(max(0.0, var) / samples) if math.isfinite(var) else math.inf
    return MCEstimate(mean=mean, stderr=stderr,
                      samples=samples, seed=seed)
