"""Bicolored matching experiments on the line.

Samples pairs of Poisson point sets, computes the index-sorted matching
cost sum |X_k - Y_k|^b, verifies optimality against a brute-force
permutation oracle at small n, and fits the empirical cost-versus-n
scaling law with the rate coupled as lambda = n.  Sorted costs are drawn
at rate 1, each distance divided by n before it is raised to b, one
cache-sized tile of `prng.tiles` at a time, with X_k - Y_k one running
sum of signed steps E - E' (one word each), carried across the tiles of
a wide row, and summed by `prng.add_row_sums`; `oracles.blocked_estimate`
reduces the per-trial costs, so memory stays bounded whatever n or trials
is.  numpy and prng load only in the functions that sample or fit, so
the exact expected cost and the brute-force oracle do without them.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import permutations

from .closed_forms import sum_moments
from .exact_arith import Rat
from .oracles import MCEstimate, blocked_estimate, integer, sample_arrivals

__all__ = [
    "MatchingRun",
    "ScalingFit",
    "sorted_matching_cost",
    "optimal_matching_cost_bruteforce",
    "expected_sorted_cost_exact",
    "sample_matching_run",
    "mc_sorted_cost",
    "scaling_experiment",
]

_BRUTE_FORCE_LIMIT = 8


# The per-policy costs of one sampled bicolored configuration.
MatchingRun = namedtuple("MatchingRun", "sorted_cost optimal_cost")
ScalingFit = namedtuple("ScalingFit", "n_grid mean_costs slope intercept r_squared")


def sorted_matching_cost(xs, ys, b: float) -> float:
    """sum_k |X_k - Y_k|^b for the index-to-index (sorted) matching of two
    arrays of arrival times."""
    import numpy as np

    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    return float(np.sum(np.abs(xs - ys) ** b))


def optimal_matching_cost_bruteforce(xs, ys, b: float) -> float:
    """Minimum of sum |x_k - y_sigma(k)|^b over all bijections sigma.

    Enumerates all n! permutations, so n is capped at 8.
    """
    xs = list(xs)
    ys = list(ys)
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n > _BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force capped at n <= {_BRUTE_FORCE_LIMIT}, got {n}")
    return min(sum(abs(x - y) ** b for x, y in zip(xs, perm))
               for perm in permutations(ys))


def expected_sorted_cost_exact(n: int, a: int) -> Rat:
    """Exact E[sum_k |X_k - Y_k|^a] at the coupled rate lambda = n."""
    return sum_moments(n, a, Rat(n)).value


def sample_matching_run(n: int, b: float, seed: int,
                        stream_pair: int = 0) -> MatchingRun:
    """Sample one bicolored instance at the coupled rate lambda = n, with
    its sorted and brute-force optimal costs (n <= 8)."""
    stream_pair = integer("stream_pair", stream_pair)
    if not 0 <= stream_pair < 1 << 63:
        raise ValueError(f"stream_pair must be in [0, 2^63), got {stream_pair}")
    xs = sample_arrivals(n, float(n), seed, 2 * stream_pair)
    ys = sample_arrivals(n, float(n), seed, 2 * stream_pair + 1)
    return MatchingRun(sorted_cost=sorted_matching_cost(xs, ys, b),
                       optimal_cost=optimal_matching_cost_bruteforce(xs, ys, b))


def mc_sorted_cost(n: int, b: float, trials: int, seed: int,
                   stream_offset: int = 0) -> MCEstimate:
    """Monte Carlo mean of the sorted matching cost at lambda = n; trial t
    walks stream stream_offset+t, so stream_offset + trials may be at most
    2^64.  Each step X_k - Y_k - (X_{k-1} - Y_{k-1}) = E - E' is one
    signed step of that stream (prng.tiles), Laplace(0, 1) from one word."""
    import numpy as np

    from .prng import add_row_sums, tiles

    n, trials = integer("n", n), integer("trials", trials)
    stream_offset = integer("stream_offset", stream_offset)
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    if not (n >= 1 and 0 < b < math.inf):
        raise ValueError("require n >= 1, 0 < b < inf")
    if not 0 <= stream_offset <= (1 << 64) - trials:
        raise ValueError("require 0 <= stream_offset <= 2^64 - trials")

    def costs(lo: int, hi: int) -> np.ndarray:
        # (|X - Y| / n) ** b in each tile of signed steps: their running sum
        # has the law of X - Y, and rounds at its own size, ~sqrt(k), not at
        # the arrival times', ~k.  A wide row carries it into the next
        # tile's first step.  **= takes numpy's scalar-power fast paths as
        # ** does, so b = 2 stays a square.
        streams = stream_offset + np.arange(lo, hi, dtype=np.uint64)
        sums = np.empty(hi - lo)
        for r0, r1, c0, x in tiles(seed, streams, n, signed=n):
            if c0:
                x[:, 0] += carry
            np.cumsum(x, axis=1, out=x)
            carry = x[:, -1].copy()
            np.abs(x, out=x)
            x /= n
            x **= b
            add_row_sums(sums, r0, r1, c0, x)
        return sums

    return blocked_estimate(costs, trials, n)


def scaling_experiment(b: float, n_grid: list, trials: int,
                       seed: int) -> ScalingFit:
    """Mean sorted cost at lambda = n over n_grid, with a log-log OLS fit.

    Grid point g uses streams g*trials .. (g+1)*trials - 1, so every
    instance across the whole experiment has a distinct stream address.
    """
    import numpy as np

    n_grid = list(n_grid)
    if (len(n_grid) < 2 or n_grid[0] < 1
            or any(m >= n for m, n in zip(n_grid, n_grid[1:]))):
        raise ValueError("n_grid must hold at least 2 strictly increasing "
                         "points with n >= 1")
    means = [mc_sorted_cost(n, b, trials, seed, stream_offset=g * trials).mean
             for g, n in enumerate(n_grid)]
    if not all(0 < c < math.inf for c in means):
        raise ValueError(f"mean matching cost at b={b} is outside float range")
    log_n = np.log(np.array(n_grid, dtype=float))
    log_c = np.log(np.array(means))
    slope, intercept = np.polyfit(log_n, log_c, 1)
    fitted = slope * log_n + intercept
    ss_res = float(np.sum((log_c - fitted) ** 2))
    ss_tot = float(np.sum((log_c - np.mean(log_c)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ScalingFit(n_grid=n_grid, mean_costs=means,
                      slope=float(slope), intercept=float(intercept),
                      r_squared=r_squared)
