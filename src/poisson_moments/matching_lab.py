"""Bicolored matching experiments on the line.

Samples pairs of Poisson point sets, computes the index-sorted matching
cost sum |X_k - Y_k|^b, verifies optimality against a brute-force
permutation oracle at small n, and fits the empirical cost-versus-n
scaling law with the rate coupled as lambda = n.  Sorted costs are drawn
from rate-1 gaps, each distance divided by n before it is raised to b,
and summed by `oracles.gap_sums` one cache-sized tile of `prng.tiles` at
a time, with the arrival times carried across the tiles of a wide row;
the per-trial costs are reduced by `oracles.blocked_estimate`, so memory
stays bounded whatever n or trials is.  numpy is imported inside the
functions that sample or fit, so the exact expected cost and the
brute-force oracle do not load it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import permutations

from .closed_forms import sum_moments
from .exact_arith import Rat
from .oracles import MCEstimate, blocked_estimate, gap_sums, sample_arrivals

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
    xs = sample_arrivals(n, float(n), seed, 2 * stream_pair)
    ys = sample_arrivals(n, float(n), seed, 2 * stream_pair + 1)
    return MatchingRun(sorted_cost=sorted_matching_cost(xs, ys, b),
                       optimal_cost=optimal_matching_cost_bruteforce(xs, ys, b))


def mc_sorted_cost(n: int, b: float, trials: int, seed: int,
                   stream_offset: int = 0) -> MCEstimate:
    """Monte Carlo mean of the sorted matching cost at lambda = n; trial t
    uses streams 2(stream_offset+t) and 2(stream_offset+t)+1."""
    import numpy as np

    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    if not (n >= 1 and 0 < b < math.inf):
        raise ValueError("require n >= 1, 0 < b < inf")

    def costs(lo: int, hi: int) -> np.ndarray:
        # Arrival times, then (|x - y| / n) ** b, in each tile of -gaps:
        # the cumulative sums are minus the arrival times, and
        # x - y = -(X - Y) exactly.  A row wider than a tile carries its
        # cumulative sums into the next tile's first gaps, which keeps them
        # sequential.  **= takes numpy's scalar-power fast paths as ** does,
        # so b = 2 stays a square.
        carry = None

        def tail(x: np.ndarray, y: np.ndarray, c0: int) -> None:
            nonlocal carry
            if c0:
                x[:, 0] += carry[0]
                y[:, 0] += carry[1]
            np.cumsum(x, axis=1, out=x)
            np.cumsum(y, axis=1, out=y)
            carry = x[:, -1].copy(), y[:, -1].copy()
            x -= y
            np.abs(x, out=x)
            x /= n
            x **= b

        pairs = stream_offset + np.arange(lo, hi, dtype=np.uint64)
        return gap_sums(seed, [2 * pairs, 2 * pairs + 1], n, tail)

    return blocked_estimate(costs, trials, n)


def scaling_experiment(b: float, n_grid: list, trials: int,
                       seed: int) -> ScalingFit:
    """Mean sorted cost at lambda = n over n_grid, with a log-log OLS fit.

    Grid point g uses stream pairs g*trials .. (g+1)*trials - 1, so every
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
