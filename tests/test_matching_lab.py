import math
from fractions import Fraction

import numpy as np
import pytest

from poisson_moments.closed_forms import sum_moments
from poisson_moments.matching_lab import (
    ScalingFit,
    expected_sorted_cost_exact,
    mc_sorted_cost,
    optimal_matching_cost_bruteforce,
    sample_matching_run,
    scaling_experiment,
    sorted_matching_cost,
)
from poisson_moments.oracles import ArrivalSequence


def _seq(values):
    return ArrivalSequence(times=np.asarray(values, dtype=float), rate=1.0)


class TestSortedCost:
    def test_hand_values(self):
        assert sorted_matching_cost(_seq([1, 2]), _seq([1, 2]), 2.0) == 0
        assert sorted_matching_cost(_seq([1, 3]), _seq([2, 7]), 1.0) == 5
        assert sorted_matching_cost(_seq([1, 3]), _seq([2, 7]), 2.0) == 17

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sorted_matching_cost(_seq([1]), _seq([1, 2]), 1.0)


class TestBruteForce:
    def test_identity_permutation_optimal(self):
        assert optimal_matching_cost_bruteforce([1, 3], [2, 7], 1.0) == 5

    def test_single_point(self):
        assert optimal_matching_cost_bruteforce([2.0], [5.0], 0.7) == 3.0 ** 0.7

    def test_concave_regime_enumeration(self):
        # b < 1: enumerate both pairings explicitly
        sorted_cost = abs(0 - 9) ** 0.5 + abs(10 - 11) ** 0.5
        crossed = abs(0 - 11) ** 0.5 + abs(10 - 9) ** 0.5
        best = optimal_matching_cost_bruteforce([0, 10], [9, 11], 0.5)
        assert best == pytest.approx(min(sorted_cost, crossed))

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            optimal_matching_cost_bruteforce(list(range(9)), list(range(9)), 1.0)


class TestSortedIsOptimalConvex:
    def test_random_instances(self):
        # 500 instances in the acceptance suite; a quick sweep per b here
        idx = 0
        for b in (1.0, 1.5, 2.0, 3.0):
            for _ in range(60):
                n = idx % 7 + 1
                run = sample_matching_run(n, b, seed=17, stream_pair=idx)
                idx += 1
                assert run.sorted_cost <= run.optimal_cost * (1 + 1e-9) + 1e-12
                assert run.sorted_cost == pytest.approx(run.optimal_cost,
                                                        rel=1e-9)


class TestExpectedCost:
    def test_examples(self):
        assert expected_sorted_cost_exact(1, 2) == 2
        assert expected_sorted_cost_exact(2, 2) == Fraction(3, 2)
        assert expected_sorted_cost_exact(4, 1) == sum_moments(4, 1, Fraction(4)).value

    def test_mc_agrees_with_exact(self):
        for n, a in ((4, 1), (16, 2), (64, 3)):
            est = mc_sorted_cost(n, float(a), trials=20_000, seed=11,
                                 stream_offset=n * 100_000)
            exact = float(expected_sorted_cost_exact(n, a))
            z = (est.mean - exact) / est.stderr
            assert abs(z) < 4, (n, a, z)

    def test_mc_rejects_bad_args(self):
        for n, b, trials in ((0, 1.0, 10), (4, 0.0, 10), (4, math.nan, 10),
                             (4, 1.0, 1)):
            with pytest.raises(ValueError):
                mc_sorted_cost(n, b, trials, seed=0)


class TestScalingExperiment:
    GRID = [8, 16, 32, 64, 128, 256, 512, 1024]

    def test_slopes(self):
        for b, target, tol in ((1.0, 0.5, 0.12), (2.0, 0.0, 0.12)):
            fit = scaling_experiment(b, self.GRID, trials=200, seed=3)
            assert isinstance(fit, ScalingFit)
            assert abs(fit.slope - target) < tol, fit

    def test_concave_upper_bound(self):
        fit = scaling_experiment(0.5, self.GRID, trials=200, seed=3)
        assert fit.slope <= 0.75 + 0.1

    def test_deterministic(self):
        f1 = scaling_experiment(1.0, [8, 16, 32], trials=50, seed=5)
        f2 = scaling_experiment(1.0, [8, 16, 32], trials=50, seed=5)
        assert f1 == f2

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            scaling_experiment(1.0, [8, 8, 16], trials=10, seed=0)
        for grid in ([], [8]):  # no fit: IndexError, then a vacuous slope
            with pytest.raises(ValueError):
                scaling_experiment(1.0, grid, trials=10, seed=0)
        with pytest.raises(ValueError):  # costs overflow or underflow
            scaling_experiment(1e20, [8, 16], trials=10, seed=0)
        with pytest.raises(ValueError):
            scaling_experiment(1.0, [8, 16], trials=1, seed=0)

    def test_fit_quality_tracked(self):
        fit = scaling_experiment(1.0, self.GRID, trials=200, seed=3)
        assert 0.9 < fit.r_squared <= 1.0
        assert len(fit.mean_costs) == len(fit.n_grid)
        assert math.isfinite(fit.intercept)
