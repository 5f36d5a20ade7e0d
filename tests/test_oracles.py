import math
from fractions import Fraction

import numpy as np
import pytest

from poisson_moments.closed_forms import (
    MomentQuery,
    diagonal_moment,
    even_moment_general,
    moment,
    odd_moment_lemma2,
)
from poisson_moments.oracles import (
    exact_moment_first_principles,
    mc_moment,
    sample_arrivals,
)
from poisson_moments.prng import uniform_block, uniforms


class TestFirstPrinciplesOracle:
    def test_anchor_values(self):
        assert exact_moment_first_principles(1, 1, 1) == 1
        assert exact_moment_first_principles(2, 1, 1) == Fraction(3, 2)
        assert exact_moment_first_principles(1, 1, 2) == 2

    def test_matches_closed_forms(self):
        # sub-grid; the full [1,10]^2 x [1,7] grid runs in acceptance
        for lam in (Fraction(1), Fraction(2)):
            for i in range(1, 6):
                for k in range(1, 6):
                    for a in range(1, 6):
                        got = exact_moment_first_principles(i, k, a, lam)
                        if a % 2 == 0:
                            want = even_moment_general(i, k, a, lam).value
                        else:
                            want = odd_moment_lemma2(i, k, a, lam).value
                        assert got == want, (i, k, a, lam)
                        if i >= k:
                            assert got == moment(
                                MomentQuery(k, i - k, a, lam)).value

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            exact_moment_first_principles(0, 1, 1)
        with pytest.raises(ValueError):
            exact_moment_first_principles(1, 1, 0)


class TestPrng:
    def test_open_interval_and_determinism(self):
        u = uniforms(1, 2, 10_000)
        assert np.all(u > 0) and np.all(u < 1)
        assert np.array_equal(u, uniforms(1, 2, 10_000))

    def test_counter_addressing(self):
        whole = uniforms(9, 4, 20)
        assert np.array_equal(whole[5:], uniforms(9, 4, 15, start=5))

    def test_block_rows_match_streams(self):
        block = uniform_block(7, np.arange(6), 9)
        for s in range(6):
            assert np.array_equal(block[s], uniforms(7, s, 9))

    def test_streams_and_seeds_differ(self):
        assert not np.array_equal(uniforms(1, 0, 8), uniforms(1, 1, 8))
        assert not np.array_equal(uniforms(1, 0, 8), uniforms(2, 0, 8))

    def test_mean_is_half(self):
        u = uniforms(3, 0, 200_000)
        assert abs(u.mean() - 0.5) < 4 * u.std() / math.sqrt(len(u))


class TestSampleArrivals:
    def test_strictly_increasing(self):
        seq = sample_arrivals(3, 1.0, 42, 0)
        assert len(seq) == 3
        assert np.all(np.diff(seq.times) > 0) and seq.times[0] > 0

    def test_bitwise_repeatable(self):
        a = sample_arrivals(5, 1.0, 7, 0)
        b = sample_arrivals(5, 1.0, 7, 0)
        assert np.array_equal(a.times, b.times)

    def test_first_arrival_mean(self):
        # E X_1 = 1/lambda, averaged across many streams of one seed
        n = 200_000
        x1 = -np.log1p(-uniform_block(123, np.arange(n), 1)[:, 0]) / 2.0
        stderr = x1.std(ddof=1) / math.sqrt(n)
        assert abs(x1.mean() - 0.5) < 4 * stderr

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            sample_arrivals(0, 1.0, 1)
        with pytest.raises(ValueError):
            sample_arrivals(3, 0.0, 1)


class TestMcMoment:
    def test_agrees_with_closed_form(self):
        for k, r, a in ((1, 0, 1), (1, 0, 2), (2, 1, 3), (3, 2, 2)):
            est = mc_moment(k, r, float(a), 1.0, 200_000, seed=2)
            exact = float(moment(MomentQuery(k, r, a)).value)
            assert abs(est.zscore(exact)) < 4, (k, r, a, est)

    def test_deterministic(self):
        e1 = mc_moment(2, 1, 1.5, 1.0, 50_000, seed=9)
        e2 = mc_moment(2, 1, 1.5, 1.0, 50_000, seed=9)
        assert e1 == e2

    def test_holder_bound_for_fractional_exponents(self):
        # E|X_k - Y_k|^b <= (E|X_k - Y_k|^ceil(b))^(b/ceil(b))
        for b in (0.5, 1.5, 2.5):
            hi = math.ceil(b)
            for k in range(1, 11):
                est = mc_moment(k, 0, b, 1.0, 100_000, seed=5)
                bound = float(diagonal_moment(k, hi).value) ** (b / hi)
                assert est.mean <= bound + 4 * est.stderr, (b, k, est.mean, bound)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_stderr_beyond_float_range_is_not_zero(self):
        # Some |d|^400.5 square past 1.8e308; the stderr used to read 0.0.
        est = mc_moment(1, 0, 400.5, 1.0, 10, seed=1)
        assert math.isfinite(est.mean)
        assert est.stderr == math.inf

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            mc_moment(1, 0, 1.0, 1.0, 1, seed=0)
        with pytest.raises(ValueError):
            mc_moment(1, 0, -1.0, 1.0, 10, seed=0)
