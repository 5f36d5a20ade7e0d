import math
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from poisson_moments import oracles
from poisson_moments.closed_forms import (
    MomentQuery,
    diagonal_moment,
    even_moment_general,
    moment,
    odd_moment_lemma2,
)
from poisson_moments.matching_lab import mc_sorted_cost, scaling_experiment
from poisson_moments.oracles import (
    blocked_estimate,
    exact_moment_first_principles,
    mc_moment,
    sample_arrivals,
)
from poisson_moments.prng import uniform_block


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
        u = uniform_block(1, [2], 10_000)
        assert np.all(u > 0) and np.all(u < 1)
        assert np.array_equal(u, uniform_block(1, [2], 10_000))

    def test_block_rows_match_streams(self):
        # A row does not depend on the other streams drawn with it, so any
        # block layout yields the same values.
        block = uniform_block(7, np.arange(6), 9)
        for s in range(6):
            assert np.array_equal(block[s], uniform_block(7, [s], 9)[0])

    def test_column_prefix_is_the_shorter_block(self):
        assert np.array_equal(uniform_block(9, [4], 20)[:, :15],
                              uniform_block(9, [4], 15))

    def test_streams_and_seeds_differ(self):
        assert not np.array_equal(uniform_block(1, [0], 8), uniform_block(1, [1], 8))
        assert not np.array_equal(uniform_block(1, [0], 8), uniform_block(2, [0], 8))

    def test_mean_is_half(self):
        u = uniform_block(3, [0], 200_000)
        assert abs(u.mean() - 0.5) < 4 * u.std() / math.sqrt(u.size)

    @pytest.mark.parametrize("seed, stream, counter, value", [
        (0, 0, 0, "0x1.c4415072f63bap-1"),
        (7, 3, 4, "0x1.3f9f3ad9257b9p-2"),
        (2 ** 40 + 5, 123456, 999, "0x1.739527c6eef38p-1"),
    ])
    def test_pinned_values(self, seed, stream, counter, value):
        # The stream contract: every Monte Carlo output depends on these.
        assert uniform_block(seed, [stream], counter + 1)[0, -1].hex() == value


class TestSampleArrivals:
    def test_strictly_increasing(self):
        seq = sample_arrivals(3, 1.0, 42, 0)
        assert len(seq) == 3
        assert np.all(np.diff(seq) > 0) and seq[0] > 0

    def test_bitwise_repeatable(self):
        a = sample_arrivals(5, 1.0, 7, 0)
        b = sample_arrivals(5, 1.0, 7, 0)
        assert np.array_equal(a, b)

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
        with pytest.raises(ValueError):
            sample_arrivals(3, math.nan, 1)


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

    def test_stderr_beyond_float_range_is_not_zero(self, monkeypatch):
        # Some |d|^400.5 square past 1.8e308; the stderr used to read 0.0.
        for workers in (1, 2):
            monkeypatch.setattr(oracles, "_WORKERS", workers)
            est = mc_moment(1, 0, 400.5, 1.0, 10, seed=1)
            assert math.isfinite(est.mean)
            assert est.stderr == math.inf

    def test_values_beyond_float_range_are_inf(self, monkeypatch):
        # |d|^1000 overflows for |d| > 2.03, in 12 of rows 0-99 and 18 of
        # rows 100-199; with 2 workers rows 100-199 are sampled on a pool
        # thread, which under filterwarnings=error fails here unless it
        # enters its own errstate.
        for workers in (1, 2):
            monkeypatch.setattr(oracles, "_WORKERS", workers)
            est = mc_moment(1, 0, 1000.0, 1.0, 200, seed=1)
            assert (est.mean, est.stderr) == (math.inf, math.inf)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            mc_moment(1, 0, 1.0, 1.0, 1, seed=0)
        with pytest.raises(ValueError):
            mc_moment(1, 0, -1.0, 1.0, 10, seed=0)
        with pytest.raises(ValueError):
            mc_moment(1, 0, math.nan, 1.0, 10, seed=0)
        with pytest.raises(ValueError):
            mc_moment(1, 0, 1.0, math.nan, 10, seed=0)


class TestBlockedEstimate:
    @pytest.mark.parametrize("loc, scale", [(1e8, 1.0), (1e-300, 1e-300)])
    def test_stderr_does_not_cancel(self, loc, scale, monkeypatch):
        # Values loc + scale * U(0, 1) over 5 blocks of 1024 rows: at 1e8,
        # sum(v^2) - n mean^2 would lose every digit of the variance; at
        # 1e-300, every square underflows.
        def sample(lo, hi):
            return loc + scale * uniform_block(4, np.arange(lo, hi), 1)[:, 0]

        v = sample(0, 5000)
        for workers in (1, 2):
            monkeypatch.setattr(oracles, "_WORKERS", workers)
            est = blocked_estimate(sample, 5000, 1 << 12)
            assert est.mean == pytest.approx(np.mean(v), rel=1e-15)
            assert est.stderr / scale == pytest.approx(
                np.std(v / scale, ddof=1) / math.sqrt(5000), rel=1e-9)

    def test_memory_is_bounded(self, monkeypatch):
        # A stream block holds at most 2^22 float64 uniforms (32 MB), and
        # fewer than 8 block-sized arrays are alive at once, however many
        # threads share a block's rows.
        for workers in (1, 2):
            monkeypatch.setattr(oracles, "_WORKERS", workers)
            for run in (lambda: mc_moment(4000, 0, 1.0, 1.0, 4096, 0),
                        lambda: mc_sorted_cost(4096, 1.0, 4096, 0)):
                tracemalloc.start()
                try:
                    run()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= 8 * (1 << 22) * 8, (workers, peak)

    def test_calling_thread_samples_the_first_slice(self, monkeypatch):
        # With one worker every slice runs on the calling thread; with
        # more, the first slice of every block does.
        def sample(lo, hi):
            seen.append((lo, hi, threading.get_ident()))
            return np.ones(hi - lo)

        main = threading.get_ident()
        for workers in (1, 3):
            monkeypatch.setattr(oracles, "_WORKERS", workers)
            seen = []
            est = blocked_estimate(sample, 3 * (1 << 12) + 1, 1 << 10)
            assert (est.mean, est.stderr) == (1.0, 0.0)
            starts = {lo for lo, hi, t in seen if t == main}
            assert starts == {0, 1 << 12, 2 << 12, 3 << 12}, (workers, seen)
            assert len(seen) == 4 * workers

    _WORKER_RUNS = {
        # k + r = 272: 15420 rows per block, so 5 blocks, the last short
        "several-blocks": lambda: mc_moment(256, 16, 1.5, 1.0, 65536, 3),
        # width 2: blocks at the 2^16-row cap, then a 5-row block
        "row-cap": lambda: mc_moment(1, 1, 2.5, 0.5, 3 * (1 << 16) + 5, 8),
        "fewer-rows-than-workers": lambda: mc_moment(2, 1, 1.5, 1.0, 2, 6),
        "sorted-cost": lambda: mc_sorted_cost(100, 1.5, 5000, 4),
        "scaling": lambda: scaling_experiment(1.0, [8, 16, 32], 300, 2),
    }

    @pytest.mark.parametrize("name", sorted(_WORKER_RUNS))
    def test_bits_do_not_depend_on_workers(self, name, monkeypatch):
        def bits():
            out = self._WORKER_RUNS[name]()
            values = ([out.mean, out.stderr] if hasattr(out, "stderr")
                      else [*out.mean_costs, out.slope])
            return [float(x).hex() for x in values]

        runs = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(oracles, "_WORKERS", workers)
            runs[workers] = bits()
        assert runs[2] == runs[1] and runs[3] == runs[1], runs
