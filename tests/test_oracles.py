import ast
import json
import math
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poisson_moments import closed_forms, identities, matching_lab, oracles, prng
from poisson_moments.closed_forms import (
    MomentQuery,
    diagonal_moment,
    even_moment_general,
    moment,
    odd_moment_lemma2,
    odd_moment_lemma3,
)
from poisson_moments.matching_lab import (
    expected_sorted_cost_exact,
    mc_sorted_cost,
    scaling_experiment,
)
from poisson_moments.oracles import (
    MCEstimate,
    blocked_estimate,
    exact_moment_first_principles,
    mc_moment,
    sample_arrivals,
)
from poisson_moments.prng import uniform_block

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_STREAM_SALT = 0xD1B54A32D192ED03


def _hex(a):
    return [float(x).hex() for x in np.ravel(a)]


def _reference_uniforms(words):
    # V = (2^52 - m) * 2^-52 for the top 52 bits m of each word: exact.
    return (np.uint64(1 << 52) - (words >> np.uint64(12))).astype(float) * 2.0 ** -52


def _reference_words(seed, streams, n):
    """The hashed words of counters 0..n-1 of each stream, as one
    (len(streams), n) block: splitmix64 in plain numpy over whole rows,
    sharing no code with prng."""
    def mix(z):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    # A 1-element array: uint64 overflow warns on a numpy scalar.
    seed_hash = mix(np.array([seed & _MASK64], dtype=np.uint64))
    keys = mix(np.asarray(streams, dtype=np.uint64) * np.uint64(_STREAM_SALT)
               ^ seed_hash)
    return mix(keys[:, None]
               + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN))


def _reference_block(seed, streams, n):
    """The uniforms V of counters 0..n-1 of each stream, as one block."""
    return _reference_uniforms(_reference_words(seed, streams, n))


def _reference_gaps(seed, streams, n):
    """Exp(1) gaps -log(V) of counters 0..n-1 of each stream, as one
    (len(streams), n) block of _reference_block."""
    return -np.log(_reference_block(seed, streams, n))


def _reference_steps(seed, streams, n, signed):
    """log V of counters 0..n-1 of each stream, minus its gaps, negated in
    the first `signed` counters where bit 0 of the word is set: those are
    signed steps, Laplace(0, 1) like a difference of two gaps."""
    words = _reference_words(seed, streams, n)
    steps = np.log(_reference_uniforms(words))
    odd = (words[:, :signed] & np.uint64(1)).astype(bool)
    steps[:, :signed] = np.where(odd, -steps[:, :signed], steps[:, :signed])
    return steps


# The declared routes: where k + r is at most 12, X_{k+r} - Y_k is summed
# from one counter stream; otherwise X_{k+r} and Y_k are Gamma variates, the
# rows of each 4096-row chunk drawn in order from one numpy generator.
_GAP_SHAPES = 12
_CHUNK_ROWS = 4096


def _reference_gamma(seed, which, rows, shape):
    """The Gamma(shape) variates of rows 0..rows-1 of arrival time `which`
    (0 for X_{k+r}, 1 for Y_k): chunk c's rows, in order, from one
    Generator(SFC64(SeedSequence((seed, which, c)))), with no package
    code."""
    return np.concatenate([
        np.random.Generator(np.random.SFC64(np.random.SeedSequence(
            (seed, which, c)))).standard_gamma(
                shape, size=min(_CHUNK_ROWS, rows - c * _CHUNK_ROWS))
        for c in range(-(-rows // _CHUNK_ROWS))])


def _blocking(k, r):
    """The row width that mc_moment gives blocked_estimate: k + r words of
    one stream on the gap route, two variates on the Gamma route."""
    return k + r if k + r <= _GAP_SHAPES else 2


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
                        # The closed forms share one term list; only this
                        # oracle can catch a fault in it.
                        forms = ((even_moment_general,) if a % 2 == 0 else
                                 (odd_moment_lemma2, odd_moment_lemma3))
                        for form in forms:
                            assert got == form(i, k, a, lam).value, (
                                form.__name__, i, k, a, lam)
                        if i >= k:  # theorem 4 for odd a
                            assert got == moment(
                                MomentQuery(k, i - k, a, lam)).value

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            exact_moment_first_principles(0, 1, 1)
        with pytest.raises(ValueError):
            exact_moment_first_principles(1, 1, 0)
        for lam in (0, -1, Fraction(-1, 2)):
            with pytest.raises(ValueError):
                exact_moment_first_principles(1, 1, 1, lam)

    @settings(max_examples=150, deadline=None)
    @given(i=st.integers(1, 15), k=st.integers(1, 15), a=st.integers(1, 11),
           lam=st.fractions(min_value=Fraction(1, 100), max_value=100))
    def test_matches_the_integral_term_by_term(self, i, k, a, lam):
        # The integral the oracle encodes, one Fraction per term: the
        # full-line raw moments, minus for odd a twice the lower tail
        # E[Y^(a-j)] - sum_{l<i+j} M!/((k-1)! l! 2^(M+1)), M = a-j+k-1+l.
        def raw(n, j):  # E[X_n^j] lam^j
            return Fraction(math.factorial(n + j - 1), math.factorial(n - 1))

        want = Fraction(0)
        for j in range(a + 1):
            coef = math.comb(a, j) * (-1) ** (a - j) * raw(i, j)
            want += coef * raw(k, a - j)
            if a % 2:
                tail = Fraction(0)
                for l in range(i + j):
                    m = a - j + k - 1 + l
                    tail += Fraction(math.factorial(m), math.factorial(k - 1)
                                     * math.factorial(l) * 2 ** (m + 1))
                want -= 2 * coef * (raw(k, a - j) - tail)
        assert exact_moment_first_principles(i, k, a, lam) == want / lam ** a


def _package_imports(module):
    """The package modules that `module`'s source imports, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return {name.removeprefix("poisson_moments").lstrip(".") for name in names
            if name.startswith((".", "poisson_moments"))}


def test_the_exact_oracle_shares_no_code_with_the_closed_forms():
    assert not _package_imports(oracles) & {
        "closed_forms", "exact_arith", "identities", "matching_lab"}
    assert "oracles" not in _package_imports(closed_forms)


def test_the_identity_checks_share_no_code_with_the_closed_forms():
    # `sum --verify` sums the diagonal moments with `identities.telescoping_lhs`,
    # so that check would share a fault with `sum_moments` if it imported it
    # or the exact kernel (`exact_arith`) the closed forms are built on.
    assert not _package_imports(identities)


def _prng_names(module):
    """The names that `module`'s source takes from `prng`: imported from it
    or read as its attributes."""
    names = {name.removeprefix("prng.") for name in _package_imports(module)
             if name.startswith("prng.")}
    names.update(node.attr for node in
                 ast.walk(ast.parse(Path(module.__file__).read_text()))
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name) and node.value.id == "prng")
    return names


@pytest.mark.parametrize("module", [oracles, matching_lab],
                         ids=["oracles", "matching_lab"])
def test_the_samplers_only_consume_the_tile_walk(module):
    # The tile geometry, the scratch, the counter words, the key offsets and
    # the row-sum order that goes with the layout are decided in prng alone,
    # and its tiles are the only path from a uniform to a gap; the samplers
    # transform the tiles it yields and sum them with its add_row_sums.
    assert _prng_names(module) <= {"tiles", "add_row_sums"}


class TestPrng:
    def test_open_interval_and_determinism(self):
        u = uniform_block(1, [2], 10_000)
        assert np.all(u > 0) and np.all(u <= 1)
        assert np.array_equal(u, uniform_block(1, [2], 10_000))
        # The ends of (0, 1], at the words 0 and 2^64 - 1.
        assert uniform_block(self._seed_for(0), [0], 1)[0, 0] == 1.0
        assert uniform_block(self._seed_for(_MASK64), [0], 1)[0, 0] == 2.0 ** -52

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
        (0, 0, 0, "0x1.ddf57c684e240p-4"),
        (7, 3, 4, "0x1.603062936d424p-1"),
        (2 ** 40 + 5, 123456, 999, "0x1.18d5b07222194p-2"),
    ])
    def test_pinned_values(self, seed, stream, counter, value):
        # The stream contract: every Monte Carlo output depends on these.
        assert uniform_block(seed, [stream], counter + 1)[0, -1].hex() == value

    @staticmethod
    def _splitmix64(z):
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
        return z ^ (z >> 31)

    @staticmethod
    def _unmix(z):
        # The inverse of _splitmix64: each xorshift and each odd multiplier
        # is a bijection of 64-bit words.
        def unshift(z, s):
            x = z
            for _ in range(64 // s):
                x = z ^ (x >> s)
            return x

        z = unshift(z, 31) * pow(0x94D049BB133111EB, -1, 1 << 64) & _MASK64
        z = unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & _MASK64
        return unshift(z, 30)

    @classmethod
    def _seed_for(cls, word):
        """The seed whose stream 0 hashes to word at counter 0: that
        stream's key is the hash of the seed's hash, and its first Weyl
        word is key + golden."""
        key = cls._unmix(word) - _GOLDEN & _MASK64
        seed = cls._unmix(cls._unmix(key))
        assert cls._splitmix64(cls._splitmix64(cls._splitmix64(seed))
                               + _GOLDEN & _MASK64) == word
        return seed

    @pytest.mark.parametrize("word, gap", [(0, 0.0), (_MASK64, 52 * math.log(2))])
    def test_edge_words_give_finite_gaps(self, word, gap):
        # V = 1 at the zero word and 2^-52 at the all-ones word, so every
        # gap is finite: exactly 0, and -log(2^-52) = 36.04 at the most.
        seed = self._seed_for(word)
        ((_, _, _, v),) = prng.tiles(seed, [0], 1)
        assert v[0, 0] == (2.0 ** -52 if word else 1.0)
        # Bit 0 is clear in the zero word and set in the all-ones word, so
        # a signed step there is minus log V: the gap itself.
        for got in (-oracles.gap_sums(seed, [0], 1)[0],
                    oracles.gap_sums(seed, [0], 1, signed=1)[0],
                    sample_arrivals(1, 1.0, seed, 0)[0]):
            assert math.isfinite(got) and got == pytest.approx(gap, rel=1e-15)
            assert got == 0.0 or word

    def test_float_conversion_matches_the_reference(self):
        # The float written over each word is the reference expression,
        # bit for bit, at both ends and the middle of its top 52 bits,
        # under random low bits, at the words 0 and 2^64 - 1, and at random
        # words.
        rng = np.random.default_rng(5)
        edges = np.array([0, 1, 2 ** 51 - 1, 2 ** 51, 2 ** 52 - 2, 2 ** 52 - 1],
                         dtype=np.uint64)
        low = rng.integers(0, 1 << 12, size=(6, 3), dtype=np.uint64)
        words = np.concatenate([((edges[:, None] << np.uint64(12)) | low).ravel(),
                                np.array([0, _MASK64], dtype=np.uint64),
                                rng.integers(0, _MASK64, 10_000, np.uint64,
                                             endpoint=True)])
        got = prng._to_uniform(words.copy())
        assert _hex(got) == _hex(_reference_uniforms(words))

    @pytest.mark.parametrize("width, major", [(128, True), (129, False)])
    def test_rows_of_at_most_128_words_are_counter_major(self, width, major):
        # The declared reduction order: at the default tile, rows of up to
        # 128 words are stored counter-major and summed in counter order,
        # wider ones row-major and summed pairwise.  Each walk here yields
        # two tiles of several rows; a counter-major view steps by one word
        # from row to row.
        assert {u.strides[0] < u.strides[1]
                for _, _, _, u in prng.tiles(0, range(600), width)} \
            == {major}

    @pytest.mark.parametrize("tile", [7, prng._TILE])
    @pytest.mark.parametrize("width", [1, 17, 128, 129, 1000])
    @pytest.mark.parametrize("seed", [0, 7, 2 ** 40 + 5, 2 ** 64 - 1])
    def test_kernel_matches_the_reference(self, seed, width, tile, monkeypatch):
        # uniform_block, and the gaps -log(v) through gap_sums' row sums
        # and sample_arrivals' cumulative sums, against splitmix64 on Python
        # integers and the reference float expression, by float.hex; a
        # 7-word tile splits rows and leaves a short last tile.  Full tiles
        # of rows up to 128 words are counter-major, of 129 or more not.
        monkeypatch.setattr(prng, "_TILE", tile)
        streams = [0, 1, 12345]
        seed_hash = self._splitmix64(seed & _MASK64)
        words = np.array([
            [self._splitmix64(self._splitmix64(s * _STREAM_SALT & _MASK64
                                               ^ seed_hash)
                              + c * _GOLDEN & _MASK64)
             for c in range(1, width + 1)]
            for s in streams], dtype=np.uint64)
        u = _reference_uniforms(words)
        gaps = -np.log(u)
        assert _hex(uniform_block(seed, streams, width)) == _hex(u)
        assert (_hex(-oracles.gap_sums(seed, streams, width))
                == _hex(_row_sums(gaps)))
        for s, row in zip(streams, gaps):
            assert (_hex(sample_arrivals(width, 0.5, seed, s))
                    == _hex(np.cumsum(row) / 0.5))

    @pytest.mark.parametrize("first", [0, 1, 3, 70_000])
    @pytest.mark.parametrize("tile, width", [
        (7, 3), (7, 17), (prng._TILE, 3), (prng._TILE, 17),
        (prng._TILE, prng._TILE + 1)])
    def test_a_window_is_the_block_past_its_first_counter(
            self, first, tile, width, monkeypatch):
        # Counters first..first+width-1 of a walk of first + width counters,
        # by float.hex against the reference block, which shares no code
        # with prng's per-column-tile key offsets: in 7-word tiles the
        # window starts inside a column tile, and at first = 70,000 past a
        # full one.
        streams = [0, 1, 12345]
        want = _reference_block(7, streams, first + width)[:, first:]
        monkeypatch.setattr(prng, "_TILE", tile)
        got = np.full((len(streams), first + width), np.nan)
        for r0, r1, c0, u in prng.tiles(7, streams, first + width):
            got[r0:r1, c0:c0 + u.shape[1]] = u
        assert _hex(got[:, first:]) == _hex(want)


@pytest.mark.parametrize("width", [8, 17, 100, 128, 129])
def test_gap_sums_do_not_depend_on_the_split(width, monkeypatch):
    # Rows up to 128 words are drawn in counter-major tiles of _TILE // width
    # rows and summed in counter order, a row alone in its tile too; wider
    # rows are summed pairwise, alone or not.  Each split leaves one-row
    # tiles or walks, in gap_sums and in mc_sorted_cost's per-trial costs.
    step = prng._TILE // width
    n = 2 * step + 2
    streams = np.arange(n, dtype=np.uint64)
    seen = TestFusedSamplers._spy(matching_lab, monkeypatch)
    mc_sorted_cost(width, 1.5, n, 3)
    cases = {
        "gap_sums": (lambda lo, hi: oracles.gap_sums(3, streams[lo:hi], width),
                     -_row_sums(_reference_gaps(3, streams, width))),
        "mc_sorted_cost": (seen[-1], _reference_costs(3, width, 1.5, 0)(0, n)),
    }
    for name, (sample, reference) in cases.items():
        whole = _hex(sample(0, n))
        assert whole == _hex(reference), name
        for cuts in ([0, 1, n], [0, step + 1, n], [0, step + 2, n - 1, n]):
            parts = [sample(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
            assert _hex(np.concatenate(parts)) == whole, (name, cuts)


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
        x1 = -np.log(uniform_block(123, np.arange(n), 1)[:, 0]) / 2.0
        stderr = x1.std(ddof=1) / math.sqrt(n)
        assert abs(x1.mean() - 0.5) < 4 * stderr

    def test_peak_is_one_row(self):
        # The row is read, summed and divided in place: besides it, only
        # the tile walk's buffer (two tiles) and counters are allocated.
        n = 1 << 20
        tracemalloc.start()
        try:
            sample_arrivals(n, 3.0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * n * 8, peak / (n * 8)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            sample_arrivals(0, 1.0, 1)
        with pytest.raises(ValueError):
            sample_arrivals(3, 0.0, 1)
        with pytest.raises(ValueError):
            sample_arrivals(3, math.nan, 1)
        with pytest.raises(ValueError):
            sample_arrivals(3, math.inf, 1)

    def test_streams_are_64_bit_words(self):
        for stream in (-1, 2 ** 64):
            with pytest.raises(ValueError):
                sample_arrivals(3, 1.0, 1, stream=stream)
        top = sample_arrivals(3, 1.0, 1, stream=2 ** 64 - 1)
        assert _hex(top) == _hex(np.cumsum(_reference_gaps(1, [2 ** 64 - 1], 3)))


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

    def test_estimate_is_a_mean_stderr_pair(self):
        # A JSON encoder sees [mean, stderr], with no conversion.
        est = mc_moment(2, 1, 1.5, 1.0, 1000, seed=9)
        assert MCEstimate._fields == ("mean", "stderr")
        assert json.dumps(est) == json.dumps([est.mean, est.stderr])

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

    @pytest.mark.parametrize("k, r", [(2.5, 0), (2, 0.5), (20.5, 0), (12, 8.5)])
    def test_rejects_non_integer_indices(self, k, r):
        # Shape 2.5 on gaps; 20.5 on the Gamma route, where it would draw a
        # Gamma(20.5) variate, which is no arrival time.
        with pytest.raises(ValueError, match="must be integers"):
            mc_moment(k, r, 1.0, 1.0, 10, seed=0)

    @pytest.mark.parametrize("k, r", [(12, 0), (6, 6), (1, 12), (12, 1),
                                      (1, 13), (13, 0)])
    def test_the_route_depends_only_on_the_shape(self, k, r, monkeypatch):
        # Where k + r <= 12, X - Y is k signed steps and r gaps of one
        # stream; otherwise X and Y are Gamma variates, Y's too where k is
        # at most 12: every row, and the estimate over blocks of the
        # declared width, against the references.
        seen = TestFusedSamplers._spy(oracles, monkeypatch)
        est = mc_moment(k, r, 1.0, 1.0, 5000, 7)
        reference = _reference_distances(7, k, r, 1.0, 1.0)
        assert _hex(seen[-1](0, 5000)) == _hex(reference(0, 5000))
        assert est == blocked_estimate(reference, 5000, _blocking(k, r))

    @pytest.mark.parametrize("k, r", [(3, 9), (9, 3)])
    def test_signed_steps_span_column_tiles(self, k, r, monkeypatch):
        # In 7-word tiles a gap-route row of 12 words spans two column
        # tiles, and its k signed steps end in the first or the second.
        monkeypatch.setattr(prng, "_TILE", 7)
        seen = TestFusedSamplers._spy(oracles, monkeypatch)
        mc_moment(k, r, 1.0, 1.0, 50, 7)
        reference = _reference_distances(7, k, r, 1.0, 1.0)
        assert _hex(seen[-1](0, 50)) == _hex(reference(0, 50))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            mc_moment(1, 0, 1.0, 1.0, 1, seed=0)
        with pytest.raises(ValueError):
            mc_moment(1, 0, -1.0, 1.0, 10, seed=0)
        with pytest.raises(ValueError):
            mc_moment(1, 0, math.nan, 1.0, 10, seed=0)
        with pytest.raises(ValueError):
            mc_moment(1, 0, 1.0, math.nan, 10, seed=0)
        with pytest.raises(ValueError):
            mc_moment(1, 0, math.inf, 1.0, 10, seed=0)
        with pytest.raises(ValueError):
            mc_moment(1, 0, 1.0, math.inf, 10, seed=0)


def _gap_estimate(width, rows):
    """blocked_estimate of the gap sums of streams 0..rows-1 at seed 0."""
    return blocked_estimate(
        lambda lo, hi: oracles.gap_sums(0, np.arange(lo, hi, dtype=np.uint64),
                                        width), rows, width)


class TestGammaVariates:
    @pytest.mark.parametrize("tile", [7, prng._TILE])
    @pytest.mark.parametrize("shape", [13, 50, 10 ** 4])
    def test_rows_match_the_reference(self, shape, tile, monkeypatch):
        # By float.hex, X's and Y's rows over two chunks and a short third;
        # the route reads no tiles, so 7-word tiles change nothing.
        monkeypatch.setattr(prng, "_TILE", tile)
        rows = 2 * _CHUNK_ROWS + 5
        for which in (0, 1):
            assert (_hex(oracles.gamma_variates(5, which, 0, rows, shape))
                    == _hex(_reference_gamma(5, which, rows, shape))), which

    def test_a_shorter_call_is_a_prefix(self):
        whole = _hex(oracles.gamma_variates(5, 0, 0, 3 * _CHUNK_ROWS, 13))
        for rows in (1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1):
            assert _hex(oracles.gamma_variates(5, 0, 0, rows, 13)) \
                == whole[:rows], rows

    @pytest.mark.parametrize("lo", [_CHUNK_ROWS, 2 * _CHUNK_ROWS])
    def test_a_call_from_a_chunk_boundary_is_that_slice(self, lo):
        # A slice of blocked_estimate that starts on a chunk boundary and
        # ends anywhere: its rows are those of one call from row 0.
        whole = _hex(oracles.gamma_variates(5, 1, 0, 4 * _CHUNK_ROWS, 13))
        for hi in (lo + 1, lo + _CHUNK_ROWS + 7, 4 * _CHUNK_ROWS):
            assert _hex(oracles.gamma_variates(5, 1, lo, hi, 13)) \
                == whole[lo:hi], hi

    @pytest.mark.parametrize("lo", [1, _CHUNK_ROWS - 1, _CHUNK_ROWS + 1,
                                    2 * _CHUNK_ROWS + 5])
    def test_a_call_from_inside_a_chunk_is_that_slice(self, lo):
        # The call re-draws the variates of lo's chunk before lo, so a slice
        # that ends in that chunk, one chunk on or at the last row is that
        # slice of one call from row 0.
        whole = _hex(oracles.gamma_variates(5, 0, 0, 4 * _CHUNK_ROWS, 13))
        for hi in (lo + 1, lo + _CHUNK_ROWS, 4 * _CHUNK_ROWS):
            assert _hex(oracles.gamma_variates(5, 0, lo, hi, 13)) \
                == whole[lo:hi], hi

    @pytest.mark.parametrize("shape", [13, 14, 10 ** 4])
    def test_mean_and_variance_are_the_shape(self, shape):
        # z-tests of 4e5 variates: a sample variance has variance
        # (mu4 - s^2) / n, with mu4 = 3 s^2 + 6 s for Gamma(s).
        n = 400_000
        g = oracles.gamma_variates(11, 0, 0, n, shape)
        z_mean = (np.mean(g) - shape) / math.sqrt(shape / n)
        z_var = ((np.var(g, ddof=1) - shape)
                 / math.sqrt((2 * shape ** 2 + 6 * shape) / n))
        assert abs(z_mean) < 4 and abs(z_var) < 4, (z_mean, z_var)

    @pytest.mark.parametrize("shape", [13, 10 ** 6])
    def test_peak_is_three_row_vectors_and_two_tiles(self, shape):
        # numpy writes each chunk's variates into the output, so the output
        # is the one row vector: far inside the counter route's three row
        # vectors and two tiles.  Nothing grows with the shape.  The first
        # call loads numpy.random, which is not part of the bound.
        rows = 1 << 16
        oracles.gamma_variates(0, 0, 0, 1, shape)
        tracemalloc.start()
        try:
            oracles.gamma_variates(0, 0, 0, rows, shape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= rows * 8 + 16_384, peak - rows * 8


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

    @pytest.mark.parametrize("run, tiles", [
        (lambda: _gap_estimate(4000, 4096), 2.5),
        (lambda: mc_moment(4000, 0, 1.0, 1.0, 4096, 0), 2.5),
        (lambda: mc_sorted_cost(4096, 1.0, 4096, 0), 3.5),
    ], ids=["gap_sums", "mc_moment", "mc_sorted_cost"])
    def test_peak_in_block_arrays(self, run, tiles, monkeypatch):
        # Each draw is hashed, converted, transformed and summed one tile of
        # whole rows at a time, and only per-row results leave the tile: a
        # slice holds 2 tiles (the draws and the scratch), and the rest of
        # its bound is per-row vectors.  mc_moment draws these rows as
        # Gamma variates, into two row vectors and no tile.
        for workers in (1, 2):
            monkeypatch.setattr(oracles, "_WORKERS", workers)
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            tile = prng._TILE * 8
            assert peak <= workers * tiles * tile, (workers, peak / tile)

    @pytest.mark.parametrize("run", [
        lambda: _gap_estimate((1 << 22) + 1, 2),
        lambda: mc_moment(1 << 22, 1, 1.0, 1.0, 2, 0),
        lambda: mc_sorted_cost((1 << 22) + 1, 1.0, 2, 0),
    ], ids=["gap_sums", "mc_moment", "mc_sorted_cost"])
    def test_peak_above_a_block_of_columns(self, run):
        # A row of 2^22 + 1 gaps is drawn and summed one column tile at a
        # time, so nothing row-sized is allocated: a few tiles.  Such a row
        # is a block of its own, sampled on the calling thread.  mc_moment
        # draws a shape of 2^22 + 1 as one Gamma variate.
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tile = prng._TILE * 8
        assert peak <= 8 * tile, peak / tile

    def test_block_reduction_works_in_the_block(self, monkeypatch):
        # One 2^16-row block on one worker: its one slice is the block, and
        # the only row vector, since a one-slice block is not copied; the
        # block is centred and squared in place.
        monkeypatch.setattr(oracles, "_WORKERS", 1)
        rows = 1 << 16
        tracemalloc.start()
        try:
            blocked_estimate(lambda lo, hi: np.arange(lo, hi, dtype=float),
                             rows, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * rows * 8, peak / (rows * 8)

    def test_calling_thread_samples_the_first_slice(self, monkeypatch):
        # Three blocks of 2^12 rows x 2^10 uniforms get one slice per
        # worker, the one-row last block (2^10 uniforms, under
        # _SLICE_UNIFORMS) one slice.  With one worker every slice runs on
        # the calling thread; with more, the first slice of every block does.
        def sample(lo, hi):
            seen.append((lo, hi, threading.get_ident()))
            return np.ones(hi - lo)

        calls = {
            1: [(0, 4096), (4096, 8192), (8192, 12288), (12288, 12289)],
            3: [(0, 1365), (1365, 2730), (2730, 4096),
                (4096, 5461), (5461, 6826), (6826, 8192),
                (8192, 9557), (9557, 10922), (10922, 12288),
                (12288, 12289)],
        }
        main = threading.get_ident()
        for workers in (1, 3):
            monkeypatch.setattr(oracles, "_WORKERS", workers)
            seen = []
            est = blocked_estimate(sample, 3 * (1 << 12) + 1, 1 << 10)
            assert (est.mean, est.stderr) == (1.0, 0.0)
            assert sorted((lo, hi) for lo, hi, t in seen) == calls[workers]
            starts = {lo for lo, hi, t in seen if t == main}
            assert starts == {0, 1 << 12, 2 << 12, 3 << 12}, (workers, seen)

    @pytest.mark.parametrize("rows, width, calls", [
        (2, 1 << 20, [(0, 1), (1, 2)]),
        (3, 1 << 22, [(0, 1), (1, 2), (2, 3)]),
    ], ids=["two-row-block", "one-row-blocks"])
    def test_no_slice_is_empty(self, rows, width, calls, monkeypatch):
        # Three workers, and enough uniforms per row for a slice each: a
        # block of 2 rows gets 2 slices, and rows of 2^22 uniforms, blocks
        # of their own, get one each, all on the calling thread.
        def sample(lo, hi):
            seen.append((lo, hi, threading.get_ident()))
            return np.ones(hi - lo)

        monkeypatch.setattr(oracles, "_WORKERS", 3)
        seen = []
        est = blocked_estimate(sample, rows, width)
        assert (est.mean, est.stderr) == (1.0, 0.0)
        assert sorted((lo, hi) for lo, hi, t in seen) == calls
        if rows == 3:
            assert {t for lo, hi, t in seen} == {threading.get_ident()}

    def test_one_pool_serves_every_call(self, monkeypatch):
        # Its thread, and the malloc arena that thread holds, outlive a call:
        # 4096 rows of 2^10 uniforms make one block of two slices.
        def sample(lo, hi):
            names.add(threading.current_thread().name)
            return np.ones(hi - lo)

        monkeypatch.setattr(oracles, "_WORKERS", 2)
        names = set()
        for _ in range(3):
            blocked_estimate(sample, 4096, 1 << 10)
        assert len(names - {threading.current_thread().name}) == 1, names

    _WORKER_RUNS = {
        # Gamma route: blocks at the 2^16-row cap, then a 5-row block; 3
        # workers cut a block of 16 chunks inside chunks 5 and 10, 2 on
        # the boundary after chunk 7
        "several-blocks": lambda: mc_moment(256, 16, 1.5, 1.0,
                                            2 * (1 << 16) + 5, 3),
        # one block of 20,000 Gamma rows: 2 workers cut it inside chunk 2
        "gamma-cut-inside-a-chunk": lambda: mc_moment(13, 2, 1.5, 1.0,
                                                      20_000, 9),
        # X of shape 15 and Y of shape 10, both Gamma variates, over 10
        # chunks and a short one
        "gamma-and-gaps": lambda: mc_moment(10, 5, 2.5, 1.0, 40_000, 4),
        # width 272: 15420 rows per block, so 3 blocks, the last short
        "sorted-cost-several-blocks": lambda: mc_sorted_cost(
            272, 1.5, 2 * 15420 + 5, 3),
        # width 2: blocks at the 2^16-row cap, then a 5-row block
        "row-cap": lambda: mc_moment(1, 1, 2.5, 0.5, 3 * (1 << 16) + 5, 8),
        "fewer-rows-than-workers": lambda: mc_moment(2, 1, 1.5, 1.0, 2, 6),
        # width 12, the widest on gaps, 5461 rows per tile: slices of 5462
        # rows (2 workers) end in a one-row tile.  At these seeds and b a
        # lone row summed pairwise, not in counter order, changes the
        # estimate's last bits under numpy's AVX-512, AVX2 and baseline
        # kernels alike; few seeds do.
        "one-row-tiles": lambda: mc_moment(12, 0, 2.5, 1.0, 2 * 5462, 787),
        "sorted-cost-one-row-tiles": lambda: mc_sorted_cost(100, 1.5, 1312,
                                                            1391),
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


def _row_sums(a):
    # A row of a counter-major tile is summed in counter order.  A wider row
    # is summed by np.sum along the row, over column tiles of prng._TILE
    # added in order: np.sum(a, axis=1) itself for a row no wider than a
    # tile.
    tile = prng._TILE
    if a.shape[1] <= tile // prng._MAJOR_ROWS:
        sums = a[:, 0].copy()
        for column in a.T[1:]:
            sums += column
        return sums
    sums = np.sum(a[:, :tile], axis=1)
    for c0 in range(tile, a.shape[1], tile):
        sums += np.sum(a[:, c0:c0 + tile], axis=1)
    return sums


def _reference_distances(seed, k, r, b, lam):
    def sample(lo, hi):
        if k + r <= _GAP_SHAPES:
            # The gap route: k signed steps and r gaps of stream 2m.
            pairs = np.arange(lo, hi, dtype=np.uint64)
            d = _row_sums(_reference_steps(seed, 2 * pairs, k + r, k))
        else:
            d = (_reference_gamma(seed, 0, hi, k + r)
                 - _reference_gamma(seed, 1, hi, k))[lo:]
        return (np.abs(d) / lam) ** b
    return sample


def _reference_costs(seed, n, b, stream_offset):
    def sample(lo, hi):
        streams = stream_offset + np.arange(lo, hi, dtype=np.uint64)
        x = _reference_steps(seed, streams, n, n)
        np.cumsum(x, axis=1, out=x)
        np.abs(x, out=x)
        x /= n
        x **= b
        return _row_sums(x)
    return sample


def _exact_costs(seed, n, rows):
    """Each trial's b = 1 sorted cost, sum_k |X_k - Y_k| / n, summed in
    exact arithmetic over the float signed steps of _reference_steps."""
    costs = []
    for steps in _reference_steps(seed, np.arange(rows, dtype=np.uint64), n, n):
        d = total = Fraction(0)
        for x in steps.tolist():
            d += Fraction(x)
            total += abs(d)
        costs.append(total / n)
    return costs


class TestFusedSamplers:
    """Each sampler's rows and estimate against the same expressions on
    whole blocks of _reference_gaps and _reference_steps, which share no
    code with prng, or on _reference_gamma's chunks, by float.hex, for any
    tile and thread count.  gap_sums is checked directly too, since
    mc_moment draws X and Y as Gamma variates where k + r exceeds 12."""

    @staticmethod
    def _spy(module, monkeypatch):
        """The sample functions that module hands to blocked_estimate."""
        seen = []

        def spy(sample, n, width):
            seen.append(sample)
            return blocked_estimate(sample, n, width)

        monkeypatch.setattr(module, "blocked_estimate", spy)
        return seen

    def _check(self, sampler, width, rows, monkeypatch):
        from poisson_moments import matching_lab

        blocks = width
        if sampler == "gap_sums":
            streams = np.arange(rows, dtype=np.uint64)
            sample = lambda lo, hi: oracles.gap_sums(5, streams[lo:hi], width)
            reference = lambda lo, hi: -_row_sums(
                _reference_gaps(5, streams[lo:hi], width))
            run = lambda: blocked_estimate(sample, rows, width)
            seen = [sample]
        else:
            if sampler == "mc_moment":
                r = min(10, width - 1)
                blocks = _blocking(width - r, r)
                module, reference = oracles, _reference_distances(
                    5, width - r, r, 1.5, 0.5)
                run = lambda: mc_moment(width - r, r, 1.5, 0.5, rows, 5)
            else:
                module, reference = matching_lab, _reference_costs(5, width,
                                                                   2.0, 3)
                run = lambda: mc_sorted_cost(width, 2.0, rows, 5,
                                             stream_offset=3)
            seen = self._spy(module, monkeypatch)
        want_rows = [x.hex() for x in reference(0, rows)]
        for workers in (1, 2):
            monkeypatch.setattr(oracles, "_WORKERS", workers)
            est = run()
            want = blocked_estimate(reference, rows, blocks)
            assert [est.mean.hex(), est.stderr.hex()] == [
                want.mean.hex(), want.stderr.hex()], workers
            assert [x.hex() for x in seen[-1](0, rows)] == want_rows

    @pytest.mark.parametrize("sampler", ["gap_sums", "mc_moment",
                                         "mc_sorted_cost"])
    @pytest.mark.parametrize("width, rows", [
        (1, 70_000), (17, 70_000), (128, 33_000), (129, 33_000),
        (1000, 5000), (70_001, 3)])
    def test_matches_whole_blocks(self, sampler, width, rows, monkeypatch):
        # Two blocks (one at width 70,001, a row wider than a tile).  Rows
        # of 128 words are the widest in counter-major tiles.  mc_moment
        # draws X and Y on the Gamma route from width 17 on.
        self._check(sampler, width, rows, monkeypatch)

    @pytest.mark.parametrize("sampler", ["gap_sums", "mc_moment",
                                         "mc_sorted_cost"])
    @pytest.mark.parametrize("width, rows", [(1, 20), (17, 5), (1000, 3)])
    def test_matches_whole_blocks_in_7_word_tiles(self, sampler, width, rows,
                                                  monkeypatch):
        # Rows split across tiles, short last tiles, and rows carried from
        # one column tile to the next; the kernel reads prng._TILE per call.
        monkeypatch.setattr(prng, "_TILE", 7)
        self._check(sampler, width, rows, monkeypatch)

    @pytest.mark.parametrize("tile", [7, prng._TILE])
    def test_sorted_costs_are_near_the_exact_sum(self, tile, monkeypatch):
        # b = 1 trial costs at n = 4096, relative to the exact cost of the
        # same float steps.  The bound separates one running sum of the
        # signed steps (within 2.2e-15 here) from one running sum of gaps
        # per process (1e-13 to 2.3e-13 off).  7-word tiles carry the
        # running sum 585 times.
        monkeypatch.setattr(prng, "_TILE", tile)
        seen = self._spy(matching_lab, monkeypatch)
        mc_sorted_cost(4096, 1.0, 8, 5)
        got = seen[-1](0, 8).tolist()
        want = [float(c) for c in _exact_costs(5, 4096, 8)]
        assert got == pytest.approx(want, rel=2e-14, abs=0)

    @pytest.mark.parametrize("tile", [7, prng._TILE])
    @pytest.mark.parametrize("sampler", ["gap_sums", "mc_moment",
                                         "mc_sorted_cost"])
    def test_rows_wider_than_a_block_sum_column_chunks(self, sampler, tile,
                                                       monkeypatch):
        # With 64-uniform blocks, each block holds 3 rows of 17 or 1 row of
        # 150 (mc_moment's Gamma rows of 2 variates, 32).  With 7-word
        # tiles, those rows add their tile sums in order and carry their
        # running sums from tile to tile; with full tiles each row is one
        # tile.
        monkeypatch.setattr(prng, "_TILE", tile)
        monkeypatch.setattr(oracles, "_BLOCK_UNIFORMS", 64)
        for width in (17, 150):
            self._check(sampler, width, 5, monkeypatch)


# A seed is one 64-bit word.  Seeds that differ by 2^64 used to draw the
# same streams: -1 those of 2^64 - 1, and 2^64 those of 0.
# The Gamma route checks the seed itself: numpy's SeedSequence takes any
# non-negative integer.
_SEEDED = {"mc_moment": lambda seed: mc_moment(2, 1, 1.5, 1.0, 100, seed),
           "mc_moment_k13": lambda seed: mc_moment(13, 0, 1.5, 1.0, 100, seed),
           "mc_sorted_cost": lambda seed: mc_sorted_cost(8, 1.0, 10, seed),
           "sample_arrivals": lambda seed: sample_arrivals(3, 1.0, seed)}


@pytest.mark.parametrize("seed", [-1, 2 ** 64], ids=["minus_one", "2_to_64"])
@pytest.mark.parametrize("sampler", sorted(_SEEDED))
def test_seeds_outside_64_bits_raise(sampler, seed):
    with pytest.raises(ValueError, match="seed must be in"):
        _SEEDED[sampler](seed)


# Sizes and stream addresses are integers, checked as k and r are, and used
# as Python ints: at numpy's int64, 2^64 - trials overflowed and the mean of
# an mc_moment was a numpy float.
_SIZED = {
    "mc_moment-samples": lambda i: mc_moment(2, 1, 1.5, 1.0, i(300), 0),
    "mc_moment_k13-samples": lambda i: mc_moment(13, 0, 1.5, 1.0, i(5000), 0),
    "mc_sorted_cost-n": lambda i: mc_sorted_cost(i(8), 1.0, 300, 0),
    "mc_sorted_cost-trials": lambda i: mc_sorted_cost(8, 1.0, i(300), 0),
    "mc_sorted_cost-stream_offset": lambda i: mc_sorted_cost(
        8, 1.0, 300, 0, stream_offset=i(5)),
    "sample_arrivals-n": lambda i: sample_arrivals(i(3), 1.0, 0),
    "sample_arrivals-stream": lambda i: sample_arrivals(3, 1.0, 0, i(5)),
    "sample_matching_run-stream_pair": lambda i: matching_lab.sample_matching_run(
        3, 1.0, 0, stream_pair=i(2)),
}


@pytest.mark.parametrize("call", sorted(_SIZED))
def test_a_float_size_raises(call):
    name = call.split("-")[1]
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        _SIZED[call](float)


@pytest.mark.parametrize("call", sorted(_SIZED))
def test_a_numpy_integer_size_is_a_python_int(call):
    def bits(out):
        values = out.tolist() if isinstance(out, np.ndarray) else out
        return [(type(x), float(x).hex()) for x in values]

    want = _SIZED[call](int)
    assert bits(_SIZED[call](np.int64)) == bits(want)
    if isinstance(want, MCEstimate):
        assert {type(x) for x in want} == {float}


def test_the_top_seed_keeps_its_bits():
    # sample_arrivals at this seed is in test_kernel_matches_the_reference.
    top = 2 ** 64 - 1
    assert mc_moment(2, 1, 1.5, 1.0, 100, top) == blocked_estimate(
        _reference_distances(top, 2, 1, 1.5, 1.0), 100, 3)
    assert mc_moment(13, 0, 1.5, 1.0, 100, top) == blocked_estimate(
        _reference_distances(top, 13, 0, 1.5, 1.0), 100, _blocking(13, 0))
    assert mc_sorted_cost(8, 1.0, 10, top) == blocked_estimate(
        _reference_costs(top, 8, 1.0, 0), 10, 8)


# Float references for every real b > 0, from math.lgamma.  X_k - Y_k has
# the law of sqrt(2G) Z / lam, with G ~ Gamma(k, 1) and Z ~ N(0, 1)
# independent, so E|X_k - Y_k|^b = 2^b G((b+1)/2) G(k+b/2) / (sqrt(pi)
# G(k) lam^b); the telescoping identity, which holds for real b, sums it
# over k <= n at lam = n.
def _diagonal_reference(k, b, lam):
    return math.exp(b * math.log(2 / lam) + math.lgamma((b + 1) / 2)
                    + math.lgamma(k + b / 2) - math.lgamma(k)
                    - math.log(math.pi) / 2)


def _sorted_cost_reference(n, b):
    return math.exp((b + 1) * math.log(2) + math.lgamma((b + 1) / 2)
                    + math.lgamma(n + 1 + b / 2) - math.lgamma(n)
                    - math.log((2 + b) * n ** b) - math.log(math.pi) / 2)


class TestFloatReferences:
    @pytest.mark.parametrize("b", [1, 2, 3, 4])
    def test_match_the_exact_forms_at_integer_b(self, b):
        # lgamma rounds at its own size, so the error grows with k and n:
        # 4e-14 at n = 64, 6e-13 at 512, 4e-12 at 4096.
        for k in (1, 3, 12, 13, 40):
            exact = diagonal_moment(k, b, Fraction(1, 2)).value
            assert _diagonal_reference(k, b, 0.5) == pytest.approx(
                float(exact), rel=1e-12, abs=0), k
        for n in (8, 64, 512):
            assert _sorted_cost_reference(n, b) == pytest.approx(
                float(expected_sorted_cost_exact(n, b)), rel=1e-12, abs=0), n

    @pytest.mark.parametrize("b", [0.5, 1.5, 2.5])
    @pytest.mark.parametrize("k", [1, 3, 12, 13, 40])
    def test_mc_moment_at_non_integer_b(self, k, b):
        # k up to 12 on the gap route, 13 and 40 on the Gamma route.
        est = mc_moment(k, 0, b, 0.5, 200_000, seed=1)
        assert abs(est.zscore(_diagonal_reference(k, b, 0.5))) <= 4, est

    @pytest.mark.parametrize("b", [0.5, 1.5, 2.5])
    @pytest.mark.parametrize("n", [8, 64])
    def test_mc_sorted_cost_at_non_integer_b(self, n, b):
        est = mc_sorted_cost(n, b, 20_000, seed=1)
        assert abs(est.zscore(_sorted_cost_reference(n, b))) <= 4, est
