"""Mutation checks: each mutant is one small edit of the package source that
the tests named with it must catch.

Run from anywhere, with pytest installed:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only these

First the union of the named tests runs against `src/` as it is, and every
one must pass.  Then, for each mutant, `src/` is copied to a temporary
directory, the one occurrence of the mutant's old text in its file is
replaced by the new text, and only its named tests run, with the copy as
PYTHONPATH.  The runner fails when an old text is missing or not unique
(an edit of the source must update this list), when pytest cannot run a
named test, when a pytest run does not finish within `_TIMEOUT` seconds
(a mutant that does so is reported as hanging, never as killed), and
when a mutant survives: when any of its named tests still passes.  It is
not a tier-1 test file, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Seconds per pytest run; the named tests of any one mutant take seconds.
_TIMEOUT = 300

Mutant = namedtuple("Mutant", "name file old new tests")

_ORACLES = "tests/test_oracles.py::"
_PRNG = "poisson_moments/prng.py"
_CLOSED = "poisson_moments/closed_forms.py"
_ORACLES_SRC = "poisson_moments/oracles.py"
_TERMS_TESTS = [
    _ORACLES + "TestFirstPrinciplesOracle::test_matches_closed_forms",
    "tests/test_acceptance.py::test_criterion_3_first_principles_equivalence"]
_GOLDENS = ["tests/test_cli.py::TestGoldenOutput::test_stdout_is_unchanged"
            f"[{name}-{fmt}]"
            for name in ("matching", "simulate-fractional-b", "simulate-integer-b")
            for fmt in ("csv", "json", "text")]
_LEMMA3_TESTS = [
    "tests/test_closed_forms.py::TestSpotValues::test_lemma3_examples",
    "tests/test_closed_forms.py::TestCrossFormulaInvariants::"
    "test_triple_agreement_sample",
    "tests/test_acceptance.py::test_criterion_1_exact_triple_agreement"]

MUTANTS = [
    Mutant("lone-row-summed-pairwise", _PRNG,
           "    elif r1 - r0 == 1 and _counter_major(tile.shape[1]):\n"
           "        sums[r0] = np.cumsum(tile[0])[-1]\n",
           "",
           [_ORACLES + f"test_gap_sums_do_not_depend_on_the_split[{w}]"
            for w in (8, 17, 100, 128)]
           + [_ORACLES + "TestBlockedEstimate::test_bits_do_not_depend_on_"
              f"workers[{run}]"
              for run in ("one-row-tiles", "sorted-cost-one-row-tiles")]),
    Mutant("bound-at-64-words", _PRNG,
           "_MAJOR_ROWS = 512", "_MAJOR_ROWS = 1024",
           [_ORACLES + "TestPrng::test_rows_of_at_most_128_words_are_counter_"
            "major[128-True]"]),
    Mutant("bound-at-256-words", _PRNG,
           "_MAJOR_ROWS = 512", "_MAJOR_ROWS = 256",
           [_ORACLES + "TestPrng::test_rows_of_at_most_128_words_are_counter_"
            "major[129-False]"]),
    Mutant("no-tile-counter-major", _PRNG,
           "major = _counter_major(cols)", "major = False",
           [_ORACLES + "TestPrng::test_rows_of_at_most_128_words_are_counter_"
            "major[128-True]",
            _ORACLES + "TestPrng::test_kernel_matches_the_reference[0-17-65536]",
            _ORACLES + "test_gap_sums_do_not_depend_on_the_split[17]",
            _ORACLES + "TestFusedSamplers::test_matches_whole_blocks"
            "[17-70000-mc_sorted_cost]"]),
    Mutant("no-per-tile-key-offset", _PRNG,
           "            if c0:\n"
           "                k = k + np.uint64(c0 * int(_GOLDEN) & _MASK)\n",
           "",
           [_ORACLES + "TestPrng::test_kernel_matches_the_reference[0-17-7]",
            _ORACLES + "TestPrng::test_kernel_matches_the_reference[7-1000-7]",
            _ORACLES + "TestFusedSamplers::test_matches_whole_blocks"
            "[70001-3-gap_sums]",
            _ORACLES + "TestFusedSamplers::test_matches_whole_blocks"
            "[70001-3-mc_sorted_cost]"]),
    Mutant("sorted-cost-drops-the-carry", "poisson_moments/matching_lab.py",
           "            if c0:\n"
           "                x[:, 0] += carry\n",
           "",
           [_ORACLES + "TestFusedSamplers::test_matches_whole_blocks"
            "[70001-3-mc_sorted_cost]",
            _ORACLES + "TestFusedSamplers::test_matches_whole_blocks_in_7_word"
            "_tiles[17-5-mc_sorted_cost]",
            _ORACLES + "TestFusedSamplers::test_sorted_costs_are_near_the_exact"
            "_sum[7]"]),
    Mutant("first-gap-dropped", _PRNG,
           "            f = _to_uniform(words)\n",
           "            f = _to_uniform(words)\n"
           "            tile.view(np.float64)[:, 0] = 1.0\n",
           _GOLDENS),
    # Every column tile of a row signs its first s columns afresh.
    Mutant("signed-steps-restart-per-column-tile", _PRNG,
           "(signed or 0) - c0", "(signed or 0)",
           [_ORACLES + "TestMcMoment::test_signed_steps_span_column_tiles"
            f"[{kr}]" for kr in ("3-9", "9-3")]),
    # The sign from the top bit, which also sets V >= 1/2: S E then has a
    # drift, and |S E| is no longer a gap.
    Mutant("laplace-sign-from-bit-63", _PRNG,
           "np.left_shift(tile[:, :s], np.uint64(63), out=sign[:, :s])",
           "np.bitwise_and(tile[:, :s], np.uint64(1 << 63), out=sign[:, :s])",
           [_ORACLES + "TestMcMoment::test_agrees_with_closed_form",
            _ORACLES + "TestMcMoment::test_the_route_depends_only_on_the_"
            "shape[6-6]",
            _ORACLES + "TestFusedSamplers::test_matches_whole_blocks"
            "[17-70000-mc_sorted_cost]",
            "tests/test_matching_lab.py::TestExpectedCost::test_mc_agrees_with_"
            "exact",
            _ORACLES + "TestFloatReferences::test_mc_sorted_cost_at_non_"
            "integer_b[8-0.5]"]),
    Mutant("seeds-wrap", _PRNG,
           "    if not 0 <= seed <= _MASK:\n"
           "        raise ValueError(f\"seed must be in [0, 2^64), got {seed}\")\n",
           "    seed &= _MASK\n",
           [_ORACLES + f"test_seeds_outside_64_bits_raise[{f}-{seed}]"
            for f in ("mc_moment", "mc_sorted_cost", "sample_arrivals")
            for seed in ("minus_one", "2_to_64")]
           + ["tests/test_cli.py::TestInputDomain::test_seed_outside_64_bits"
              f"[{sub}-{seed}]"
              for sub in ("simulate", "matching") for seed in ("-1", 2 ** 64)]),
    Mutant("x-on-y-parity", _ORACLES_SRC,
           "            streams *= 2\n",
           "            streams *= 2\n            streams += 1\n",
           [_ORACLES + "TestMcMoment::test_the_route_depends_only_on_the_"
            f"shape[{kr}]" for kr in ("12-0", "6-6")]
           + [_ORACLES + "TestFusedSamplers::test_matches_whole_blocks"
              "[1-70000-mc_moment]"]),
    # At k = 1 the one step |S E| has the law of E, so only k > 1 tells.
    Mutant("signed-steps-one-short", _ORACLES_SRC,
           "k + r, signed=k)", "k + r, signed=k - 1)",
           [_ORACLES + "TestMcMoment::test_agrees_with_closed_form"]
           + [_ORACLES + "TestMcMoment::test_the_route_depends_only_on_the_"
              f"shape[{kr}]" for kr in ("12-0", "6-6")]),
    # X and Y draw the same variates: at r = 0 every distance is 0.
    Mutant("gamma-x-and-y-share-a-stream", _ORACLES_SRC,
           "SeedSequence((seed, which, c0", "SeedSequence((seed, 0, c0",
           [_ORACLES + f"TestGammaVariates::test_rows_match_the_reference[{s}]"
            for s in ("13-7", "13-65536")]
           + [_ORACLES + "TestMcMoment::test_the_route_depends_only_on_the_"
              f"shape[{kr}]" for kr in ("13-0", "1-13")]),
    Mutant("gamma-chunk-key-off-by-one", _ORACLES_SRC,
           "c0 // _CHUNK_ROWS", "c0 // _CHUNK_ROWS + 1",
           [_ORACLES + f"TestGammaVariates::test_rows_match_the_reference[{s}]"
            for s in ("13-7", "50-65536")]
           + [_ORACLES + "TestMcMoment::test_the_route_depends_only_on_the_"
              "shape[12-1]"]),
    # Every chunk of a call takes the stream of the call's first chunk.
    Mutant("gamma-chunk-keyed-by-the-slice", _ORACLES_SRC,
           "c0 // _CHUNK_ROWS", "lo // _CHUNK_ROWS",
           [_ORACLES + "TestGammaVariates::test_rows_match_the_reference"
            "[13-65536]",
            _ORACLES + "TestGammaVariates::test_a_call_from_a_chunk_boundary_"
            "is_that_slice[4096]",
            _ORACLES + "TestMcMoment::test_the_route_depends_only_on_the_"
            "shape[13-0]"]),
    # numpy's SeedSequence takes any non-negative integer, so 2^64 would
    # draw a stream of its own and -1 raise numpy's own error.
    Mutant("gamma-seeds-unchecked", _ORACLES_SRC,
           "    if not 0 <= seed < 1 << 64:\n"
           "        raise ValueError(f\"seed must be in [0, 2^64), got {seed}\")\n",
           "",
           [_ORACLES + f"test_seeds_outside_64_bits_raise[mc_moment_k13-{seed}]"
            for seed in ("minus_one", "2_to_64")]
           + ["tests/test_cli.py::TestInputDomain::test_seed_outside_64_bits"
              f"[simulate-k13-{seed}]" for seed in ("-1", 2 ** 64)]),
    # A new pool, so a new thread, for every call.
    Mutant("pool-per-call", _ORACLES_SRC,
           "if _POOL is None or _POOL[0] != key:", "if True:",
           [_ORACLES + "TestBlockedEstimate::test_one_pool_serves_every_call"]),
    # The gap route loads numpy.random, which it never uses.
    Mutant("numpy-random-on-the-gap-route", _ORACLES_SRC,
           "    if not gaps:\n        # Loaded on",
           "    if gaps:\n        # Loaded on",
           ["tests/test_cli.py::TestDependencies::test_only_the_gamma_route_"
            "loads_numpy_random[12-False]"]),
    # A call from inside a chunk draws the chunk's variates from lo on,
    # not from the chunk's first row.
    Mutant("gamma-skip-dropped", _ORACLES_SRC,
           "        if c0 < lo:\n"
           "            g.standard_gamma(shape, size=lo - c0)\n",
           "",
           [_ORACLES + "TestGammaVariates::test_a_call_from_inside_a_chunk_"
            f"is_that_slice[{lo}]" for lo in (1, 4095, 4097, 8197)]
           + [_ORACLES + "TestBlockedEstimate::test_bits_do_not_depend_on_"
              f"workers[{run}]"
              for run in ("gamma-cut-inside-a-chunk", "several-blocks")]),
    # Row lo takes the variate of row lo - 1.
    Mutant("gamma-skip-one-short", _ORACLES_SRC,
           "size=lo - c0)", "size=lo - c0 - 1)",
           [_ORACLES + "TestGammaVariates::test_a_call_from_inside_a_chunk_"
            f"is_that_slice[{lo}]" for lo in (4095, 8197)]
           + [_ORACLES + "TestBlockedEstimate::test_bits_do_not_depend_on_"
              "workers[gamma-cut-inside-a-chunk]"]),
    # The chunks of a call start at lo: every chunk after the first is
    # drawn from a row off its boundary.
    Mutant("gamma-first-chunk-from-lo", _ORACLES_SRC,
           "range(lo - lo % _CHUNK_ROWS, hi", "range(lo, hi",
           [_ORACLES + "TestGammaVariates::test_a_call_from_inside_a_chunk_"
            f"is_that_slice[{lo}]" for lo in (1, 4097)]
           + [_ORACLES + "TestBlockedEstimate::test_bits_do_not_depend_on_"
              "workers[gamma-cut-inside-a-chunk]"]),
    # A numpy integer passes as itself: 2^64 - trials overflows in
    # mc_sorted_cost, and mc_moment's mean is a numpy float.
    Mutant("sizes-not-made-python-ints", _ORACLES_SRC,
           "    return int(value)\n", "    return value\n",
           [_ORACLES + f"test_a_numpy_integer_size_is_a_python_int[{call}]"
            for call in ("mc_moment-samples", "mc_moment_k13-samples",
                         "mc_sorted_cost-trials")]),
    Mutant("diagonal-one-factor-up", _CLOSED,
           "k - 1 + a // 2", "k + a // 2",
           ["tests/test_closed_forms.py::TestSpotValues::test_diagonal_examples",
            "tests/test_closed_forms.py::TestSpotValues::test_even_diagonal_at_"
            "a_million",
            "tests/test_closed_forms.py::TestSpotValues::test_sum_examples",
            "tests/test_acceptance.py::test_criterion_2_diagonal_gamma_formula",
            "tests/test_cli.py::TestSimulate::test_a_diagonal_shape_of_a_"
            "million_has_an_exact_value"]),
    Mutant("terms-sign-flip", _CLOSED,
           "binomial(a, j) * (-1) ** j *", "binomial(a, j) * (-1) ** (j + 1) *",
           _TERMS_TESTS),
    Mutant("terms-rising-one-long", _CLOSED,
           "pochhammer(k, a - j)", "pochhammer(k, a - j + 1)", _TERMS_TESTS),
    Mutant("lemma3-prefactor-shift", _CLOSED,
           "<< (i + a - 1 - l)", "<< (i + a - l)", _LEMMA3_TESTS),
    Mutant("lemma3-prefactor-from-k-plus-1", _CLOSED,
           "for l in range(k, i + a))", "for l in range(k + 1, i + a))",
           _LEMMA3_TESTS),
    Mutant("lemma3-binomial-one-up", _CLOSED,
           "math.comb(i + k + a - 1, i + l)", "math.comb(i + k + a - 1, i + l + 1)",
           _LEMMA3_TESTS),
    Mutant("lemma3-denominator-doubled", _CLOSED,
           "e = i + k + a - 2", "e = i + k + a - 1", _LEMMA3_TESTS),
]


def failures(src: Path, tests: list) -> set | None:
    """The ids among tests that fail or error with src as the package
    source, or None when pytest does not finish within _TIMEOUT seconds;
    exits when pytest cannot run them."""
    env = dict(os.environ, PYTHONPATH=str(src))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "-rfE", *tests],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=_TIMEOUT)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode not in (0, 1):
        sys.exit(f"pytest exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return {line.split()[1] for line in proc.stdout.splitlines()
            if line.startswith(("FAILED ", "ERROR "))}


def main(names: list) -> int:
    known = {m.name for m in MUTANTS}
    if set(names) - known:
        sys.exit(f"unknown mutants: {sorted(set(names) - known)}")
    mutants = [m for m in MUTANTS if not names or m.name in names]
    tests = sorted({t for m in mutants for t in m.tests})
    failing = failures(ROOT / "src", tests)
    if failing is None:
        sys.exit(f"named tests hang on the unmutated source: no result in "
                 f"{_TIMEOUT} s")
    if failing:
        sys.exit(f"named tests fail on the unmutated source: {sorted(failing)}")
    survivors, hung = [], []
    for m in mutants:
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "src"
            shutil.copytree(ROOT / "src", src,
                            ignore=shutil.ignore_patterns("__pycache__"))
            path = src / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                sys.exit(f"{m.name}: the old text occurs {text.count(m.old)} "
                         f"times in {m.file}, not once")
            path.write_text(text.replace(m.old, m.new))
            failing = failures(src, m.tests)
        if failing is None:
            print(f"{m.name}: hangs (no result in {_TIMEOUT} s)")
            hung.append(m.name)
            continue
        passed = sorted(set(m.tests) - failing)
        print(f"{m.name}: {'SURVIVED' if passed else 'killed'}"
              f" ({len(m.tests) - len(passed)}/{len(m.tests)} named tests fail)")
        for t in passed:
            print(f"    passed: {t}")
        if passed:
            survivors.append(m.name)
    if survivors:
        print(f"{len(survivors)} of {len(mutants)} mutants survived: "
              + ", ".join(survivors))
    if hung:
        print(f"{len(hung)} of {len(mutants)} mutants hang: " + ", ".join(hung))
    return 1 if survivors or hung else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
