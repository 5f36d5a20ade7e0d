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
named test, and when a mutant survives: when any of its named tests still
passes.  It is not a tier-1 test file, so pytest does not collect it.
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
           "                if c0:\n"
           "                    k = k + np.uint64(c0 * int(_GOLDEN) & _MASK)\n",
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
           "                out.append(tile.view(np.float64))\n",
           "                out.append(tile.view(np.float64))\n"
           "                out[-1][:, 0] = 1.0\n",
           _GOLDENS),
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
    Mutant("gamma-d-minus-half", _ORACLES_SRC,
           "    d = shape - 1 / 3\n", "    d = shape - 1 / 2\n",
           [_ORACLES + f"TestGammaVariates::test_rows_match_the_reference[{s}]"
            for s in ("13-65536", "10000-65536")]
           + [_ORACLES + "TestGammaVariates::test_mean_and_variance_are_the_"
              "shape[13]",
              _ORACLES + "TestMcMoment::test_the_route_depends_only_on_the_"
              "shape[13-0]"]),
    Mutant("x-on-y-parity", _ORACLES_SRC,
           "        streams *= 2\n",
           "        streams *= 2\n        streams += 1\n",
           [_ORACLES + "TestMcMoment::test_the_route_depends_only_on_the_"
            f"shape[{kr}]" for kr in ("12-0", "12-1", "13-0")]
           + [_ORACLES + "TestFusedSamplers::test_matches_whole_blocks"
              "[128-33000-mc_moment]"]),
    Mutant("gamma-no-retry", _ORACLES_SRC,
           "            rejected.append(rows[~(u < t)])\n",
           "            rejected.append(rows[:0])\n",
           [_ORACLES + f"TestGammaVariates::test_rows_match_the_reference[{s}]"
            for s in ("13-7", "13-65536")]),
    Mutant("gamma-attempts-overlap", _ORACLES_SRC,
           "        first += 3\n", "        first += 2\n",
           [_ORACLES + f"TestGammaVariates::test_rows_match_the_reference[{s}]"
            for s in ("13-7", "13-65536")]),
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


def failures(src: Path, tests: list) -> set:
    """The ids among tests that fail or error with src as the package
    source; exits when pytest cannot run them."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-rfE", *tests],
        cwd=ROOT, env=env, capture_output=True, text=True)
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
    if failing := failures(ROOT / "src", tests):
        sys.exit(f"named tests fail on the unmutated source: {sorted(failing)}")
    survivors = []
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
            passed = sorted(set(m.tests) - failures(src, m.tests))
        print(f"{m.name}: {'SURVIVED' if passed else 'killed'}"
              f" ({len(m.tests) - len(passed)}/{len(m.tests)} named tests fail)")
        for t in passed:
            print(f"    passed: {t}")
        if passed:
            survivors.append(m.name)
    if survivors:
        print(f"{len(survivors)} of {len(mutants)} mutants survived: "
              + ", ".join(survivors))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
