import warnings
from fractions import Fraction

import pytest

from poisson_moments.closed_forms import (
    MomentQuery,
    diagonal_moment,
    even_moment_general,
    moment,
    odd_moment_lemma2,
    odd_moment_lemma3,
    odd_moment_theorem4,
    sum_moments,
)
from poisson_moments.oracles import exact_moment_first_principles

LAMBDAS = (Fraction(1), Fraction(1, 2), Fraction(3))


class TestSpotValues:
    def test_even_examples(self):
        assert even_moment_general(1, 1, 2).value == 2
        assert even_moment_general(2, 1, 2).value == 4
        assert even_moment_general(3, 3, 2).value == 6

    def test_diagonal_examples(self):
        assert diagonal_moment(1, 1).value == 1        # Laplace E|Z| = 1
        assert diagonal_moment(1, 3).value == 6        # Laplace E|Z|^3 = 3!
        assert diagonal_moment(2, 1).value == Fraction(3, 2)
        assert diagonal_moment(3, 2, 2).value == Fraction(3, 2)

    def test_even_diagonal_at_a_million(self):
        # E|X_k - Y_k|^2 = 2k and E|X_k - Y_k|^4 = 12 k (k + 1): a product
        # of a/2 factors, not of k - 1.
        k = 10 ** 6
        assert diagonal_moment(k, 2).value == 2 * k
        assert diagonal_moment(k, 4).value == 12 * k * (k + 1)

    def test_lemma2_examples(self):
        assert odd_moment_lemma2(1, 1, 1).value == 1
        assert odd_moment_lemma2(2, 1, 1).value == Fraction(3, 2)
        assert odd_moment_lemma2(1, 2, 1).value == Fraction(3, 2)

    def test_lemma3_examples(self):
        assert odd_moment_lemma3(1, 1, 1).value == 1
        assert odd_moment_lemma3(2, 1, 1).value == Fraction(3, 2)
        assert odd_moment_lemma3(4, 2, 3).value == odd_moment_lemma2(4, 2, 3).value

    def test_theorem4_examples(self):
        assert odd_moment_theorem4(1, 1, 1).value == Fraction(3, 2)
        assert odd_moment_theorem4(1, 0, 1).value == diagonal_moment(1, 1).value
        assert odd_moment_theorem4(3, 2, 3).value == odd_moment_lemma3(5, 3, 3).value

    def test_dispatcher_examples(self):
        assert moment(MomentQuery(1, 0, 2)).value == 2
        assert moment(MomentQuery(1, 1, 1)).value == Fraction(3, 2)
        assert moment(MomentQuery(1, 0, 1, Fraction(3))).value == Fraction(1, 3)

    def test_sum_examples(self):
        assert sum_moments(1, 2).value == 2
        assert sum_moments(2, 2).value == 6
        assert sum_moments(3, 1).value == Fraction(35, 8)


class TestValidation:
    def test_parity_rejection(self):
        with pytest.raises(ValueError):
            even_moment_general(1, 1, 3)
        for fn in (odd_moment_lemma2, odd_moment_lemma3):
            with pytest.raises(ValueError):
                fn(1, 1, 2)
        with pytest.raises(ValueError):
            odd_moment_theorem4(1, 0, 2)

    def test_query_bounds(self):
        for bad in (dict(k=0, r=0, a=1), dict(k=1, r=-1, a=1),
                    dict(k=1, r=0, a=0), dict(k=1, r=0, a=1, lam=Fraction(-1))):
            with pytest.raises(ValueError):
                MomentQuery(**bad)
            with pytest.raises(ValueError):
                MomentQuery(*bad.values())
            with pytest.raises(ValueError):
                MomentQuery._make(bad.values())
            with pytest.raises(ValueError):
                MomentQuery(1, 0, 1)._replace(**bad)

    def test_query_normalises_the_rate(self):
        for q in (MomentQuery(2, 1, 3, 4), MomentQuery(k=2, r=1, a=3, lam=4)):
            assert q == (2, 1, 3, Fraction(4))
            assert type(q.lam) is Fraction
        assert MomentQuery(1, 0, 2).lam == MomentQuery(1, 0, 2, Fraction(1)).lam == 1
        for q in (MomentQuery._make([2, 1, 3, 4]), MomentQuery(2, 1, 3)._replace(lam=4)):
            assert q == (2, 1, 3, Fraction(4)) and type(q.lam) is Fraction
        # CrossCheckError messages print the query.
        assert repr(MomentQuery(1, 0, 2)) == "MomentQuery(k=1, r=0, a=2, lam=Fraction(1, 1))"

    @pytest.mark.parametrize("lam", [0, -1, Fraction(-1, 2)], ids=str)
    def test_every_closed_form_rejects_a_rate_at_most_0(self, lam):
        for form, args in ((even_moment_general, (2, 1, 2)),
                           (diagonal_moment, (1, 1)),
                           (odd_moment_lemma2, (2, 1, 1)),
                           (odd_moment_lemma3, (2, 1, 1)),
                           (odd_moment_theorem4, (1, 1, 1)),
                           (sum_moments, (1, 1))):
            with pytest.raises(ValueError, match="lambda must be > 0"):
                form(*args, lam)


class TestCrossFormulaInvariants:
    def test_triple_agreement_sample(self):
        # the full spec grid runs in the acceptance suite
        for k in range(1, 7):
            for r in range(0, 5):
                for a in (1, 3, 5):
                    for lam in LAMBDAS:
                        v2 = odd_moment_lemma2(k + r, k, a, lam).value
                        v3 = odd_moment_lemma3(k + r, k, a, lam).value
                        v4 = odd_moment_theorem4(k, r, a, lam).value
                        assert v2 == v3 == v4, (k, r, a, lam)

    def test_diagonal_consistency(self):
        for k in range(1, 21):
            for a in range(1, 11):
                assert moment(MomentQuery(k, 0, a)).value == diagonal_moment(k, a).value

    def test_partial_sum_consistency(self):
        lam = Fraction(1, 2)
        for n in range(1, 16):
            for a in range(1, 9):
                by_terms = sum(diagonal_moment(k, a, lam).value
                               for k in range(1, n + 1))
                assert sum_moments(n, a, lam).value == by_terms, (n, a)

    # The last three are the benchmark's top ops.
    @pytest.mark.parametrize("k,r,a", [(40, 60, 31), (30, 30, 41), (20, 120, 41),
                                       (285, 170, 41), (250, 200, 41),
                                       (300, 0, 41)])
    def test_theorem4_matches_first_principles_at_large_a_and_r(self, k, r, a):
        v4 = odd_moment_theorem4(k, r, a).value
        assert v4 == exact_moment_first_principles(k + r, k, a)
        assert (odd_moment_lemma2(k + r, k, a).value
                == odd_moment_lemma3(k + r, k, a).value == v4)

    def test_long_partial_sum_matches_terms(self):
        by_terms = sum(diagonal_moment(k, 41).value for k in range(1, 301))
        assert sum_moments(300, 41).value == by_terms

    def test_scale_law(self):
        for lam in LAMBDAS:
            for k, r, a in ((1, 0, 1), (2, 3, 2), (4, 1, 5)):
                mv = moment(MomentQuery(k, r, a, lam))
                assert mv.value * lam ** a == moment(MomentQuery(k, r, a)).value

    def test_symmetry_in_i_and_k(self):
        for i in range(1, 9):
            for k in range(1, 9):
                assert (even_moment_general(i, k, 4).value
                        == even_moment_general(k, i, 4).value)
                assert (odd_moment_lemma2(i, k, 3).value
                        == odd_moment_lemma2(k, i, 3).value)

    def test_positive_and_monotone_in_r(self):
        # Monotonicity in r is a plausibility check only: demoted to a
        # warning on failure rather than a hard assertion.
        failures = []
        for k in range(1, 7):
            for a in range(1, 5):
                prev = None
                for r in range(0, 5):
                    val = moment(MomentQuery(k, r, a)).value
                    assert val > 0
                    if prev is not None and val <= prev:
                        failures.append((k, r, a))
                    prev = val
        if failures:
            warnings.warn(f"moment not increasing in r at {failures}")
