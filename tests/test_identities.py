from fractions import Fraction

import pytest

from poisson_moments.closed_forms import sum_moments
from poisson_moments.exact_arith import factorial
from poisson_moments.identities import (
    IdentityReport,
    SUITES,
    _is_gamma_cdf,
    check_alternating_binomial,
    check_incomplete_gamma,
    check_partial_geometric,
    check_telescoping_sum,
    d_polynomial_identity,
    d_polynomial_lhs,
    gould_identity,
    run_suite,
    telescoping_lhs,
)


def _stepped_telescoping_lhs(n, a):
    """The left-hand side summed term by term in Fraction steps (reference)."""
    lhs, term = Fraction(0), Fraction(1)
    for k in range(1, n + 1):
        lhs += term
        term *= (Fraction(a, 2) + k) / k
    return lhs


def test_run_suite_zero_bound_is_not_the_default():
    # 0 is a bound, not "unset": the geometric suite then checks m = 0 only.
    assert run_suite("geometric", max_n=0).parameter_set == [(0,)]
    assert len(run_suite("geometric").parameter_set) == 41


@pytest.mark.parametrize("suite, bounds", [
    ("telescoping", {"max_n": 0}), ("telescoping", {"max_a": 0}),
    ("telescoping", {"max_n": -3}),
    ("binomial", {"max_k": 0}), ("binomial", {"max_a": -1}),
    ("dpoly", {"max_a": 0}), ("dpoly", {"max_k": 0}), ("dpoly", {"max_a": -2}),
    ("gould", {"max_a": 0}), ("gould", {"max_a": -1}),
    ("geometric", {"max_n": -1}),
])
def test_run_suite_rejects_an_empty_grid(suite, bounds):
    with pytest.raises(ValueError, match="no case"):
        run_suite(suite, **bounds)


def test_telescoping_lhs_small_n():
    assert telescoping_lhs(0, 3) == 0   # the empty loop
    assert telescoping_lhs(1, 3) == 1
    assert telescoping_lhs(2, 1) == Fraction(5, 2)


def test_telescoping_lhs_matches_the_stepped_sum():
    for n in range(1, 61):
        for a in range(1, 14):
            assert telescoping_lhs(n, a) == _stepped_telescoping_lhs(n, a), (n, a)


def test_telescoping_lhs_is_the_diagonal_partial_sum():
    assert factorial(3) * telescoping_lhs(2000, 3) == sum_moments(2000, 3).value


def test_telescoping_examples():
    assert check_telescoping_sum(2, 2)
    assert check_telescoping_sum(1, 4)
    assert check_telescoping_sum(3, 1)


def test_telescoping_grid():
    for n in range(1, 51):
        for a in range(1, 13):
            assert check_telescoping_sum(n, a), (n, a)


def test_alternating_binomial_examples():
    assert check_alternating_binomial(2, 1)
    assert check_alternating_binomial(3, 2)
    assert check_alternating_binomial(4, 3)


def test_alternating_binomial_grid():
    for a in range(0, 21):
        for k in range(1, 13):
            assert check_alternating_binomial(a, k), (a, k)


def test_d_polynomial_examples():
    assert d_polynomial_lhs(1, 1) == 1
    assert d_polynomial_lhs(1, 3) == 4
    assert d_polynomial_identity(5, 5)


def test_d_polynomial_grid_and_constancy_in_k():
    for a in range(1, 12, 2):
        values = {d_polynomial_lhs(k, a) for k in range(1, 21)}
        assert len(values) == 1, a
        for k in range(1, 21):
            assert d_polynomial_identity(k, a), (k, a)


def test_d_polynomial_rejects_even_a():
    with pytest.raises(ValueError):
        d_polynomial_identity(1, 2)


def test_gould_examples():
    assert gould_identity(5, 0)
    assert gould_identity(5, 1)   # 3 + 5 = 8 = 2*4
    assert gould_identity(7, 2)   # 6 + 21 + 21 = 48


def test_gould_grid():
    for a in range(1, 26):
        for b in range((a - 1) // 2 + 1):
            assert gould_identity(a, b), (a, b)


def test_gould_rejects_out_of_range():
    with pytest.raises(ValueError):
        gould_identity(5, 3)


def test_partial_geometric():
    for m in range(0, 41):
        assert check_partial_geometric(m), m


def test_incomplete_gamma_examples():
    assert check_incomplete_gamma(1, 1, 700)           # total mass ~ 1
    assert check_incomplete_gamma(2, 1, 1)             # 1 - 2/e
    assert check_incomplete_gamma(3, 2, Fraction(1, 2))
    assert check_incomplete_gamma(200, Fraction(7, 3), 5)


def test_incomplete_gamma_rejects_wrong_closed_forms():
    lam = Fraction(3, 2)
    for m in (1, 2, 6):
        terms = [lam ** l / factorial(l) for l in range(m + 1)]
        assert _is_gamma_cdf(terms[:m], m, lam)
        assert not _is_gamma_cdf(terms, m, lam)           # sum to l <= m
        assert not _is_gamma_cdf(terms[:m - 1], m, lam)   # sum to l < m - 1
        assert not _is_gamma_cdf(terms[:m], m + 1, lam)   # wrong shape
    assert not _is_gamma_cdf([1, lam], 2, 2 * lam)        # wrong rate


def test_incomplete_gamma_rejects_bad_args():
    with pytest.raises(ValueError):
        check_incomplete_gamma(0, 1, 1)
    with pytest.raises(ValueError):
        check_incomplete_gamma(1, -1, 1)
    with pytest.raises(ValueError):
        check_incomplete_gamma(1, 1, 0)


def test_run_suite_all_pass():
    for name in SUITES:
        # small grids here; full grids run in the acceptance suite
        report = run_suite(name, max_a=6, max_k=5, max_n=6)
        assert isinstance(report, IdentityReport)
        assert report.all_passed, report.first_failure
        assert report.first_failure is None
        assert report.parameter_set


def test_run_suite_unknown_name():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_report_records_first_failure():
    report = IdentityReport(name="demo")
    assert (report.name, report.parameter_set, report.all_passed,
            report.first_failure) == ("demo", [], True, None)
    report.record((1,), True)
    report.record((2,), False)
    report.record((3,), False)
    assert not report.all_passed
    assert report.first_failure == (2,)
