"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Tolerances are fixed here, not tuned at runtime.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
from fractions import Fraction

from poisson_moments.closed_forms import (
    MomentQuery,
    diagonal_moment,
    even_moment_general,
    moment,
    odd_moment_lemma2,
    odd_moment_lemma3,
    odd_moment_theorem4,
)
from poisson_moments.identities import SUITES, run_suite
from poisson_moments.matching_lab import (
    expected_sorted_cost_exact,
    mc_sorted_cost,
    sample_matching_run,
    scaling_experiment,
)
from poisson_moments.oracles import exact_moment_first_principles, mc_moment

MC_SEED = 20240817  # published seed for all statistical criteria


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num} [{name}]: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def test_criterion_1_exact_triple_agreement():
    bad = []
    for k in range(1, 13):
        for r in range(0, 9):
            for a in (1, 3, 5, 7):
                for lam in (Fraction(1), Fraction(1, 2), Fraction(3)):
                    v2 = odd_moment_lemma2(k + r, k, a, lam).value
                    v3 = odd_moment_lemma3(k + r, k, a, lam).value
                    v4 = odd_moment_theorem4(k, r, a, lam).value
                    if not (v2 == v3 == v4):
                        bad.append((k, r, a, lam))
    report(1, "triple agreement, odd a", not bad, detail=str(bad[:3]))


def test_criterion_2_diagonal_gamma_formula():
    bad = [(k, a) for k in range(1, 21) for a in range(1, 11)
           if moment(MomentQuery(k, 0, a)).value != diagonal_moment(k, a).value]
    report(2, "diagonal Gamma formula", not bad, detail=str(bad[:3]))


def test_criterion_3_first_principles_equivalence():
    bad = []
    for i in range(1, 11):
        for k in range(1, 11):
            for a in range(1, 8):
                oracle = exact_moment_first_principles(i, k, a)
                if a % 2 == 0:
                    formula = even_moment_general(i, k, a).value
                else:
                    formula = odd_moment_lemma2(i, k, a).value
                if oracle != formula or (
                        i >= k and oracle != moment(MomentQuery(k, i - k, a)).value):
                    bad.append((i, k, a))
    report(3, "first-principles oracle equivalence", not bad, detail=str(bad[:3]))


def test_criterion_4_identity_suites():
    failures = {}
    for name in SUITES:
        rep = run_suite(name)  # full spec grids by default
        if not rep.all_passed:
            failures[name] = rep.first_failure
    report(4, "identity suites", not failures, detail=str(failures))


def test_criterion_5_spot_values():
    lam = Fraction(5, 3)
    checks = [
        moment(MomentQuery(1, 0, 1, lam)).value == 1 / lam,
        moment(MomentQuery(1, 0, 2, lam)).value == 2 / lam ** 2,
        moment(MomentQuery(1, 0, 3, lam)).value == 6 / lam ** 3,
        moment(MomentQuery(1, 1, 1)).value == Fraction(3, 2),
    ]
    report(5, "hand-integrated spot values", all(checks), detail=str(checks))


def test_criterion_6_monte_carlo_agreement():
    grid = [(k, r, a) for k in (1, 2, 3, 5, 8) for r in (0, 1, 3)
            for a in (1, 2)]
    assert len(grid) == 30
    bad = []
    for k, r, a in grid:
        exact = float(moment(MomentQuery(k, r, a)).value)
        est = mc_moment(k, r, float(a), 1.0, 10 ** 6, seed=MC_SEED)
        if abs(est.zscore(exact)) > 4:
            # one automatic reseed before declaring failure
            est = mc_moment(k, r, float(a), 1.0, 10 ** 6, seed=MC_SEED + 1)
            if abs(est.zscore(exact)) > 4:
                bad.append((k, r, a, est.zscore(exact)))
    report(6, "Monte Carlo within 4 sigma on 30-point grid", not bad,
           detail=str(bad))


def test_criterion_6_on_the_gamma_route():
    # Criterion 6's grid stops at shape 11.  mc_moment sums shapes up to 12
    # from gaps and draws larger ones as Gamma variates; k = 12 and 13
    # straddle that, with r = 5 one arrival time on each route.
    grid = [(k, r, a) for k in (12, 13, 50, 256) for r in (0, 5)
            for a in (1, 2, 3)]
    bad = []
    for k, r, a in grid:
        exact = float(moment(MomentQuery(k, r, a)).value)
        est = mc_moment(k, r, float(a), 1.0, 10 ** 6, seed=MC_SEED)
        if abs(est.zscore(exact)) > 4:
            # one automatic reseed before declaring failure
            est = mc_moment(k, r, float(a), 1.0, 10 ** 6, seed=MC_SEED + 1)
            if abs(est.zscore(exact)) > 4:
                bad.append((k, r, a, est.zscore(exact)))
    report("6g", "Monte Carlo within 4 sigma on the Gamma route", not bad,
           detail=str(bad))


def test_criterion_7_sorted_matching_is_optimal():
    bad = []
    for idx in range(500):
        n = idx % 7 + 1
        b = (1.0, 1.5, 2.0, 3.0)[idx % 4]
        run = sample_matching_run(n, b, seed=MC_SEED, stream_pair=idx)
        denom = max(run.optimal_cost, 1e-300)
        if abs(run.sorted_cost - run.optimal_cost) / denom > 1e-9:
            bad.append((idx, n, b))
    report(7, "sorted matching optimal for b >= 1 (500 instances)", not bad,
           detail=str(bad[:3]))


def test_criterion_8_scaling_law():
    grid = [2 ** e for e in range(3, 13)]  # 8 .. 4096
    results = []
    ok = True
    for b, target, tol in ((1.0, 0.5, 0.10), (2.0, 0.0, 0.10),
                           (3.0, -0.5, 0.15)):
        fit = scaling_experiment(b, grid, trials=200, seed=MC_SEED)
        results.append(f"b={b}: slope={fit.slope:.3f} target={target}")
        ok = ok and abs(fit.slope - target) <= tol
    fit = scaling_experiment(0.5, grid, trials=200, seed=MC_SEED)
    results.append(f"b=0.5: slope={fit.slope:.3f} <= 0.85")
    ok = ok and fit.slope <= 0.75 + 0.10
    report(8, "scaling law slope 1 - b/2", ok, detail="; ".join(results))


def test_criterion_9_exact_expected_matching_cost():
    bad = []
    offset = 0
    for n in (4, 16, 64):
        for a in (1, 2, 3):
            trials = 20_000
            est = mc_sorted_cost(n, float(a), trials=trials, seed=MC_SEED,
                                 stream_offset=offset)
            offset += trials
            exact = float(expected_sorted_cost_exact(n, a))
            z = (est.mean - exact) / est.stderr
            if abs(z) > 4:
                bad.append((n, a, z))
    report(9, "MC matching cost matches exact sum", not bad, detail=str(bad))
