"""Standalone exact verifiers for the combinatorial and Gamma identities
that underpin the closed-form moment expressions.

Each checker evaluates both sides of one identity independently and
returns whether they agree.  Every check is an exact integer or
rational comparison; no floating point enters this module.  The one
transcendental identity, the incomplete-Gamma closed form, is checked
through its derivative: the polynomial coefficients multiplying
exp(-lambda t) are compared in Rat.
"""

from __future__ import annotations

import math
from itertools import accumulate

from .exact_arith import Rat, factorial, pochhammer

__all__ = [
    "IdentityReport",
    "telescoping_lhs",
    "check_telescoping_sum",
    "check_alternating_binomial",
    "d_polynomial_identity",
    "gould_identity",
    "check_partial_geometric",
    "check_incomplete_gamma",
    "run_suite",
    "SUITES",
]


class IdentityReport:
    """One suite's run: every case's parameters, and the first that failed."""

    __slots__ = ("name", "parameter_set", "all_passed", "first_failure")

    def __init__(self, name: str) -> None:
        self.name = name
        self.parameter_set = []
        self.all_passed = True
        self.first_failure = None

    def record(self, params: tuple, ok: bool) -> None:
        self.parameter_set.append(params)
        if not ok and self.first_failure is None:
            self.all_passed = False
            self.first_failure = params


def telescoping_lhs(n: int, a: int) -> Rat:
    """sum_{k=1..n} (a/2+1)_{k-1}/(k-1)! in one backward Horner pass over
    integers: term j+1 is term j times (a+2j)/(2j)."""
    num, den = 0, 1
    for j in range(n, 0, -1):
        num, den = den * 2 * j + num * (a + 2 * j), den * 2 * j
    return Rat(num, den)


def check_telescoping_sum(n: int, a: int) -> bool:
    """sum_{k=1..n} Gamma(a/2+k)/Gamma(k) = (2n/(2+a)) Gamma(n+1+a/2)/Gamma(n+1).

    Divided by Gamma(a/2+1), both sides are sqrt(pi)-free: `telescoping_lhs`
    against (2n/(2+a)) (a/2+1)_n/n!, evaluated directly.
    """
    return telescoping_lhs(n, a) == (Rat(2 * n, 2 + a) * pochhammer(Rat(a, 2) + 1, n)
                                     / factorial(n))


def check_alternating_binomial(a: int, k: int) -> bool:
    """sum_j (-1)^(a-j) C(j+k-1,k-1) C(a-j+k-1,k-1) = C(a/2+k-1,k-1) (even a), 0 (odd a)."""
    lhs = sum((-1) ** (a - j) * math.comb(j + k - 1, k - 1)
              * math.comb(a - j + k - 1, k - 1)
              for j in range(a + 1))
    return lhs == (math.comb(a // 2 + k - 1, k - 1) if a % 2 == 0 else 0)


def d_polynomial_lhs(k: int, a: int) -> Rat:
    """The double sum D(k,a) for odd a, evaluated exactly."""
    if a % 2 == 0 or a < 1:
        raise ValueError(f"d_polynomial identity requires odd a, got {a}")
    terms = [(-1) ** j * pochhammer(k, a - j) * pochhammer(k, j) * math.comb(a, j)
             for j in range(a)]
    # The inner sum over j <= l is a prefix sum of the terms.
    return sum(inner * pochhammer(k, (a + 1) // 2)
               / (pochhammer(k, 1 + l) * pochhammer(k, a - l))
               for l, inner in enumerate(accumulate(terms)))


def d_polynomial_identity(k: int, a: int) -> bool:
    """D(k,a) = a! sqrt(pi) / (2 Gamma(a/2+1)), for odd a and any k >= 1.

    The sqrt(pi) cancels against the half-integer Gamma, leaving the
    exact rational a! / (2 * (1/2)^((a+1)/2 rising)).
    """
    rhs = factorial(a) / (2 * pochhammer(Rat(1, 2), (a + 1) // 2))
    return d_polynomial_lhs(k, a) == rhs


def gould_identity(a: int, b: int) -> bool:
    """sum_{j=0..b} C(a,j) C(a-1-b-j, b-j) = (2^b/b!) prod_{j=1..b}(a-(2j-1))."""
    if b < 0 or 2 * b > a - 1:
        raise ValueError(f"gould_identity requires 0 <= b <= (a-1)/2, got a={a}, b={b}")
    lhs = sum(math.comb(a, j) * math.comb(a - 1 - b - j, b - j)
              for j in range(b + 1))
    # Times b!, both sides are integers; the product is (a-1)(a-3)...(a-2b+1).
    return lhs * math.factorial(b) == 2 ** b * math.prod(range(a - 1, a - 2 * b, -2))


def check_partial_geometric(m: int) -> bool:
    """sum_{j=0..m} C(m+j,m) 2^(-j) = 2^m, compared times 2^m as integers."""
    return sum(math.comb(m + j, m) << (m - j) for j in range(m + 1)) == 1 << 2 * m


def _is_gamma_cdf(p: list, m: int, lam: Rat) -> bool:
    """Whether F(t) = 1 - exp(-lam t) sum_l p[l] t^l is the Gamma(m, lam) CDF.

    By the fundamental theorem of calculus it is iff F(0) = 0, i.e.
    p[0] = 1, and F' is the density lam^m t^(m-1) exp(-lam t) / (m-1)!,
    i.e. lam P - P' = lam^m t^(m-1) / (m-1)! coefficient by coefficient.
    """
    c = list(p) + [Rat(0)] * (m + 1)
    top = lam ** m / factorial(m - 1)
    return c[0] == 1 and all(
        lam * c[j] - (j + 1) * c[j + 1] == (top if j == m - 1 else 0)
        for j in range(len(c) - 1))


def check_incomplete_gamma(m: int, lam: Rat | int, x: Rat | int) -> bool:
    """Integral of the Gamma(m, lambda) density over [0, x] versus its
    closed form 1 - exp(-lambda x) sum_{l<m} (lambda x)^l / l!.

    The identity is proved exactly for every x > 0 at once (see
    `_is_gamma_cdf`), so x is only validated.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    lam = Rat(lam)
    if lam <= 0 or x <= 0:
        raise ValueError("lambda and x must be positive")
    return _is_gamma_cdf([lam ** l / factorial(l) for l in range(m)], m, lam)


def _bound(value: int | None, default: int) -> int:
    return default if value is None else value


def run_suite(name: str, max_a: int | None = None,
              max_k: int | None = None, max_n: int | None = None) -> IdentityReport:
    """Run one checker over its grid (spec-sized by default); ValueError if empty."""
    report = IdentityReport(name=name)
    if name == "telescoping":
        for n in range(1, _bound(max_n, 50) + 1):
            for a in range(1, _bound(max_a, 12) + 1):
                report.record((n, a), check_telescoping_sum(n, a))
    elif name == "binomial":
        for a in range(0, _bound(max_a, 20) + 1):
            for k in range(1, _bound(max_k, 12) + 1):
                report.record((a, k), check_alternating_binomial(a, k))
    elif name == "dpoly":
        for a in range(1, _bound(max_a, 11) + 1, 2):
            for k in range(1, _bound(max_k, 20) + 1):
                report.record((k, a), d_polynomial_identity(k, a))
    elif name == "gould":
        for a in range(1, _bound(max_a, 25) + 1):
            for b in range((a - 1) // 2 + 1):
                report.record((a, b), gould_identity(a, b))
    elif name == "geometric":
        for m in range(_bound(max_n, 40) + 1):
            report.record((m,), check_partial_geometric(m))
    elif name == "gamma-incomplete":
        grid = [(1, Rat(1), Rat(700)), (1, Rat(1), Rat(1)),
                (2, Rat(1), Rat(1)), (3, Rat(2), Rat(1, 2)),
                (4, Rat(1, 2), Rat(3)), (6, Rat(3), Rat(2))]
        for m, lam, x in grid:
            report.record((m, lam, x), check_incomplete_gamma(m, lam, x))
    else:
        raise ValueError(f"unknown identity suite: {name}")
    if not report.parameter_set:
        raise ValueError(f"the bounds leave identity suite {name} no case")
    return report


SUITES = ("telescoping", "binomial", "dpoly", "gould", "geometric",
          "gamma-incomplete")
