"""Standalone exact verifiers for the combinatorial and Gamma identities
that underpin the closed-form moment expressions.

Each checker evaluates both sides of one identity independently and
returns whether they agree.  Every check is integer arithmetic from
`math` or `fractions.Fraction`, and the module imports nothing from the
package, so it shares no kernel with the closed forms it vouches for.  The
incomplete-Gamma closed form is checked through its derivative: the
polynomial coefficients multiplying exp(-lambda t) are compared exactly.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate

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


# One suite's run: every case's parameters, and the first that failed.
IdentityReport = namedtuple("IdentityReport",
                            "name parameter_set all_passed first_failure")


def telescoping_lhs(n: int, a: int) -> Fraction:
    """sum_{k=1..n} (a/2+1)_{k-1}/(k-1)! in one backward Horner pass over
    integers: term j+1 is term j times (a+2j)/(2j)."""
    num, den = 0, 1
    for j in range(n, 0, -1):
        num, den = den * 2 * j + num * (a + 2 * j), den * 2 * j
    return Fraction(num, den)


def check_telescoping_sum(n: int, a: int) -> bool:
    """sum_{k=1..n} Gamma(a/2+k)/Gamma(k) = (2n/(2+a)) Gamma(n+1+a/2)/Gamma(n+1).

    Divided by Gamma(a/2+1), both sides are sqrt(pi)-free: `telescoping_lhs`
    against (2n/(2+a)) (a/2+1)_n/n! = 2n prod_{j<n}(a+2+2j) / ((2+a) 2^n n!).
    """
    return telescoping_lhs(n, a) == Fraction(
        2 * n * math.prod(range(a + 2, a + 2 + 2 * n, 2)),
        (2 + a) * 2 ** n * math.factorial(n))


def check_alternating_binomial(a: int, k: int) -> bool:
    """sum_j (-1)^(a-j) C(j+k-1,k-1) C(a-j+k-1,k-1) = C(a/2+k-1,k-1) (even a), 0 (odd a)."""
    lhs = sum((-1) ** (a - j) * math.comb(j + k - 1, k - 1)
              * math.comb(a - j + k - 1, k - 1)
              for j in range(a + 1))
    return lhs == (math.comb(a // 2 + k - 1, k - 1) if a % 2 == 0 else 0)


def d_polynomial_lhs(k: int, a: int) -> Fraction:
    """The double sum D(k,a) for odd a and k >= 1, as one integer over (k)_a^2.

    Prefix sum l gets the weight (k+1+l)_{a-1-l} (k+a-l)_l, and a rising
    factorial (x)_n is math.perm(x+n-1, n)."""
    if a % 2 == 0 or a < 1 or k < 1:
        raise ValueError(f"d_polynomial requires odd a and k >= 1, got k={k}, a={a}")
    top = k + a - 1
    terms = [(-1) ** j * math.perm(top - j, a - j) * math.perm(k + j - 1, j)
             * math.comb(a, j) for j in range(a)]
    # The inner sum over j <= l is a prefix sum of the terms.
    total = sum(inner * math.perm(top, a - 1 - l) * math.perm(top, l)
                for l, inner in enumerate(accumulate(terms)))
    m = (a + 1) // 2
    return Fraction(total * math.perm(k + m - 1, m), math.perm(top, a) ** 2)


def d_polynomial_identity(k: int, a: int) -> bool:
    """D(k,a) = a! sqrt(pi) / (2 Gamma(a/2+1)), for odd a and any k >= 1.

    The sqrt(pi) cancels against the half-integer Gamma, leaving
    a! / (2 (1/2)_m) = 4^m m! / (2(a+1)) with m = (a+1)/2.
    """
    m = (a + 1) // 2
    return d_polynomial_lhs(k, a) == Fraction(4 ** m * math.factorial(m), 2 * (a + 1))


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


def _is_gamma_cdf(p: list, m: int, lam: Fraction) -> bool:
    """Whether F(t) = 1 - exp(-lam t) sum_l p[l] t^l is the Gamma(m, lam) CDF.

    By the fundamental theorem of calculus it is iff F(0) = 0, i.e.
    p[0] = 1, and F' is the density lam^m t^(m-1) exp(-lam t) / (m-1)!,
    i.e. lam P - P' = lam^m t^(m-1) / (m-1)! coefficient by coefficient.
    """
    c = list(p) + [0] * (m + 1)
    top = lam ** m / math.factorial(m - 1)
    return c[0] == 1 and all(
        lam * c[j] - (j + 1) * c[j + 1] == (top if j == m - 1 else 0)
        for j in range(len(c) - 1))


def check_incomplete_gamma(m: int, lam: Fraction | int, x: Fraction | int) -> bool:
    """Integral of the Gamma(m, lambda) density over [0, x] versus its
    closed form 1 - exp(-lambda x) sum_{l<m} (lambda x)^l / l!.

    The identity is proved exactly for every x > 0 at once (see
    `_is_gamma_cdf`), so x is only validated.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    lam = Fraction(lam)
    if lam <= 0 or x <= 0:
        raise ValueError("lambda and x must be positive")
    return _is_gamma_cdf([lam ** l / math.factorial(l) for l in range(m)], m, lam)


def _bound(value: int | None, default: int) -> int:
    return default if value is None else value


def run_suite(name: str, max_a: int | None = None,
              max_k: int | None = None, max_n: int | None = None) -> IdentityReport:
    """Run one checker over its grid (spec-sized by default) up to its first
    failing case; ValueError if the grid is empty."""
    if name == "telescoping":
        check = check_telescoping_sum
        grid = [(n, a) for n in range(1, _bound(max_n, 50) + 1)
                for a in range(1, _bound(max_a, 12) + 1)]
    elif name == "binomial":
        check = check_alternating_binomial
        grid = [(a, k) for a in range(0, _bound(max_a, 20) + 1)
                for k in range(1, _bound(max_k, 12) + 1)]
    elif name == "dpoly":
        check = d_polynomial_identity
        grid = [(k, a) for a in range(1, _bound(max_a, 11) + 1, 2)
                for k in range(1, _bound(max_k, 20) + 1)]
    elif name == "gould":
        check = gould_identity
        grid = [(a, b) for a in range(1, _bound(max_a, 25) + 1)
                for b in range((a - 1) // 2 + 1)]
    elif name == "geometric":
        check = check_partial_geometric
        grid = [(m,) for m in range(_bound(max_n, 40) + 1)]
    elif name == "gamma-incomplete":
        check = check_incomplete_gamma
        grid = [(1, Fraction(1), Fraction(700)), (1, Fraction(1), Fraction(1)),
                (2, Fraction(1), Fraction(1)), (3, Fraction(2), Fraction(1, 2)),
                (4, Fraction(1, 2), Fraction(3)), (6, Fraction(3), Fraction(2))]
    else:
        raise ValueError(f"unknown identity suite: {name}")
    if not grid:
        raise ValueError(f"the bounds leave identity suite {name} no case")
    first_failure = next((params for params in grid if not check(*params)), None)
    return IdentityReport(name, grid, first_failure is None, first_failure)


SUITES = ("telescoping", "binomial", "dpoly", "gould", "geometric",
          "gamma-incomplete")
