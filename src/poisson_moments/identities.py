"""Standalone exact verifiers for the combinatorial and Gamma identities
that underpin the closed-form moment expressions.

Each checker evaluates both sides of one identity independently and
returns whether they agree.  All checks are exact rational comparisons
except `check_incomplete_gamma`, which necessarily compares a
transcendental closed form against numerical quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from scipy.integrate import quad

from .exact_arith import Rat, binomial, factorial, pochhammer

__all__ = [
    "IdentityReport",
    "check_telescoping_sum",
    "check_alternating_binomial",
    "d_polynomial_identity",
    "gould_identity",
    "check_partial_geometric",
    "check_incomplete_gamma",
    "run_suite",
    "SUITES",
]


@dataclass
class IdentityReport:
    name: str
    parameter_set: list = field(default_factory=list)
    all_passed: bool = True
    first_failure: tuple | None = None

    def record(self, params: tuple, ok: bool) -> None:
        self.parameter_set.append(params)
        if not ok and self.first_failure is None:
            self.all_passed = False
            self.first_failure = params


def check_telescoping_sum(n: int, a: int) -> bool:
    """sum_{k=1..n} Gamma(a/2+k)/Gamma(k) = (2n/(2+a)) Gamma(n+1+a/2)/Gamma(n+1).

    Both sides are divided by Gamma(a/2+1), which leaves the sqrt(pi)-free
    Pochhammer quotients sum_{k=1..n} (a/2+1)_{k-1}/(k-1)! =
    (2n/(2+a)) (a/2+1)_n/n!.  The left-hand terms follow by the ratio
    (a/2+k)/k; the right-hand side is evaluated directly.
    """
    lhs, term = Rat(0), Rat(1)
    for k in range(1, n + 1):
        lhs += term
        term *= (Rat(a, 2) + k) / k
    return lhs == Rat(2 * n, 2 + a) * pochhammer(Rat(a, 2) + 1, n) / factorial(n)


def check_alternating_binomial(a: int, k: int) -> bool:
    """sum_j (-1)^(a-j) C(j+k-1,k-1) C(a-j+k-1,k-1) = C(a/2+k-1,k-1) (even a), 0 (odd a)."""
    lhs = sum((-1) ** (a - j) * binomial(j + k - 1, k - 1)
              * binomial(a - j + k - 1, k - 1)
              for j in range(a + 1))
    rhs = binomial(a // 2 + k - 1, k - 1) if a % 2 == 0 else Rat(0)
    return lhs == rhs


def d_polynomial_lhs(k: int, a: int) -> Rat:
    """The double sum D(k,a) for odd a, evaluated exactly."""
    if a % 2 == 0 or a < 1:
        raise ValueError(f"d_polynomial identity requires odd a, got {a}")
    total = Rat(0)
    for l in range(a):
        inner = Rat(0)
        for j in range(l + 1):
            inner += ((-1) ** j * pochhammer(k, a - j) * pochhammer(k, j)
                      * binomial(a, j))
        total += inner * pochhammer(k, (a + 1) // 2) / (
            pochhammer(k, 1 + l) * pochhammer(k, a - l))
    return total


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
    lhs = sum(binomial(a, j) * binomial(a - 1 - b - j, b - j)
              for j in range(b + 1))
    if b == 0:
        rhs = Rat(1)
    else:
        rhs = Rat(2) ** b / factorial(b)
        for j in range(1, b + 1):
            rhs *= a - (2 * j - 1)
    return lhs == rhs


def check_partial_geometric(m: int) -> bool:
    """sum_{j=0..m} C(m+j,m) 2^(-j) = 2^m."""
    lhs = sum(binomial(m + j, m) / Rat(2) ** j for j in range(m + 1))
    return lhs == Rat(2) ** m


def _gamma_density(t: float, m: int, lam: float) -> float:
    return lam * math.exp(-lam * t + (m - 1) * math.log(lam * t)
                          - math.lgamma(m)) if t > 0 else (lam if m == 1 else 0.0)


def check_incomplete_gamma(m: int, lam: Rat | float, x: Rat | float,
                           rel_tol: float = 1e-12) -> bool:
    """Integral of the Gamma(m, lambda) density over [0, x] versus its
    closed form 1 - exp(-lambda x) sum_{l<m} (lambda x)^l / l!.

    The closed form is transcendental, so this is the one numeric check:
    adaptive quadrature against the density at relative tolerance rel_tol.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    lam = float(lam)
    x = float(x)
    if lam <= 0 or x <= 0:
        raise ValueError("lambda and x must be positive")
    lx = lam * x
    # Summed in log space so large lambda*x neither overflows nor underflows.
    tail = math.fsum(math.exp(-lx + l * math.log(lx) - math.lgamma(l + 1))
                     for l in range(m))
    closed = 1.0 - tail

    # Split at the point beyond which the density mass is negligible, so
    # the adaptive rule cannot miss the bulk on a very wide interval.
    cut = min(x, (m + 60.0) / lam)
    numeric, _ = quad(_gamma_density, 0.0, cut, args=(m, lam),
                      epsabs=1e-15, epsrel=1e-13, limit=200)
    if cut < x:
        extra, _ = quad(_gamma_density, cut, x, args=(m, lam),
                        epsabs=1e-15, epsrel=1e-13, limit=200)
        numeric += extra
    return abs(closed - numeric) <= rel_tol * max(1.0, abs(closed))


def _bound(value: int | None, default: int) -> int:
    return default if value is None else value


def run_suite(name: str, max_a: int | None = None,
              max_k: int | None = None, max_n: int | None = None) -> IdentityReport:
    """Run one identity checker over its default (spec-sized) grid."""
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
    return report


SUITES = ("telescoping", "binomial", "dpoly", "gould", "geometric",
          "gamma-incomplete")
