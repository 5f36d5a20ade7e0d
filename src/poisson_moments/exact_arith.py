"""Exact rational arithmetic: the one kernel every closed form is built on.

Everything here is exact: rationals are arbitrary precision, and every
Gamma ratio the closed forms need is a quotient of Pochhammer products
over `Rat` and integer factorials, so no sqrt(pi) factor ever appears.
No floating point enters this module.  The identity suites share none
of it: they check the same ratios in their own integer arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Canonical exact rational type: always gcd-reduced, denominator > 0.
Rat = Fraction

__all__ = ["Rat", "binomial", "pochhammer"]


def binomial(n: int, k: int) -> Rat:
    """C(n, k) with the convention C(n, k) = 0 for k < 0 or k > n."""
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got {n}")
    if k < 0 or k > n:
        return Rat(0)
    return Rat(math.comb(n, k))


def pochhammer(x: Rat | int, n: int) -> Rat:
    """Rising factorial x(x+1)...(x+n-1); equals 1 when n = 0.

    For x = p/q in lowest terms, x + i = (p + i*q)/q, so the product is one
    integer product over q^n, reduced by a single gcd.
    """
    if n < 0:
        raise ValueError(f"pochhammer requires n >= 0, got {n}")
    x = Rat(x)
    p, q = x.numerator, x.denominator
    return Rat(math.prod(range(p, p + n * q, q)), q ** n)

