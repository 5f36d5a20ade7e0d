"""Closed-form moment distances E|X_i - Y_k|^a between two i.i.d. Poisson
processes, evaluated exactly.

Several independent expressions are provided for the same quantity (a
parity-split elementary form, a simplified two-term form, a
Pochhammer form, and a diagonal Pochhammer-quotient formula); they must
agree exactly, and the cross-checks in the test suite rely on that.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact_arith import Rat, binomial, factorial, pochhammer

__all__ = [
    "CrossCheckError",
    "MomentQuery",
    "MomentValue",
    "even_moment_general",
    "diagonal_moment",
    "odd_moment_lemma2",
    "odd_moment_lemma3",
    "odd_moment_theorem4",
    "moment",
    "sum_moments",
]


class CrossCheckError(Exception):
    """Two closed forms of the same moment disagree: an internal bug."""


@dataclass(frozen=True)
class MomentQuery:
    """Identifies one moment E|X_{k+r} - Y_k|^a at arrival rate lambda."""

    k: int
    r: int
    a: int
    lam: Rat = Rat(1)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.r < 0:
            raise ValueError(f"r must be >= 0, got {self.r}")
        if self.a < 1:
            raise ValueError(f"a must be >= 1, got {self.a}")
        object.__setattr__(self, "lam", Rat(self.lam))
        if self.lam <= 0:
            raise ValueError(f"lambda must be > 0, got {self.lam}")


@dataclass(frozen=True)
class MomentValue:
    """An exact moment plus its rate-normalized value (the moment at lambda=1)."""

    value: Rat
    normalized: Rat

    @staticmethod
    def from_normalized(normalized: Rat, lam: Rat, a: int) -> "MomentValue":
        return MomentValue(value=normalized / Rat(lam) ** a,
                           normalized=normalized)


def _require_parity(a: int, want_odd: bool, who: str) -> None:
    if a < 1:
        raise ValueError(f"{who}: a must be >= 1, got {a}")
    if (a % 2 == 1) != want_odd:
        parity = "odd" if want_odd else "even"
        raise ValueError(f"{who}: a must be {parity}, got {a}")


def _signed_sum(i: int, k: int, a: int) -> Rat:
    """sum_j C(a,j)(-1)^(a-j) i^(j) k^(a-j) — the full-line expansion."""
    total = Rat(0)
    for j in range(a + 1):
        total += (binomial(a, j) * (-1) ** (a - j)
                  * pochhammer(i, j) * pochhammer(k, a - j))
    return total


def even_moment_general(i: int, k: int, a: int, lam: Rat | int = 1) -> MomentValue:
    """E|X_i - Y_k|^a for even a, from the elementary alternating sum."""
    _require_parity(a, want_odd=False, who="even_moment_general")
    if i < 1 or k < 1:
        raise ValueError("i and k must be >= 1")
    return MomentValue.from_normalized(_signed_sum(i, k, a), Rat(lam), a)


def diagonal_moment(k: int, a: int, lam: Rat | int = 1) -> MomentValue:
    """E|X_k - Y_k|^a = (a!/lambda^a) Gamma(a/2+k)/(Gamma(k) Gamma(a/2+1)).

    Valid for both parities of a: the Gamma ratio is the Pochhammer
    quotient (a/2+1)_{k-1} / (k-1)!, a plain rational.
    """
    if k < 1 or a < 1:
        raise ValueError("k and a must be >= 1")
    normalized = (factorial(a) * pochhammer(Rat(a, 2) + 1, k - 1)
                  / factorial(k - 1))
    return MomentValue.from_normalized(normalized, Rat(lam), a)


def odd_moment_lemma2(i: int, k: int, a: int, lam: Rat | int = 1) -> MomentValue:
    """E|X_i - Y_k|^a for odd a, via the raw two-term binomial expansion."""
    _require_parity(a, want_odd=True, who="odd_moment_lemma2")
    if i < 1 or k < 1:
        raise ValueError("i and k must be >= 1")
    # inner_j = sum_{l<i+j} C(m+l, l) / 2^(m+l), one integer over 2^top.
    top = k + a + i - 2
    second = Rat(0)
    for j in range(a + 1):
        m = k - 1 + a - j
        inner, coef = 0, 1  # coef = C(m+l, l), stepped by (m+l+1)/(l+1)
        for l in range(i + j):
            inner += coef << (top - m - l)
            coef = coef * (m + l + 1) // (l + 1)
        second += (binomial(a, j) * (-1) ** (a - j)
                   * pochhammer(i, j) * pochhammer(k, a - j) * inner)
    normalized = -_signed_sum(i, k, a) + second / Rat(2) ** top
    return MomentValue.from_normalized(normalized, Rat(lam), a)


def odd_moment_lemma3(i: int, k: int, a: int, lam: Rat | int = 1) -> MomentValue:
    """E|X_i - Y_k|^a for odd a, via the summation-by-parts simplification."""
    _require_parity(a, want_odd=True, who="odd_moment_lemma3")
    if i < 1 or k < 1:
        raise ValueError("i and k must be >= 1")
    # Empty when k > i + a - 1.
    prefactor = Rat(0)
    for l in range(k, i + a):
        prefactor += binomial(l + k - 1, l) / Rat(2) ** (l + k - 1)
    first = prefactor * _signed_sum(i, k, a)

    # The inner sum over j <= l is a prefix sum, carried across l.
    second, inner = Rat(0), Rat(0)
    for l in range(a):
        inner += (binomial(a, l) * (-1) ** l
                  * pochhammer(i, l) * pochhammer(k, a - l))
        second += inner * binomial(i + k + a - 1, i + l)
    second /= Rat(2) ** (i + k - 2 + a)
    return MomentValue.from_normalized(first + second, Rat(lam), a)


def odd_moment_theorem4(k: int, r: int, a: int, lam: Rat | int = 1) -> MomentValue:
    """E|X_{k+r} - Y_k|^a for odd a, via the Pochhammer form."""
    _require_parity(a, want_odd=True, who="odd_moment_theorem4")
    if k < 1 or r < 0:
        raise ValueError("k must be >= 1 and r >= 0")

    # Gamma(k+1/2) / (Gamma(1/2) Gamma(k+1)) = (1/2)_k / k!.
    pref1 = pochhammer(Rat(1, 2), k) / factorial(k)
    # sum_l (2k)_l / ((k+1)_l 2^l); term l+1 is term l times (2k+l)/(2(k+1+l)).
    geo, term = Rat(0), Rat(1)
    for l in range(r + a):
        geo += term
        term *= Rat(2 * k + l, 2 * (k + 1 + l))
    first = pref1 * geo * _signed_sum(k + r, k, a)

    # Gamma(a/2+k) / (Gamma(1/2) Gamma(k)) = (1/2)_{k+(a-1)/2} / (k-1)!.
    pref2 = pochhammer(Rat(1, 2), k + (a - 1) // 2) / factorial(k - 1)
    # The inner sum over j <= l is a prefix sum, carried across l.
    tail, inner = Rat(0), Rat(0)
    for l in range(a):
        inner += (binomial(a, l) * (-1) ** l
                  * pochhammer(k + r, l) * pochhammer(k, a - l))
        tail += inner / (pochhammer(k, r + l + 1) * pochhammer(k, a - l))
    # 1/2^(r-1) is the rational 2 when r = 0.
    second = (pref2 * tail * pochhammer(k, (a + 1) // 2)
              * pochhammer(2 * k + a, r) * Rat(2) ** (1 - r))

    return MomentValue.from_normalized(first + second, Rat(lam), a)


def moment(q: MomentQuery) -> MomentValue:
    """Dispatch E|X_{k+r} - Y_k|^a by parity of a.

    For r = 0 the result is additionally cross-checked against the
    diagonal Pochhammer-quotient formula; a mismatch raises
    CrossCheckError, since it indicates an internal bug.
    """
    if q.a % 2 == 0:
        out = even_moment_general(q.k + q.r, q.k, q.a, q.lam)
    else:
        out = odd_moment_theorem4(q.k, q.r, q.a, q.lam)
    if q.r == 0:
        diag = diagonal_moment(q.k, q.a, q.lam)
        if diag.value != out.value:
            raise CrossCheckError(
                f"diagonal cross-check failed for {q}: {out.value} != {diag.value}")
    return out


def sum_moments(n: int, a: int, lam: Rat | int = 1) -> MomentValue:
    """sum_{k=1..n} E|X_k - Y_k|^a = (a!/lambda^a) (a/2+1)_n / n! * 2n/(2+a)."""
    if n < 1 or a < 1:
        raise ValueError("n and a must be >= 1")
    normalized = (factorial(a) * pochhammer(Rat(a, 2) + 1, n) / factorial(n)
                  * Rat(2 * n, 2 + a))
    return MomentValue.from_normalized(normalized, Rat(lam), a)
