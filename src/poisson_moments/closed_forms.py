"""Closed-form moment distances E|X_i - Y_k|^a between two i.i.d. Poisson
processes, evaluated exactly.

Several expressions are provided for the same quantity (a parity-split
elementary form, a simplified two-term form, a Pochhammer form, and a
diagonal Pochhammer-quotient formula); they must agree exactly, and the
cross-checks in the test suite rely on that.  The even form, lemmas 2 and
3 and theorem 4 share one list of full-line terms (`_terms`), so their
agreement cannot expose a fault in it: the first-principles oracle, which
shares no code with this module, is their independent guard.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate

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


def _checked_rate(lam: Rat | int, odd: bool | None = None, **counts: int) -> Rat:
    """Rat(lam), once every count is >= 1, `a` is odd or even as `odd`
    asks (either parity when None) and lam > 0; ValueError otherwise."""
    for name, n in counts.items():
        if n < 1:
            raise ValueError(f"{name} must be >= 1, got {n}")
    if odd is not None and counts["a"] % 2 != odd:
        raise ValueError(f"a must be {'odd' if odd else 'even'}, got {counts['a']}")
    lam = Rat(lam)
    if lam <= 0:
        raise ValueError(f"lambda must be > 0, got {lam}")
    return lam


class MomentQuery(namedtuple("MomentQuery", "k r a lam")):
    """Identifies one moment E|X_{k+r} - Y_k|^a at arrival rate lambda."""

    __slots__ = ()

    def __new__(cls, k: int, r: int, a: int, lam: Rat | int = 1) -> MomentQuery:
        lam = _checked_rate(lam, k=k, a=a)
        if r < 0:
            raise ValueError(f"r must be >= 0, got {r}")
        return super().__new__(cls, k, r, a, lam)


MomentValue = namedtuple("MomentValue", "value")  # an exact moment


def _terms(i: int, k: int, a: int) -> list[Rat]:
    """The a+1 full-line terms C(a,j)(-1)^j (i)_j (k)_{a-j}, j = 0..a."""
    return [binomial(a, j) * (-1) ** j * pochhammer(i, j) * pochhammer(k, a - j)
            for j in range(a + 1)]


def even_moment_general(i: int, k: int, a: int, lam: Rat | int = 1) -> MomentValue:
    """E|X_i - Y_k|^a for even a, from the elementary alternating sum."""
    lam = _checked_rate(lam, odd=False, i=i, k=k, a=a)
    return MomentValue(sum(_terms(i, k, a)) / lam ** a)


def diagonal_moment(k: int, a: int, lam: Rat | int = 1) -> MomentValue:
    """E|X_k - Y_k|^a = (a!/lambda^a) Gamma(a/2+k)/(Gamma(k) Gamma(a/2+1)).

    Valid for both parities of a: the Gamma ratio is the Pochhammer
    quotient (a/2+1)_{k-1} / (k-1)!, a plain rational.
    """
    lam = _checked_rate(lam, k=k, a=a)
    return MomentValue(factorial(a) * pochhammer(Rat(a, 2) + 1, k - 1)
                       / factorial(k - 1) / lam ** a)


def odd_moment_lemma2(i: int, k: int, a: int, lam: Rat | int = 1) -> MomentValue:
    """E|X_i - Y_k|^a for odd a, via the raw two-term binomial expansion."""
    lam = _checked_rate(lam, odd=True, i=i, k=k, a=a)
    terms = _terms(i, k, a)
    # inner_j = sum_{l<i+j} C(m+l, l) / 2^(m+l), one integer over 2^top.
    top = k + a + i - 2
    second = Rat(0)
    for j, term in enumerate(terms):
        m = k - 1 + a - j
        inner, coef = 0, 1  # coef = C(m+l, l), stepped by (m+l+1)/(l+1)
        for l in range(i + j):
            inner += coef << (top - m - l)
            coef = coef * (m + l + 1) // (l + 1)
        second -= term * inner
    return MomentValue((sum(terms) + second / Rat(2) ** top) / lam ** a)


def odd_moment_lemma3(i: int, k: int, a: int, lam: Rat | int = 1) -> MomentValue:
    """E|X_i - Y_k|^a for odd a, via the summation-by-parts simplification."""
    lam = _checked_rate(lam, odd=True, i=i, k=k, a=a)
    # The lemma's prefactor sum runs over l = k..i+a-1 and does not hold
    # for k > i + a; the moment is symmetric in i and k, so take i >= k.
    i, k = max(i, k), min(i, k)
    terms = _terms(i, k, a)
    prefactor = Rat(0)
    for l in range(k, i + a):
        prefactor += binomial(l + k - 1, l) / Rat(2) ** (l + k - 1)
    first = -prefactor * sum(terms)

    # The inner sum over j <= l is a prefix sum of the terms.
    second = sum(inner * binomial(i + k + a - 1, i + l)
                 for l, inner in enumerate(accumulate(terms[:a])))
    second /= Rat(2) ** (i + k - 2 + a)
    return MomentValue((first + second) / lam ** a)


def odd_moment_theorem4(k: int, r: int, a: int, lam: Rat | int = 1) -> MomentValue:
    """E|X_{k+r} - Y_k|^a for odd a, via the Pochhammer form."""
    lam = _checked_rate(lam, odd=True, k=k, a=a)
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    terms = _terms(k + r, k, a)

    # Gamma(k+1/2) / (Gamma(1/2) Gamma(k+1)) = (1/2)_k / k!.
    pref1 = pochhammer(Rat(1, 2), k) / factorial(k)
    # sum_l (2k)_l / ((k+1)_l 2^l); term l+1 is term l times (2k+l)/(2(k+1+l)).
    geo, term = Rat(0), Rat(1)
    for l in range(r + a):
        geo += term
        term *= Rat(2 * k + l, 2 * (k + 1 + l))
    first = -pref1 * geo * sum(terms)

    # Gamma(a/2+k) / (Gamma(1/2) Gamma(k)) = (1/2)_{k+(a-1)/2} / (k-1)!.
    pref2 = pochhammer(Rat(1, 2), k + (a - 1) // 2) / factorial(k - 1)
    # The inner sum over j <= l is a prefix sum of the terms.
    tail = sum(inner / (pochhammer(k, r + l + 1) * pochhammer(k, a - l))
               for l, inner in enumerate(accumulate(terms[:a])))
    # 1/2^(r-1) is the rational 2 when r = 0.
    second = (pref2 * tail * pochhammer(k, (a + 1) // 2)
              * pochhammer(2 * k + a, r) * Rat(2) ** (1 - r))

    return MomentValue((first + second) / lam ** a)


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
    lam = _checked_rate(lam, n=n, a=a)
    return MomentValue(factorial(a) * pochhammer(Rat(a, 2) + 1, n) / factorial(n)
                       * Rat(2 * n, 2 + a) / lam ** a)
