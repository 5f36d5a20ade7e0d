from fractions import Fraction

from hypothesis import given, strategies as st

from poisson_moments.exact_arith import Rat, binomial, pochhammer


def test_binomial_values():
    assert binomial(4, 2) == 6
    assert binomial(7, -1) == 0
    assert binomial(7, 8) == 0
    # Pascal-triangle oracle
    row = [1]
    for _ in range(30):
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
    assert binomial(30, 15) == row[15] == 155117520


def test_pochhammer_values():
    assert pochhammer(3, 0) == 1
    assert pochhammer(1, 4) == 24
    assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)
    assert pochhammer(Fraction(1, 3), 4) == Fraction(1 * 4 * 7 * 10, 3 ** 4)
    assert pochhammer(-3, 5) == 0  # the factor x + 3 is zero
    assert (pochhammer(10 ** 18 + Fraction(1, 2), 5)
            == Fraction((2 * 10 ** 18 + 1) * (2 * 10 ** 18 + 3)
                        * (2 * 10 ** 18 + 5) * (2 * 10 ** 18 + 7)
                        * (2 * 10 ** 18 + 9), 2 ** 5))


@given(st.fractions(max_denominator=60), st.integers(0, 40))
def test_pochhammer_matches_repeated_multiplication(x, n):
    # The algebraic identities below hold for some wrong kernels too; this
    # pins the values against the defining product, one factor at a time.
    expected = Fraction(1)
    for i in range(n):
        expected *= x + i
    assert pochhammer(x, n) == expected


@given(st.fractions(max_denominator=50), st.integers(0, 12), st.integers(0, 12))
def test_pochhammer_splits_additively(x, m, n):
    assert pochhammer(x, m + n) == pochhammer(x, m) * pochhammer(x + m, n)


@given(st.fractions(max_denominator=1000), st.fractions(max_denominator=1000),
       st.sampled_from("+-*"))
def test_rat_canonical_form(x, y, op):
    import math
    z = {"+": x + y, "-": x - y, "*": x * y}[op]
    assert isinstance(z, Rat)
    assert z.denominator > 0
    assert math.gcd(z.numerator, z.denominator) == 1


@given(st.fractions(max_denominator=50), st.integers(0, 30))
def test_pochhammer_recurrence(x, n):
    # (x)_{n+1} = (x)_n (x+n), the Pochhammer form of Gamma(z+1) = z Gamma(z)
    assert pochhammer(x, n + 1) == pochhammer(x, n) * (x + n)


@given(st.fractions(max_denominator=50), st.integers(0, 15))
def test_pochhammer_legendre_duplication(x, n):
    # (2x)_{2n} = 4^n (x)_n (x+1/2)_n, Legendre's duplication formula
    # with every Gamma value and sqrt(pi) cancelled
    assert (pochhammer(2 * x, 2 * n)
            == 4 ** n * pochhammer(x, n) * pochhammer(x + Fraction(1, 2), n))
