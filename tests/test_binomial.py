"""Binomial coefficients, and the binomial-basis transform of the oracle.

The library's binomial_int is checked against polynomial evaluation and
the falling product.  The transform in intz_oracle computes
c_n = (Delta^n p)(0) via the difference table of values; it is checked
here against the closed alternating sum c_n = sum_k (-1)^(n-k) C(n,k) p(k),
a different route to the same numbers.
"""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from hopfwitt.binomial import PRIME_LIMIT, binomial_int, is_prime
from hopfwitt.errors import InputError
from hopfwitt.poly import SparsePoly

from intz_oracle import binomial_expand, binomial_poly, binomial_transform, falling_factorial


def oracle_transform(p, deg):
    """Alternating-sum formula for the binomial coefficients of p."""
    out = []
    for n in range(deg + 1):
        c = Fraction(0)
        for k in range(n + 1):
            c += (-1) ** (n - k) * comb(n, k) * p.evaluate({"x": k})
        out.append(c)
    return out


@pytest.mark.parametrize("a,n,expected", [
    (5, 2, 10),
    (0, 0, 1),
    (3, 5, 0),
    (-1, 3, -1),
    (-2, 3, -4),
    (-4, 2, 10),
])
def test_generalized_binomial_values(a, n, expected):
    assert binomial_int(a, n) == expected


@given(st.integers(-30, 30), st.integers(0, 12))
def test_generalized_binomial_matches_polynomial_evaluation(a, n):
    assert binomial_int(a, n) == binomial_poly(n).evaluate({"x": a})


def test_generalized_binomial_matches_falling_product():
    """a(a-1)...(a-n+1)/n!, one exact division per factor."""
    for a in range(-40, 41):
        for n in range(45):
            product = 1
            for i in range(1, n + 1):
                product = product * (a - i + 1) // i
            assert binomial_int(a, n) == product


def test_binomial_poly_small_cases():
    x = SparsePoly.variable("x")
    assert binomial_poly(0) == SparsePoly.constant(1)
    assert binomial_poly(1) == x
    assert binomial_poly(2) == (x * x - x) * Fraction(1, 2)
    assert falling_factorial(3) == x * (x - 1) * (x - 2)


def test_transform_of_x_squared():
    # x^2 = C(x,1) + 2 C(x,2): values 0,1,4 -> differences 1,3 -> 2
    p = SparsePoly.parse("x^2")
    assert binomial_transform(p) == [0, 1, 2]


def test_transform_detects_non_integrality():
    p = SparsePoly.variable("x") * Fraction(1, 2)
    coeffs = binomial_transform(p)
    assert any(c.denominator != 1 for c in coeffs)


def _poly_from_coeffs(cs):
    x = SparsePoly.variable("x")
    out = SparsePoly()
    for i, c in enumerate(cs):
        out = out + x ** i * c
    return out


@given(st.lists(st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),
                min_size=1, max_size=13))
def test_transform_matches_oracle_and_round_trips(cs):
    p = _poly_from_coeffs(cs)
    deg = max((i for i, c in enumerate(cs) if c), default=None)
    got = binomial_transform(p)
    if deg is None:
        assert got == []
        return
    assert got == oracle_transform(p, deg)
    back = binomial_expand({n: c for n, c in enumerate(got)})
    # expansion accepts Fractions here even though typical use is ints
    assert back == p


@given(st.integers(0, 10), st.integers(0, 10))
def test_products_of_basis_elements_are_integer_valued(m, n):
    p = binomial_poly(m) * binomial_poly(n)
    assert all(c.denominator == 1 for c in binomial_transform(p))


def test_is_prime_matches_the_definition():
    for n in range(-5, 400):
        assert is_prime(n) == (n > 1 and all(n % d for d in range(2, n)))


def test_is_prime_refuses_past_the_limit_before_dividing():
    """999,999,999,989 is the largest prime under 10^12: about 500,000
    trial divisions.  Past PRIME_LIMIT no division is made."""
    assert PRIME_LIMIT == 10 ** 12
    assert is_prime(999_999_999_989) and not is_prime(PRIME_LIMIT)
    for n in (PRIME_LIMIT + 39, 2 ** 61 - 1, 2 ** 127 - 1):
        with pytest.raises(InputError,
                           match=f"needs n = 2\\^{n.bit_length() - 1} or more, "
                                 f"over binomial.PRIME_LIMIT = {PRIME_LIMIT}"):
            is_prime(n)


def test_negative_lower_index_is_refused():
    with pytest.raises(InputError, match="^lower binomial index must be nonnegative$"):
        binomial_int(3, -1)
