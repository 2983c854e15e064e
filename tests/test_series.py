"""Truncated integer power series, the dual side of the Int(Z) oracle."""

import pytest
from hypothesis import given, strategies as st

from hopfwitt.binomial import binomial_int
from hopfwitt.errors import InputError

from intz_oracle import TruncSeries


def test_padding_and_coefficient_access():
    s = TruncSeries("u", 4, (1, 2))
    assert s.coeffs == (1, 2, 0, 0)
    assert s.coefficient(1) == 2
    with pytest.raises(InputError):
        s.coefficient(4)


def test_truncated_product_drops_high_terms():
    u = TruncSeries.generator("u", 3)
    s = (TruncSeries.one("u", 3) + u) ** 3
    # (1+u)^3 = 1 + 3u + 3u^2 + u^3, last term falls off
    assert s.coeffs == (1, 3, 3)


def test_mismatched_series_refuse_to_combine():
    a = TruncSeries("u", 3, (1,))
    b = TruncSeries("u", 4, (1,))
    c = TruncSeries("v", 3, (1,))
    for other in (b, c):
        with pytest.raises(InputError):
            a + other


def test_inverse_of_one_plus_u_is_alternating():
    u = TruncSeries.generator("u", 6)
    inv = (TruncSeries.one("u", 6) + u).inverse()
    assert inv.coeffs == (1, -1, 1, -1, 1, -1)
    assert (inv * (TruncSeries.one("u", 6) + u)).coeffs == (1, 0, 0, 0, 0, 0)


def test_inverse_requires_unit_constant_term():
    with pytest.raises(InputError):
        TruncSeries("u", 3, (2, 1)).inverse()


@pytest.mark.parametrize("a", range(-4, 5))
def test_binomial_power_matches_direct_powering(a):
    """(1+u)^a via the recurrence against multiplication/inversion."""
    n = 7
    one_plus_u = TruncSeries.one("u", n) + TruncSeries.generator("u", n)
    if a >= 0:
        direct = one_plus_u ** a
    else:
        direct = one_plus_u.inverse() ** (-a)
    assert TruncSeries.binomial_power(a, "u", n) == direct
    assert direct.coeffs == tuple(binomial_int(a, k) for k in range(n))


@given(st.lists(st.integers(-20, 20), max_size=5),
       st.lists(st.integers(-20, 20), max_size=5),
       st.lists(st.integers(-20, 20), max_size=5))
def test_ring_laws(xs, ys, zs):
    n = 5
    a, b, c = (TruncSeries("u", n, t[:n]) for t in (xs, ys, zs))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
