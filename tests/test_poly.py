"""Sparse polynomial arithmetic, parsing and canonical printing."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfwitt.errors import InputError
from hopfwitt.intz import IntZElement
from hopfwitt.poly import SparsePoly

import parse_oracle
from intz_oracle import substitute


X = SparsePoly.variable("x")
Y = SparsePoly.variable("y")


def _total_degree(p):
    """The largest total degree of a monomial of p; None for zero."""
    return max((sum(e for _, e in mono) for mono, _ in p.items()), default=None)


def test_zero_is_empty_and_prints_as_zero():
    z = SparsePoly()
    assert z.is_zero()
    assert str(z) == "0"
    assert _total_degree(z) is None
    assert (X - X) == z


def test_no_zero_coefficients_survive_arithmetic():
    p = X * 2 + Y - X - X + SparsePoly.constant(0)
    assert p == Y
    assert len(p) == 1


def test_schoolbook_product_oracle():
    # (x + 1)(x - 1) expanded by hand
    p = (X + 1) * (X - 1)
    assert p == X * X - 1
    # (2x + 3y)^2 = 4x^2 + 12xy + 9y^2
    q = (X * 2 + Y * 3) ** 2
    assert q.coefficient({"x": 2}) == 4
    assert q.coefficient({"x": 1, "y": 1}) == 12
    assert q.coefficient({"y": 2}) == 9


def test_degree_additivity_on_products():
    p = X ** 3 + Y
    q = Y ** 2 - 2
    assert _total_degree(p * q) == _total_degree(p) + _total_degree(q)


def _is_integral(p):
    return all(c.denominator == 1 for _, c in p.items())


def test_rational_coefficients_stay_exact():
    p = X * Fraction(1, 3) + SparsePoly.constant(Fraction(1, 6))
    q = p * 6
    assert q == X * 2 + 1
    assert not _is_integral(p)
    assert _is_integral(q)


def test_substitute_polynomial_for_variable():
    p = X ** 2 + X
    q = substitute(p, {"x": Y + 1})
    assert q == Y ** 2 + 3 * Y + 2


def test_substitute_scalar_and_evaluate_agree():
    p = 3 * X ** 2 - Y + 1
    assert substitute(p, {"x": 2, "y": 5}).coefficient(()) == p.evaluate({"x": 2, "y": 5}) == 8


def test_evaluate_requires_all_variables():
    with pytest.raises(InputError):
        (X + Y).evaluate({"x": 1})


def test_canonical_string_is_graded_lex_descending():
    p = 1 + X + X * Y + Y ** 2 * 3 - X ** 2
    assert str(p) == "-x^2+x*y+3*y^2+x+1"


def test_parse_round_trip_simple_forms():
    for text in ["0", "1", "-1", "x", "2*x", "x^2", "12*x", "-x+3", "x*y^2-34"]:
        p = SparsePoly.parse(text)
        assert SparsePoly.parse(str(p)) == p


def test_parse_matches_hand_built():
    p = SparsePoly.parse("2*a^2*b - b + 13")
    a, b = SparsePoly.variable("a"), SparsePoly.variable("b")
    assert p == 2 * a ** 2 * b - b + SparsePoly.constant(13)


def test_parse_keeps_int_coefficients():
    p = SparsePoly.parse("3*x^2-x+7")
    assert all(type(c) is int for _, c in p.items())


@pytest.mark.parametrize("bad", ["", "x^", "x^-1", "*x", "x+", "x$y", "1//2", "x*",
                                 "1/2*x", "x/2"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(InputError):
        SparsePoly.parse(bad)


@pytest.mark.parametrize("text", ["9" * 5000 + "*x", "x^" + "9" * 5000])
def test_parse_refuses_numerals_past_the_int_conversion_limit(text):
    with pytest.raises(InputError, match="5000 digits"):
        SparsePoly.parse(text)


def _random_polys(integral=False):
    mono = st.dictionaries(st.sampled_from(["x", "y", "z"]), st.integers(1, 4), max_size=3)
    coeff = (st.integers(-9, 9) if integral
             else st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)))
    term = st.tuples(mono, coeff)
    return st.lists(term, max_size=6).map(
        lambda ts: sum(
            (SparsePoly({tuple(sorted(m.items())): c}) for m, c in ts),
            SparsePoly(),
        )
    )


@given(_random_polys(), _random_polys(), _random_polys())
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)


@given(_random_polys(integral=True))
def test_parse_print_round_trip(p):
    assert SparsePoly.parse(str(p)) == p


@given(_random_polys(), st.integers(0, 4))
def test_pow_matches_repeated_multiplication(p, n):
    expected = SparsePoly.constant(1)
    for _ in range(n):
        expected = expected * p
    assert p ** n == expected


# -- one scanner for both readers, against the readers it replaced --------

def _verdict(read, text):
    """The value read, or None for a refusal."""
    try:
        return read(text)
    except InputError:
        return None


def _agrees_with_oracle(text):
    assert _verdict(SparsePoly.parse, text) == _verdict(parse_oracle.poly_parse, text)
    assert _verdict(IntZElement.parse, text) == _verdict(parse_oracle.intz_parse, text)


@pytest.mark.parametrize("text", ["2x", "x y", "2 3", "x^2^3", "x+-y", "+", "C(x,1)C(x,2)",
                                  "3*", "x^" + "9" * 5000])
def test_fixed_sums_read_as_before(text):
    _agrees_with_oracle(text)


def test_juxtaposition_is_a_product_in_z_vars_only():
    x, y = SparsePoly.variable("x"), SparsePoly.variable("y")
    assert SparsePoly.parse("2x") == 2 * x
    assert SparsePoly.parse("x y") == x * y
    assert SparsePoly.parse("2 3") == 6
    with pytest.raises(InputError):
        IntZElement.parse("2 3")


POLY_PIECES = ["0", "2", "13", "x", "y", "x2", "_z", "^", "*", "+", "-", "/", "$", "C"]
INTZ_PIECES = ["0", "2", "13", "C(", "x", ",", "1", ")", "C", "*", "+", "-", "("]


@st.composite
def _poly_term(draw):
    parts = []
    for k in range(draw(st.integers(1, 3))):
        parts += draw(st.sampled_from([["*"], []])) if k else []
        if draw(st.booleans()):
            parts.append(draw(st.sampled_from(["0", "2", "13"])))
        else:
            parts.append(draw(st.sampled_from(["x", "y", "x2"])))
            parts += draw(st.sampled_from([[], ["^", "0"], ["^", "2"], ["^", "13"]]))
    return parts


@st.composite
def _intz_term(draw):
    coef = draw(st.sampled_from([[], ["0"], ["2"], ["13"]]))
    basis = ["C(", "x", ",", draw(st.sampled_from("012")), ")"]
    if not coef:
        return basis
    return coef + draw(st.sampled_from([[], ["*"] + basis, basis]))


@st.composite
def _sums(draw, term, pieces):
    """A signed sum of one to three terms with whitespace or none after each
    piece; it may have one piece inserted, deleted or replaced by one of
    `pieces`."""
    parts = [draw(st.sampled_from(["", "+", "-"]))]
    for k in range(draw(st.integers(1, 3))):
        parts += ([draw(st.sampled_from("+-"))] if k else []) + draw(term)
    if draw(st.booleans()):
        i = draw(st.integers(0, len(parts)))
        parts[i:i + draw(st.integers(0, 1))] = draw(st.sampled_from([[]] + [[p] for p in pieces]))
    gaps = draw(st.lists(st.sampled_from(["", " ", "\t"]), min_size=len(parts), max_size=len(parts)))
    return "".join(p + gap for p, gap in zip(parts, gaps))


@settings(max_examples=250, deadline=None)
@given(_sums(_poly_term(), POLY_PIECES))
def test_poly_reader_matches_the_tokenizer(text):
    assert _verdict(SparsePoly.parse, text) == _verdict(parse_oracle.poly_parse, text)


@settings(max_examples=250, deadline=None)
@given(_sums(_intz_term(), INTZ_PIECES))
def test_intz_reader_matches_the_regex_loop(text):
    assert _verdict(IntZElement.parse, text) == _verdict(parse_oracle.intz_parse, text)


def test_bad_variable_name_and_negative_power_are_refused():
    with pytest.raises(InputError, match="^bad variable name: '1x'$"):
        SparsePoly.variable("1x")
    with pytest.raises(InputError, match="^negative polynomial power$"):
        SparsePoly.variable("x") ** -1
