"""Integer-valued polynomials: ring, Hopf structure, filtration, pairing.

Oracle strategy: products and antipodes are computed by closed forms on
the binomial basis, so they are cross-checked pointwise (a polynomial of
degree d is determined by its values at d+1 points: f*g against f(a)g(a),
S(f) against f(-a)) and against the generic route through Q[x] (expand,
multiply or substitute x -> -x, transform back) kept in intz_oracle.  The
comultiplication is checked against the substitution identity
f(a+b) = sum (Delta f)_{m,n} C(a,m) C(b,n), and the pairing against the
oracle's truncated series ring and formal group law.
"""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfwitt import intz
from hopfwitt.binomial import binomial_int
from hopfwitt.errors import InputError
from hopfwitt.filtration import drinfeld_structure_constants
from hopfwitt.intz import (
    IntZElement,
    TensorElement,
    antipode,
    basis_product,
    comult,
    counit,
    eval_at,
    filtration_degree,
    frobenius_mod_p_identity,
    graded_constant,
    group_like,
    mult,
    pair,
)
from hopfwitt.poly import SparsePoly

from intz_oracle import (
    TruncSeries,
    frobenius_by_difference_table,
    from_poly,
    pair_tensor,
    series_group_law,
    substitute,
    tensor_multiply_by_term_pairs,
    to_poly,
)


C = IntZElement.basis


def elt(**kw):
    return IntZElement({int(k[1:]): v for k, v in kw.items()})


def elements(max_degree, max_terms=6):
    return st.dictionaries(st.integers(0, max_degree),
                           st.integers(-50, 50).filter(bool),
                           max_size=max_terms).map(IntZElement)


def degree(f):
    return max(f.support(), default=0)


# -- construction -----------------------------------------------------------

def test_from_poly_accepts_integer_valued():
    f = from_poly(SparsePoly.parse("x^2"))
    assert f == elt(c1=1, c2=2)


def test_from_poly_rejects_non_integer_valued():
    with pytest.raises(InputError):
        from_poly(SparsePoly.variable("x") * Fraction(1, 2))


def test_round_trip_through_q_of_x():
    f = elt(c0=-4, c1=1, c2=3)
    assert from_poly(to_poly(f)) == f


def test_parse_text_form():
    f = IntZElement.parse("3*C(x,2)+C(x,1)-4")
    assert f == elt(c0=-4, c1=1, c2=3)
    assert str(f) == "-4+C(x,1)+3*C(x,2)"
    assert IntZElement.parse(str(f)) == f


@pytest.mark.parametrize("bad", ["", "C(x,)", "2**C(x,1)", "C(x,1)C(x,2)", "3*", "+"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(InputError):
        IntZElement.parse(bad)


@pytest.mark.parametrize("make", [
    lambda: IntZElement({-1: 1}),
    lambda: IntZElement({1: True}),
    lambda: IntZElement({1: 1.5}),
    lambda: TensorElement({(0, -1): 1}),
    lambda: TensorElement({(0, 1): 1.5}),
    lambda: TensorElement({(1, 0): True}),
])
def test_constructors_refuse_outside_input(make):
    with pytest.raises(InputError):
        make()


@pytest.mark.parametrize("c", [1.5, True], ids=["float", "bool"])
def test_constructors_refuse_a_coefficient_alike(c):
    """Both public constructors give the one refusal for a coefficient
    that is not an integer."""
    for make in (lambda: IntZElement({1: c}), lambda: TensorElement({(0, 1): c})):
        with pytest.raises(InputError) as info:
            make()
        assert str(info.value) == "basis coefficients must be integers"


def _canonical(x, cls):
    """x holds no zero coefficient and is what the public constructor
    builds from its own coefficients."""
    coeffs = dict(x.items())
    return 0 not in coeffs.values() and cls(coeffs) == x


# Small indices, C(x,0) included, and small coefficients, so that sums,
# products and antipodes often cancel a term.
_small = st.dictionaries(st.integers(0, 5), st.integers(-3, 3), max_size=5).map(IntZElement)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_small, _small, st.integers(-2, 2), st.integers(0, 6), st.integers(0, 6))
def test_results_are_canonical(f, g, k, m, n):
    """Every result the library forms drops the coefficients that cancel;
    f + (-f) cancels all of them."""
    for h in (antipode(f), mult(f, g), f + g, f - g, f + (-f), f.scale(k)):
        assert _canonical(h, IntZElement)
    tf, tg = comult(f), comult(g)
    for t in (tf, tf.multiply(tg), TensorElement.simple(f, g)):
        assert _canonical(t, TensorElement)
    for c in drinfeld_structure_constants(m, n).values():
        assert _canonical(c, SparsePoly)


def test_antipode_drops_the_term_that_cancels():
    """S(C(x,1)) = -C(x,1) cancels the C(x,1) of S(C(x,2)) = C(x,1) + C(x,2)."""
    assert dict(antipode(C(1) + C(2)).items()) == {2: 1}


def test_json_round_trip():
    f = elt(c0=-4, c1=1, c2=3)
    assert f.to_json() == '{"coeffs":{"0":"-4","1":"1","2":"3"}}'
    coeffs = json.loads(f.to_json())["coeffs"]
    assert IntZElement({int(n): int(c) for n, c in coeffs.items()}) == f


# -- multiplication ---------------------------------------------------------

def test_product_of_degree_one_generators():
    assert mult(C(1), C(1)) == elt(c1=1, c2=2)


def test_square_of_c2():
    assert mult(C(2), C(2)) == elt(c2=1, c3=6, c4=6)


@given(st.integers(0, 6), st.integers(0, 6), st.integers(-8, 8))
def test_product_agrees_with_pointwise_values(m, n, a):
    prod = mult(C(m), C(n))
    assert eval_at(prod, a) == binomial_int(a, m) * binomial_int(a, n)


def test_basis_product_matches_mult():
    assert IntZElement(basis_product(3, 5)) == mult(C(3), C(5))
    assert basis_product(5, 3) == basis_product(3, 5)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 60), st.integers(0, 60))
def test_basis_product_agrees_with_values(m, n):
    prod = IntZElement(basis_product(m, n))
    assert degree(prod) == m + n
    for a in range(m + n + 1):
        assert eval_at(prod, a) == binomial_int(a, m) * binomial_int(a, n)


@settings(max_examples=40, deadline=None)
@given(elements(60), elements(60))
def test_mult_agrees_with_values(f, g):
    prod = mult(f, g)
    for a in range(degree(f) + degree(g) + 1):
        assert eval_at(prod, a) == eval_at(f, a) * eval_at(g, a)


@settings(max_examples=30, deadline=None)
@given(elements(20), elements(20))
def test_mult_agrees_with_q_of_x_route(f, g):
    """The generic route: expand to Q[x], multiply, transform back."""
    assert mult(f, g) == from_poly(to_poly(f) * to_poly(g))


# -- comultiplication -------------------------------------------------------

def test_comult_closed_form_degree_2():
    assert comult(C(2)) == TensorElement({(0, 2): 1, (1, 1): 1, (2, 0): 1})


def test_comult_work_check_boundary():
    # n+1 terms up to C(x,n) pass while (n+1) * n <= WORK_LIMIT = 10^7
    assert len(list(comult(C(3161)).items())) == 3162
    with pytest.raises(InputError, match="bound overflow"):
        comult(C(3162))


def test_comult_is_linear():
    f = elt(c1=2, c3=-1)
    lhs = comult(f)
    rhs = TensorElement(
        {(0, 1): 2, (1, 0): 2, (0, 3): -1, (1, 2): -1, (2, 1): -1, (3, 0): -1}
    )
    assert lhs == rhs


@pytest.mark.parametrize("n", range(7))
@pytest.mark.parametrize("a", [-3, -1, 0, 2, 3])
@pytest.mark.parametrize("b", [-3, -2, 0, 1, 3])
def test_comult_substitution_oracle(n, a, b):
    """C(a+b, n) = sum over the coproduct support of C(a,i) C(b,j)."""
    total = sum(
        c * binomial_int(a, i) * binomial_int(b, j)
        for (i, j), c in comult(C(n)).items()
    )
    assert total == binomial_int(a + b, n)


def test_x_is_primitive():
    assert comult(C(1)) == TensorElement({(1, 0): 1, (0, 1): 1})


# -- counit, evaluation, antipode ------------------------------------------

def test_counit_is_evaluation_at_zero():
    f = elt(c0=7, c1=3, c4=-2)
    assert counit(f) == 7 == eval_at(f, 0)


def test_eval_at_negative_points():
    assert eval_at(C(3), -1) == binomial_int(-1, 3) == -1


def test_antipode_known_values():
    assert antipode(C(0)) == IntZElement.one()
    assert antipode(C(1)) == elt(c1=-1)
    assert antipode(C(2)) == elt(c1=1, c2=1)


@pytest.mark.parametrize("n", range(9))
def test_antipode_matches_substitution_oracle(n):
    """S(f) = f(-x), computed by substitution in Q[x]."""
    flipped = to_poly(antipode(C(n)))
    direct = substitute(to_poly(C(n)), {"x": -SparsePoly.variable("x")})
    assert flipped == direct


@settings(max_examples=40, deadline=None)
@given(elements(60))
def test_antipode_agrees_with_values(f):
    flipped = antipode(f)
    for a in range(degree(f) + 1):
        assert eval_at(flipped, a) == eval_at(f, -a)


@settings(max_examples=30, deadline=None)
@given(elements(20))
def test_antipode_agrees_with_q_of_x_route(f):
    x = SparsePoly.variable("x")
    assert antipode(f) == from_poly(substitute(to_poly(f), {"x": -x}))


def test_antipode_basis_is_not_recursive():
    n = 2 * sys.getrecursionlimit()
    assert eval_at(antipode(C(n)), 3) == binomial_int(-3, n)


@pytest.mark.parametrize("n", range(7))
def test_antipode_law_on_basis(n):
    """m(S (x) id) Delta = unit . counit on C(x,n)."""
    acc = IntZElement()
    for (i, j), c in comult(C(n)).items():
        acc = acc + mult(antipode(C(i)), C(j)).scale(c)
    expected = IntZElement.one().scale(counit(C(n)))
    assert acc == expected


# -- filtration -------------------------------------------------------------

def test_filtration_degree_and_membership():
    f = elt(c1=2, c3=1)
    assert filtration_degree(f) == 3
    assert filtration_degree(f) <= 3 and not filtration_degree(f) <= 2


def test_zero_element_is_in_every_stage():
    assert filtration_degree(IntZElement.zero()) is None
    d = filtration_degree(IntZElement.zero())
    assert d is None or d <= 0


@given(st.integers(0, 6), st.integers(0, 6))
def test_product_filtration_degree_is_additive(m, n):
    assert filtration_degree(mult(C(m), C(n))) == m + n


@pytest.mark.parametrize("m,n,expected", [
    (1, 1, 2), (2, 1, 3), (2, 2, 6), (0, 5, 1), (3, 2, 10),
])
def test_graded_constant_spot_values(m, n, expected):
    assert graded_constant(m, n) == expected


# -- Frobenius mod p --------------------------------------------------------

def test_frobenius_identity_on_basis():
    assert frobenius_mod_p_identity(C(2), 2)
    assert frobenius_mod_p_identity(elt(c1=1, c5=3), 5)


def test_frobenius_identity_rejects_composite():
    with pytest.raises(InputError):
        frobenius_mod_p_identity(C(1), 4)
    with pytest.raises(InputError):
        frobenius_mod_p_identity(C(1), 1)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("coeffs", [
    {1: 1}, {2: 1}, {0: 3, 1: -2}, {1: 1, 2: 1, 3: 1}, {3: -5},
])
def test_frobenius_identity_against_slow_multiplication(p, coeffs):
    """Independent route: build f^p by repeated basis multiplication and
    check coefficient divisibility directly."""
    f = IntZElement(coeffs)
    power = IntZElement.one()
    for _ in range(p):
        power = mult(power, f)
    diff = power - f
    slow = all(c % p == 0 for _, c in diff.items())
    assert frobenius_mod_p_identity(f, p) == slow
    assert slow  # the identity is a theorem for integer-valued f


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.dictionaries(st.integers(0, 12), st.integers(-40, 40), max_size=6),
       st.sampled_from([2, 3, 5, 7, 11, 13]))
def test_frobenius_check_equals_the_difference_table(coeffs, p):
    """The value check against the quadratic table of intz_oracle.  Both
    answer True on every f, as each value f(k) is an integer (Fermat);
    what is compared is the route: the values below are eval_at's."""
    f = IntZElement(coeffs)
    assert frobenius_mod_p_identity(f, p) == frobenius_by_difference_table(f, p)
    d = filtration_degree(f)
    count = p * (d or 0) + 1
    assert intz._values(f, count) == [eval_at(f, k) for k in range(count)]


def test_frobenius_values_of_constants_and_gaps():
    assert intz._values(IntZElement({0: 5}), 3) == [5, 5, 5]
    assert intz._values(IntZElement({}), 2) == [0, 0]
    # C(x,3) - 2 C(x,1) at 0..5: 0, -2, -4, -5, -4, 0
    assert intz._values(elt(c3=1, c1=-2), 6) == [0, -2, -4, -5, -4, 0]


_tensor_terms = st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                                st.integers(-9, 9), max_size=6)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_tensor_terms, _tensor_terms)
def test_tensor_multiply_equals_the_term_pair_route(x, y):
    tx, ty = TensorElement(x), TensorElement(y)
    assert tx.multiply(ty) == tensor_multiply_by_term_pairs(tx, ty)


# -- pairing ----------------------------------------------------------------

def test_pairing_picks_out_dual_coefficients():
    s = [7, -1, 4, 0, 2]
    assert pair(C(2), s) == 4
    assert pair(elt(c0=1, c2=3), s) == 7 + 12


def test_pairing_requires_enough_truncation():
    s = [1, 1, 1]
    with pytest.raises(InputError):
        pair(C(3), s)
    # degree < trunc is fine
    assert pair(C(2), s) == 1


@pytest.mark.parametrize("a", range(-4, 5))
@pytest.mark.parametrize("n", range(0, 7))
def test_group_like_pairing_gives_binomials(a, n):
    s = group_like(a, trunc=8)
    assert s == list(TruncSeries.binomial_power(a, "u", 8).coeffs)
    assert pair(C(n), s) == binomial_int(a, n)


def test_mult_comult_duality_small():
    """<f*g, s> = <f (x) g, s(u1+u2+u1u2)> on a nontrivial sample."""
    f, g = C(1), C(2)
    s = TruncSeries("u", 6, (2, -1, 3, 1, 0, 5))
    law = series_group_law(s)
    lhs = pair(mult(f, g), s.coeffs)
    rhs = pair_tensor(TensorElement.simple(f, g), law)
    assert lhs == rhs


def test_comult_mult_duality_small():
    """<Delta f, s (x) s'> = <f, s*s'>."""
    f = elt(c1=1, c3=2)
    s = TruncSeries("u", 6, (1, 2, 0, -1, 1, 0))
    sp = TruncSeries("u", 6, (0, 1, 1, 0, 2, -3))
    lhs = sum(
        c * pair(C(m), s.coeffs) * pair(C(n), sp.coeffs) for (m, n), c in comult(f).items()
    )
    assert lhs == pair(f, (s * sp).coeffs)
