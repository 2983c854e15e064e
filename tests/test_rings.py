"""Coefficient rings: field axioms, enumeration order, serialization."""

import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from hopfwitt.errors import InputError
from hopfwitt.poly import SparsePoly
from hopfwitt.rings import (
    GaloisField,
    IntegerRing,
    MonicQuotientRing,
    PolynomialRing,
    ZModRing,
    ring_from_spec,
)


def test_integer_ring_basics():
    R = IntegerRing()
    assert R.add(R.from_int(3), R.neg(R.from_int(5))) == -2
    assert R.pow(2, 10) == 1024
    assert not R.is_finite


def test_zmod_wraps():
    R = ZModRing(9)
    assert R.from_int(13) == 4
    assert R.mul(5, 7) == 8
    assert list(R.elements()) == list(range(9))
    assert R.size() == 9


def test_zmod_rejects_tiny_modulus():
    with pytest.raises(InputError):
        ZModRing(1)


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (5, 2), (7, 2)])
def test_field_axioms_exhaustive(p, k):
    F = GaloisField(p, k)
    els = list(F.elements())
    assert len(els) == p ** k
    one, zero = F.one(), F.zero()
    # multiplicative group: every nonzero element has order dividing q-1
    q = p ** k
    for a in els:
        assert F.add(a, zero) == a
        assert F.mul(a, one) == a
        if a != zero:
            assert F.pow(a, q - 1) == one
    # a small associativity/distributivity sample over all triples for F_4
    if q <= 9:
        for a, b, c in itertools.product(els, repeat=3):
            assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


# The integer kernels scale, pow and sub of the lift rings, against the ring
# operations they stand for: Z and the Z[w]/(f) lifts override them, and
# Z[..] keeps the inherited ones, which count product terms.  Each draw
# builds its ring afresh, so no Z[..] term count carries over.
KERNEL_RINGS = {
    "Z": IntegerRing,
    "lift of F_4": lambda: GaloisField(2, 2).lift_ring,
    "lift of F_9": lambda: GaloisField(3, 2).lift_ring,
    "Z[w]/(w^2 - 2)": lambda: MonicQuotientRing((-2, 0, 1)),
    "Z[..]": PolynomialRing,
}
_MONOMIALS = [(), (("x", 1),), (("x", 1), ("y", 1))]


def _ring_elements(R):
    c = st.integers(-20, 20)
    if isinstance(R, IntegerRing):
        return c
    if isinstance(R, MonicQuotientRing):
        return st.tuples(*[c] * R.k)
    return st.dictionaries(st.sampled_from(_MONOMIALS), c, max_size=2).map(SparsePoly)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(KERNEL_RINGS)), st.data())
def test_lift_ring_kernels_match_the_ring_operations(name, data):
    R = KERNEL_RINGS[name]()
    a, b = data.draw(_ring_elements(R)), data.draw(_ring_elements(R))
    n = data.draw(st.integers(-30, 30))
    assert R.scale(n, a) == R.mul(R.from_int(n), a)
    assert R.sub(a, b) == R.add(a, R.neg(b))
    power = R.one()
    for e in range(25):
        assert R.pow(a, e) == power
        power = R.mul(power, a)
    with pytest.raises(InputError, match="negative"):
        R.pow(a, -data.draw(st.integers(1, 5)))


def test_monic_quotient_rings_compare_by_modulus():
    a, b = MonicQuotientRing((1, 1, 1)), MonicQuotientRing((2, 2, 1))
    assert a != b
    assert GaloisField(2, 2).lift_ring != GaloisField(3, 2).lift_ring
    assert a == MonicQuotientRing((1, 1, 1))
    assert GaloisField(2, 2).lift_ring == a
    assert hash(a) == hash(MonicQuotientRing((1, 1, 1)))
    assert len({a, b, GaloisField(3, 2).lift_ring}) == 2


def test_f4_multiplication_table():
    F = GaloisField(2, 2)
    w = (0, 1)
    # w^2 = w + 1 for the Conway modulus w^2 + w + 1
    assert F.mul(w, w) == (1, 1)
    assert F.mul(w, (1, 1)) == (1, 0)  # w^3 = 1


def test_f9_frobenius_fixed_field():
    F = GaloisField(3, 2)
    fixed = [a for a in F.elements() if F.pow(a, 3) == a]
    assert sorted(fixed) == sorted([F.from_int(0), F.from_int(1), F.from_int(2)])


def test_prime_field_without_extension():
    F = GaloisField(5, 1)
    assert F.mul(F.from_int(3), F.from_int(4)) == F.from_int(12)
    assert len(list(F.elements())) == 5


def test_custom_modulus_accepted_and_checked():
    # w^2 + 1 is irreducible over F_3
    F = GaloisField(3, 2, (1, 0, 1))
    w = (0, 1)
    assert F.mul(w, w) == F.from_int(-1)
    # w^2 - 1 = (w-1)(w+1) is not
    with pytest.raises(InputError):
        GaloisField(3, 2, (2, 0, 1))


def test_galois_field_rejects_bad_parameters():
    with pytest.raises(InputError):
        GaloisField(4, 2)
    with pytest.raises(InputError):
        GaloisField(2, 0)
    with pytest.raises(InputError):
        GaloisField(11, 5)  # no built-in modulus that large


def test_element_strings_round_trip():
    F = GaloisField(2, 2)
    for a in F.elements():
        assert F.element_from_str(F.element_str(a)) == a
    R = ZModRing(7)
    assert R.element_from_str("12") == 5


def test_polynomial_ring_elements_are_integer_polys():
    R = PolynomialRing()
    a = R.element_from_str("2*a1-b1")
    assert a == SparsePoly.parse("2*a1-b1")
    with pytest.raises(InputError):
        R.element_from_str("1/2*a1")


def test_polynomial_ring_div_int_is_exact():
    R = PolynomialRing()
    p = R.element_from_str("6*a1^2-4*b1+2")
    assert R.div_int(p, 2) == SparsePoly.parse("3*a1^2-2*b1+1")
    assert R.div_int(p, -2) == SparsePoly.parse("-3*a1^2+2*b1-1")
    assert R.div_int(p, 4) is None
    assert R.div_int(R.zero(), 3) == R.zero()


@pytest.mark.parametrize("spec,expected", [
    ("Z", IntegerRing()),
    ("Zmod:9", ZModRing(9)),
    ("Fq:3,2", GaloisField(3, 2)),
])
def test_ring_spec_parsing(spec, expected):
    assert ring_from_spec(spec) == expected


@pytest.mark.parametrize("bad", ["Q", "Zmod:x", "Fq:4,2", "Fq:3", ""])
def test_ring_spec_rejects_malformed(bad):
    with pytest.raises(InputError):
        ring_from_spec(bad)


def test_ring_json_round_trip():
    """The JSON object of a ring survives JSON text, matches the ring its
    spec names, and tells the rings apart (ring equality compares it)."""
    rings = {"Z": IntegerRing(), "Zmod:8": ZModRing(8), "Fq:3,2": GaloisField(3, 2),
             "Poly": PolynomialRing()}
    texts = set()
    for spec, R in rings.items():
        text = json.dumps(R.to_json_obj(), sort_keys=True)
        assert json.loads(text) == ring_from_spec(spec).to_json_obj()
        texts.add(text)
    assert len(texts) == len(rings)
