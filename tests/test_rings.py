"""Coefficient rings: field axioms, enumeration order, serialization."""

import itertools
import json

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from hopfwitt import rings
from hopfwitt.errors import InputError
from hopfwitt.poly import SparsePoly
from hopfwitt.rings import (
    _CONWAY,
    GaloisField,
    IntegerRing,
    MonicQuotientRing,
    PolynomialRing,
    ZModRing,
    ring_from_spec,
)
from hopfwitt.witt import TruncationSet, WittVector, witt_add
from universal_vector_oracle import IntZRing, IntZTensorRing
from witt_lift_oracle import poly_mul, poly_rem


def _op(R, name, *args):
    """A ring operation of R, computed in its lift ring and reduced."""
    return R.reduce(getattr(R.lift_ring, name)(*args))


def test_integer_ring_basics():
    R = IntegerRing()
    assert R.add(R.from_int(3), R.neg(R.from_int(5))) == -2
    assert R.pow(2, 10) == 1024
    assert not R.is_finite


def test_zmod_wraps():
    R = ZModRing(9)
    assert _op(R, "from_int", 13) == 4
    assert _op(R, "mul", 5, 7) == 8
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
        assert _op(F, "add", a, zero) == a
        assert _op(F, "mul", a, one) == a
        if a != zero:
            assert _op(F, "pow", a, q - 1) == one
    # a small associativity/distributivity sample over all triples for F_4
    if q <= 9:
        def mul(a, b):
            return _op(F, "mul", a, b)

        def add(a, b):
            return _op(F, "add", a, b)

        for a, b, c in itertools.product(els, repeat=3):
            assert mul(a, mul(b, c)) == mul(mul(a, b), c)
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


# The integer kernels scale, pow and sub of the lift rings, against the ring
# operations they stand for: Z and the Z[w]/(f) lifts compute them directly,
# and Z[..] forms n * a and a^n as products, which count product terms.  Each draw
# builds its ring afresh, so no Z[..] term count carries over.  The Z[w]/(f)
# lifts cover each way a product is formed: closed forms at degrees 1 and 2,
# the reduced convolution at 3 and 4.
KERNEL_RINGS = {
    "Z": IntegerRing,
    "lift of F_5": lambda: GaloisField(5, 1).lift_ring,
    "lift of F_4": lambda: GaloisField(2, 2).lift_ring,
    "lift of F_8": lambda: GaloisField(2, 3).lift_ring,
    "lift of F_16": lambda: GaloisField(2, 4).lift_ring,
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
    if isinstance(R, MonicQuotientRing):
        assert R.mul(a, b) == poly_rem(poly_mul(a, b), R.modulus)
    assert R.scale(n, a) == R.mul(R.from_int(n), a)
    assert R.sub(a, b) == R.add(a, R.neg(b))
    power = R.one()
    for e in range(25):
        assert R.pow(a, e) == power
        power = R.mul(power, a)
    with pytest.raises(InputError, match="negative"):
        R.pow(a, -data.draw(st.integers(1, 5)))


def _count_products(monkeypatch, R):
    """A list that grows by one for each product R forms."""
    calls = []
    mul = type(R).mul
    monkeypatch.setattr(type(R), "mul", lambda self, a, b: calls.append(1) or mul(self, a, b))
    return calls


@pytest.mark.parametrize("field", [(2, 2), (3, 2)], ids=str)
def test_lift_pow_squares_from_the_base(field, monkeypatch):
    """a^n takes bit_length(n) - 1 squarings and popcount(n) - 1 products
    on the Z[w]/(f) lifts, none of them by one; a^0 takes none."""
    L = GaloisField(*field).lift_ring
    a = (2, -1)
    calls = _count_products(monkeypatch, L)
    for n in range(40):
        del calls[:]
        L.pow(a, n)
        assert len(calls) == max(n.bit_length() + bin(n).count("1") - 2, 0)


def test_witt_add_over_f4_forms_twelve_lift_products(monkeypatch):
    """A sum on W_{1,2,4}(F_4) raises lifted components to the powers 2
    and 4 in the ghost map and the de-ghost: 12 products, where a power
    that starts from one() forms 21."""
    F = GaloisField(2, 2)
    S = TruncationSet([1, 2, 4])
    a = WittVector.from_list(S, F, [(1, 1), (0, 1), (1, 0)])
    b = WittVector.from_list(S, F, [(0, 1), (1, 1), (1, 1)])
    calls = _count_products(monkeypatch, F.lift_ring)
    witt_add(a, b)
    assert len(calls) == 12


def test_monic_quotient_rings_compare_by_modulus():
    a, b = MonicQuotientRing((1, 1, 1)), MonicQuotientRing((2, 2, 1))
    assert a != b
    assert GaloisField(2, 2).lift_ring != GaloisField(3, 2).lift_ring
    assert a == MonicQuotientRing((1, 1, 1))
    assert GaloisField(2, 2).lift_ring == a
    assert hash(a) == hash(MonicQuotientRing((1, 1, 1)))
    assert len({a, b, GaloisField(3, 2).lift_ring}) == 2


def test_rings_without_a_json_form_print_and_compare():
    """A ring without text or JSON form, such as the Int(Z) rings of the
    oracle, prints as its class name and equals the rings of its class
    alone; the rings that print keep their own text."""
    a, b = IntZRing(), IntZTensorRing()
    assert (str(a), repr(b)) == ("IntZRing", "IntZTensorRing")
    assert [str(R) for R in (IntegerRing(), ZModRing(8), GaloisField(3, 2),
                             GaloisField(2, 2).lift_ring, PolynomialRing())] == [
        "Z", "Z/8", "F_9", "Z[w]/(1, 1, 1)", "Z[..]"]
    assert a == IntZRing() and hash(a) == hash(IntZRing())
    assert a != b and b != a
    for R in (IntegerRing(), PolynomialRing(), GaloisField(2, 2).lift_ring):
        assert a != R and R != a and b != R and R != b
    assert len({a, b, IntZRing(), IntegerRing()}) == 3


def test_f4_multiplication_table():
    F = GaloisField(2, 2)
    w = (0, 1)
    # w^2 = w + 1 for the Conway modulus w^2 + w + 1
    assert _op(F, "mul", w, w) == (1, 1)
    assert _op(F, "mul", w, (1, 1)) == (1, 0)  # w^3 = 1


def test_f9_frobenius_fixed_field():
    F = GaloisField(3, 2)
    fixed = [a for a in F.elements() if _op(F, "pow", a, 3) == a]
    assert sorted(fixed) == sorted([_op(F, "from_int", n) for n in (0, 1, 2)])


def test_prime_field_without_extension():
    F = GaloisField(5, 1)
    assert _op(F, "mul", _op(F, "from_int", 3), _op(F, "from_int", 4)) == _op(F, "from_int", 12)
    assert len(list(F.elements())) == 5


# The finite rings as quotients of their lifts: Z/m stores 0..m-1 and F_q
# coefficient tuples mod p, and reduce is the only map from the lift.
QUOTIENT_RINGS = [ZModRing(m) for m in (2, 8, 9, 12)] + [GaloisField(5, 1)] + [
    GaloisField(p, k) for p, k in sorted(_CONWAY)]


def _off_range(R):
    """Lift elements outside R's canonical range: each integer coordinate
    of a canonical element moved by a nonzero multiple of the modulus."""
    m = R.m if isinstance(R, ZModRing) else R.p
    shift = st.integers(-10 ** 6, 10 ** 6).filter(bool)
    coord = st.tuples(st.integers(0, m - 1), shift).map(lambda cs: cs[0] + m * cs[1])
    return coord if isinstance(R, ZModRing) else st.tuples(*[coord] * R.k)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(QUOTIENT_RINGS), st.data())
def test_reduce_is_a_ring_map_onto_the_canonical_range(R, data):
    L, red = R.lift_ring, R.reduce
    els = list(R.elements())
    assert all(red(a) == a for a in els)
    assert (red(L.zero()), red(L.one())) == (R.zero(), R.one())
    x, y = data.draw(_off_range(R)), data.draw(_off_range(R))
    assert x not in els and red(x) in els
    for op in (L.add, L.mul):
        assert red(op(x, y)) == red(op(red(x), red(y)))
    assert red(L.neg(x)) == red(L.neg(red(x)))


def test_quotient_rings_hold_no_arithmetic():
    """Z/m and F_q compute in their lift rings only, and no ring has a
    section of reduce: its elements already are lift elements."""
    names = {"from_int", "add", "neg", "sub", "mul", "scale", "pow", "div_int", "eq"}
    for cls in (rings.ZModRing, rings.GaloisField, rings.CoeffRing):
        assert names.isdisjoint(vars(cls)), cls.__name__
    classes = [c for c in vars(rings).values()
               if isinstance(c, type) and c.__module__ == rings.__name__]
    assert rings.CoeffRing in classes and all(issubclass(c, rings.CoeffRing) for c in classes)
    assert not any("lift" in vars(c) for c in classes)


@pytest.mark.parametrize("p,k", sorted(_CONWAY), ids=str)
def test_conway_moduli_are_irreducible(p, k):
    """F_q takes its modulus from this table only, so the table is what
    makes each F_q a field; sympy factors it independently."""
    modulus = _CONWAY[(p, k)]
    assert len(modulus) == k + 1 and modulus[-1] == 1
    assert sympy.Poly(modulus[::-1], sympy.Symbol("w"), modulus=p).is_irreducible


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
