"""Witt vectors: ghosts, universal polynomials, operators, kernels.

The master oracle is the ghost map: every operation is certified by
prescribing what it does on ghost components, and the certification is run
both symbolically (over Z[a_d, b_d], where ghost is injective) and on
concrete vectors.  Universality is checked by computing over Z/m directly
and comparing with the reduction of the computation over Z.
"""

import functools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from hopfwitt import witt
from hopfwitt.errors import FalsificationError, InputError
from hopfwitt.poly import SparsePoly
from hopfwitt.rings import GaloisField, IntegerRing, PolynomialRing, ZModRing
from hopfwitt.witt import (
    TRUNC_SUM_LIMIT,
    TruncationSet,
    WittVector,
    all_vectors,
    divides_additively,
    divisors,
    frobenius,
    from_ghost,
    ghost,
    kernel_enumerate,
    stable_twisted_kernel,
    teichmuller,
    twisted_frobenius,
    twisted_kernel,
    universal_poly,
    verschiebung,
    witt_add,
    witt_int,
    witt_mul,
    witt_neg,
    witt_pow,
    witt_scalar,
    witt_sub,
)

from divided_power_oracle import divided_power_points, order_profile, point_order_profile

ZZ = IntegerRing()
S12 = TruncationSet([1, 2])
S1236 = TruncationSet([1, 2, 3, 6])


def zvec(trunc, *comps):
    return WittVector.from_list(trunc, ZZ, list(comps))


# -- truncation sets --------------------------------------------------------

def test_truncation_set_requires_divisor_closure():
    with pytest.raises(InputError):
        TruncationSet([1, 4])
    with pytest.raises(InputError):
        TruncationSet([2])
    with pytest.raises(InputError):
        TruncationSet([])


def test_divisor_closure_and_p_typical():
    assert TruncationSet.divisor_closure([12]).members == (1, 2, 3, 4, 6, 12)
    assert TruncationSet.p_typical(2, 3).members == (1, 2, 4)
    assert TruncationSet.p_typical(3, 1).members == (1,)


def test_divisors_match_the_definition():
    for n in range(1, 300):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_truncation_members_over_the_limit_are_refused():
    """The limit is on the sum of the members: one large member passes,
    many small ones do not."""
    assert 1 + 9973 <= TRUNC_SUM_LIMIT < 1 + 10007  # both members prime
    TruncationSet([1, 9973])
    for members in ([1, 10007], range(1, 200), [1, 10 ** 999]):
        with pytest.raises(InputError, match="bound overflow.*witt.TRUNC_SUM_LIMIT = "):
            TruncationSet(members)
    with pytest.raises(InputError, match="bound overflow.*witt.TRUNC_SUM_LIMIT = "):
        TruncationSet.divisor_closure([10 ** 999])


def test_proper_divisors_are_kept():
    S = TruncationSet.divisor_closure([12, 9])
    assert S.proper_divisors == {n: [d for d in S if d < n and n % d == 0] for n in S}


@pytest.mark.parametrize("ring", [ZModRing(8), GaloisField(3, 2)], ids=str)
def test_one_large_member_answers(ring):
    """{1, 9973} passes the sum limit; the product is the ghost product."""
    S = TruncationSet([1, 9973])
    els = list(ring.elements())
    a, b = (WittVector.from_list(S, ring, [els[i], els[j]]) for i, j in ((2, 5), (7, 3)))
    assert ghost(witt_mul(a, b)) == [ring.reduce(ring.lift_ring.mul(x, y))
                                     for x, y in zip(ghost(a), ghost(b))]


def test_term_limit_counts_one_operation():
    """One Z[..] ring serves any number of products, each counted afresh
    against TERM_LIMIT (the products of one Witt product here form 197
    terms; a single product past the limit is refused, see TestExitCodes
    in test_cli.py)."""
    R = PolynomialRing()
    S = TruncationSet([1, 2, 4, 8])
    a = WittVector.from_list(S, R, [SparsePoly.parse(p) for p in ("x", "y", "0", "0")])
    b = WittVector.from_list(S, R, [SparsePoly.parse(p) for p in ("1", "x", "0", "0")])
    first = witt_mul(a, b)
    for _ in range(999):
        assert witt_mul(a, b) == first


def test_quotient_sets():
    """S/n is built once per index; asking again gives an equal set, and an
    empty S/n or an index below 1 is refused on every call."""
    S = TruncationSet.divisor_closure([12])
    for _ in range(3):
        assert S.quotient(2).members == (1, 2, 3, 6)
        assert S.quotient(3).members == (1, 2, 4)
        assert S.quotient(12).members == (1,)
        assert S.quotient(2) == TruncationSet([1, 2, 3, 6])
        with pytest.raises(InputError, match="empty"):
            S.quotient(5)
        with pytest.raises(InputError, match="positive"):
            S.quotient(0)
        with pytest.raises(InputError, match="positive"):
            S.quotient(-2)


# -- ghost and universal polynomials ---------------------------------------

def test_ghost_of_one_one():
    assert ghost(zvec(S12, 1, 0)) == [1, 1]


def test_frozen_sum_of_units():
    a = zvec(S12, 1, 0)
    s = witt_add(a, a)
    assert s == zvec(S12, 2, -1)
    assert ghost(s) == [2, 2]


def test_frozen_teichmuller_sum():
    two = teichmuller(2, S12, ZZ)
    three = teichmuller(3, S12, ZZ)
    s = witt_add(two, three)
    assert s == zvec(S12, 5, -6)
    assert ghost(s) == [5, 13]


def test_universal_sum_polynomial_text():
    polys = universal_poly("sum", S12)
    assert str(polys[1]) == "a1+b1"
    assert str(polys[2]) == "-a1*b1+a2+b2"


def test_universal_product_polynomial_text():
    polys = universal_poly("product", S12)
    assert str(polys[1]) == "a1*b1"
    assert str(polys[2]) == "a1^2*b2+a2*b1^2+2*a2*b2"


def test_universal_poly_rejects_an_index_outside_frobenius():
    with pytest.raises(InputError, match="frobenius"):
        universal_poly("sum", S12, 2)


def test_universal_poly_rejects_unknown_op():
    with pytest.raises(InputError):
        universal_poly("quotient", S12)


def _generic_pair(S):
    R = PolynomialRing()
    a = WittVector(S, R, {d: SparsePoly.variable(f"a{d}") for d in S})
    b = WittVector(S, R, {d: SparsePoly.variable(f"b{d}") for d in S})
    return R, a, b


@pytest.mark.parametrize("S", [S12, S1236, TruncationSet.p_typical(2, 3)])
def test_sum_and_product_ghost_certification_symbolic(S):
    """ghost(a op b) == ghost(a) op ghost(b) as polynomial identities."""
    R, a, b = _generic_pair(S)
    ga, gb = ghost(a), ghost(b)
    assert ghost(witt_add(a, b)) == [x + y for x, y in zip(ga, gb)]
    assert ghost(witt_mul(a, b)) == [x * y for x, y in zip(ga, gb)]
    assert ghost(witt_neg(a)) == [-x for x in ga]


@pytest.mark.parametrize("S", [S12, S1236])
def test_frobenius_ghost_certification_symbolic(S):
    R, a, _ = _generic_pair(S)
    for n in [m for m in S if m > 1]:
        fa = frobenius(n, a)
        T = S.quotient(n)
        lhs = ghost(fa)
        rhs = [ghost(a)[S.members.index(n * m)] for m in T]
        assert lhs == rhs


def test_universality_over_torsion_rings():
    """Computing over Z/m agrees with reducing the Z computation."""
    rng = random.Random(7)
    Zm = ZModRing(9)
    for _ in range(20):
        az = [rng.randrange(-40, 40) for _ in S1236]
        bz = [rng.randrange(-40, 40) for _ in S1236]
        a, b = zvec(S1236, *az), zvec(S1236, *bz)
        am = WittVector.from_list(S1236, Zm, [x % 9 for x in az])
        bm = WittVector.from_list(S1236, Zm, [x % 9 for x in bz])
        for op, opm in ((witt_add, witt_add), (witt_mul, witt_mul)):
            over_z = op(a, b)
            over_m = opm(am, bm)
            assert [x % 9 for x in over_z.as_list()] == over_m.as_list()


# -- the lift route against universal polynomials --------------------------

ORACLE_RINGS = [ZModRing(4), ZModRing(8), ZModRing(9), GaloisField(2, 2),
                GaloisField(3, 2)]
ORACLE_SETS = [TruncationSet(s) for s in ([1, 2], [1, 2, 4], [1, 3], [1, 2, 3, 6])]


@functools.lru_cache(maxsize=None)
def _polys(op, S, n=None):
    return universal_poly(op, S, n)


def evaluate_universal(p, assignment, ring):
    """Evaluate an integer polynomial at ring elements: an oracle for the
    operations that does not go through the ghost map.  Each ring operation
    is formed in the lift ring and reduced at once, where the ghost route
    reduces once at the end."""
    L, red = ring.lift_ring, ring.reduce
    total = ring.zero()
    for mono, c in p.items():
        if c.denominator != 1:
            raise FalsificationError("universal polynomial has a rational coefficient")
        term = red(L.from_int(int(c)))
        for name, e in mono:
            if name not in assignment:
                raise InputError(f"no assignment for {name!r}")
            term = red(L.mul(term, red(L.pow(assignment[name], e))))
        total = red(L.add(total, term))
    return total


def _by_polys(op, a, b=None, n=None):
    """op evaluated directly in a.ring from its universal polynomials."""
    env = {f"a{d}": a.comps[d] for d in a.trunc}
    if b is not None:
        env.update({f"b{d}": b.comps[d] for d in b.trunc})
    polys = _polys(op, a.trunc, n)
    S = a.trunc.quotient(n) if op == "frobenius" else a.trunc
    return WittVector(S, a.ring, {d: evaluate_universal(polys[d], env, a.ring) for d in S})


@st.composite
def _oracle_case(draw):
    ring = draw(st.sampled_from(ORACLE_RINGS))
    S = draw(st.sampled_from(ORACLE_SETS))
    els = list(ring.elements())

    def vec():
        return WittVector.from_list(S, ring, [draw(st.sampled_from(els)) for _ in S])

    return ring, S, vec(), vec(), draw(st.sampled_from(els))


@settings(max_examples=60, deadline=None)
@given(_oracle_case())
def test_lift_route_matches_universal_polynomials(case):
    ring, S, a, b, t = case
    assert witt_add(a, b) == _by_polys("sum", a, b)
    assert witt_mul(a, b) == _by_polys("product", a, b)
    assert witt_neg(a) == _by_polys("neg", a)
    for n in [m for m in S if m > 1]:
        T = S.quotient(n)
        lead = _by_polys("frobenius", a, n=n)
        assert frobenius(n, a) == lead
        # TF_n(a; t) = F_n(a) - [t^(n-1)] * restrict(a), [.] multiplicative
        twist = ring.reduce(ring.lift_ring.pow(t, n - 1))
        tw = _by_polys("product", teichmuller(twist, T, ring), a.restrict(T))
        assert twisted_frobenius(n, a, t) == _by_polys("sum", lead, _by_polys("neg", tw))


@settings(max_examples=60, deadline=None)
@given(_oracle_case(), st.integers(-6, 6), st.integers(0, 6))
def test_multiples_and_powers_match_repeated_operations(case, n, k):
    ring, S, a, _, _ = case
    zero, one = WittVector.zero(S, ring), teichmuller(ring.one(), S, ring)
    ones, copies, power = zero, zero, one
    for _ in range(abs(n)):
        ones, copies = witt_add(ones, one), witt_add(copies, a)
    for _ in range(k):
        power = witt_mul(power, a)
    sign = witt_neg if n < 0 else (lambda v: v)
    assert witt_int(n, S, ring) == sign(ones)
    assert witt_scalar(n, a) == sign(copies)
    assert witt_pow(a, k) == power


# -- ring laws over Z -------------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_ring_laws_on_random_vectors(seed):
    rng = random.Random(seed)

    def rand():
        return zvec(S1236, *(rng.randrange(-9, 9) for _ in S1236))

    a, b, c = rand(), rand(), rand()
    assert witt_add(a, b) == witt_add(b, a)
    assert witt_mul(a, b) == witt_mul(b, a)
    assert witt_add(witt_add(a, b), c) == witt_add(a, witt_add(b, c))
    assert witt_mul(witt_mul(a, b), c) == witt_mul(a, witt_mul(b, c))
    assert witt_mul(a, witt_add(b, c)) == witt_add(witt_mul(a, b), witt_mul(a, c))
    assert witt_add(a, witt_neg(a)).is_zero()
    one = witt_int(1, S1236, ZZ)
    assert witt_mul(one, a) == a


def test_integer_images_add_up():
    assert witt_int(0, S12, ZZ).is_zero()
    for m in range(-5, 6):
        for n in range(-5, 6):
            lhs = witt_add(witt_int(m, S12, ZZ), witt_int(n, S12, ZZ))
            assert lhs == witt_int(m + n, S12, ZZ)


# -- operators --------------------------------------------------------------

def test_frobenius_frozen_example():
    assert frobenius(2, zvec(S12, 0, 1)) == zvec(TruncationSet([1]), 2)


def test_frobenius_composition():
    rng = random.Random(3)
    for _ in range(10):
        a = zvec(S1236, *(rng.randrange(-9, 9) for _ in S1236))
        assert frobenius(2, frobenius(3, a)) == frobenius(6, a)
        assert frobenius(3, frobenius(2, a)) == frobenius(6, a)


def test_frobenius_is_a_ring_map_symbolically():
    R, a, b = _generic_pair(S1236)
    for n in (2, 3):
        assert frobenius(n, witt_add(a, b)) == witt_add(frobenius(n, a), frobenius(n, b))
        assert frobenius(n, witt_mul(a, b)) == witt_mul(frobenius(n, a), frobenius(n, b))


def test_frobenius_on_teichmuller():
    for r in range(-6, 7):
        for n in (2, 3, 6):
            lhs = frobenius(n, teichmuller(r, S1236, ZZ))
            rhs = teichmuller(r ** n, S1236.quotient(n), ZZ)
            assert lhs == rhs


def test_teichmuller_is_multiplicative():
    for r in range(-4, 5):
        for s in range(-4, 5):
            lhs = witt_mul(teichmuller(r, S1236, ZZ), teichmuller(s, S1236, ZZ))
            assert lhs == teichmuller(r * s, S1236, ZZ)


def test_verschiebung_shape_and_fv_identity():
    a = zvec(S12, 5, -2)
    T = TruncationSet([1, 2, 3, 6])
    va = verschiebung(3, a, T)
    assert va.as_list() == [0, 0, 5, -2]
    # F_n V_n = n . id
    assert frobenius(3, va) == witt_scalar(3, a)


def test_verschiebung_rejects_wrong_target():
    a = zvec(S12, 1, 1)
    with pytest.raises(InputError):
        verschiebung(3, a, TruncationSet([1, 3]))  # T/3 = {1} != S


def test_fv_identity_symbolic():
    R = PolynomialRing()
    S = TruncationSet([1, 2])
    a = WittVector(S, R, {d: SparsePoly.variable(f"a{d}") for d in S})
    T = TruncationSet.divisor_closure([2, 4])
    assert frobenius(2, verschiebung(2, a, T)) == witt_scalar(2, a)


# -- ghost inversion and additive divisibility ------------------------------

def test_from_ghost_round_trip():
    rng = random.Random(11)
    for _ in range(10):
        a = zvec(S1236, *(rng.randrange(-9, 9) for _ in S1236))
        assert from_ghost(ghost(a), S1236) == a


def test_from_ghost_rejects_non_image():
    with pytest.raises(InputError):
        from_ghost([0, 1], S12)  # w2 - w1^2 must be even


def test_frobenius_congruence_is_additive_not_componentwise():
    """Frozen counterexample pinning the mod-p interpretation: over
    S = {1,2,4} and a = (0,1,0), F_2(a) - a*a restricted is (2,-3),
    visibly nonzero mod 2 componentwise, yet it is an additive 2-fold
    multiple in the Witt group."""
    S = TruncationSet.p_typical(2, 3)
    a = zvec(S, 0, 1, 0)
    sq = witt_mul(a, a).restrict(S.quotient(2))
    delta = witt_sub(frobenius(2, a), sq)
    assert delta.as_list() == [2, -3]
    assert any(c % 2 for c in delta.as_list())
    assert divides_additively(2, delta)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("seed", range(5))
def test_frobenius_congruence_random(p, seed):
    rng = random.Random(100 * p + seed)
    S = TruncationSet.divisor_closure([p * p])  # |S| <= 4 either way
    a = zvec(S, *(rng.randrange(-20, 20) for _ in S))
    power = witt_pow(a, p).restrict(S.quotient(p))
    delta = witt_sub(frobenius(p, a), power)
    assert divides_additively(p, delta)


def test_divides_additively_negative_case():
    assert not divides_additively(2, teichmuller(1, S12, ZZ))


# -- twisted Frobenius ------------------------------------------------------

@pytest.mark.parametrize("ring,n", [
    (ZModRing(8), 2), (ZModRing(8), 3), (GaloisField(3, 2), 2),
])
def test_twisted_degenerations(ring, n):
    rng = random.Random(5)
    S = TruncationSet.divisor_closure([n * n])
    els = list(ring.elements())
    for _ in range(25):
        a = WittVector.from_list(S, ring, [rng.choice(els) for _ in S])
        T = S.quotient(n)
        at_one = twisted_frobenius(n, a, ring.one())
        assert at_one == witt_sub(frobenius(n, a), a.restrict(T))
        at_zero = twisted_frobenius(n, a, ring.zero())
        assert at_zero == frobenius(n, a)


def test_twisted_frobenius_is_additive():
    F9 = GaloisField(3, 2)
    S = TruncationSet.p_typical(3, 2)
    rng = random.Random(17)
    els = list(F9.elements())
    t = (1, 1)
    for _ in range(10):
        a = WittVector.from_list(S, F9, [rng.choice(els) for _ in S])
        b = WittVector.from_list(S, F9, [rng.choice(els) for _ in S])
        lhs = twisted_frobenius(3, witt_add(a, b), t)
        rhs = witt_add(twisted_frobenius(3, a, t), twisted_frobenius(3, b, t))
        assert lhs == rhs


# -- kernels ----------------------------------------------------------------

def test_kernel_twisted_t1_on_w2_f2_is_everything():
    F2 = ZModRing(2)
    S = TruncationSet.p_typical(2, 2)
    ker = kernel_enumerate(lambda a: twisted_frobenius(2, a, F2.one()), S, F2)
    assert len(ker) == 4  # F = restriction on W(F_p), so the operator dies


def test_kernel_twisted_t0_on_w2_f2_frozen():
    F2 = ZModRing(2)
    S = TruncationSet.p_typical(2, 2)
    ker = kernel_enumerate(lambda a: twisted_frobenius(2, a, F2.zero()), S, F2)
    assert [k.as_list() for k in ker] == [[0, 0], [0, 1]]


def test_kernel_twisted_t1_on_w2_f3_is_everything():
    F3 = ZModRing(3)
    S = TruncationSet.p_typical(3, 2)
    ker = kernel_enumerate(lambda a: twisted_frobenius(3, a, F3.one()), S, F3)
    assert len(ker) == 9


def test_kernel_twisted_t1_on_w2_f4_plain_vs_stable():
    """Over F_4 the single-level kernel keeps the top component free (the
    closed char-2 form of the operator is a |-> a_1^2 - a_1, one equation),
    while the stable kernel pins both components into F_2."""
    F4 = GaloisField(2, 2)
    L = F4.lift_ring
    S = TruncationSet.p_typical(2, 2)
    plain = kernel_enumerate(lambda a: twisted_frobenius(2, a, F4.one()), S, F4)
    # closed-form oracle for the single equation a1^2 = a1
    expected = [
        v.as_list() for v in all_vectors(S, F4)
        if F4.reduce(L.mul(v.comps[1], v.comps[1])) == v.comps[1]
    ]
    assert [k.as_list() for k in plain] == expected
    assert len(plain) == 8

    stable = stable_twisted_kernel(2, F4.one(), S, F4)
    in_f2 = {F4.reduce(L.from_int(0)), F4.reduce(L.from_int(1))}
    expected_stable = [
        v.as_list() for v in all_vectors(S, F4)
        if set(v.as_list()) <= in_f2
    ]
    assert [k.as_list() for k in stable] == expected_stable
    assert len(stable) == 4


def test_stable_kernel_matches_plain_when_already_stable():
    F3 = ZModRing(3)
    S = TruncationSet.p_typical(3, 2)
    stable = stable_twisted_kernel(3, F3.one(), S, F3)
    assert len(stable) == 9


def test_kernel_enumeration_bound(monkeypatch):
    F2 = ZModRing(2)
    S = TruncationSet.p_typical(2, 2)
    monkeypatch.setattr(witt, "KERNEL_LIMIT", 3)
    with pytest.raises(InputError, match="needs 4 vectors, over witt.KERNEL_LIMIT = 3"):
        kernel_enumerate(lambda a: a, S, F2)


def test_kernel_requires_finite_ring():
    with pytest.raises(InputError):
        kernel_enumerate(lambda a: a, S12, ZZ)


def test_non_additive_operator_trips_subgroup_check():
    F3 = ZModRing(3)
    S = TruncationSet.p_typical(3, 2)

    def warped(a):
        # zero iff first component is 0 or 1: not a subgroup condition
        c = a.comps[1]
        return WittVector.from_list(
            S.quotient(3), F3, [0 if c in (0, 1) else 1]
        )

    with pytest.raises(FalsificationError):
        kernel_enumerate(warped, S, F3)


KERNEL_RINGS = [ZModRing(m) for m in (2, 3, 4, 6, 8, 9)] + [
    GaloisField(2, 1), GaloisField(2, 2), GaloisField(3, 2)]
KERNEL_SETS = [(1,), (1, 2), (1, 3), (1, 2, 4), (1, 2, 3), (1, 2, 3, 6), (1, 3, 9)]
# (ring, S, n) with S/n nonempty and at most 5,000 vectors to enumerate
KERNEL_CASES = [(R, S, n) for R in KERNEL_RINGS for S in KERNEL_SETS for n in (1, 2, 3)
                if R.size() ** len(S) <= 5000 and any(n * m in S for m in S)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(KERNEL_CASES), st.data())
def test_pruned_kernel_search_matches_brute_force(case, data):
    """The pruned search returns the brute-force kernels, in the same
    order; the stable kernel is the deepened brute-force kernel projected
    to S, first occurrences kept."""
    R, S, n = case
    t = data.draw(st.sampled_from(list(R.elements())))
    T = TruncationSet(S)
    pruned = twisted_kernel(n, t, T, R)
    brute = kernel_enumerate(lambda a: twisted_frobenius(n, a, t), T, R)
    assert [str(v) for v in pruned] == [str(v) for v in brute]
    deep = TruncationSet.divisor_closure(set(S) | {n * d for d in S})
    if R.size() ** len(deep) <= 5000:
        projected = []
        for a in all_vectors(deep, R):
            if twisted_frobenius(n, a, t).is_zero():
                key = str(a.restrict(T))
                if key not in projected:
                    projected.append(key)
        assert [str(v) for v in stable_twisted_kernel(n, t, T, R)] == projected


def test_kernel_search_bound_counts_prefixes(monkeypatch):
    """W_{1,2,4}(Z/9) has 729 vectors; at n = 2, t = 1 the search visits
    9 + 81 prefixes, keeps 9 of the 81, visits their 81 extensions and
    keeps 9."""
    R, S = ZModRing(9), TruncationSet([1, 2, 4])
    monkeypatch.setattr(witt, "KERNEL_LIMIT", 171)
    assert len(twisted_kernel(2, R.one(), S, R)) == 9
    monkeypatch.setattr(witt, "KERNEL_LIMIT", 170)
    with pytest.raises(InputError,
                       match="needs at least 171 prefixes, over witt.KERNEL_LIMIT = 170"):
        twisted_kernel(2, R.one(), S, R)


def test_kernel_search_refuses_infinite_rings_and_empty_quotients():
    with pytest.raises(InputError, match="cannot enumerate"):
        twisted_kernel(2, 1, S12, ZZ)
    with pytest.raises(InputError, match="empty"):
        twisted_kernel(3, 1, S12, ZModRing(2))


@pytest.mark.parametrize("ring", [ZModRing(4), GaloisField(2, 2)], ids=str)
def test_subgroup_check_rejects_non_subgroups(ring):
    S = TruncationSet([1, 2])
    witt._check_subgroup(list(all_vectors(S, ring)), S, ring)
    zero, one = WittVector.zero(S, ring), teichmuller(ring.one(), S, ring)
    with pytest.raises(FalsificationError, match="zero"):
        witt._check_subgroup([one], S, ring)
    # [1] + [1] is (2, 3) over Z/4 and (0, 1) over F_4, missing from the list
    with pytest.raises(FalsificationError, match="closed"):
        witt._check_subgroup([zero, one], S, ring)


# Every F_q with q <= 9, on S_k = {1, p, ..., p^(k-1)}; the stable search
# runs on S_(k+1), which has q^(k+1) vectors: 6,561 over F_9 at k = 3 and
# 32,768 over F_8 at k = 4.  Then Z/p^e, as (ring, p, e, k) with k from 2,
# where S/p is not empty and the plain kernel is searched too.
CLOSED_FORM_CASES = [(GaloisField(p, r), p, 1, k)
                     for p, r in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1))
                     for k in (1, 2, 3)] + [(GaloisField(2, 3), 2, 1, 4)] + [
    (ZModRing(p ** e), p, e, k)
    for p, e, top in ((2, 2, 4), (2, 3, 3), (3, 2, 3), (2, 4, 3), (5, 2, 2), (3, 3, 2))
    for k in range(2, top + 1)]


@pytest.mark.parametrize("ring,p,e,k", CLOSED_FORM_CASES,
                         ids=[f"{R}-k{k}" for R, _, _, k in CLOSED_FORM_CASES])
def test_stable_kernel_is_the_closed_form(ring, p, e, k):
    """The Hilbert additive group at finite level.  Over F_q, for t != 0,
    the stable kernel of F_p - [t]^(p-1) on W_{S_k}(F_q) is
    {[t] * a : a in Z/p^k}, since F([t] b) = [t^p] F(b) and F fixes
    exactly W(F_p).  Over Z/p^e, at the units t = 1, 1 + p and -1, it is
    {[t] * a : 0 <= a < p^(e+k-1)}, and the plain kernel is the same set."""
    S = TruncationSet.p_typical(p, k)
    if isinstance(ring, GaloisField):
        units = [t for t in ring.elements() if not ring.is_zero(t)]
    else:
        units = sorted({1, 1 + p, ring.m - 1})
    ints = [witt_int(a, S, ring) for a in range(p ** (e + k - 1))]
    for t in units:
        kernel = [str(v) for v in stable_twisted_kernel(p, t, S, ring)]
        tt = teichmuller(t, S, ring)
        assert len(kernel) == len(set(kernel)) == p ** (e + k - 1)
        assert set(kernel) == {str(witt_mul(tt, a)) for a in ints}
        if isinstance(ring, ZModRing):
            assert {str(v) for v in twisted_kernel(p, t, S, ring)} == set(kernel)


# (p, e, largest k) for Z/p^e on S_k = {1, p, ..., p^(k-1)}, k from 2; the
# stable search runs on S_(k+1), 65,536 vectors for Z/4 at k = 7 and about
# 1.7 * 10^7 for Z/16 at k = 5.
DIVIDED_POWER_CASES = [(p, e, k) for p, e, top in ((2, 2, 7), (2, 3, 6), (3, 2, 4), (2, 4, 5),
                                                    (3, 3, 3), (5, 2, 3), (2, 5, 4), (7, 2, 2),
                                                    (5, 3, 2))
                       for k in range(2, top + 1)]


@pytest.mark.parametrize("p,e,k", DIVIDED_POWER_CASES,
                         ids=[f"Z/{p ** e}-k{k}" for p, e, k in DIVIDED_POWER_CASES])
def test_t0_kernel_is_the_divided_power_group(p, e, k):
    """At t = 0 the twisted kernel is ker F, which over Z/p^e is the
    divided-power group G_a^#: both kernels have as many members as the
    oracle has points, and the same count of elements of each order, which
    fixes a finite abelian group up to isomorphism."""
    R, S = ZModRing(p ** e), TruncationSet.p_typical(p, k)
    points = divided_power_points(p, e, k)
    profile = point_order_profile(points, p ** e)
    for kernel in (twisted_kernel(p, 0, S, R), stable_twisted_kernel(p, 0, S, R)):
        assert len(kernel) == len(points)
        assert order_profile(kernel, witt_add, WittVector.is_zero) == profile


def test_subgroup_check_forms_ghosts_once_per_member(monkeypatch):
    """All of W_{1,2,3}(Z/9), 729 members: ghosts are formed only for the
    members added to the span as generators, each once and at most
    log2|K| of them, and the span grows to K in at most 2|K| de-ghosted
    sums (|K| - 1 plus one per generator)."""
    R, S = ZModRing(9), TruncationSet([1, 2, 3])
    members = list(all_vectors(S, R))
    formed, deghosted = [], []
    lifted, from_lifted = witt._lifted_ghosts, witt._from_lifted_ghosts

    def counting_lifted(*vectors):
        formed.extend(str(a) for a in vectors)
        return lifted(*vectors)

    def counting_from_lifted(*args):
        deghosted.append(args)
        return from_lifted(*args)

    monkeypatch.setattr(witt, "_lifted_ghosts", counting_lifted)
    monkeypatch.setattr(witt, "_from_lifted_ghosts", counting_from_lifted)
    witt._check_subgroup(members, S, R)
    assert len(members) == 729
    assert len(formed) == len(set(formed)) <= 9
    assert set(formed) <= {str(v) for v in members}
    assert 729 - 1 < len(deghosted) <= 729 - 1 + 9 < 2 * 729


def test_subgroup_check_refuses_728_members_of_729():
    """W_{1,2,3}(Z/9) without its last vector contains zero but is not a
    subgroup; a check sampling its first 625 pairs, all (0, v_j), passed it."""
    R, S = ZModRing(9), TruncationSet([1, 2, 3])
    members = list(all_vectors(S, R))[:-1]
    with pytest.raises(FalsificationError, match="closed"):
        witt._check_subgroup(members, S, R)


SUBGROUP_CASES = [(TruncationSet([1, 2]), ZModRing(4)), (TruncationSet([1, 2]), GaloisField(2, 2)),
                  (TruncationSet([1, 3]), ZModRing(3)), (TruncationSet([1, 2, 4]), ZModRing(2))]


def _witt_span(generators, S, R):
    """The subgroup the generators span, closed under witt_add by brute force."""
    span = {str(v): v for v in [WittVector.zero(S, R), *generators]}
    while True:
        sums = {str(s): s for a in span.values() for b in span.values()
                if str(s := witt_add(a, b)) not in span}
        if not sums:
            return list(span.values())
        span.update(sums)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from(SUBGROUP_CASES), st.data())
def test_subgroup_check_is_exact(case, data):
    """Independent oracle: on small sets containing zero (random subsets,
    spans of one or two members, and such spans with one member dropped),
    _check_subgroup raises exactly when some pair's witt_add is missing."""
    S, R = case
    vectors = list(all_vectors(S, R))
    zero = WittVector.zero(S, R)
    kind = data.draw(st.sampled_from(["subset", "span", "span minus one"]))
    nonzero = st.sampled_from(vectors[1:])
    if kind == "subset":
        chosen = [zero, *data.draw(st.lists(nonzero, max_size=6))]
    else:
        chosen = _witt_span(data.draw(st.lists(nonzero, min_size=1, max_size=2)), S, R)
        if kind == "span minus one":  # a nonzero generator spans two members or more
            chosen.pop(data.draw(st.integers(1, len(chosen) - 1)))
    chosen = list({str(v): v for v in data.draw(st.permutations(chosen))}.values())
    keys = {str(v) for v in chosen}
    closed = all(str(witt_add(a, b)) in keys for a in chosen for b in chosen)
    if closed:
        witt._check_subgroup(chosen, S, R)
    else:
        with pytest.raises(FalsificationError, match="closed"):
            witt._check_subgroup(chosen, S, R)


# -- serialization ----------------------------------------------------------

def test_witt_json_round_trip():
    a = WittVector.from_list(S1236, ZModRing(9), [4, 0, 7, 2])
    obj = json.loads(a.to_json())
    assert obj == {"trunc": [1, 2, 3, 6], "ring": {"kind": "Zmod", "m": 9},
                   "coeffs": {"1": "4", "2": "0", "3": "7", "6": "2"}}
    assert a.to_json() == json.dumps(obj, sort_keys=True, separators=(",", ":"))
    back = WittVector.from_list(TruncationSet(obj["trunc"]), ZModRing(obj["ring"]["m"]),
                                [int(obj["coeffs"][str(d)]) for d in obj["trunc"]])
    assert back == a


def test_component_mismatch_rejected():
    with pytest.raises(InputError):
        WittVector(S12, ZZ, {1: 1})
    with pytest.raises(InputError):
        WittVector(S12, ZZ, {1: 1, 2: 0, 3: 5})
    # the right number of components, one under a key outside the set
    with pytest.raises(InputError, match=r"missing \[2\], extra \[3\]"):
        WittVector(S12, ZZ, {1: 1, 3: 5})
    with pytest.raises(InputError, match=r"missing \[1\], extra \[4\]"):
        WittVector(S1236, ZZ, {2: 0, 3: 5, 4: 1, 6: 2})


# -- the ghost size limit ----------------------------------------------------


def test_ghost_bits_limit_is_exact_and_spares_reducing_rings():
    from hopfwitt import witt

    S = TruncationSet([1, 2, 4, 8])
    bits = witt.GHOST_BITS_LIMIT // 8
    at_limit = zvec(S, 2 ** bits - 1, 0, 0, 0)
    assert ghost(at_limit)[-1] == (2 ** bits - 1) ** 8
    with pytest.raises(InputError, match="GHOST_BITS_LIMIT"):
        ghost(zvec(S, 2 ** bits, 0, 0, 0))
    with pytest.raises(InputError, match="GHOST_BITS_LIMIT"):
        twisted_frobenius(2, zvec(S, 1, 0, 0, 0), 2 ** bits)
    poly = WittVector.from_list(S, PolynomialRing(),
                                [SparsePoly.constant(2 ** bits), SparsePoly(), SparsePoly(),
                                 SparsePoly()])
    with pytest.raises(InputError, match="GHOST_BITS_LIMIT"):
        witt_add(poly, poly)
    # Z/m prints reduced values, so its lifts may be as large as m allows
    R = ZModRing(2 ** (bits + 1))
    v = WittVector.from_list(S, R, [2 ** bits + 1, 0, 0, 0])
    assert witt_mul(v, v).ring == R


def test_lift_bits_limit_counts_member_sum_times_element_bits(monkeypatch):
    """Over Z/m and F_q the lifted ghosts together hold about (bits of the
    largest element index) x (member sum) bits; past LIFT_BITS_LIMIT the
    operation is refused before any ghost is formed."""
    R, S = ZModRing(8), TruncationSet([1, 2])  # 3 bits x 3
    v = WittVector.from_list(S, R, [5, 3])
    monkeypatch.setattr(witt, "LIFT_BITS_LIMIT", 9)
    witt_mul(v, v)  # at the limit: answers
    monkeypatch.setattr(witt, "LIFT_BITS_LIMIT", 8)
    with pytest.raises(InputError, match="needs 9 bits, over witt.LIFT_BITS_LIMIT = 8"):
        witt_mul(v, v)
    F = GaloisField(3, 2)  # index 8, 4 bits
    with pytest.raises(InputError, match="needs 12 bits, over witt.LIFT_BITS_LIMIT = 8"):
        ghost(WittVector.from_list(S, F, [F.one(), F.zero()]))
