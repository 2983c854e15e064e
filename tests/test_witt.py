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
import time
from collections import Counter
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from hopfwitt import cli, intz, witt
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

from divided_power_oracle import (divided_power_points, fibre_points, order_profile,
                                  point_order_profile, vandermonde)
from universal_vector_oracle import X, IntZRing, IntZTensorRing
from witt_lattice_oracle import kernel_type, type_order_profile
from witt_lift_oracle import LiftOracle

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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 400), min_size=1, max_size=4))
def test_proper_divisors_are_kept(seeds):
    """On the divisor closure of random seeds, the index gives each member
    its position, and the plan holds, for each position i > 0, i, its
    member n and one (position of d, d, n/d) per divisor 1 < d < n, as
    divisors defines them."""
    S = TruncationSet.divisor_closure(seeds)
    members = sorted({d for n in seeds for d in divisors(n)})
    assert S.members == tuple(members)
    assert S.index == {n: i for i, n in enumerate(members)}
    assert S.plan == tuple((i, n, tuple((members.index(d), d, n // d) for d in divisors(n)[1:-1]))
                           for i, n in enumerate(members[1:], 1))


@pytest.mark.parametrize("ring", [ZModRing(8), GaloisField(3, 2)], ids=str)
def test_one_large_member_answers(ring):
    """{1, 9973} passes the sum limit; the product is the ghost product."""
    S = TruncationSet([1, 9973])
    els = list(ring.elements())
    a, b = (WittVector.from_list(S, ring, [els[i], els[j]]) for i, j in ((2, 5), (7, 3)))
    assert ghost(witt_mul(a, b)) == [ring.reduce(ring.lift_ring.mul(x, y))
                                     for x, y in zip(ghost(a), ghost(b))]


def test_one_large_member_answers_over_z_with_unit_components():
    """Over Z, 0 and +-1 keep their size under any power, so on {1, 9973}
    vectors of them answer every operation with printable values, where
    the component cap refused any nonzero one past max S = 6000; a
    component of 2 (2 bits x 9973) is still refused."""
    S = TruncationSet([1, 9973])
    vectors = [zvec(S, x, y) for x in (0, 1, -1) for y in (0, 1, -1)]
    for a in vectors:
        results = [witt_neg(a)] + [twisted_frobenius(n, a, t) for n in S for t in (0, 1, -1)]
        results += [f(a, b) for b in vectors for f in (witt_add, witt_sub, witt_mul)]
        assert all(str(r) for r in results)
    assert witt_add(zvec(S, 1, 0), zvec(S, 0, 0)) == zvec(S, 1, 0)
    assert witt_mul(zvec(S, 1, 1), zvec(S, 1, 1)) == from_ghost([1, 9974 ** 2], S)
    for route in (lambda: witt_add(zvec(S, 2, 0), zvec(S, 0, 0)),
                  lambda: twisted_frobenius(9973, zvec(S, 1, 0), 2)):
        with pytest.raises(InputError, match="a 2-bit component to the power 9973 needs "
                                             "19946 bits, over witt.GHOST_BITS_LIMIT"):
            route()


def test_term_limit_counts_one_operation():
    """One Z[..] ring serves any number of products, each counted afresh
    against TERM_LIMIT (a single product past the limit is refused, see
    TestBoundOverflow in test_cli.py).  The products of one Witt product
    here form 186 terms: the ghost route multiplies by no constant 1, so
    neither w_1 = x_1 nor the term x_1^n of w_n costs a product."""
    R = PolynomialRing()
    S = TruncationSet([1, 2, 4, 8])
    a = WittVector.from_list(S, R, [SparsePoly.parse(p) for p in ("x", "y", "0", "0")])
    b = WittVector.from_list(S, R, [SparsePoly.parse(p) for p in ("1", "x", "0", "0")])
    first = witt_mul(a, b)
    assert R.terms == 186
    for _ in range(999):
        assert witt_mul(a, b) == first
        assert R.terms == 186


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


# The deeper divisor closures, where ghost components take powers up to 27
# and every index has several proper divisors; the universal polynomials
# stop at {1, 2, 3, 6}.  The 24-set costs seconds per product over F_q, so
# it runs over the other rings only.  F_2, F_4 and F_8 lift to Z[w]/(f) of
# degrees 1, 2 and 3, which form their products in three different ways.
LIFT_RINGS = [ZZ, ZModRing(8), ZModRing(9), GaloisField(2, 1), GaloisField(2, 2),
              GaloisField(2, 3), GaloisField(3, 2)]
LIFT_SETS = [TruncationSet.divisor_closure([s]) for s in (12, 16, 27, 24)]


@st.composite
def _lift_case(draw):
    ring = draw(st.sampled_from(LIFT_RINGS))
    S = draw(st.sampled_from(LIFT_SETS[:3] if isinstance(ring, GaloisField) else LIFT_SETS))
    els = st.integers(-99, 99) if ring is ZZ else st.sampled_from(list(ring.elements()))
    a, b = ([draw(els) for _ in S] for _ in range(2))
    return ring, S, a, b, draw(els), draw(st.sampled_from(S.members[1:]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_lift_case())
def test_lift_route_matches_the_integer_lift_oracle(case):
    """Every operation, recomputed on lifts to Z[y] with other
    representatives and no reduction mod f until the end."""
    ring, S, a, b, t, n = case
    oracle, members = LiftOracle(ring), S.members
    va, vb = WittVector.from_list(S, ring, a), WittVector.from_list(S, ring, b)
    assert witt_add(va, vb).as_list() == oracle.add(members, a, b)
    assert witt_mul(va, vb).as_list() == oracle.mul(members, a, b)
    assert witt_sub(va, vb).as_list() == oracle.sub(members, a, b)
    assert ghost(va) == oracle.ghost(members, a)
    for op, want in ((frobenius(n, va), oracle.frobenius(n, members, a)),
                     (twisted_frobenius(n, va, t), oracle.twisted_frobenius(n, members, a, t))):
        assert (op.trunc.members, op.as_list()) == want


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


@pytest.mark.parametrize("ring", [ZZ, ZModRing(8), GaloisField(2, 2), PolynomialRing()], ids=str)
def test_is_zero_sees_every_component(ring):
    """Over Z, Z/8, F_4 (whose zero is a tuple) and Z[..], a vector with
    one nonzero component, in each position in turn, is not zero."""
    zero = ring.zero()
    assert WittVector.from_list(S1236, ring, [zero] * len(S1236)).is_zero()
    for i in range(len(S1236)):
        comps = [zero] * len(S1236)
        comps[i] = ring.one()
        assert not WittVector.from_list(S1236, ring, comps).is_zero()


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


# -- the universal Frobenius-fixed vector over Int(Z) ------------------------

UNIVERSAL_SET = TruncationSet(range(1, 21))


@functools.lru_cache(maxsize=None)
def _universal_vector(S: TruncationSet = UNIVERSAL_SET) -> dict:
    """The components of the vector over Int(Z) on S whose ghosts are all x."""
    return dict(zip(S.members, witt._solve(IntZRing(), S, [X] * len(S))))


def test_universal_fixed_vector_lives_over_intz():
    """Its n-th component is an integer-valued polynomial of degree n,
    whose value at k is the n-th component of the integer vector with
    ghosts (k, k, ...); over Z[x] the same ghosts are refused at index 2,
    where (x - x^2)/2 is not in Z[x]."""
    S, u = UNIVERSAL_SET, _universal_vector()
    assert [intz.filtration_degree(u[n]) for n in S] == list(S)
    for k in range(-5, 8):
        assert [intz.eval_at(u[n], k) for n in S] == from_ghost([k] * len(S), S).as_list()
    x = SparsePoly.variable("x")
    with pytest.raises(FalsificationError, match="not integral at index 2$"):
        witt._solve(PolynomialRing(), S, [x] * len(S))


def test_universal_fixed_vector_is_fixed_and_hopf():
    """Every F_n fixes it, checked on ghost components since witt.frobenius
    refuses a ring it has no size bound for: its ghosts are x at every
    index, so ghost m of F_n(u) is x and F_n(u) is u on S/n.  The ring maps x -> -x and
    x -> x (x) 1 + 1 (x) x send it to the vectors with those ghosts: the
    antipode and the coproduct of Int(Z) act on it component by component."""
    S, u, L = UNIVERSAL_SET, _universal_vector(), IntZRing()
    ghosts = dict(zip(S.members, witt._ghost_map(L, S, list(u.values()))))
    assert all(w == X for w in ghosts.values())
    for n in S.members[1:]:
        T = S.quotient(n)
        assert witt._solve(L, T, [ghosts[n * m] for m in T]) == [u[m] for m in T]
    assert witt._solve(L, S, [-X] * len(S)) == [intz.antipode(un) for un in u.values()]
    T = TruncationSet(range(1, 11))
    assert witt._solve(IntZTensorRing(), T, [intz.comult(X)] * len(T)) == [
        intz.comult(u[n]) for n in T]


@pytest.mark.parametrize("ring", [IntZRing(), GaloisField(2, 2).lift_ring],
                         ids=["Int(Z)", "lift of F_4"])
def test_operations_refuse_rings_without_a_ghost_bound(ring):
    """Only Z and Z[..] among the rings that are their own lift have a
    bound on the ghost components; a vector over any other is refused by
    name, not failed on comparing its elements with integers."""
    S = TruncationSet([1, 2])
    one = ring.one()
    a = WittVector.from_list(S, ring, [one, one])
    name = type(ring).__name__
    for op in (lambda: frobenius(2, a), lambda: witt_add(a, a), lambda: ghost(a)):
        with pytest.raises(InputError, match=f"no Witt vectors over the ring {name}: "):
            op()


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


KERNEL_RINGS = [ZModRing(m) for m in (2, 3, 4, 6, 8, 9, 12)] + [
    GaloisField(2, 1), GaloisField(2, 2), GaloisField(3, 2)]
KERNEL_SETS = [(1,), (1, 2), (1, 3), (1, 2, 4), (1, 2, 3), (1, 2, 3, 6), (1, 3, 9)]
# (ring, S, n) with S/n nonempty and at most 5,000 vectors to enumerate
KERNEL_CASES = [(R, S, n) for R in KERNEL_RINGS for S in KERNEL_SETS for n in (1, 2, 3, 4, 6)
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
    """W_{1,2,4}(Z/9) has 729 vectors; at n = 2, t = 1 the search extends
    the empty prefix 9 times, then looks up the congruence 2r = -q(0) of
    each of the 9 prefixes at a_2 and extends each by its one solution (2
    is a unit mod 9), and the same at a_4: 9 + 18 + 18 = 45 units, where
    trying every residue at a_2 and a_4 cost 171."""
    R, S = ZModRing(9), TruncationSet([1, 2, 4])
    monkeypatch.setattr(witt, "KERNEL_LIMIT", 45)
    assert len(twisted_kernel(2, R.one(), S, R)) == 9
    monkeypatch.setattr(witt, "KERNEL_LIMIT", 44)
    with pytest.raises(InputError,
                       match="needs at least 45 units of work, over witt.KERNEL_LIMIT = 44"):
        twisted_kernel(2, R.one(), S, R)


def test_kernel_search_bound_counts_a_congruence_lookup(monkeypatch):
    """W_{1,2,4}(Z/2) at n = 4: the search goes depth first, so it extends
    the empty prefix and then that prefix by one residue each, and the
    third unit is the congruence lookup at a_4, the only position n divides."""
    R = ZModRing(2)
    monkeypatch.setattr(witt, "KERNEL_LIMIT", 2)
    with pytest.raises(InputError,
                       match="needs at least 3 units of work, over witt.KERNEL_LIMIT = 2"):
        twisted_kernel(4, R.one(), TruncationSet([1, 2, 4]), R)


def test_stable_search_stops_at_the_first_lift(monkeypatch):
    """W_{1,2,4}(Z/8) at n = 2, t = 1 deepens to {1,2,4,8}.  The search
    extends the empty prefix 8 times; at a_2 and a_4 each prefix looks up
    its congruence 2r = -q(0) mod 8, with two solutions, so 8 lookups
    keep 16 and 16 keep 32; then each of the 32 looks up a_8 and takes
    only its first completion: 8 + 24 + 48 + 64 = 144 units, where trying
    every residue cost 280."""
    R, S = ZModRing(8), TruncationSet([1, 2, 4])
    monkeypatch.setattr(witt, "KERNEL_LIMIT", 144)
    assert len(stable_twisted_kernel(2, R.one(), S, R)) == 32
    monkeypatch.setattr(witt, "KERNEL_LIMIT", 143)
    with pytest.raises(InputError,
                       match="needs at least 144 units of work, over witt.KERNEL_LIMIT = 143"):
        stable_twisted_kernel(2, R.one(), S, R)


# (branch, ring, S, n): at a position n*m the search solves q(0) + c*r = 0
# in R, c = n for n > 1 and 0 for n = 1, whose solutions when there are any
# number the residues r with c*r = 0: one, several, or all of R.
CONGRUENCE_BRANCHES = [
    ("none", ZModRing(4), (1, 2), 2),  # at t = 0, q(0) = a_1^2: odd for odd a_1
    ("none", GaloisField(2, 1), (1, 2), 2),
    ("one", ZModRing(9), (1, 2), 2),
    ("one", ZModRing(4), (1, 3), 3),
    ("one", GaloisField(3, 2), (1, 2), 2),
    ("several", ZModRing(8), (1, 2), 2),
    ("several", ZModRing(12), (1, 2), 2),
    ("several", ZModRing(12), (1, 3), 3),
    ("every", GaloisField(2, 2), (1, 2), 2),
    ("every", GaloisField(3, 2), (1, 3), 3),
    ("every", ZModRing(8), (1, 2), 1),
    ("every", ZModRing(6), (1, 2, 3), 1),
]


@pytest.mark.parametrize("branch,R,S,n", CONGRUENCE_BRANCHES,
                         ids=[f"{b}-{R}-{S}-n{n}" for b, R, S, n in CONGRUENCE_BRANCHES])
def test_kernel_search_covers_every_branch_of_the_congruence(branch, R, S, n):
    """For every t, both kernels equal kernel_enumerate's, in order: the
    plain one on S, the stable one on the deepened set projected to S,
    first occurrences kept.  Each case takes the branch it is named for."""
    T = TruncationSet(S)
    deep = TruncationSet.divisor_closure(set(S) | {n * d for d in S})
    for t in R.elements():
        plain = kernel_enumerate(lambda a: twisted_frobenius(n, a, t), T, R)
        assert [str(v) for v in twisted_kernel(n, t, T, R)] == [str(v) for v in plain]
        full = kernel_enumerate(lambda a: twisted_frobenius(n, a, t), deep, R)
        projected = dict.fromkeys(str(a.restrict(T)) for a in full)
        assert [str(v) for v in stable_twisted_kernel(n, t, T, R)] == list(projected)
    if branch == "none":  # at t = 0 some a_1 has no completion
        assert len({v.comps[1] for v in twisted_kernel(n, R.zero(), T, R)}) < R.size()
    else:  # a solvable congruence has as many solutions as c*r = 0
        c = n if n > 1 else 0
        roots = sum(R.reduce(R.lift_ring.scale(c, r)) == R.zero() for r in R.elements())
        assert {1: "one", R.size(): "every"}.get(roots, "several") == branch


@pytest.mark.parametrize("ring", [ZModRing(2), GaloisField(2, 2)], ids=str)
def test_stable_kernel_with_a_deeper_member_before_the_last_kept(ring):
    """S = {1,2,3,6} at n = 2 deepens to {1,2,3,4,6,12}, where 4, outside
    S, comes before 6: the stable kernel is still the deepened
    brute-force kernel projected to S, first occurrences kept."""
    S = TruncationSet([1, 2, 3, 6])
    deep = TruncationSet([1, 2, 3, 4, 6, 12])
    assert TruncationSet.divisor_closure(set(S) | {2 * d for d in S}) == deep
    for t in ring.elements():
        full = kernel_enumerate(lambda a: twisted_frobenius(2, a, t), deep, ring)
        projected = list(dict.fromkeys(str(a.restrict(S)) for a in full))
        assert [str(v) for v in stable_twisted_kernel(2, t, S, ring)] == projected


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
        units = [t for t in ring.elements() if t != ring.zero()]
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


# (p, e, k, t) for Z/p^e from Z/4 to Z/27, k = 2 and 3, and every distinct
# t in {0, 1, p, p^2, 1 + p} mod p^e; then deeper k over Z/4, Z/8 and Z/16.
FIBRE_CASES = [(p, e, k, t)
               for p, e, top in ((2, 2, 5), (2, 3, 4), (3, 2, 3), (2, 4, 4), (5, 2, 3), (3, 3, 3))
               for k in range(2, min(top, 3) + 1 if p ** e > 16 else top + 1)
               for t in sorted({x % p ** e for x in (0, 1, p, p * p, 1 + p)})]
# Order profiles form up to 27 Witt sums per member; larger kernels are counted only.
PROFILE_LIMIT = 81


@pytest.mark.parametrize("p,e,k,t", FIBRE_CASES,
                         ids=[f"Z/{p ** e}-k{k}-t{t}" for p, e, k, t in FIBRE_CASES])
def test_stable_kernel_is_the_rees_fibre(p, e, k, t):
    """For e >= 2, at every t the stable kernel of F_p - [t]^(p-1) on
    W_{S_k}(Z/p^e) has as many members as the t-fibre of the Rees algebra
    has points, and, where the profile is formed, the same count of
    elements of each order:
    p^(e+k-1) at a unit t, where the fibre is H = Spec Int(Z), and
    p^(e+k-2) at a non-unit t, as at t = 0."""
    R, S = ZModRing(p ** e), TruncationSet.p_typical(p, k)
    points = fibre_points(p, e, k, t)
    kernel = stable_twisted_kernel(p, t, S, R)
    assert len(kernel) == len(points) == p ** (e + k - (1 if t % p else 2))
    if len(kernel) <= PROFILE_LIMIT:
        assert (order_profile(kernel, witt_add, WittVector.is_zero)
                == point_order_profile(points, p ** e))


def _vandermonde_span(generators, q, unit):
    """The points the generators reach from unit under the Vandermonde law."""
    span, frontier = {unit}, [unit]
    while frontier:
        frontier = list({vandermonde(a, g, q) for a in frontier for g in generators} - span)
        span.update(frontier)
    return span


@pytest.mark.parametrize("p,e,k,t", FIBRE_CASES,
                         ids=[f"Z/{p ** e}-k{k}-t{t}" for p, e, k, t in FIBRE_CASES])
def test_fibre_maps_onto_the_stable_kernel(p, e, k, t):
    """With c_nj the coefficient of C(x,j) in component n of the universal
    Frobenius-fixed vector on S_k, a -> (sum_j c_nj t^(n-j) a_j mod p^e)_n
    is a bijection from the t-fibre onto the stable kernel.  Where the
    kernel has at most PROFILE_LIMIT members it takes the Vandermonde law
    to witt_add: checked for every point against each member of a set of
    points that generates the fibre, which makes it a homomorphism."""
    q, R, S = p ** e, ZModRing(p ** e), TruncationSet.p_typical(p, k)
    coeffs = [(n, list(u.items())) for n, u in _universal_vector(S).items()]

    def image(a):
        return WittVector.from_list(S, R, [sum(c * t ** (n - j) * a[j] for j, c in cs) % q
                                           for n, cs in coeffs])

    points = fibre_points(p, e, k, t)
    images = {a: image(a) for a in points}
    assert len(set(images.values())) == len(points)
    assert set(images.values()) == set(stable_twisted_kernel(p, t, S, R))
    if len(points) > PROFILE_LIMIT:
        return
    unit = (1,) + (0,) * (len(points[0]) - 1)
    span, generators = {unit}, []
    for a in points:
        if a not in span:
            generators.append(a)
            span = _vandermonde_span(generators, q, unit)
    assert span == set(points)
    for a in points:
        for g in generators:
            assert images[vandermonde(a, g, q)] == witt_add(images[a], images[g])


# Kernels of at most this many members have their element orders compared.
LATTICE_PROFILE_LIMIT = 5000


def _lattice_ring(R, t):
    """(f, c, lift of t) for the lattice oracle: Z/m is Z/(m) and F_q is
    Z[w]/(f) modulo p."""
    if isinstance(R, ZModRing):
        return (0, 1), R.m, (t,)
    return R.modulus, R.p, t


def _witt_order_profile(kernel) -> dict[int, int]:
    """{order: how many members have it}, by witt_scalar alone: for each
    prime power p^a exactly dividing |K|, the p-part of the order of x is p
    to the number of times p must multiply (|K| / p^a) * x to reach zero."""
    size, rest, parts, p = len(kernel), len(kernel), [], 2
    while rest > 1:
        q = 1
        while rest % p == 0:
            rest, q = rest // p, q * p
        if q > 1:
            parts.append((p, q))
        p += 1
    orders: Counter = Counter()
    for x in kernel:
        order = 1
        for p, q in parts:
            y = witt_scalar(size // q, x)
            while not y.is_zero():
                y, order = witt_scalar(p, y), order * p
        orders[order] += 1
    return dict(orders)


def _match_ghost_lattices(S, R, n, t) -> list[int]:
    """The plain and the stable kernel of TF_n(-; t) on W_S(R) against the
    lattice oracle: the order always, and the count of members of each
    order up to LATTICE_PROFILE_LIMIT members.  Returns the stable type."""
    f, c, lift = _lattice_ring(R, t)
    for stable, search in ((False, twisted_kernel), (True, stable_twisted_kernel)):
        kernel = search(n, t, TruncationSet(S), R)
        factors = kernel_type(list(S), f, c, n, lift, stable)
        assert len(kernel) == prod(factors)
        if len(kernel) <= LATTICE_PROFILE_LIMIT:
            assert _witt_order_profile(kernel) == type_order_profile(factors)
    return factors


@pytest.mark.parametrize("p,e,k,t", FIBRE_CASES,
                         ids=[f"Z/{p ** e}-k{k}-t{t}" for p, e, k, t in FIBRE_CASES])
def test_fibre_kernels_match_the_ghost_lattices(p, e, k, t):
    """On S_k over Z/p^e, e >= 2, the stable kernel is cyclic of order
    p^(e+k-1) at a unit t, and Z/p^(e-1) + (Z/p)^(k-1) at a non-unit t."""
    factors = _match_ghost_lattices(TruncationSet.p_typical(p, k).members, ZModRing(p ** e), p, t)
    assert factors == ([p ** (e + k - 1)] if t % p else [p] * (k - 1) + [p ** (e - 1)])


LATTICE_RINGS = [ZModRing(m) for m in (2, 3, 4, 5, 6, 8, 9, 12)] + [
    GaloisField(p, r) for p, r in ((2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2))]
LATTICE_SETS = [(1, 2), (1, 3), (1, 2, 4), (1, 2, 3), (1, 2, 3, 6), (1, 3, 9), (1, 2, 4, 8)]
# (ring, S, n) with S/n nonempty and at most 5,000 vectors on S
LATTICE_CASES = [(R, S, n) for R in LATTICE_RINGS for S in LATTICE_SETS for n in (2, 3)
                 if n in S and R.size() ** len(S) <= LATTICE_PROFILE_LIMIT]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(LATTICE_CASES), st.data())
def test_kernels_match_the_ghost_lattices(case, data):
    R, S, n = case
    _match_ghost_lattices(S, R, n, data.draw(st.sampled_from(list(R.elements()))))


E1_CASES = [(p, k, t) for p in (2, 3) for k in (2, 3) for t in (0, 1)]


@pytest.mark.parametrize("p,k,t", E1_CASES, ids=[f"Z/{p}-k{k}-t{t}" for p, k, t in E1_CASES])
def test_stable_kernel_over_z_mod_p(p, k, t):
    """e = 1 lies outside the fibre count.  Over Z/p the stable kernel has
    p^k members at t = 1, as the fibre has points, but at t = 0 it is the
    zero vector alone, while the fibre has p points."""
    kernel = stable_twisted_kernel(p, t, TruncationSet.p_typical(p, k), ZModRing(p))
    assert len(kernel) == (p ** k if t else 1)
    assert len(fibre_points(p, 1, k, t)) == (p ** k if t else p)


def test_subgroup_check_forms_ghosts_once_per_member(monkeypatch):
    """All of W_{1,2,3}(Z/9), 729 members: ghosts are formed only for the
    members added to the span as generators, each once and at most
    log2|K| of them, and the span grows to K in at most 2|K| de-ghosted
    sums (|K| - 1 plus one per generator)."""
    R, S = ZModRing(9), TruncationSet([1, 2, 3])
    members = list(all_vectors(S, R))
    formed, deghosted = [], []
    ghost_map, solve = witt._ghost_map, witt._solve

    def counting_ghost_map(L, trunc, comps):
        formed.append(str(WittVector.from_list(trunc, R, comps)))
        return ghost_map(L, trunc, comps)

    def counting_solve(*args):
        deghosted.append(args)
        return solve(*args)

    monkeypatch.setattr(witt, "_ghost_map", counting_ghost_map)
    monkeypatch.setattr(witt, "_solve", counting_solve)
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
    text = cli._json_line(a.to_json_obj())
    obj = json.loads(text)
    assert obj == {"trunc": [1, 2, 3, 6], "ring": {"kind": "Zmod", "m": 9},
                   "coeffs": {"1": "4", "2": "0", "3": "7", "6": "2"}}
    assert text == json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    back = WittVector.from_list(TruncationSet(obj["trunc"]), ZModRing(obj["ring"]["m"]),
                                [int(obj["coeffs"][str(d)]) for d in obj["trunc"]])
    assert back == a


@pytest.mark.parametrize("call,err", [
    (lambda: witt_add(zvec(S12, 1, 2), zvec(TruncationSet([1]), 1)), "truncation sets differ"),
    (lambda: witt_add(zvec(S12, 1, 2), WittVector.from_list(S12, ZModRing(4), [1, 2])),
     "coefficient rings differ"),
    (lambda: TruncationSet([0, 1]), "truncation set members must be positive"),
    (lambda: frobenius(0, zvec(S12, 1, 2)), "Frobenius index must be positive"),
    (lambda: verschiebung(0, zvec(S12, 1, 2), S12), "Verschiebung index must be positive"),
    (lambda: witt_pow(zvec(S12, 1, 2), -1), "negative Witt powers are not defined"),
    (lambda: TruncationSet.p_typical(2, 0), "length must be positive"),
    (lambda: from_ghost([1], S12), "ghost vector length does not match"),
    (lambda: divides_additively(2, WittVector.from_list(S12, ZModRing(4), [0, 0])),
     "additive divisibility is only decided over Z"),
    (lambda: zvec(S12, 1, 2).restrict(TruncationSet([1, 3])), "cannot restrict: 3 missing"),
], ids=["trunc", "ring", "member-0", "frobenius-0", "verschiebung-0", "power-minus-1",
        "p-typical-length-0", "ghost-length", "divides-over-z-mod-4", "restrict-missing"])
def test_out_of_contract_arguments_are_refused(call, err):
    with pytest.raises(InputError, match=f"^{err}"):
        call()


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


def test_integer_multiples_and_powers_are_sized_before_any_ghost():
    """n in witt_int and witt_scalar counts as one more component, and
    witt_pow multiplies the bits of each ghost of a by k before any power
    is formed: at these sizes each answered with components of 39,900 to
    797,234 bits, past what str() converts."""
    S = TruncationSet([1, 2, 4])
    a = zvec(S, 99, 98, 97)  # ghosts 99, 9997 and 96079197: 7, 14 and 27 bits
    for route in (lambda: witt_int(10 ** 3000, S, ZZ), lambda: witt_scalar(10 ** 3000, a)):
        with pytest.raises(InputError, match="a 9966-bit component to the power 4 needs 39864 "
                                             "bits, over witt.GHOST_BITS_LIMIT = 6000"):
            route()
    with pytest.raises(InputError, match="a 27-bit ghost component to the power 30000 needs "
                                         "810000 bits, over witt.GHOST_BITS_LIMIT = 6000"):
        witt_pow(a, 30000)
    # 27 bits x 222 = 5,994 bits answers; 27 x 223 = 6,021 does not
    assert str(witt_pow(a, 222))
    with pytest.raises(InputError, match="power 223 needs 6021 bits"):
        witt_pow(a, 223)


def test_powers_of_ghosts_zero_and_one_answer_at_any_exponent():
    """Ghosts 0 and +-1 keep their size under any power, so witt_pow
    answers for them however large k is, over every ring."""
    S, big = TruncationSet([1, 2, 4]), TruncationSet(range(1, 61))
    assert witt_pow(zvec(S, 1, 0, 0), 10 ** 9) == zvec(S, 1, 0, 0)
    assert witt_pow(zvec(S, 0, 0, 0), 10 ** 9) == zvec(S, 0, 0, 0)
    assert witt_pow(teichmuller(1, big, ZZ), 101) == teichmuller(1, big, ZZ)
    minus = witt_neg(zvec(S, 1, 0, 0))  # every ghost -1
    assert witt_pow(minus, 10 ** 9 + 1) == minus
    for ring in (ZModRing(8), GaloisField(3, 2)):
        one = teichmuller(ring.one(), S, ring)
        assert witt_pow(one, 10 ** 9) == one


def test_lift_bits_limit_counts_the_power(monkeypatch):
    """Over Z/8 on {1, 2, 4}, a = (5, 3, 1) has lifted ghosts 5, 31 and
    647 (3 + 5 + 10 bits): witt_pow counts 18 x k bits, and past
    LIFT_BITS_LIMIT it is refused like any operation."""
    S = TruncationSet([1, 2, 4])
    v = WittVector.from_list(S, ZModRing(8), [5, 3, 1])
    with pytest.raises(InputError, match="the lifted ghosts to the power 1000000 needs "
                                         "18000000 bits, over witt.LIFT_BITS_LIMIT = 1000000"):
        witt_pow(v, 10 ** 6)
    monkeypatch.setattr(witt, "LIFT_BITS_LIMIT", 90)
    assert witt_pow(v, 5) == witt_mul(witt_mul(witt_mul(v, v), witt_mul(v, v)), v)
    with pytest.raises(InputError, match="needs 108 bits, over witt.LIFT_BITS_LIMIT = 90"):
        witt_pow(v, 6)


def test_lift_bits_limit_counts_the_growth_of_reduction_in_powers(monkeypatch):
    """Over F_49, f = w^2 + 6w + 3 reduces w^2 to -3 - 6w, of l1 norm 9,
    so a product's l1 norm may grow by up to 2^4 past that of its factors
    multiplied: witt_pow counts each ghost size but 0 plus 4 bits, k
    times.  [w]^(10^6), whose ghost w^(10^6) has 2,446,119-bit
    coefficients, is refused before any power is formed."""
    F = GaloisField(7, 2)
    assert F.lift_ring.growth_bits == 4
    a = teichmuller((0, 1), TruncationSet([1]), F)

    def formed(*args):
        raise AssertionError("a power was formed")

    with monkeypatch.context() as m:
        m.setattr(F.lift_ring, "pow", formed)
        with pytest.raises(InputError, match="the lifted ghosts to the power 1000000 needs "
                                             "5000000 bits, over witt.LIFT_BITS_LIMIT = 1000000"):
            witt_pow(a, 10 ** 6)
    b = teichmuller((0, 1), TruncationSet([1, 7]), F)  # ghosts w and w^7, sizes 1 and 16
    monkeypatch.setattr(witt, "LIFT_BITS_LIMIT", (1 + 4 + 16 + 4) * 5)
    assert witt_pow(b, 5) == witt_mul(witt_mul(witt_mul(b, b), witt_mul(b, b)), b)
    with pytest.raises(InputError, match="needs 150 bits, over witt.LIFT_BITS_LIMIT = 125"):
        witt_pow(b, 6)


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


def test_integer_scalars_are_sized_over_reducing_rings():
    """Over Z/m and F_q, n in witt_int and witt_scalar is an unreduced lift
    element whose powers the solve forms: its size counts beside the
    element bits of R, so 10^100000 (332,193 bits) and 10^30000 (99,658
    bits) over member sum 31 are refused at once, where they answered
    after 3.5 s and 0.5 s, and 10^3000 (9,966 bits) still answers."""
    S, F = TruncationSet([1, 2, 4, 8, 16]), GaloisField(3, 2)
    huge, big = 10 ** 100000, 10 ** 30000
    a = WittVector.from_list(S, F, [F.one()] + [F.zero()] * 4)
    start = time.perf_counter()
    with pytest.raises(InputError, match="the lifted ghosts of 332193-bit elements over member "
                                         "sum 31 needs 10297983 bits, over witt.LIFT_BITS_LIMIT"):
        witt_int(huge, S, ZModRing(8))
    with pytest.raises(InputError, match="99658-bit elements over member sum 31 needs 3089398 "
                                         "bits, over witt.LIFT_BITS_LIMIT"):
        witt_scalar(big, a)
    assert time.perf_counter() - start < 0.1
    assert ghost(witt_int(10 ** 3000, S, ZModRing(8))) == [10 ** 3000 % 8] * 5


def test_poly_components_are_sized_by_their_coefficient_sum():
    """A Z[..] component's size is the bit length of the sum of its
    |coefficients|: on {1, 2, 4, 8}, 2^749 x has 750 bits x 8 = 6,000 and
    answers, while 2^749 (x + y) has 751 x 8 = 6,008 and is refused,
    though its largest coefficient is the same."""
    S, R = TruncationSet([1, 2, 4, 8]), PolynomialRing()
    x, y = SparsePoly.variable("x"), SparsePoly.variable("y")
    zero = SparsePoly()
    assert str(ghost(WittVector.from_list(S, R, [x * 2 ** 749, zero, zero, zero]))[-1])
    with pytest.raises(InputError, match="a 751-bit component to the power 8 needs 6008 bits"):
        ghost(WittVector.from_list(S, R, [(x + y) * 2 ** 749, zero, zero, zero]))


@st.composite
def _inputs_near_the_ghost_limit(draw):
    """A divisor-closed set with max S up to 9,973 inside TRUNC_SUM_LIMIT,
    its seed past 6,000 or dividing GHOST_BITS_LIMIT a third of the time
    each, and inputs drawn half the time from 0 and +-1 and half from
    +-(2^b + d), b within one of the largest size the limit admits on that
    set and |d| <= 1."""
    seed = (st.integers(6001, 9973) | st.sampled_from(divisors(witt.GHOST_BITS_LIMIT))
            | st.integers(1, 6000))
    S = draw(st.tuples(seed, st.integers(1, 60))
             .filter(lambda seeds: sum(set(divisors(seeds[0]) + divisors(seeds[1])))
                     <= TRUNC_SUM_LIMIT)
             .map(TruncationSet.divisor_closure))
    top = witt.GHOST_BITS_LIMIT // S.members[-1]
    element = st.sampled_from([0, 1, -1]) | st.sampled_from(
        [s * (2 ** b + d) for b in range(max(top - 1, 0), top + 2) for d in (-1, 0, 1)
         for s in (1, -1)])
    a, b = (draw(st.lists(element, min_size=len(S), max_size=len(S))) for _ in "ab")
    return S, a, b, draw(element), draw(element), draw(st.sampled_from(S.members))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_inputs_near_the_ghost_limit())
def test_ghost_limit_refuses_exactly_past_the_largest_size_times_max_s(case):
    """Over Z, an operation is refused exactly when the largest size of its
    inputs (0 for 0 and +-1, else the bit length) times max S passes
    GHOST_BITS_LIMIT, and every value it admits prints (str() refuses
    ints past 4,300 digits)."""
    S, a, b, t, c, n = case
    va, vb = zvec(S, *a), zvec(S, *b)
    routes = [(a + b, lambda: witt_add(va, vb)), (a + b, lambda: witt_sub(va, vb)),
              (a + b, lambda: witt_mul(va, vb)), (a, lambda: witt_neg(va)),
              (a + [t], lambda: twisted_frobenius(n, va, t)),
              (a + [c], lambda: witt_scalar(c, va)), ([c], lambda: witt_int(c, S, ZZ))]
    for inputs, route in routes:
        size = max(0 if abs(x) <= 1 else abs(x).bit_length() for x in inputs)
        if size * S.members[-1] > witt.GHOST_BITS_LIMIT:
            with pytest.raises(InputError, match="GHOST_BITS_LIMIT"):
                route()
        else:
            assert all(map(str, route().as_list()))
