"""Acceptance suite: one check per headline guarantee, exact arithmetic
throughout, one printed pass/fail line per criterion (run with -s to see
them live).  Each criterion also carries a wall-clock budget."""

import itertools
import random
import time

from hopfwitt import filtration, homology, intz, witt
from hopfwitt.binomial import binomial_int
from hopfwitt.intz import IntZElement, TensorElement
from hopfwitt.poly import SparsePoly
from hopfwitt.rings import GaloisField, ZModRing, ring_from_spec
from hopfwitt.witt import TruncationSet, WittVector

from drinfeld_oracle import elimination_constants
from intz_oracle import (TruncSeries, degree_in, from_poly, map_left, map_right, pair_tensor,
                         series_group_law, to_poly)


def _criterion(num: int | str, label: str, budget: float, body) -> None:
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"criterion {num} [{label}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget
    verdict = "PASS" if ok else "FAIL (over budget)"
    print(f"criterion {num} [{label}]: {verdict} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {num} took {elapsed:.2f}s, budget {budget}s"


def C(n: int) -> IntZElement:
    return IntZElement.basis(n)


def test_criterion_1_hopf_axioms():
    def body():
        for n in range(11):
            te = intz.comult(C(n))
            # coassociativity
            assert map_left(te, intz.comult) == map_right(te, intz.comult)
            # counit on both sides
            left = IntZElement()
            right = IntZElement()
            for (i, j), c in te.items():
                left = left + C(j).scale(c * intz.counit(C(i)))
                right = right + C(i).scale(c * intz.counit(C(j)))
            assert left == C(n) == right
            # antipode law m(S (x) id) Delta = unit . counit
            acc = IntZElement()
            for (i, j), c in te.items():
                acc = acc + intz.mult(intz.antipode(C(i)), C(j)).scale(c)
            assert acc == IntZElement.one().scale(intz.counit(C(n)))
        # compatibility: Delta is multiplicative on basis pairs
        for m in range(11):
            for n in range(11):
                lhs = intz.comult(intz.mult(C(m), C(n)))
                rhs = intz.comult(C(m)).multiply(intz.comult(C(n)))
                assert lhs == rhs

    _criterion(1, "Hopf axioms through degree 10", 5.0, body)


def test_criterion_2_divided_power_degeneration():
    def body():
        ext = homology.GradedAugmentedAlgebra.truncated(2, -1, -1)
        for m in range(9):
            for n in range(9):
                expected = binomial_int(m + n, n)
                # route 1: top structure constant of the product, taken
                # through Q[x] so that it does not reuse the closed form
                prod = from_poly(to_poly(C(m)) * to_poly(C(n)))
                top = prod.coefficient(m + n)
                assert top == expected
                # route 2: shuffle product of bar words
                got = homology.shuffle_chains(
                    ext, {("x",) * m: 1}, {("x",) * n: 1}
                )
                assert got == {("x",) * (m + n): expected}

    _criterion(2, "top constants = C(m+n,n) = shuffle constants", 10.0, body)


def test_criterion_3_witt_certification():
    def body():
        S = TruncationSet.divisor_closure([12])
        PR = ring_from_spec("Poly")
        avars = [SparsePoly.variable(f"a{d}") for d in S]
        bvars = [SparsePoly.variable(f"b{d}") for d in S]
        a = WittVector.from_list(S, PR, avars)
        b = WittVector.from_list(S, PR, bvars)
        ga, gb = witt.ghost(a), witt.ghost(b)
        # ghost homomorphism identities as polynomial identities
        gsum = witt.ghost(witt.witt_add(a, b))
        gprod = witt.ghost(witt.witt_mul(a, b))
        for i in range(len(S)):
            assert gsum[i] == ga[i] + gb[i]
            assert gprod[i] == ga[i] * gb[i]
        ghost_index = {d: i for i, d in enumerate(S)}
        for n in (2, 3, 4, 6, 12):
            gf = witt.ghost(witt.frobenius(n, a))
            for i, d in enumerate(S.quotient(n)):
                assert gf[i] == ga[ghost_index[n * d]]
        # F_m F_n = F_mn, symbolically
        for m, n in ((2, 2), (2, 3), (3, 2), (2, 6), (3, 4)):
            assert witt.frobenius(m, witt.frobenius(n, a)) == witt.frobenius(m * n, a)
        # F_n V_n = n, on a generic vector of the quotient set
        for n in (2, 3, 4):
            T = S.quotient(n)
            c = WittVector.from_list(
                T, PR, [SparsePoly.variable(f"c{d}") for d in T]
            )
            lifted = witt.verschiebung(n, c, S)
            assert witt.frobenius(n, lifted) == witt.witt_scalar(n, c)
        # F_n [r] = [r^n], symbolically
        r = SparsePoly.variable("r")
        for n in (2, 3, 6):
            lhs = witt.frobenius(n, witt.teichmuller(r, S, PR))
            assert lhs == witt.teichmuller(r**n, S.quotient(n), PR)
        # F_p = p-th power modulo additive p-multiples
        ZZ = ring_from_spec("Z")
        for p in (2, 3):
            rng = random.Random(1000 + p)
            T = TruncationSet.divisor_closure([p * p])
            for _ in range(20):
                v = WittVector.from_list(
                    T, ZZ, [rng.randrange(-9, 10) for _ in T]
                )
                power = v
                for _ in range(p - 1):
                    power = witt.witt_mul(power, v)
                delta = witt.witt_sub(
                    witt.frobenius(p, v), power.restrict(T.quotient(p))
                )
                assert witt.divides_additively(p, delta)

    _criterion(3, "ghost certification and Frobenius laws", 60.0, body)


def test_criterion_4_twisted_degenerations_and_kernels():
    def body():
        for ring in (ZModRing(8), GaloisField(3, 2)):
            pool = list(ring.elements())
            rng = random.Random(ring.size())
            for n, seeds in ((2, [4]), (3, [9])):
                S = TruncationSet.divisor_closure([n * n])
                for _ in range(50):
                    a = WittVector.from_list(
                        S, ring, [rng.choice(pool) for _ in S]
                    )
                    at1 = witt.twisted_frobenius(n, a, ring.one())
                    plain = witt.frobenius(n, a)
                    assert at1 == witt.witt_sub(plain, a.restrict(S.quotient(n)))
                    assert witt.twisted_frobenius(n, a, ring.zero()) == plain
        # stable kernels over the three smallest Witt rings of length 2
        for field, p, expected in (
            (GaloisField(2, 1), 2, 4),
            (GaloisField(3, 1), 3, 9),
            (GaloisField(2, 2), 2, 4),
        ):
            S = TruncationSet.p_typical(p, 2)
            stable = witt.stable_twisted_kernel(p, field.one(), S, field)
            assert len(stable) == expected
            # oracle: exhaustive search one level deeper, then project
            deep = TruncationSet.p_typical(p, 3)
            projected = set()
            for combo in itertools.product(list(field.elements()), repeat=3):
                v = WittVector.from_list(deep, field, list(combo))
                if witt.twisted_frobenius(p, v, field.one()).is_zero():
                    projected.add(str(v.restrict(S)))
            assert projected == {str(v) for v in stable}

    _criterion(4, "twisted Frobenius degenerations and kernels (4,9,4)", 10.0, body)


def test_criterion_4b_hilbert_additive_group_closed_form():
    def body():
        # W_{S_k}(F_q) with S_k = {1, p, ..., p^(k-1)}: the stable kernel of
        # F_p - [t]^(p-1) at t != 0 is {[t] * a : a in Z/p^k}, the F_q-points
        # of Int(Z) truncated at level k; the search runs on S_(k+1), whose
        # q^(k+1) vectors (59,049, 16,384, 32,768) no enumeration visits
        for field, k in ((GaloisField(3, 2), 4), (GaloisField(2, 2), 6),
                         (GaloisField(2, 3), 5)):
            p = field.p
            S = TruncationSet.p_typical(p, k)
            ints = [witt.witt_int(a, S, field) for a in range(p ** k)]
            for t in (field.one(), list(field.elements())[-1]):
                stable = {str(v) for v in witt.stable_twisted_kernel(p, t, S, field)}
                tt = witt.teichmuller(t, S, field)
                assert len(stable) == p ** k
                assert stable == {str(witt.witt_mul(tt, a)) for a in ints}

    _criterion("4b", "stable twisted kernels are [t]*Z/p^k (81,64,32)", 10.0, body)


def test_criterion_5_rees_drinfeld():
    def body():
        for m in range(13):
            for n in range(m, 13 - m):
                # the elimination certifies Z[t] without the Int(Z) closed form
                cs = elimination_constants(m, n)
                assert filtration.drinfeld_structure_constants(m, n) == cs
                base = intz.mult(C(m), C(n))
                for k, poly in cs.items():
                    assert degree_in(poly, "t") <= m + n - k
                    assert poly.evaluate({"t": 1}) == base.coefficient(k)
                at0 = {k: poly.evaluate({"t": 0}) for k, poly in cs.items()}
                at0 = {k: v for k, v in at0.items() if v}
                if m + n == 0:
                    assert at0 == {0: 1}
                else:
                    assert at0 == {m + n: binomial_int(m + n, n)}
                support = set(base.support())
                assert set(cs) == support

    _criterion(5, "Drinfeld constants in Z[t] with both degenerations", 10.0, body)


def test_criterion_6_cartier_pairing():
    def body():
        # pairing matrix is the identity
        for i in range(11):
            for j in range(11):
                u_j = TruncSeries("u", 12, (0,) * j + (1,))
                assert intz.pair(C(i), u_j.coeffs) == (1 if i == j else 0)
        # duality law 1: <f g, s> = <f (x) g, s(group law)>
        rng = random.Random(6)
        s = TruncSeries("u", 21, tuple(rng.randrange(-5, 6) for _ in range(21)))
        law = series_group_law(s)
        for i in range(11):
            for j in range(i, 11):
                lhs = intz.pair(intz.mult(C(i), C(j)), s.coeffs)
                rhs = pair_tensor(TensorElement.simple(C(i), C(j)), law)
                assert lhs == rhs
        # duality law 2: <Delta f, s (x) s'> = <f, s s'>
        s1 = TruncSeries("u", 11, tuple(rng.randrange(-5, 6) for _ in range(11)))
        s2 = TruncSeries("u", 11, tuple(rng.randrange(-5, 6) for _ in range(11)))
        for n in range(11):
            lhs = sum(
                c * intz.pair(C(i), s1.coeffs) * intz.pair(C(j), s2.coeffs)
                for (i, j), c in intz.comult(C(n)).items()
            )
            assert lhs == intz.pair(C(n), (s1 * s2).coeffs)
        # group-likes pair to binomial values
        for a in range(-4, 5):
            g = intz.group_like(a, trunc=9)
            for n in range(9):
                assert intz.pair(C(n), g) == binomial_int(a, n)

    _criterion(6, "Cartier pairing matrix and duality laws", 5.0, body)


def test_criterion_7_cobar_window():
    def body():
        G = homology.GradedCoalgebra.divided_power(5)
        H = homology.cobar_complex(G, 10, 5).homology()
        nonzero = {k: v for k, v in H.items() if v != (0, [])}
        # exterior on a single class in bidegree (1,1): rank one at
        # (0,0) and (1,1), nothing else, and no torsion anywhere
        assert nonzero == {(0, 0): (1, []), (1, 1): (1, [])}
        assert all(not tor for _, tor in H.values())
        assert H[(2, 2)] == (0, [])  # the square of the class vanishes

    _criterion(7, "cobar of divided powers is exterior through weight 5", 10.0, body)


def test_criterion_8_perfectness():
    def body():
        for p in (2, 3, 5, 7):
            for n in range(11):
                assert intz.frobenius_mod_p_identity(C(n), p)

    _criterion(8, "C(x,n)^p = C(x,n) mod p", 5.0, body)
