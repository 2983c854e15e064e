"""Integer matrix routines checked against hand values and sympy."""

import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfwitt import linalg
from hopfwitt.errors import InputError
from hopfwitt.homology import (
    ChainComplex,
    GradedAugmentedAlgebra,
    GradedCoalgebra,
    bar_complex,
    cobar_complex,
)

import linalg_oracle as oracle


def _random_matrix(rng, r, c, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)]


def _hnf(A):
    """linalg.row_hnf of the rows of the dense matrix A, as dense rows."""
    return oracle.dense_rows(linalg.row_hnf(oracle.sparse_rows(A)), len(A[0]))


class TestHNF:
    def test_identity_fixed(self):
        rows = oracle.sparse_rows(oracle.identity(3))
        assert rows == [{0: 1}, {1: 1}, {2: 1}]
        assert linalg.row_hnf(rows) == rows

    def test_zero_matrix_empty(self):
        assert linalg.row_hnf(oracle.sparse_rows(oracle.zeros(2, 3))) == []
        assert linalg.row_hnf([{0: 0, 2: 0}, {}]) == []

    def test_known_form(self):
        # r2-r1 = (1,1); r1-2(1,1) = (0,2); entry above the 2 reduces to 1
        H = linalg.row_hnf([{0: 2, 1: 4}, {0: 3, 1: 5}])
        assert H == [{0: 1, 1: 1}, {1: 2}]

    def test_row_space_invariance(self):
        rng = random.Random(7)
        for _ in range(40):
            A = _random_matrix(rng, 3, 4)
            H = _hnf(A)
            # permuting rows or adding one row to another keeps the HNF
            B = [A[2], A[0], A[1]]
            B[0] = [x + y for x, y in zip(B[0], A[1])]
            assert _hnf(B) == H

    def test_pivots_positive_and_reduced(self):
        rng = random.Random(11)
        for _ in range(40):
            H = _hnf(_random_matrix(rng, 4, 4))
            pivots = []
            for row in H:
                j = next(k for k, x in enumerate(row) if x)
                pivots.append(j)
                assert row[j] > 0
                for prev in H[: H.index(row)]:
                    assert 0 <= prev[j] < row[j]
            assert pivots == sorted(pivots)

    def test_rank_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(23)
        for _ in range(30):
            A = _random_matrix(rng, 3, 5)
            assert linalg.rank(oracle.sparse_rows(A)) == sympy.Matrix(A).rank()

    def test_ragged_rejected(self):
        with pytest.raises(InputError):
            oracle.shape([[1, 2], [3]])


class TestSNF:
    def test_known_small(self):
        # invariant factors from minor gcds: d1 = gcd(entries) = 2,
        # d1*d2 = gcd(2x2 minors) = 4, d1*d2*d3 = |det| = 624
        D, U, V = oracle.smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert [D[i][i] for i in range(3)] == [2, 2, 156]

    def test_transforms_multiply_out(self):
        rng = random.Random(5)
        for _ in range(40):
            A = _random_matrix(rng, 3, 4)
            D, U, V = oracle.smith_normal_form(A)
            assert oracle.mat_mul(oracle.mat_mul(U, A), V) == D

    def test_diagonal_divisibility(self):
        rng = random.Random(9)
        for _ in range(40):
            A = _random_matrix(rng, 4, 3)
            D, _, _ = oracle.smith_normal_form(A)
            diag = [D[i][i] for i in range(3)]
            for a, b in zip(diag, diag[1:]):
                assert a >= 0
                if b:
                    assert a != 0 and b % a == 0

    def test_invariant_factors_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        rng = random.Random(31)
        for _ in range(25):
            A = _random_matrix(rng, 3, 4)
            ours = linalg.invariant_factors(oracle.sparse_rows(A))
            S = sympy_snf(sympy.Matrix(A))
            theirs = [abs(S[i, i]) for i in range(min(S.shape)) if S[i, i] != 0]
            assert ours == sorted(theirs, key=abs) or ours == theirs

    def test_unimodular_transforms(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(13)
        for _ in range(20):
            A = _random_matrix(rng, 3, 3)
            _, U, V = oracle.smith_normal_form(A)
            assert abs(sympy.Matrix(U).det()) == 1
            assert abs(sympy.Matrix(V).det()) == 1


class TestSolveAndKernel:
    def test_solve_known(self):
        # x = (1, 2) solves exactly
        A = [[2, 3], [1, -1]]
        x = oracle.solve_integer(A, [8, -1])
        assert oracle.mat_vec(A, x) == [8, -1]

    def test_solve_no_integer_solution(self):
        assert oracle.solve_integer([[2]], [1]) is None

    def test_solve_inconsistent(self):
        assert oracle.solve_integer([[1, 1], [1, 1]], [0, 1]) is None

    def test_solve_random_consistent_systems(self):
        rng = random.Random(17)
        for _ in range(40):
            A = _random_matrix(rng, 3, 4)
            x0 = [rng.randint(-5, 5) for _ in range(4)]
            b = oracle.mat_vec(A, x0)
            x = oracle.solve_integer(A, b)
            assert x is not None
            assert oracle.mat_vec(A, x) == b

    def test_kernel_vectors_annihilated(self):
        rng = random.Random(19)
        for _ in range(40):
            A = _random_matrix(rng, 2, 4)
            for v in oracle.kernel_basis(A):
                assert oracle.mat_vec(A, v) == [0, 0]

    def test_kernel_rank_theorem(self):
        rng = random.Random(29)
        for _ in range(40):
            A = _random_matrix(rng, 3, 5)
            assert len(oracle.kernel_basis(A)) == 5 - linalg.rank(oracle.sparse_rows(A))

    def test_full_rank_square_trivial_kernel(self):
        assert oracle.kernel_basis([[1, 0], [0, 2]]) == []


class TestLattices:
    def test_equal_after_column_ops(self):
        A = [[1, 0], [0, 1]]
        B = [[1, 5], [0, 1]]
        assert oracle.lattices_equal(A, B)

    def test_index_two_sublattice_differs(self):
        assert not oracle.lattices_equal([[1, 0], [0, 1]], [[2, 0], [0, 1]])

    def test_membership(self):
        A = [[2, 0], [0, 3]]
        assert oracle.member_of_column_lattice(A, [4, 3])
        assert not oracle.member_of_column_lattice(A, [1, 0])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3), min_size=2, max_size=4))
    def test_hnf_idempotent(self, rows):
        H = linalg.row_hnf(oracle.sparse_rows(rows))
        assert linalg.row_hnf(H) == H


# -- the sparse Hermite form against sympy and the dense oracle -------------


def _sparse_entries(rng, r, c, density):
    """Mostly +-1 entries at the given density, some +-2: the shape of the
    boundary maps and Day tensor stages that reach row_hnf."""
    return [[rng.choice((1, -1, 1, -1, 2, -2)) if rng.random() < density else 0
             for _ in range(c)] for _ in range(r)]


class TestSparseHNF:
    """row_hnf against sympy's hermite_normal_form and the dense Euclid
    oracle, and the coordinates and residues of echelon_reduce.  The
    dense oracle swells past usefulness on denser 40 x 40 input (seconds
    at density 0.1, minutes at 0.2), so sparse inputs stay at density 0.08
    or below."""

    def _check(self, A, rng):
        pytest.importorskip("sympy")
        c = len(A[0])
        rows = oracle.sparse_rows(A)
        H = linalg.row_hnf(rows + rows[:2])  # repeated rows enter once
        assert all(x for h in H for x in h.values())
        assert oracle.dense_rows(H, c) == oracle.row_hnf(A) == oracle.sympy_row_hnf(A)
        pivots = {min(h): h[min(h)] for h in H}
        for _ in range(3):
            combo = [rng.randint(-2, 2) for _ in A]
            v = {j: x for j in range(c) if (x := sum(a * row[j] for a, row in zip(combo, A)))}
            (coords, res), = linalg.echelon_reduce(H, [v])
            assert res == {}
            assert linalg.echelon_solve(H, [v]) == [coords]
            w = dict(v)
            j = rng.randrange(c)
            w[j] = w.get(j, 0) + rng.choice((1, -1, 3))
            (coords, res), = linalg.echelon_reduce(H, [w])
            back = dict(res)
            for k, q in coords.items():
                linalg.add_scaled(back, q, H[k])
            assert back == {j: x for j, x in w.items() if x}
            assert all(0 <= res.get(j, 0) < p for j, p in pivots.items())
            assert (linalg.echelon_solve(H, [w]) is None) == bool(res)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 40), st.integers(1, 40), st.sampled_from([0.03, 0.06, 0.08]),
           st.integers(0, 2**32))
    def test_sparse_inputs(self, r, c, density, seed):
        rng = random.Random(seed)
        self._check(_sparse_entries(rng, r, c, density), rng)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 10), st.integers(1, 10), st.integers(0, 2**32))
    def test_dense_inputs(self, r, c, seed):
        rng = random.Random(seed)
        self._check(_random_matrix(rng, r, c, -3, 3), rng)


# -- invariant factors and rank against sympy's DomainMatrix -------------------

_NON_UNITS = [0, 0, 2, -2, 3, -3, 4, -4, 5, 6, -6, 9]


def _domain_matrix(A):
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix

    return DomainMatrix([[ZZ(x) for x in row] for row in A], (len(A), len(A[0])), ZZ)


def _sympy_factors_and_rank(A):
    from sympy.polys.matrices.normalforms import invariant_factors

    M = _domain_matrix(A)
    return [abs(int(d)) for d in invariant_factors(M) if d], M.rank()


def _dense_non_unit(rng, r, c):
    return [[rng.choice(_NON_UNITS) for _ in range(c)] for _ in range(r)]


def _sparse_signs(rng, r, c, density):
    return [[rng.choice((1, -1)) if rng.random() < density else 0 for _ in range(c)]
            for _ in range(r)]


def _low_rank_product(rng, r, c, k):
    B = _random_matrix(rng, r, k, -3, 3)
    C = _random_matrix(rng, k, c, -3, 3)
    return oracle.mat_mul(B, C) if k else oracle.zeros(r, c)


_shapes = st.tuples(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32))


class TestInvariantsAgainstSympy:
    """invariant_factors and rank on the three shapes of input they meet:
    dense non-unit entries (all work in the modular core), sparse +-1 maps
    (bar differentials, mostly unit pivots) and rank-deficient products.

    sympy's textbook Smith form swells on dense input past about 24 x 24
    (over 3 s at 33 x 38 or 39 x 39, a minute on some 40 x 40 products), so
    above that dense factors are checked through sympy's ranks over Q and
    GF(p), which count the factors and those prime to p, and through |det|
    when square and nonsingular."""

    def _check(self, A, full=False):
        sympy = pytest.importorskip("sympy")
        rows = oracle.sparse_rows(A)
        factors = linalg.invariant_factors(rows)
        if full or max(len(A), len(A[0])) <= 24:
            assert (factors, linalg.rank(rows)) == _sympy_factors_and_rank(A)
            return
        M = _domain_matrix(A)
        assert linalg.rank(rows) == len(factors) == M.rank()
        for p in (2, 3, 5, 7):
            assert M.convert_to(sympy.GF(p)).rank() == sum(1 for d in factors if d % p)
        if len(A) == len(A[0]) == len(factors):
            assert math.prod(factors) == abs(int(M.det()))

    @settings(max_examples=25, deadline=None)
    @given(_shapes)
    def test_dense_without_units(self, shape):
        r, c, seed = shape
        self._check(_dense_non_unit(random.Random(seed), r, c))

    @settings(max_examples=25, deadline=None)
    @given(_shapes, st.sampled_from([0.05, 0.15, 0.3, 0.5]))
    def test_sparse_signs(self, shape, density):
        r, c, seed = shape
        self._check(_sparse_signs(random.Random(seed), r, c, density), full=True)

    @settings(max_examples=25, deadline=None)
    @given(_shapes, st.integers(0, 40))
    def test_rank_deficient_products(self, shape, k):
        r, c, seed = shape
        self._check(_low_rank_product(random.Random(seed), r, c, min(k, r - 1, c - 1)))

    def test_small_cases(self):
        assert linalg.invariant_factors([]) == []
        assert linalg.invariant_factors([{}, {}]) == []
        assert linalg.invariant_factors(
            [{0: 2, 1: 4, 2: 4}, {0: -6, 1: 6, 2: 12}, {0: 10, 1: 4, 2: 16}]) == [2, 2, 156]
        # rank one with both rows non-primitive: the lattice is Z*(3, -2)
        assert linalg.invariant_factors([{0: -6, 1: 4}, {0: 9, 1: -6}]) == [1]
        assert linalg.invariant_factors([{0: 2}, {1: 3}]) == [1, 6]
        assert linalg.rank([{0: 1, 1: 2}, {0: 2, 1: 4}, {}]) == 1


class TestInvariantsBeyondTheOracle:
    """60 x 60 maps, where sympy's Smith form takes seconds: properties
    that need no oracle, and |det| from sympy's determinant."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_square_maps(self, seed):
        pytest.importorskip("sympy")
        rng = random.Random(seed)
        for A in (_dense_non_unit(rng, 60, 60), _sparse_signs(rng, 60, 60, 0.1),
                  _low_rank_product(rng, 60, 60, 45), _random_matrix(rng, 60, 60)):
            rows = oracle.sparse_rows(A)
            factors = linalg.invariant_factors(rows)
            assert all(d > 0 for d in factors)
            assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
            assert linalg.rank(rows) == len(factors)
            det = _domain_matrix(A).det()
            if det:
                assert len(factors) == 60
                assert math.prod(factors) == abs(int(det))
            else:
                assert len(factors) < 60


def _check_unit_columns(A, rows):
    """The unit-pivot columns of rows, the rows of A with or without
    their zero entries, are distinct, one per leading factor 1, and the
    rows of A on them have a unimodular block.  Returns the factors."""
    sympy = pytest.importorskip("sympy")
    cols: set[int] = set()
    factors = linalg.invariant_factors(rows, cols)
    assert factors == linalg.invariant_factors(rows)
    units, core = linalg._unit_pivot_core(rows)
    assert len(set(units)) == len(units) and set(units) == cols <= set(range(len(A[0])))
    assert factors == [1] * len(cols) + linalg.invariant_factors(oracle.sparse_rows(core))
    P = sorted(cols)
    assert any(abs(sympy.Matrix([[A[i][j] for j in P] for i in S]).det()) == 1
               for S in itertools.combinations(range(len(A)), len(P)))
    return factors


class TestUnitPivotColumns:
    """The unit-pivot columns invariant_factors reports, on which
    ChainComplex.homology skips cells: distinct, one per leading factor 1
    (the core left by the unit pivots, such as the row (2, 3), may give
    more), and a block of the rows on them with determinant +-1, since
    the pivot rows come from the rows that became pivots by a
    unitriangular change of rows and are unitriangular on their pivot
    columns."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32),
           st.sampled_from(["signs", "small", "product"]))
    def test_distinct_counted_and_unimodular(self, r, c, seed, kind):
        rng = random.Random(seed)
        A = {"signs": lambda: _sparse_signs(rng, r, c, 0.5),
             "small": lambda: _random_matrix(rng, r, c, -3, 3),
             "product": lambda: _low_rank_product(rng, r, c, min(r, c) - 1)}[kind]()
        _check_unit_columns(A, oracle.sparse_rows(A))

    def test_adds_to_the_set_given(self):
        cols = {7}
        assert linalg.invariant_factors([{0: 2, 1: 1}, {0: 4, 1: 2}, {2: 3}], cols) == [1, 3]
        assert cols == {7, 1}


class TestExplicitZeros:
    """Rows may carry explicit zero entries: rank and invariant_factors
    take rows as their callers give them, and a ChainComplex hands its
    columns to the Smith form as they are.  Every zero changes nothing:
    the answers equal those of the rows without zeros, and sympy's."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32),
           st.sampled_from(["signs", "small"]))
    def test_rows_with_every_zero(self, r, c, seed, kind):
        rng = random.Random(seed)
        A = {"signs": lambda: _sparse_signs(rng, r, c, 0.5),
             "small": lambda: _random_matrix(rng, r, c, -3, 3)}[kind]()
        rows = [dict(enumerate(row)) for row in A]
        factors, rank = _check_unit_columns(A, rows), linalg.rank(rows)
        assert (factors, rank) == _sympy_factors_and_rank(A)
        plain = oracle.sparse_rows(A)
        assert (linalg.invariant_factors(plain), linalg.rank(plain)) == (factors, rank)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from(["bar truncated:3", "bar truncated:4", "cobar divided-power:4"]),
           st.integers(0, 2**32))
    def test_complex_columns_with_zeros(self, name, seed):
        C = _zero_free_complex(name)
        rng = random.Random(seed)

        def with_zeros(col, rows):
            free = [i for i in range(rows) if i not in col]
            return col | dict.fromkeys(rng.sample(free, min(2, len(free))), 0)

        diffs = {w: {q: [with_zeros(col, C.rank(q - 1, w)) for col in cols]
                     for q, cols in qs.items()}
                 for w, qs in C.diffs.items()}
        assert ChainComplex(C.ranks, diffs).homology() == C.homology()


@functools.cache
def _zero_free_complex(name):
    return {"bar truncated:3": lambda: bar_complex(GradedAugmentedAlgebra.truncated(3), 7, 7),
            "bar truncated:4": lambda: bar_complex(GradedAugmentedAlgebra.truncated(4), 5, 8),
            "cobar divided-power:4": lambda: cobar_complex(GradedCoalgebra.divided_power(4), 8, 4),
            }[name]()


class TestOneRoute:
    def test_no_transforms_and_no_hermite_form(self, monkeypatch):
        def refuse(*_):
            pytest.fail("invariants went through a transform-tracking route")

        assert not hasattr(linalg, "smith_normal_form")
        monkeypatch.setattr(linalg, "smith_normal_form", refuse, raising=False)
        monkeypatch.setattr(linalg, "row_hnf", refuse)
        A = _dense_non_unit(random.Random(4), 8, 9)
        rows = oracle.sparse_rows(A)
        assert linalg.rank(rows) == len(linalg.invariant_factors(rows))
        # Z --2--> Z --0--> Z: H_0 = Z/2, H_1 = 0, H_2 = Z
        C = ChainComplex({0: {0: 1, 1: 1, 2: 1}}, {0: {1: [{0: 2}], 2: [{}]}})
        assert C.homology() == {(0, 0): (0, [2]), (1, 0): (0, []), (2, 0): (1, [])}


class TestModulusLimit:
    def test_modulus_over_the_limit_is_refused(self):
        big = 2 ** (linalg.MODULUS_BITS_LIMIT // 2 + 8)
        with pytest.raises(InputError, match="bound overflow.*MODULUS_BITS_LIMIT"):
            linalg.invariant_factors([{0: big + 1, 1: 3}, {0: 5, 1: big + 7}])

    def test_modulus_at_the_limit_is_used(self):
        p = 2 ** (linalg.MODULUS_BITS_LIMIT - 1) - 1
        assert linalg.invariant_factors([{0: p}, {1: 2}]) == [1, 2 * p]
        assert linalg.rank([{0: p}, {1: 2}]) == 2
