"""Filtered modules, the Rees deformation, and the deformed binomial basis."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopfwitt import filtration, intz, linalg
from hopfwitt.binomial import binomial_int
from hopfwitt.errors import FalsificationError, InputError
from hopfwitt.filtration import (
    FilteredModule,
    associated_graded,
    day_tensor,
    degree_filtration_module,
    drinfeld_structure_constants,
    rees,
    t_poly,
)
from hopfwitt.poly import SparsePoly

import linalg_oracle as oracle
from drinfeld_oracle import (drinfeld_group_law_samples, drinfeld_poly, elimination_constants,
                             factorial_constants)
from intz_oracle import binomial_poly, degree_in
from presentation_oracle import failing_triples


def _unimodular(rng, r):
    U = oracle.identity(r)
    for _ in range(3 * r):
        i, j = rng.randrange(r), rng.randrange(r)
        if i != j:
            c = rng.randint(-2, 2)
            U[i] = [x + c * y for x, y in zip(U[i], U[j])]
    return U


def _split_module(rng, r, steps):
    """Filtration by direct summands: stages span leading columns of a
    unimodular matrix, so every graded piece is free."""
    U = _unimodular(rng, r)
    ks = sorted((rng.randint(0, r) for _ in range(steps)), reverse=True)
    ks = [r] + ks
    lattices = []
    for k in ks:
        lattices.append(oracle.sparse_rows(oracle.transpose([row[:k] for row in U])))
    return FilteredModule.from_lattices(r, 0, lattices)


def _shift(X, k):
    """Reindex: stage n of the result is stage n - k of X."""
    return FilteredModule(X.n_min + k, X.n_max + k, X.ranks, X.maps)


class TestFilteredModule:
    def test_concentrated_profile(self):
        X = FilteredModule(3, 3, [2], [])
        assert len(X.stages()[3 - X.n_min]) == 2
        assert X.n_min >= 0 and X.ranks[0] == 2
        assert X.n_max < 4

    def test_degree_filtration_ranks(self):
        X = degree_filtration_module(4)
        assert (X.n_min, X.n_max) == (0, 4)
        assert [len(S) for S in X.stages()] == X.ranks == [5, 4, 3, 2, 1]

    def test_degree_filtration_lattice(self):
        X = degree_filtration_module(3)
        # stage 2 is spanned by the last two coordinates
        assert X.stages()[2] == [{2: 1}, {3: 1}]
        assert linalg.row_hnf(X.stages()[2]) == [{2: 1}, {3: 1}]

    def test_non_injective_rejected(self):
        with pytest.raises(InputError):
            FilteredModule(0, 1, [1, 1], [[{}]])

    @pytest.mark.parametrize("maps", [[[{0: 1}, {0: 1}]], [[]], [[{1: 1}]], [[{-1: 1}]]],
                             ids=["two-rows", "no-row", "past-the-end", "negative"])
    def test_coordinate_rows_of_the_wrong_shape_rejected(self, maps):
        with pytest.raises(InputError, match="structure map 0 is not 1 coordinate rows in rank 1"):
            FilteredModule(0, 1, [1, 1], maps)

    def test_from_lattices_containment_enforced(self):
        with pytest.raises(InputError):
            FilteredModule.from_lattices(1, 0, [[{0: 1}], [{0: 2}], [{0: 1}]])

    def test_from_lattices_bottom_must_span(self):
        with pytest.raises(InputError):
            FilteredModule.from_lattices(2, 0, [[{0: 2}, {1: 1}]])

    @pytest.mark.parametrize("lattices", [
        [[{0: 1}, {1: 1}], [{0: 1, 2: 1}]],
        [[{0: 1}, {1: 1}], [{-1: 1}]],
        [[{0: 1}, {1: 1}, {2: 1}]],
    ], ids=["past-the-end", "negative", "bottom"])
    def test_from_lattices_row_outside_the_ambient(self, lattices):
        with pytest.raises(InputError, match="lattice rows must live in the ambient module"):
            FilteredModule.from_lattices(2, 0, lattices)

    def test_shift_moves_range(self):
        X = _shift(degree_filtration_module(2), 5)
        assert (X.n_min, X.n_max) == (5, 7)
        assert X.ranks[5 - X.n_min] == 3

    def test_json_round_trip(self):
        X = degree_filtration_module(3)
        assert FilteredModule.from_json(X.to_json()) == X

    def test_bad_json(self):
        with pytest.raises(InputError):
            FilteredModule.from_json('{"n_min":0}')


def _nested_lattices(rng, r, steps, split, perturb):
    """Stage 0 spans Z^r; each later stage is spanned by integer
    combinations of the columns before it, with some columns scaled by 2
    or 3 unless split, and one entry moved by one when perturb (which
    usually leaves the previous stage)."""
    extra = rng.randint(0, 2)
    lattices = [[row + [rng.randint(-3, 3) for _ in range(extra)]
                 for row in _unimodular(rng, r)]]
    for _ in range(steps):
        prev = lattices[-1]
        c, k = len(prev[0]), rng.randint(0, len(prev[0]) + 1)
        if not c or not k:
            lattices.append([[] for _ in range(r)])
            continue
        C = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(c)]
        if not split:
            for j in range(k):
                scale = rng.choice((1, 2, 3))
                for row in C:
                    row[j] *= scale
        cols = oracle.mat_mul(prev, C)
        if perturb and rng.random() < 0.5:
            cols[rng.randrange(r)][rng.randrange(k)] += rng.choice((1, -1))
        lattices.append(cols)
    return lattices


def _oracle_maps(r, lattices):
    """from_lattices through the transform-tracking solver, one column at
    a time: the maps, or the first stage not contained in the one before."""
    bases = [oracle.row_hnf(oracle.transpose(cols)) if cols and cols[0] else []
             for cols in lattices]
    maps = []
    for i in range(len(bases) - 1):
        A = oracle.transpose(bases[i]) if bases[i] else [[] for _ in range(r)]
        sols = [oracle.solve_integer(A, v) for v in bases[i + 1]]
        if None in sols:
            return i + 1
        maps.append(oracle.transpose(sols) if sols else [[] for _ in bases[i]])
    return maps


class TestFromLatticesAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 4), st.integers(-2, 2), st.booleans(),
           st.booleans(), st.integers(0, 2**32))
    def test_echelon_route_equals_oracle(self, r, steps, n_min, split, perturb, seed):
        lattices = _nested_lattices(random.Random(seed), r, steps, split, perturb)
        expected = _oracle_maps(r, lattices)
        rows = [oracle.sparse_rows(oracle.transpose(cols)) for cols in lattices]
        if isinstance(expected, int):
            stage = n_min + expected
            with pytest.raises(InputError, match=f"stage {stage} is not contained in stage {stage - 1}"):
                FilteredModule.from_lattices(r, n_min, rows)
        else:
            X = FilteredModule.from_lattices(r, n_min, rows)
            assert json.loads(X.to_json())["maps"] == expected


def _random_module(rng, kind):
    """A small filtered module: split, nested (often non-split) or the
    degree filtration, shifted by -1, 0 or 1."""
    shift = rng.randint(-1, 1)
    if kind == "split":
        return _shift(_split_module(rng, rng.randint(1, 3), rng.randint(0, 2)), shift)
    if kind == "nested":
        r = rng.randint(1, 3)
        lattices = _nested_lattices(rng, r, rng.randint(0, 2), rng.random() < 0.5, False)
        return FilteredModule.from_lattices(
            r, shift, [oracle.sparse_rows(oracle.transpose(c)) for c in lattices])
    return _shift(degree_filtration_module(rng.randint(0, 3)), shift)


KINDS = ("split", "nested", "degree")


class TestRowStagesAgainstColumnRoute:
    """The row stages and the Day tensor spanned by Kronecker rows against
    the column route: embeddings composed by mat_mul, Kronecker blocks
    side by side, and the HNF of their transpose."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.sampled_from(KINDS), st.sampled_from(KINDS), st.integers(0, 2**32))
    def test_stages_and_day_tensor_equal_the_column_route(self, kx, ky, seed):
        rng = random.Random(seed)
        X, Y = _random_module(rng, kx), _random_module(rng, ky)
        for Z in (X, Y):
            assert Z.stages() == [oracle.sparse_rows(oracle.transpose(E))
                                  for E in oracle.embeddings(Z)]
        T = day_tensor(X, Y)
        columns = oracle.day_tensor_columns(X, Y)
        assert (T.n_min, T.n_max) == (X.n_min + Y.n_min, X.n_min + Y.n_min + len(columns) - 1)
        for n, C in enumerate(columns, T.n_min):
            assert oracle.dense_rows(linalg.row_hnf(T.stages()[n - T.n_min]), len(C)) == \
                oracle.row_hnf(oracle.transpose(C))
        assert len(T.stages()) == T.n_max - T.n_min + 1


class TestAssociatedGraded:
    def test_concentrated(self):
        assert associated_graded(FilteredModule(0, 0, [1], [])) == {0: 1}

    def test_degree_filtration_all_ones(self):
        assert associated_graded(degree_filtration_module(5)) == {q: 1 for q in range(6)}

    def test_torsion_rejected(self):
        # Z containing 2Z containing 0 has a torsion quotient
        X = FilteredModule(0, 1, [1, 1], [[{0: 2}]])
        with pytest.raises(InputError, match="torsion"):
            associated_graded(X)

    def test_ranks_sum_to_underlying(self):
        rng = random.Random(3)
        for _ in range(20):
            X = _split_module(rng, rng.randint(1, 4), rng.randint(1, 3))
            gr = associated_graded(X)
            assert sum(gr.values()) == X.ranks[0]


class TestDayTensor:
    def test_unit_left(self):
        rng = random.Random(5)
        for _ in range(10):
            X = _split_module(rng, rng.randint(1, 3), 2)
            assert day_tensor(FilteredModule(0, 0, [1], []), X) == X

    def test_unit_right(self):
        rng = random.Random(7)
        X = _split_module(rng, 3, 2)
        assert day_tensor(X, FilteredModule(0, 0, [1], [])) == X

    def test_concentrated_levels_add(self):
        A = FilteredModule(1, 1, [2], [])
        B = FilteredModule(2, 2, [3], [])
        assert day_tensor(A, B) == FilteredModule(3, 3, [6], [])

    def test_shift_additivity(self):
        rng = random.Random(11)
        X = _split_module(rng, 2, 2)
        Y = _split_module(rng, 2, 1)
        assert day_tensor(_shift(X, 2), _shift(Y, 3)) == _shift(day_tensor(X, Y), 5)

    def test_associative(self):
        rng = random.Random(13)
        for _ in range(5):
            X = _split_module(rng, 2, 1)
            Y = _split_module(rng, 2, 1)
            Z = _split_module(rng, 2, 1)
            assert day_tensor(day_tensor(X, Y), Z) == day_tensor(X, day_tensor(Y, Z))

    def test_commutative_up_to_swap(self):
        rng = random.Random(17)
        for _ in range(5):
            X = _split_module(rng, 2, 2)
            Y = _split_module(rng, 3, 1)
            XY = day_tensor(X, Y)
            YX = day_tensor(Y, X)
            rx, ry = X.ranks[0], Y.ranks[0]
            for n in range(XY.n_min, XY.n_max + 1):
                swapped = []
                for vec in linalg.row_hnf(XY.stages()[n - XY.n_min]):
                    swapped.append({j % ry * rx + j // ry: x for j, x in vec.items()})
                assert linalg.row_hnf(swapped) == linalg.row_hnf(YX.stages()[n - YX.n_min])

    def test_graded_ranks_convolve(self):
        rng = random.Random(19)
        for _ in range(10):
            X = _split_module(rng, rng.randint(1, 3), 2)
            Y = _split_module(rng, rng.randint(1, 3), 2)
            grX = associated_graded(X)
            grY = associated_graded(Y)
            grT = associated_graded(day_tensor(X, Y))
            for n, r in grT.items():
                conv = sum(grX.get(i, 0) * grY.get(n - i, 0) for i in grX)
                assert conv == r

    def test_square_of_a_dense_nonsplit_module(self):
        """P (x) P for a dense non-split P, whose stage Hermite forms the
        dense Euclid route swelled to 147,000-bit entries without
        finishing: every stage against sympy's form of the column route."""
        pytest.importorskip("sympy")
        P = FilteredModule.from_json('{"n_min":0,"n_max":1,"ranks":[4,4],"maps":'
                                     '[[[-2,1,3,3],[3,-3,-1,-3],[0,3,0,0],[2,0,3,-2]]]}')
        T = day_tensor(P, P)
        assert (T.n_min, T.n_max, T.ranks) == (0, 2, [16, 16, 16])
        for S, C in zip(T.stages(), oracle.day_tensor_columns(P, P)):
            assert oracle.dense_rows(linalg.row_hnf(S), 16) == \
                oracle.sympy_row_hnf(oracle.transpose(C))

    def test_nontrivial_lattice_sum(self):
        # level 1 is 2Z + 3Z = Z; level 2 only receives 2Z * 3Z = 6Z
        A = FilteredModule.from_lattices(1, 0, [[{0: 1}], [{0: 2}]])
        B = FilteredModule.from_lattices(1, 0, [[{0: 1}], [{0: 3}]])
        T = day_tensor(A, B)
        assert linalg.row_hnf(T.stages()[1 - T.n_min]) == [{0: 1}]
        assert linalg.row_hnf(T.stages()[2 - T.n_min]) == [{0: 6}]


class TestSparseStages:
    def test_day_tensor_and_from_lattices_never_densify_a_stage(self, monkeypatch):
        """Stages stay {column: entry} rows without zeros from stages()
        through the Day tensor's spanning rows to from_lattices' Hermite
        forms and solves; linalg holds no dense matrix routine."""
        for name in ("zeros", "mat_mul", "transpose", "identity"):
            assert not hasattr(linalg, name)
        handed = []

        def sparse(rows):
            rows = list(rows)
            if not all(type(row) is dict and all(row.values()) for row in rows):
                pytest.fail("a stage was densified")
            handed.append(len(rows))
            return rows

        real_hnf, real_solve = linalg.row_hnf, linalg.echelon_solve
        monkeypatch.setattr(linalg, "row_hnf", lambda rows: real_hnf(sparse(rows)))
        monkeypatch.setattr(linalg, "echelon_solve",
                            lambda H, vs: real_solve(sparse(H), sparse(vs)))
        X, Y = degree_filtration_module(5), degree_filtration_module(4)
        T = day_tensor(X, Y)
        # 10 stages, each spanned by the u (x) v of every pair i + j = n
        assert len(handed) == 10 + 2 * 9
        assert handed[:10] == [sum((6 - i) * (5 - (n - i)) for i in range(6) if 0 <= n - i <= 4)
                               for n in range(10)]
        for S in T.stages():
            sparse(S)
        assert associated_graded(T) == {n: sum(1 for i in range(6) if 0 <= n - i <= 4)
                                        for n in range(10)}
        # the maps from_lattices reads off pass the checks of the constructor
        assert FilteredModule(T.n_min, T.n_max, T.ranks, T.maps) == T

    def test_structure_maps_reach_linalg_as_coordinate_rows(self, monkeypatch):
        """From from_json through the Day tensor to associated_graded, every
        row handed to linalg's rank, invariant_factors, row_hnf and
        echelon_solve is a {column: entry} dict without zeros, and linalg
        keeps no entry point for a dense matrix."""
        for name in ("shape", "sparse_invariant_factors", "Pairs"):
            assert not hasattr(linalg, name)
        handed = []

        def sparse(name, rows):
            rows = list(rows)
            if not all(type(row) is dict and all(row.values()) for row in rows):
                pytest.fail(f"{name} was handed a dense row")
            handed.append(name)
            return rows

        for name in ("rank", "invariant_factors", "row_hnf"):
            monkeypatch.setattr(linalg, name, lambda rows, name=name, real=getattr(linalg, name):
                                real(sparse(name, rows)))
        real_solve = linalg.echelon_solve
        monkeypatch.setattr(linalg, "echelon_solve", lambda H, vs: real_solve(
            sparse("echelon_solve", H), sparse("echelon_solve", vs)))
        # the JSON matrices hold zeros, which the coordinate rows leave out
        X = FilteredModule.from_json(
            '{"n_min":0,"n_max":2,"ranks":[3,2,1],"maps":[[[0,0],[1,0],[0,1]],[[0],[1]]]}')
        assert X.maps == [[{1: 1}, {2: 1}], [{1: 1}]]
        assert handed == ["rank", "rank"]
        T = day_tensor(X, X)
        assert associated_graded(T) == {n: min(n, 4 - n) + 1 for n in range(5)}
        assert set(handed) == {"rank", "invariant_factors", "row_hnf", "echelon_solve"}
        assert handed.count("invariant_factors") == len(T.maps)


def _label(k):
    return "1" if k == 0 else f"C{k}"


def _presentation_json_matches(P):
    """P.to_json() parses to one generator per weight up to the bound, the
    bound, the unit and one entry per stored unordered pair whose texts
    are P.product_text."""
    obj = json.loads(P.to_json())
    assert sorted(obj) == ["bound", "constants", "unit", "weights"]
    assert (obj["bound"], obj["unit"]) == (P.bound, "1")
    assert obj["weights"] == {str(k): [_label(k)] for k in range(P.bound + 1)}
    assert [(e["i"], e["j"]) for e in obj["constants"]] == \
        [(_label(i), _label(j)) for i, j in P.pairs()]
    assert {frozenset(pair) for pair in P.pairs()} == {frozenset(key) for key in P.constants}
    for e, (i, j) in zip(obj["constants"], P.pairs()):
        assert e["out"] == P.product_text(i, j)


class TestGradedAlgebraPresentation:
    def _tiny(self):
        # 1, C1, C2 with C1 * C1 = t C1 + 2 C2
        return rees(2)

    def test_product_lookup_symmetric(self):
        P = self._tiny()
        assert P.constants[1, 1] == {1: 1, 2: 2}
        assert P.constants[0, 2] == P.constants[2, 0] == {2: 1}
        with pytest.raises(InputError, match="not stored"):
            P.product_text(1, 2)

    def test_specialize(self):
        P = self._tiny()
        assert P.specialize(1)[("C1", "C1")] == {"C1": 1, "C2": 2}
        assert P.specialize(0)[("C1", "C1")] == {"C2": 2}
        # keyed in pairs() order, lighter generator first: ("C2", "C10")
        P = rees(12)
        assert P.pairs() == [(i, j) for i in range(13) for j in range(i, 13 - i)]
        assert list(P.specialize(1)) == [(_label(i), _label(j)) for i, j in P.pairs()]

    def test_json_round_trip(self):
        P = self._tiny()
        _presentation_json_matches(P)
        assert json.loads(P.to_json())["constants"][-1] == \
            {"i": "C1", "j": "C1", "out": {"C1": "t", "C2": "2"}}

    def test_specialize_refusal_counts_bits(self):
        # the largest t-exponent of rees(12) is 6, on a constant of 7 bits
        with pytest.raises(InputError) as info:
            rees(12).specialize(-(3 ** 1300))
        assert str(info.value) == ("bound overflow: specializing t needs 12367 bits in one "
                                   "constant, over intz.EVAL_BITS_LIMIT = 10000")


@st.composite
def _random_presentation(draw):
    """Generators 0..bound, generator k of weight k and 0 the unit, and
    arbitrary (not associative) constants on every pair in the bound:
    {k: c} in the product i * j stands for c * t^(i + j - k), zero
    coefficients included."""
    bound = draw(st.integers(0, 6))
    constants = {}
    for i in range(bound + 1):
        for j in range(i, bound + 1 - i):
            if i == 0:
                constants[i, j] = {j: 1}
            else:
                constants[i, j] = draw(st.dictionaries(st.integers(0, i + j),
                                                       st.integers(-9, 9), max_size=3))
    return constants, bound


def _installed(constants, bound):
    """rees(0) with the given {k: c} tables for the pairs i <= j installed
    in its stored form: the nonzero integers c under both orders of each
    pair, in the order given."""
    P = rees(0)
    P.bound, P.constants = bound, {}
    for (i, j), out in constants.items():
        P.constants[i, j] = P.constants[j, i] = {k: c for k, c in out.items() if c}
    return P


def _scaled_rees(bound, s):
    """rees(bound) with t replaced by s*t, a ring map of Z[t]: still
    associative and weight-homogeneous, and at s = 0 the divided powers."""
    R = rees(bound)
    return {(i, j): {k: c * s ** (i + j - k) for k, c in R.constants[i, j].items()}
            for i, j in R.pairs()}


_SCALED_REES = st.builds(lambda bound, s: (_scaled_rees(bound, s), bound),
                        st.integers(0, 7), st.integers(-3, 3))


def _sparse_case(bound, products):
    """Generators 0..bound with the unit law and the given products
    {(i, j): {k: c}}, every other product zero."""
    constants = {(i, j): {} for i in range(bound + 1) for j in range(i, bound + 1 - i)}
    constants.update({(0, j): {j: 1} for j in range(bound + 1)})
    constants.update(products)
    return constants, bound


# Each fails on one comparison only: (b1 b2) b2 = b5 but b1 (b2 b2) = 0,
# while b2 (b1 b2) = b5 as the table is symmetric; and (b1 b2) b3 = 0 =
# b1 (b2 b3) but b2 (b1 b3) = b6.
_ONLY_A_BC_FAILS = _sparse_case(5, {(1, 2): {3: 1}, (2, 3): {5: 1}})
_ONLY_B_AC_FAILS = _sparse_case(6, {(1, 3): {4: 1}, (2, 4): {6: 1}})


class TestIntegerPresentation:
    """The integer constants against the SparsePoly values they stand for."""

    @given(_random_presentation())
    @settings(max_examples=100, deadline=None)
    def test_matches_sparse_poly_route(self, case):
        constants, bound = case
        P = _installed(constants, bound)
        assert P.pairs() == list(constants)
        for (i, j), out in constants.items():
            given_out = {k: c for k, c in out.items() if c}
            assert P.constants[i, j] == P.constants[j, i] == given_out
            assert P.product_text(i, j) == {
                _label(k): str(t_poly({i + j - k: c})) for k, c in given_out.items()}
            for v in range(-5, 6):
                want = {_label(k): t_poly({i + j - k: c}).evaluate({"t": v})
                        for k, c in given_out.items()}
                want = {k: x for k, x in want.items() if x}
                assert P.specialize(v)[_label(i), _label(j)] == want
        _presentation_json_matches(P)

    @given(st.one_of(_random_presentation(), _SCALED_REES))
    @example(_ONLY_A_BC_FAILS)
    @example(_ONLY_B_AC_FAILS)
    @settings(max_examples=150, deadline=None)
    def test_associativity_matches_z_t_route(self, case):
        """The integer check raises exactly when some ordered triple fails
        in Z[t], and names one that does."""
        constants, bound = case
        P = _installed(constants, bound)
        failing = failing_triples(P)
        if not failing:
            P.check_associative()
            return
        with pytest.raises(FalsificationError, match="associativity fails on") as info:
            P.check_associative()
        named = str(info.value).split(" on (")[1].rstrip(")")
        assert tuple(int(g[1:]) for g in named.split(",")) in failing

    @pytest.mark.parametrize("case,named", [(_ONLY_A_BC_FAILS, "(C1,C2,C2)"),
                                            (_ONLY_B_AC_FAILS, "(C2,C1,C3)")],
                             ids=["a(bc)", "b(ac)"])
    def test_explicit_cases_fail_one_comparison_each(self, case, named):
        """Each explicit table fails on the one comparison its comment names."""
        P = _installed(*case)
        assert failing_triples(P)
        with pytest.raises(FalsificationError) as info:
            P.check_associative()
        assert str(info.value) == f"associativity fails on {named}"

    def test_text_form_is_sparse_poly_str(self):
        """Each text is one term c * t^(i+j-k), printed as SparsePoly prints it."""
        R = rees(30)
        for i, j in R.pairs():
            assert R.product_text(i, j) == {
                _label(k): str(t_poly({i + j - k: c})) for k, c in R.constants[i, j].items()}

    @given(st.integers(4, 6), st.integers(-3, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_perturbed_constant_breaks_associativity(self, bound, s, data):
        constants = _scaled_rees(bound, s)
        _installed(constants, bound).check_associative()
        # Perturb c_ab at an index k <= a + b by d*t^(a + b - k).  For a
        # third generator c outside {a, b} within the bound, (ab)c gains
        # d*t^e*C_k*C_c, whose top index is k + c with a constant free of
        # t, while a(bc) gains at most a multiple of d*t^e*C_k: the triple
        # (a, b, c) fails.
        pairs = [(i, j) for i, j in constants if i and any(
            g not in (0, i, j) and i + j + g <= bound for g in range(bound + 1))]
        i, j = data.draw(st.sampled_from(pairs))
        k = data.draw(st.integers(0, i + j))
        out = dict(constants[i, j])
        out[k] = out.get(k, 0) + data.draw(st.sampled_from([-2, -1, 1, 2]))
        constants[i, j] = out
        bad = _installed(constants, bound)
        with pytest.raises(FalsificationError, match="associativity"):
            bad.check_associative()


class TestRees:
    def test_weight_ranks(self):
        # generator k has weight k: one generator in each weight 0..6
        R = rees(6)
        assert sorted({i for i, _ in R.constants}) == list(range(7))

    def test_frozen_basic_product(self):
        # x^2 = x(x-1) + x lifts to C1*C1 = t*C1 + 2*C2
        R = rees(4)
        assert R.constants[1, 1] == {1: 1, 2: 2}
        assert R.product_text(1, 1) == {"C1": "t", "C2": "2"}

    def test_specialize_one_matches_binomial_ring(self):
        R = rees(6)
        spec = R.specialize(1)
        for i in range(1, 4):
            for j in range(i, 4):
                got = spec[f"C{i}", f"C{j}"]
                want = {("1" if k == 0 else f"C{k}"): c
                        for k, c in intz.basis_product(i, j).items() if c}
                assert got == want

    def test_specialize_zero_is_divided_powers(self):
        R = rees(8)
        spec = R.specialize(0)
        for m in range(1, 5):
            for n in range(m, 4):
                got = spec[f"C{m}", f"C{n}"]
                assert got == {f"C{m + n}": binomial_int(m + n, n)}

    def test_associative(self):
        rees(6).check_associative()

    def test_associative_at_bound_30(self):
        rees(30).check_associative()

    def test_json_round_trip(self):
        _presentation_json_matches(rees(3))


class TestDrinfeldBasis:
    def test_frozen_b2(self):
        b2 = drinfeld_poly(2)
        x = SparsePoly.variable("x")
        t = SparsePoly.variable("t")
        assert b2.poly == (x * x - x * t) * Fraction(1, 2)

    def test_at_t_one_is_binomial(self):
        for n in range(8):
            assert drinfeld_poly(n).at_t(1) == binomial_poly(n)

    def test_at_t_zero_is_power_over_factorial(self):
        x = SparsePoly.variable("x")
        fact = 1
        for n in range(8):
            if n:
                fact *= n
            assert drinfeld_poly(n).at_t(0) == x ** n * Fraction(1, fact)

    def test_t_degree_bound(self):
        for n in range(1, 9):
            assert degree_in(drinfeld_poly(n).poly, "t") <= n - 1

    def test_frozen_constants_1_1(self):
        t = SparsePoly.variable("t")
        for fn in (drinfeld_structure_constants, elimination_constants):
            assert fn(1, 1) == {1: t, 2: SparsePoly.constant(2)}

    def test_frozen_constants_1_2(self):
        t = SparsePoly.variable("t")
        for fn in (drinfeld_structure_constants, elimination_constants):
            assert fn(1, 2) == {2: t * 2, 3: SparsePoly.constant(3)}

    def test_integrality_sweep(self):
        for m in range(5):
            for n in range(m, 5):
                cs = elimination_constants(m, n)
                for k, c in cs.items():
                    assert all(v.denominator == 1 for _, v in c.items())
                    assert degree_in(c, "t") <= m + n - k

    def test_top_constant_is_binomial(self):
        for m in range(1, 5):
            for n in range(m, 5):
                top = drinfeld_structure_constants(m, n)[m + n]
                assert top == SparsePoly.constant(binomial_int(m + n, n))

    def test_matches_rees_constants(self):
        R = rees(5)
        for i in range(1, 3):
            for j in range(i, 4):
                assert {k: t_poly({i + j - k: c}) for k, c in R.constants[i, j].items()} == \
                    elimination_constants(i, j)

    def test_constants_against_factorials(self):
        """c_mnk from factorials alone, for every m, n <= 24: the closed
        form basis_product, the pairs stored in rees(24), and the Drinfeld
        constants c_mnk t^(m+n-k), formed here by SparsePoly arithmetic."""
        t = SparsePoly.variable("t")
        powers = [t ** e for e in range(49)]
        for m in range(25):
            for n in range(25):
                want = factorial_constants(m, n)
                assert intz.basis_product(m, n) == want
                assert drinfeld_structure_constants(m, n) == {
                    k: powers[m + n - k] * c for k, c in want.items()}
        R = rees(24)
        assert sorted(R.constants) == [(i, j) for i in range(25) for j in range(25 - i)]
        for (i, j), cs in R.constants.items():
            assert cs == factorial_constants(i, j)

    def test_group_law_samples(self):
        samples = [(a, b, t) for a in (-2, 1, 3) for b in (-1, 2) for t in (-1, 0, 2)]
        drinfeld_group_law_samples(5, samples)

    def test_group_law_detects_wrong_law(self):
        # the deformed law belongs to the series variable, not the
        # evaluation point: convolving then evaluating at a+b+tab fails
        basis = [drinfeld_poly(k) for k in range(3)]
        a, b, t = 2, 1, 1
        left = basis[2].evaluate(a + b + t * a * b, t)
        right = sum(basis[i].evaluate(a, t) * basis[2 - i].evaluate(b, t) for i in range(3))
        assert left != right

    @given(st.integers(0, 24).flatmap(lambda total: st.tuples(st.integers(0, total),
                                                              st.just(total))))
    @example((12, 24))
    @example((0, 24))
    @settings(max_examples=40, deadline=None)
    def test_closed_form_equals_elimination(self, case):
        m, total = case
        assert drinfeld_structure_constants(m, total - m) == elimination_constants(m, total - m)

    def test_work_limits(self):
        with pytest.raises(InputError, match="bound overflow"):
            drinfeld_structure_constants(10 ** 6, 10 ** 6)
        with pytest.raises(InputError, match="bound overflow"):
            rees(10 ** 5)
        assert len(drinfeld_structure_constants(150, 150)) == 151


@pytest.mark.parametrize("call,err", [
    (lambda: degree_filtration_module(-1), "N must be nonnegative"),
    (lambda: FilteredModule.from_lattices(1, 0, []), "need at least one stage"),
], ids=["degree-filtration", "no-stage"])
def test_out_of_contract_arguments_are_refused(call, err):
    with pytest.raises(InputError, match=f"^{err}$"):
        call()
