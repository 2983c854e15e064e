"""Bar/cobar complexes, integer homology, and shuffle products."""

import functools
import itertools

import pytest
from hypothesis import given, seed, settings, strategies as st

from hopfwitt import homology, intz, linalg
from hopfwitt.binomial import binomial_int
from hopfwitt.errors import FalsificationError, InputError
from hopfwitt.homology import (
    BarHomologyWindow,
    ChainComplex,
    GradedAugmentedAlgebra,
    GradedCoalgebra,
    bar_complex,
    bar_differential_word,
    cobar_complex,
    _Window,
    _add_term,
    shuffle_chains,
)
from hopfwitt.cli import _homology_out

import linalg_oracle as oracle
from window_oracle import (
    cobar_differential_word,
    exterior_algebra,
    trivial_algebra,
    trivial_coalgebra,
    visited_words,
    window_words,
)


def _truncated_poly(p):
    """Z[x]/x^p with deg x = 2, weight 1."""
    basis = [("1", 0, 0)] + [(f"x{k}" if k > 1 else "x", 2 * k, k) for k in range(1, p)]
    labels = [b[0] for b in basis]

    def lab(k):
        return "1" if k == 0 else ("x" if k == 1 else f"x{k}")

    products = {}
    for a in range(p):
        for b in range(p):
            out = {lab(a + b): 1} if a + b < p else {}
            products[(lab(a), lab(b))] = out
    return GradedAugmentedAlgebra(basis, "1", products)


class TestGradedAugmentedAlgebra:
    def test_exterior_valid(self):
        A = GradedAugmentedAlgebra.truncated(2, -1, -1)
        assert A.augmentation_ideal() == ["x"]
        assert A.products["x", "x"] == {}

    def test_truncated_poly_valid(self):
        A = _truncated_poly(3)
        assert A.products[("x", "x")] == {"x2": 1}
        assert A.products[("x", "x2")] == {}

    def test_missing_product_rejected(self):
        with pytest.raises(InputError, match="missing"):
            GradedAugmentedAlgebra([("1", 0, 0), ("e", 1, 1)], "1",
                                   {("1", "1"): {"1": 1}})

    def test_non_bigraded_rejected(self):
        with pytest.raises(InputError, match="bigraded"):
            GradedAugmentedAlgebra(
                [("1", 0, 0), ("e", 1, 1)], "1",
                {("1", "1"): {"1": 1}, ("1", "e"): {"e": 1},
                 ("e", "1"): {"e": 1}, ("e", "e"): {"e": 1}})

    def test_non_multiplicative_augmentation_rejected(self):
        # Z[a]/(a^2 - 1) with a in (0, 0) is an algebra, but a*a = 1 means
        # the augmentation that kills a is not a ring map
        with pytest.raises(InputError, match="augmentation is not multiplicative"):
            GradedAugmentedAlgebra(
                [("1", 0, 0), ("a", 0, 0)], "1",
                {("1", "1"): {"1": 1}, ("1", "a"): {"a": 1},
                 ("a", "1"): {"a": 1}, ("a", "a"): {"1": 1}})

    def test_koszul_symmetry_rejected(self):
        # two odd generators with f*g != -g*f
        basis = [("1", 0, 0), ("f", 1, 1), ("g", 1, 1), ("h", 2, 2)]
        prods = {}
        for a in ("1", "f", "g", "h"):
            prods[("1", a)] = {a: 1}
            prods[(a, "1")] = {a: 1}
        prods.update({("f", "f"): {}, ("g", "g"): {}, ("h", "h"): {},
                      ("f", "g"): {"h": 1}, ("g", "f"): {"h": 1},
                      ("f", "h"): {}, ("h", "f"): {}, ("g", "h"): {}, ("h", "g"): {}})
        with pytest.raises(InputError, match="Koszul"):
            GradedAugmentedAlgebra(basis, "1", prods)

    def test_unit_law_rejected(self):
        with pytest.raises(InputError, match="unit"):
            GradedAugmentedAlgebra(
                [("1", 0, 0), ("e", 1, 1)], "1",
                {("1", "1"): {"1": 1}, ("1", "e"): {"e": 2},
                 ("e", "1"): {"e": 2}, ("e", "e"): {}})

    @pytest.mark.parametrize("basis,products,err", [
        ([("1", 0, 0), ("1", 0, 0)], {("1", "1"): {"1": 1}}, "^duplicate basis labels$"),
        ([("1", 0, 1)], {("1", "1"): {"1": 1}},
         r"^unit must be a basis label in bidegree \(0, 0\)$"),
        ([("1", 0, 0), ("e", 1, 1)],
         {("1", "1"): {"1": 1}, ("1", "e"): {"e": 1}, ("e", "1"): {"e": 1}, ("e", "e"): {"q": 1}},
         r"^product \(e,e\) hits unknown label q$"),
    ], ids=["duplicate-label", "unit-bidegree", "unknown-label"])
    def test_malformed_table_rejected(self, basis, products, err):
        with pytest.raises(InputError, match=err):
            GradedAugmentedAlgebra(basis, "1", products)

    def test_associativity_rejected(self):
        # a^2 = c and c b = d, but a b = 0: (a a) b = d while a (a b) = 0
        labels = ["1", "a", "b", "c", "d"]
        prods = {(x, y): {} for x in labels for y in labels}
        for x in labels:
            prods["1", x] = prods[x, "1"] = {x: 1}
        prods["a", "a"] = {"c": 1}
        prods["c", "b"] = prods["b", "c"] = {"d": 1}
        with pytest.raises(InputError, match="associativity fails on"):
            GradedAugmentedAlgebra([("1", 0, 0), ("a", 2, 1), ("b", 2, 1), ("c", 4, 2),
                                    ("d", 6, 3)], "1", prods)


def test_bar_homology_window_refuses_negative_bounds():
    with pytest.raises(InputError, match="^bounds must be nonnegative$"):
        BarHomologyWindow(GradedAugmentedAlgebra.truncated(3), -1, 2)


class TestNamedConstructors:
    """truncated(p, degree, weight) builds every named algebra and
    divided_power(N) every named coalgebra; at p = 2, p = 1 and N = 0
    they give the complexes of the exterior, trivial and trivial
    coalgebra tables written out in window_oracle."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.integers(-3, 3), st.sampled_from([1, -1, 2, -2]), st.integers(0, 6))
    def test_p_two_is_the_exterior_algebra(self, degree, weight, wb):
        got = bar_complex(GradedAugmentedAlgebra.truncated(2, degree, weight), wb, wb)
        want = bar_complex(exterior_algebra(degree, weight), wb, wb)
        assert (got.ranks, got.diffs) == (want.ranks, want.diffs)
        # weight 0, (0, 0) among them, leaves word length unbounded
        for A in (GradedAugmentedAlgebra.truncated(2, degree, 0), exterior_algebra(degree, 0)):
            with pytest.raises(InputError, match="cannot bound word length"):
                bar_complex(A, wb, wb)

    @pytest.mark.parametrize("wb", range(7))
    def test_p_one_and_n_zero_are_trivial(self, wb):
        got = bar_complex(GradedAugmentedAlgebra.truncated(1), wb, wb)
        want = bar_complex(trivial_algebra(), wb, wb)
        assert (got.ranks, got.diffs) == (want.ranks, want.diffs)
        got = cobar_complex(GradedCoalgebra.divided_power(0), None, wb)
        want = cobar_complex(trivial_coalgebra(), None, wb)
        assert (got.ranks, got.diffs) == (want.ranks, want.diffs)

    @pytest.mark.parametrize("p", [3, 4, 5])
    @pytest.mark.parametrize("degree", [-3, -1, 1, 3])
    def test_odd_degree_past_the_exterior_case_refused(self, p, degree):
        # x.x = x2 would have to be -x2
        with pytest.raises(InputError, match=r"^products \(x,x\) and \(x,x\) violate "
                                             r"Koszul symmetry$"):
            GradedAugmentedAlgebra.truncated(p, degree, 1)


class TestGradedCoalgebra:
    def test_divided_power_valid(self):
        C = GradedCoalgebra.divided_power(3)
        assert C.bidegree["g2"] == (4, 2)
        assert C.reduced["g2"] == {("g1", "g1"): 1}
        assert C.reduced["g1"] == {}

    def test_counit_law_rejected(self):
        with pytest.raises(InputError, match="counit"):
            GradedCoalgebra(
                [("1", 0, 0), ("y", 2, 1)], "1",
                {"1": {("1", "1"): 1}, "y": {("1", "y"): 1}})

    def test_coassociativity_rejected(self):
        # asymmetric g1*g2 versus g2*g1 coefficients in the diagonal of
        # g3 leave a (b-a) g1|g1|g1 discrepancy between the two
        # reassociations
        with pytest.raises(InputError, match="coassociat"):
            GradedCoalgebra(
                [("1", 0, 0), ("g1", 2, 1), ("g2", 4, 2), ("g3", 6, 3)], "1",
                {"1": {("1", "1"): 1},
                 "g1": {("1", "g1"): 1, ("g1", "1"): 1},
                 "g2": {("1", "g2"): 1, ("g2", "1"): 1, ("g1", "g1"): 1},
                 "g3": {("1", "g3"): 1, ("g3", "1"): 1,
                        ("g1", "g2"): 1, ("g2", "g1"): 2}})

    def test_group_like_coaugmentation_enforced(self):
        with pytest.raises(InputError, match="group-like"):
            GradedCoalgebra([("1", 0, 0)], "1", {"1": {("1", "1"): 2}})

    @pytest.mark.parametrize("basis,delta,err", [
        ([("1", 0, 0), ("1", 0, 0)], {"1": {("1", "1"): 1}}, "^duplicate basis labels$"),
        ([("1", 1, 0)], {"1": {("1", "1"): 1}},
         r"^coaugmentation must be a basis label in bidegree \(0, 0\)$"),
        ([("1", 0, 0), ("y", 2, 1)], {"1": {("1", "1"): 1}}, "^diagonal of y missing$"),
        ([("1", 0, 0), ("y", 2, 1)],
         {"1": {("1", "1"): 1}, "y": {("1", "y"): 1, ("y", "1"): 1, ("q", "q"): 1}},
         r"^diagonal of y hits unknown labels \(q,q\)$"),
        ([("1", 0, 0), ("y", 2, 1)],
         {"1": {("1", "1"): 1}, "y": {("1", "y"): 1, ("y", "1"): 1, ("y", "y"): 1}},
         r"^diagonal of y is not bigraded at \(y,y\)$"),
    ], ids=["duplicate-label", "coaugmentation-bidegree", "missing-diagonal", "unknown-label",
            "not-bigraded"])
    def test_malformed_table_rejected(self, basis, delta, err):
        with pytest.raises(InputError, match=err):
            GradedCoalgebra(basis, "1", delta)


class TestChainComplex:
    def test_zero_differential(self):
        C = ChainComplex({0: {0: 3}}, {})
        assert C.homology() == {(0, 0): (3, [])}

    def test_times_two_gives_torsion(self):
        C = ChainComplex({0: {0: 1, 1: 1}}, {0: {1: [{0: 2}]}})
        assert C.homology() == {(0, 0): (0, [2]), (1, 0): (0, [])}

    def test_square_nonzero_rejected(self):
        with pytest.raises(FalsificationError, match="d\\*d"):
            ChainComplex({0: {0: 1, 1: 1, 2: 1}}, {0: {1: [{0: 1}], 2: [{0: 1}]}})

    def test_shape_mismatch_rejected(self):
        # two columns for a rank-one source
        with pytest.raises(InputError, match="shape"):
            ChainComplex({0: {0: 2, 1: 1}}, {0: {1: [{0: 1}, {1: 1}]}})

    @pytest.mark.parametrize("row", [1, 2, -1])
    def test_row_index_out_of_range_rejected(self, row):
        # rank(0, 0) is 1, so row 0 is the only target; weight 1 has more
        # rows at degree 0, which weight 0 may not use
        with pytest.raises(InputError, match="shape"):
            ChainComplex({0: {0: 1, 1: 1}, 1: {0: 3}}, {0: {1: [{0: 1, row: 1}]}})

    @pytest.mark.parametrize("ranks,diffs", [
        # d(1) d(2) != 0 below a row out of range in d(3)
        ({0: {0: 1, 1: 1, 2: 1, 3: 1}}, {0: {1: [{0: 1}], 2: [{0: 1}], 3: [{5: 1}]}}),
        # the row out of range is in d(1), which d(2) composes with
        ({0: {0: 1, 1: 1, 2: 1}}, {0: {1: [{5: 1}], 2: [{0: 1}]}}),
        # d*d != 0 in weight 0, a row out of range in weight 1
        ({0: {0: 1, 1: 1, 2: 1}, 1: {0: 1, 1: 1}},
         {0: {1: [{0: 1}], 2: [{0: 1}]}, 1: {1: [{3: 1}]}}),
    ], ids=["higher-degree", "composed-degree", "other-weight"])
    def test_wrong_shape_raised_before_square_nonzero(self, ranks, diffs):
        with pytest.raises(InputError, match="shape"):
            ChainComplex(ranks, diffs)

    def test_explicit_zero_entry(self):
        C = ChainComplex({0: {0: 2, 1: 1}}, {0: {1: [{0: 0, 1: 3}]}})
        assert C.homology() == {(0, 0): (1, [3]), (1, 0): (0, [])}

    def test_tsv_frozen(self):
        C = ChainComplex({0: {0: 1, 1: 1}}, {0: {1: [{0: 2}]}})
        assert _homology_out(C, "text") == (
            "degree\tweight\trank\ttorsion\n"
            "0\t0\t0\t2\n"
            "1\t0\t0\t-\n")


class TestBarComplex:
    def test_trivial_algebra(self):
        C = bar_complex(GradedAugmentedAlgebra.truncated(1), 5, 5)
        assert C.homology() == {(0, 0): (1, [])}

    def test_exterior_negative_degree(self):
        # every face multiplies two square-zero letters, so d vanishes
        A = GradedAugmentedAlgebra.truncated(2, -1, -1)
        C = bar_complex(A, 6, 6)
        assert not any(C.diffs.values())
        H = C.homology()
        for n in range(7):
            assert H[(0, -n)] == (1, [])
        assert len(H) == 7

    def test_exterior_positive_degree_divided_pattern(self):
        A = GradedAugmentedAlgebra.truncated(2, 1, 1)
        H = bar_complex(A, 4, 4).homology()
        for n in range(5):
            assert H[(2 * n, n)] == (1, [])
        assert len(H) == 5

    def test_truncated_cube_window(self):
        # hand computation: weight 1 gives Z at degree 3; weight 2 is
        # exact (d(x|x) = -(x2)); weight 3 leaves Z at degree 8 from
        # (x|x2), (x2|x) modulo the image (1,-1) of (x|x|x)
        A = _truncated_poly(3)
        H = bar_complex(A, 3, 3).homology()
        assert H == {
            (0, 0): (1, []),
            (3, 1): (1, []),
            (5, 2): (0, []),
            (6, 2): (0, []),
            (8, 3): (1, []),
            (9, 3): (0, []),
        }

    def test_quartic_truncation_signs_cancel(self):
        # d*d on (x|x|x) cancels only through the Koszul signs; the
        # construction check would reject a wrong convention
        bar_complex(_truncated_poly(4), 4, 4)

    def test_differential_word_frozen(self):
        A = _truncated_poly(4)
        # faces of (x|x|x): signs -, + by the shifted-degree rule
        assert bar_differential_word(A, ("x", "x", "x")) == {
            ("x2", "x"): -1, ("x", "x2"): 1}

    def test_euler_characteristic_per_strand(self):
        A = _truncated_poly(3)
        C = bar_complex(A, 4, 4)
        H = C.homology()
        for w in C.ranks:
            chain = sum((-1) ** q * r for q, r in C.ranks[w].items())
            hom = sum((-1) ** q * H[(q, w)][0] for (q, ww) in H if ww == w)
            assert chain == hom

    def test_bound_overflow(self):
        # two weight-one letters: 2^(w+1) - 1 words up to weight w, so the
        # word count doubles with every weight until the guard trips
        basis = [("1", 0, 0), ("a", 2, 1), ("b", 2, 1)]
        prods = {}
        for x in ("1", "a", "b"):
            prods[("1", x)] = {x: 1}
            prods[(x, "1")] = {x: 1}
        for x in ("a", "b"):
            for y in ("a", "b"):
                prods[(x, y)] = {}
        A = GradedAugmentedAlgebra(basis, "1", prods)
        with pytest.raises(InputError, match="overflow"):
            bar_complex(A, 18, 18)

    @pytest.mark.parametrize("weights", [(0,), (1, -1), (2, 0)], ids=["zero", "mixed", "one-zero"])
    def test_letters_of_mixed_or_zero_weight_rejected(self, weights):
        # nothing bounds the length of a word at a fixed weight, so no
        # window holds a whole strand; truncated(2, 0, 0) is the first case
        letters = [f"e{i}" for i in range(len(weights))]
        basis = [("1", 0, 0)] + [(e, 1, w) for e, w in zip(letters, weights)]
        prods = {(x, y): {} for x in letters for y in letters}
        prods |= {("1", x): {x: 1} for x in ["1"] + letters}
        prods |= {(x, "1"): {x: 1} for x in letters}
        algebras = [GradedAugmentedAlgebra(basis, "1", prods)]
        if weights == (0,):
            algebras.append(GradedAugmentedAlgebra.truncated(2, 0, 0))
        refusal = "cannot bound word length: letters need weights of one strict sign"
        for A in algebras:
            with pytest.raises(InputError, match=refusal):
                bar_complex(A, 4, 4)
            with pytest.raises(InputError, match=refusal):
                BarHomologyWindow(A, 4, 4).complex
            with pytest.raises(InputError, match=refusal):
                BarHomologyWindow(A, 4, 4).reduce_cycle({("e0",): 1})

    def test_stages_short_of_the_longest_word_rejected(self):
        # ROADMAP item 7: the 3-stage window of weight 6 printed ranks 2, 3
        # and 1 at (11,4), (13,5) and (15,6), where the whole complex has
        # 1, 0 and 0
        A = GradedAugmentedAlgebra.truncated(3)
        with pytest.raises(InputError, match=r"^weight bound 6 needs words of length 6, above "
                                             r"stages 3: the window would cut the strands "
                                             r"of its top weights$"):
            bar_complex(A, 3, 6)
        H = bar_complex(A, 6, 6).homology()
        assert [H[key] for key in ((11, 4), (13, 5), (15, 6))] == [(1, []), (0, []), (0, [])]
        # the lightest letter decides: sx alone has weight 2, s weight 1
        bar_complex(_exterior_times_dual_numbers(), 4, 4)
        with pytest.raises(InputError, match="needs words of length 4, above stages 3"):
            bar_complex(_exterior_times_dual_numbers(), 3, 4)


class TestCobarComplex:
    def test_trivial_coalgebra(self):
        C = cobar_complex(GradedCoalgebra.divided_power(0), 5, 5)
        assert C.homology() == {(0, 0): (1, [])}

    def test_divided_power_differential_frozen(self):
        C = GradedCoalgebra.divided_power(3)
        assert cobar_differential_word(C, ("g2",)) == {("g1", "g1"): 1}

    def test_divided_power_weight_window(self):
        C = GradedCoalgebra.divided_power(5)
        H = cobar_complex(C, 10, 5).homology()
        nonzero = {k: v for k, v in H.items() if v != (0, [])}
        assert nonzero == {(0, 0): (1, []), (1, 1): (1, [])}

    def test_weight_three_strand_vanishes(self):
        C = GradedCoalgebra.divided_power(3)
        H = cobar_complex(C, 8, 3).homology()
        for (q, w), (free, torsion) in H.items():
            if w == 3:
                assert free == 0 and torsion == []

    def test_koszul_duality_swap(self):
        # H(Bar) of the exterior algebra has the divided-power rank
        # table, and H(Cobar) of the divided-power coalgebra has the
        # exterior rank table
        A = GradedAugmentedAlgebra.truncated(2, 1, 1)
        HB = {k for k, v in bar_complex(A, 4, 4).homology().items() if v != (0, [])}
        G = GradedCoalgebra.divided_power(4)
        assert HB == {(2 * n, n) for n in range(5)}
        assert HB == set(G.bidegree.values())
        HC = {k for k, v in cobar_complex(G, 8, 4).homology().items() if v != (0, [])}
        assert HC == set(A.bidegree.values())

    def test_unbounded_letters_rejected(self):
        C = GradedCoalgebra(
            [("1", 0, 0), ("a", 1, 1), ("b", 1, -1)], "1",
            {"1": {("1", "1"): 1},
             "a": {("1", "a"): 1, ("a", "1"): 1},
             "b": {("1", "b"): 1, ("b", "1"): 1}})
        with pytest.raises(InputError, match="cannot bound word length"):
            cobar_complex(C, 4, 4)

    def test_weight_zero_letters_rejected(self):
        # weight 0 lets cobar words grow without end at a fixed weight
        with pytest.raises(InputError, match="cannot bound word length"):
            cobar_complex(_flat_divided_powers(2), 3, 0)

    def test_degree_bound_below_the_window_rejected(self):
        # ROADMAP item 7: the degree bound 6 trimmed the weight-5 window and
        # printed Z at (6,4) and Z^3 at (6,5), where the cohomology of BH
        # is Z at (0,0) and (1,1) only; g5 alone has degree 9
        C = GradedCoalgebra.divided_power(5)
        with pytest.raises(InputError, match=r"^degree bound 6 is below the \|degree\| 7 of the "
                                             r"strand \(7, 4\) of the window: it would cut its "
                                             r"strands$"):
            cobar_complex(C, 6, 5)
        cobar_complex(C, 9, 5)
        with pytest.raises(InputError, match=r"degree bound 8 is below the \|degree\| 9 "
                                             r"of the strand \(9, 5\)"):
            cobar_complex(C, 8, 5)
        with pytest.raises(InputError, match=r"degree bound -1 is below the \|degree\| 0 "
                                             r"of the strand \(0, 0\)"):
            cobar_complex(GradedCoalgebra.divided_power(0), -1, 5)

    def test_degree_bound_refused_before_the_walk(self, monkeypatch):
        # divided_power(18) at weight 18 has more words than _TUPLE_CAP, and
        # divided_power(17) at 17 has 2^17 - 1 besides the empty word; the
        # walk refuses the bound as it opens g10's strand, (19, 10), the
        # first past it, so it is named before the word cap is reached
        for n in (18, 17):
            with pytest.raises(InputError, match=r"^degree bound 1 is below the \|degree\| 19 "
                                                 r"of the strand \(19, 10\) of the window"):
                cobar_complex(GradedCoalgebra.divided_power(n), 1, n)
        # g2 opens (3, 2) long before weight 10**9 would pass the cap
        with pytest.raises(InputError, match=r"^degree bound 1 is below the \|degree\| 3 "
                                             r"of the strand \(3, 2\)"):
            cobar_complex(GradedCoalgebra.divided_power(3), 1, 10 ** 9)
        monkeypatch.setattr(homology, "_TUPLE_CAP", 2 ** 17 - 2)
        with pytest.raises(InputError, match=r"\|degree\| 19 of the strand \(19, 10\)"):
            cobar_complex(GradedCoalgebra.divided_power(17), 1, 17)
        with pytest.raises(InputError, match=r"word window needs at least \d+ words"):
            cobar_complex(GradedCoalgebra.divided_power(17), 34, 17)

    def test_degree_bound_refused_under_a_small_cap(self, monkeypatch):
        # the first plan forms 18 words and the second passes a cap of 20,
        # so a bound checked only once the walk ends would name the cap
        monkeypatch.setattr(homology, "_TUPLE_CAP", 20)
        for n in (18, 17):
            with pytest.raises(InputError, match=r"^degree bound 1 is below the \|degree\| 19 "):
                cobar_complex(GradedCoalgebra.divided_power(n), 1, n)


def _exterior_times_dual_numbers():
    """Lambda(s) (x) Z[x]/x^2, with s in (1, 1), x in (2, 1) and sx in
    (3, 2): the bar words (s|s) and (sx) share the group (4, 2)."""
    return GradedAugmentedAlgebra(
        [("1", 0, 0), ("s", 1, 1), ("x", 2, 1), ("sx", 3, 2)], "1",
        {(a, b): ({"sx": 1} if {a, b} == {"s", "x"} else {}) for a in ("s", "x", "sx")
         for b in ("s", "x", "sx")}
        | {("1", a): {a: 1} for a in ("1", "s", "x", "sx")}
        | {(a, "1"): {a: 1} for a in ("s", "x", "sx")})


class TestShuffle:
    def _window(self):
        return BarHomologyWindow(GradedAugmentedAlgebra.truncated(2, -1, -1), 8, 8)

    def _gamma(self, n):
        return {("x",) * n: 1}

    def test_frozen_small_products(self):
        A = GradedAugmentedAlgebra.truncated(2, -1, -1)
        assert shuffle_chains(A, self._gamma(1), self._gamma(1)) == {("x", "x"): 2}
        assert shuffle_chains(A, self._gamma(1), self._gamma(2)) == {("x",) * 3: 3}
        assert shuffle_chains(A, self._gamma(2), self._gamma(2)) == {("x",) * 4: 6}

    def test_constants_match_binomials_and_ring(self):
        A = GradedAugmentedAlgebra.truncated(2, -1, -1)
        for m in range(1, 5):
            for n in range(m, 5):
                got = shuffle_chains(A, self._gamma(m), self._gamma(n))
                assert got == {("x",) * (m + n): binomial_int(m + n, n)}
                assert got[("x",) * (m + n)] == intz.graded_constant(m, n)

    def test_reduced_classes(self):
        W = self._window()
        assert W.shuffle_classes(self._gamma(1), self._gamma(1)) == {(0, -2): (2,)}
        assert W.shuffle_classes(self._gamma(2), self._gamma(2)) == {(0, -4): (6,)}

    def test_associative_on_chains(self):
        A = GradedAugmentedAlgebra.truncated(2, -1, -1)
        left = shuffle_chains(A, shuffle_chains(A, self._gamma(1), self._gamma(1)), self._gamma(1))
        right = shuffle_chains(A, self._gamma(1), shuffle_chains(A, self._gamma(1), self._gamma(1)))
        assert left == right == {("x",) * 3: 6}

    def test_odd_shifted_degree_square_vanishes(self):
        # letters of shifted degree -1 anticommute, so the square is zero
        A = GradedAugmentedAlgebra.truncated(2, -2, -1)
        assert shuffle_chains(A, {("x",): 1}, {("x",): 1}) == {}

    @seed(20261018)
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(["s", "x", "sx"]), max_size=3),
           st.lists(st.sampled_from(["s", "x", "sx"]), max_size=3))
    def test_signs_match_koszul_rule_on_permutations(self, xw, yw):
        # shifted degrees 2, 3 and 4, both parities
        A = _exterior_times_dual_numbers()
        word = tuple(xw) + tuple(yw)
        shifted = [A.bidegree[a][0] + 1 for a in word]
        p = len(xw)
        expect: dict = {}
        for perm in itertools.permutations(range(len(word))):
            xs, ys = [i for i in perm if i < p], [i for i in perm if i >= p]
            if xs != sorted(xs) or ys != sorted(ys):
                continue
            # every pair put out of order contributes its shifted degrees
            e = sum(shifted[perm[b]] * shifted[perm[a]] for a in range(len(perm))
                    for b in range(a + 1, len(perm)) if perm[a] > perm[b])
            # the shuffles come in the order of their x spots, and a word
            # whose sum cancels leaves the dict until it comes again
            _add_term(expect, tuple(word[i] for i in perm), 3 * (-1) ** e)
        assert list(shuffle_chains(A, {tuple(xw): 1}, {tuple(yw): 3}).items()) == list(expect.items())

    def test_non_cycle_rejected(self):
        A = _truncated_poly(3)
        W = BarHomologyWindow(A, 3, 3)
        with pytest.raises(InputError, match="cycle"):
            W.reduce_cycle({("x", "x"): 1})
        # shuffle_classes refuses either factor before it shuffles; their
        # product would lie in strand (9, 3)
        for x, y in (({("x", "x"): 1}, {("x",): 1}), ({("x",): 1}, {("x", "x"): 1})):
            with pytest.raises(InputError, match=r"not a cycle in strand \(6, 2\)"):
                W.shuffle_classes(x, y)

    def test_outside_window_rejected(self):
        W = self._window()
        with pytest.raises(InputError, match="window"):
            W.reduce_cycle({("x",) * 9: 1})

    def test_word_longer_than_the_window_rejected(self):
        # (s|s|s|s) and (s|s|sx) share the strand (8, 4), past the weight
        # bound 3; four stages hold it, three do not
        A = _exterior_times_dual_numbers()
        whole, fresh = BarHomologyWindow(A, 4, 3), BarHomologyWindow(A, 4, 3)
        assert whole.complex.rank(8, 4) == 0
        assert whole._window.locate(("s",) * 4) == ((8, 4), None)
        # whatever its coefficient: a zero entry names an unvisited word too,
        # in the whole window and in one the chain builds to its bound 3
        for W in (whole, fresh):
            for coeff in (1, 0):
                for word in (("s",) * 4, ("s", "s", "sx")):
                    with pytest.raises(InputError,
                                       match=r"leaves the computed window at \(8, 4\)"):
                        W.reduce_cycle({word: coeff})
        assert fresh._window.locate(("s", "s", "sx")) == ((8, 4), None)
        # with three stages the chain's weight 4 is refused at the call
        short = BarHomologyWindow(A, 3, 4)
        assert short.reduce_cycle({("s",): 1}) == {(2, 1): (1,)}
        for coeff in (1, 0):
            with pytest.raises(InputError, match="needs words of length 4, above stages 3"):
                short.reduce_cycle({("s",) * 4: coeff})

    def test_stages_refuse_only_the_windows_they_cannot_hold(self):
        # ROADMAP item 7: three stages hold the weight-2 window of
        # Z[x]/x^3, not the weight-6 one, which .complex would build
        A = GradedAugmentedAlgebra.truncated(3)
        W = BarHomologyWindow(A, 3, 6)
        assert W.reduce_cycle({("x2",): 1}) == {}  # x2 = -d[x|x]
        assert W.reduce_cycle({("x",): 3}) == {(3, 1): (3,)}
        with pytest.raises(InputError, match="weight bound 6 needs words of length 6, "
                                             "above stages 3"):
            W.complex
        with pytest.raises(InputError, match="weight bound 4 needs words of length 4"):
            W.reduce_cycle({("x2", "x2"): 1})

    @pytest.mark.parametrize("chain,refusal", [
        # a foreign letter is named even in a word past the window's edge
        ({("x", "x", "x", "z"): 1}, "letter 'z' is not a letter of the window"),
        ({("z",): 1, ("x",) * 4: 1}, "letter 'z' is not a letter of the window"),
        # the words are placed in chain order, all before any cycle check
        ({("x",) * 4: 1, ("z",): 1}, r"chain leaves the computed window at \(12, 4\)"),
        ({("x", "x"): 1, ("x",) * 4: 1}, r"chain leaves the computed window at \(12, 4\)"),
        ({("x", "x2", "x", "x"): 1}, r"chain leaves the computed window at \(14, 5\)"),
        ({("x", "x"): 1, ("x",): 1}, r"chain is not a cycle in strand \(6, 2\)"),
    ])
    def test_refusals_keep_their_order(self, chain, refusal):
        # alike whether the window is built by the chain or read whole first
        A = _truncated_poly(3)
        whole = BarHomologyWindow(A, 3, 3)
        whole.complex
        for W in (BarHomologyWindow(A, 3, 3), whole):
            with pytest.raises(InputError, match=refusal):
                W.reduce_cycle(chain)

    def test_word_cap_refuses_at_the_call_that_forms_the_words(self):
        # `homology bar --algebra truncated:17 --stages 20 --weight-bound 20`
        # is over _TUPLE_CAP; a chain of weight 1 forms two words of it
        W = BarHomologyWindow(GradedAugmentedAlgebra.truncated(17), 20, 20)
        assert W.reduce_cycle({("x",): 1}) == {(3, 1): (1,)}
        with pytest.raises(InputError, match=r"bound overflow: .* homology\._TUPLE_CAP"):
            W.complex

    @pytest.mark.parametrize("letter", ["1", "z"])
    def test_foreign_letter_rejected(self, letter):
        # the unit is no bar letter, and z is no label at all
        W = BarHomologyWindow(GradedAugmentedAlgebra.truncated(2, 1, 1), 2, 2)
        with pytest.raises(InputError, match=f"letter '{letter}' is not a letter of the window"):
            W.reduce_cycle({(letter,): 1})
        with pytest.raises(InputError, match=f"letter '{letter}'"):
            W.reduce_cycle({("x", letter): 1})

    def test_boundary_reduces_to_zero(self):
        A = _truncated_poly(3)
        W = BarHomologyWindow(A, 3, 3)
        boundary = bar_differential_word(A, ("x", "x", "x"))
        assert W.reduce_cycle(boundary) == {}

    def test_shuffle_builds_only_the_weights_it_reads(self, monkeypatch):
        # cycles as the benchmark seeds them: letters x and x2 plus a
        # multiple of d[x|x|x]; each factor has weight 3, and so has the
        # product, whose terms of weights 4 to 6 cancel; its class is 0,
        # since x2 = +-d[x|x]
        built = []
        real = homology._bar_window
        monkeypatch.setattr(homology, "_bar_window",
                            lambda A, s, b: built.append(b) or real(A, s, b))
        A = GradedAugmentedAlgebra.truncated(3)
        d = bar_differential_word(A, ("x", "x", "x"))
        x = {("x",): 2, ("x2",): -3} | {w: -c for w, c in d.items()}
        y = {("x",): -1, ("x2",): 5} | {w: 2 * c for w, c in d.items()}
        W = BarHomologyWindow(A, 6, 6)
        assert {sum(A.bidegree[a][1] for a in w) for w in shuffle_chains(A, x, y)} == {3}
        got = W.shuffle_classes(x, y)
        assert got == {} and built == [3]
        assert W.complex.rank(16, 6) > 0 and built == [3, 6]
        whole = BarHomologyWindow(A, 6, 6)
        whole.complex
        assert whole.shuffle_classes(x, y) == got and built == [3, 6, 6]


def _dense_differential(C, q, w):
    """d from (q, w) as a dense matrix for the oracle, or None."""
    cols = C.differential(q, w)
    return None if cols is None else oracle.dense(cols, C.rank(q - 1, w))


@functools.cache
def _reduce_window(name):
    """One 4-stage bar window per named algebra, built once across
    examples, with the words of its strands from the oracle."""
    A = {"truncated:3": lambda: GradedAugmentedAlgebra.truncated(3),
         "truncated:4": lambda: GradedAugmentedAlgebra.truncated(4),
         "exterior-deg-neg1": lambda: GradedAugmentedAlgebra.truncated(2, -1, -1)}[name]()
    return (BarHomologyWindow(A, 4, 4),
            window_words(_Window(A.augmentation_ideal(), A.bidegree, 1, 4, 4)))


class TestReduceCycleProperties:
    """reduce_cycle picks one representative per homology class: z and
    z + d(c) reduce alike, and z - reduce(z) is a boundary, as the Smith
    form oracle decides."""

    @seed(20240601)
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(["truncated:3", "truncated:4", "exterior-deg-neg1"]), st.data())
    def test_representative_of_the_class(self, name, data):
        W, strands = _reduce_window(name)
        key = data.draw(st.sampled_from(sorted(strands)))
        q, w = key
        words = {i: word for word, i in strands[key].items()}
        coeffs = st.integers(-5, 5)
        down, up = _dense_differential(W.complex, q, w), _dense_differential(W.complex, q + 1, w)
        if down:
            basis = oracle.kernel_basis(down)
            z = [0] * len(words)
            for v in basis:
                a = data.draw(coeffs)
                z = [x + a * y for x, y in zip(z, v)]
        else:
            z = [data.draw(coeffs) for _ in words]
        dc = oracle.mat_vec(up, [data.draw(coeffs) for _ in up[0]]) if up else [0] * len(z)

        def chain(v):
            return {words[i]: x for i, x in enumerate(v) if x}

        red = W.reduce_cycle(chain(z))
        assert W.reduce_cycle(chain([x + y for x, y in zip(z, dc)])) == red
        # W's complex was read whole; a fresh window builds what z reaches
        assert BarHomologyWindow(W.algebra, 4, 4).reduce_cycle(chain(z)) == red
        diff = [x - y for x, y in zip(z, red.get(key, [0] * len(z)))]
        if up:
            assert oracle.member_of_column_lattice(up, diff)
        else:
            assert not any(diff)


# -- windowed word generation against full enumeration ----------------------


def _brute_strands(letters, bidegree, shift, max_len, weight_bound, degree_bound=None):
    """Every word of length at most max_len from itertools.product, kept
    when its (degree, weight) lies in the window; strands in (length,
    word) order, each word mapped to its place."""
    words = {}
    for n in range(max_len + 1):
        for word in itertools.product(letters, repeat=n):
            d = sum(bidegree[a][0] + shift for a in word)
            w = sum(bidegree[a][1] for a in word)
            if abs(w) <= weight_bound and (degree_bound is None or abs(d) <= degree_bound):
                words.setdefault((d, w), []).append(word)
    return {key: {word: i for i, word in enumerate(sorted(ws, key=lambda u: (len(u), u)))}
            for key, ws in words.items()}


_letter_sets = st.lists(st.tuples(st.integers(-2, 3), st.integers(-2, 2)), max_size=3)


def _labelled(bidegrees):
    letters = [f"a{i}" for i in range(len(bidegrees))]
    return letters, dict(zip(letters, bidegrees))


def _strictly_one_sign(values):
    return all(v > 0 for v in values) or all(v < 0 for v in values)


def _check_locate(window, letters, bidegree, shift, max_len):
    """locate gives every word up to one letter past max_len its shifted
    (degree, weight), with the place the walk gave it, or None for a word
    the walk did not visit."""
    ids = {word: i for i, word in enumerate(visited_words(window))}
    for n in range(max_len + 2):
        for word in itertools.product(letters, repeat=n):
            key = (sum(bidegree[a][0] + shift for a in word), sum(bidegree[a][1] for a in word))
            i = ids.get(word)
            assert window.locate(word) == (key, None if i is None else window.place[i])
            assert i is None or window.keys[window.group[i]] == key


_NESTED_ALGEBRAS = {
    "trivial": functools.partial(GradedAugmentedAlgebra.truncated, 1),
    **{f"exterior({d}, {w})": functools.partial(GradedAugmentedAlgebra.truncated, 2, d, w)
       for d in (-1, 1) for w in (-1, 1)},
    "exterior(0, 0)": functools.partial(GradedAugmentedAlgebra.truncated, 2, 0, 0),
    "truncated:3": functools.partial(GradedAugmentedAlgebra.truncated, 3),
    "truncated:4": functools.partial(GradedAugmentedAlgebra.truncated, 4),
    "exterior x dual numbers": _exterior_times_dual_numbers,
}


class TestWindowStrands:
    @settings(max_examples=200, deadline=None)
    @given(_letter_sets, st.integers(0, 4), st.integers(0, 4))
    def test_bar_window_equals_filtered_product(self, bidegrees, stages, wb):
        letters, bidegree = _labelled(bidegrees)
        weights = [w for _, w in bidegrees]
        if not _strictly_one_sign(weights):
            with pytest.raises(InputError, match="cannot bound word length"):
                _Window(letters, bidegree, 1, stages, wb)
            return
        # the longest word repeats the lightest letter; stages short of it
        # are refused, not cut
        longest = max((wb // abs(w) for w in weights), default=0)
        if longest > stages:
            with pytest.raises(InputError, match=f"needs words of length {longest}, "
                                                 f"above stages {stages}"):
                _Window(letters, bidegree, 1, stages, wb)
            return
        window = _Window(letters, bidegree, 1, stages, wb)
        got = window_words(window)
        assert got == _brute_strands(letters, bidegree, 1, stages, wb)
        _check_locate(window, letters, bidegree, 1, stages)
        # iteration order is place order, the order of the columns
        assert all(list(s.values()) == list(range(len(s))) for s in got.values())

    @settings(max_examples=200, deadline=None)
    @given(_letter_sets, st.integers(0, 4), st.integers(0, 5))
    def test_cobar_window_equals_filtered_product(self, bidegrees, wb, db):
        letters, bidegree = _labelled(bidegrees)
        if not _strictly_one_sign([w for _, w in bidegrees]):
            with pytest.raises(InputError, match="cannot bound"):
                _Window(letters, bidegree, -1, None, wb)
            return
        # |weight| is at least the word length, so no word in the window
        # is longer than wb; the degree bound filters the strands
        window = _Window(letters, bidegree, -1, None, wb)
        got = {key: s for key, s in window_words(window).items() if abs(key[0]) <= db}
        assert got == _brute_strands(letters, bidegree, -1, wb, wb, db)
        _check_locate(window, letters, bidegree, -1, wb)
        assert all(list(s.values()) == list(range(len(s))) for s in got.values())

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-2, 3), st.integers(1, 2)), max_size=3),
           st.sampled_from([1, -1]), st.sampled_from([1, -1]), st.integers(0, 4))
    def test_top_degree_is_the_walked_window_s(self, bidegrees, sign, shift, wb):
        # the top |degree| of the window, read off full enumeration (every
        # letter weighs at least 1, so no word is longer than wb): a degree
        # bound there passes, and one below it is refused at a strand of
        # that |degree|, the only one past it
        letters, bidegree = _labelled([(d, sign * w) for d, w in bidegrees])
        top = max(abs(d) for d, _ in _brute_strands(letters, bidegree, shift, wb, wb))
        assert _Window(letters, bidegree, shift, None, wb, top).keys
        with pytest.raises(InputError, match=rf"^degree bound {top - 1} is below the "
                                             rf"\|degree\| {top} of the strand"):
            _Window(letters, bidegree, shift, None, wb, top - 1)

    @pytest.mark.parametrize("name", sorted(_NESTED_ALGEBRAS))
    def test_bar_strands_do_not_depend_on_the_weight_bound(self, name):
        # d keeps weight, so a window of weight bound b is the window of
        # any b' >= b cut to the weights |w| <= b: the same strands, ranks
        # and column lists, in place order, at any stages that hold it
        A = _NESTED_ALGEBRAS[name]()
        if name == "exterior(0, 0)":
            with pytest.raises(InputError, match="cannot bound word length"):
                bar_complex(A, 6, 6)
            return
        whole = bar_complex(A, 6, 6)
        for stages in range(7):
            for b in range(stages + 1):
                C = bar_complex(A, stages, b)
                assert {w: qs for w, qs in whole.ranks.items() if abs(w) <= b} == C.ranks
                assert {w: qs for w, qs in whole.diffs.items() if abs(w) <= b} == C.diffs
            # the lightest letter of each weighs 1
            if A.augmentation_ideal():
                with pytest.raises(InputError, match="above stages"):
                    bar_complex(A, stages, stages + 1)

    def test_cap_counts_words_formed(self, monkeypatch):
        # two letters of weight 1: every word is kept, 2^(w+1) - 2 words
        # are formed up to weight w, and the walk counts them with the
        # extensions of the word it is at
        bidegree = {"a": (1, 1), "b": (-1, 1)}
        monkeypatch.setattr("hopfwitt.homology._TUPLE_CAP", 510)
        window = _Window(["a", "b"], bidegree, 1, 8, 8)
        assert len(window.prefix) - 1 == 510 == sum(map(len, window.strands.values())) - 1
        monkeypatch.setattr("hopfwitt.homology._TUPLE_CAP", 509)
        with pytest.raises(InputError, match=r"needs at least 510 words, over "
                                             r"homology\._TUPLE_CAP = 509$"):
            _Window(["a", "b"], bidegree, 1, 8, 8)

    BAR_ROWS = {
        "trivial": functools.partial(GradedAugmentedAlgebra.truncated, 1),
        "exterior-deg-neg1": functools.partial(GradedAugmentedAlgebra.truncated, 2, -1, -1),
        "exterior-deg1": functools.partial(GradedAugmentedAlgebra.truncated, 2, 1, 1),
        "truncated:3": functools.partial(GradedAugmentedAlgebra.truncated, 3),
        "truncated:4": functools.partial(GradedAugmentedAlgebra.truncated, 4),
    }

    @pytest.mark.parametrize("name", sorted(BAR_ROWS))
    def test_bar_rows_do_not_depend_on_the_window(self, name):
        # ROADMAP item 7: every printed row of the window of weight bound
        # W, at any stages that hold it, is the row of every window W' >= W
        # at stages W' there
        A = self.BAR_ROWS[name]()
        rows = {(b, top): bar_complex(A, top, b).homology()
                for top in range(7) for b in range(top + 1)}
        for (b, top), H in rows.items():
            for wider in range(top, 7):
                assert {k: v for k, v in rows[wider, wider].items() if abs(k[1]) <= b} == H

    @pytest.mark.parametrize("n", [3, 7])
    def test_cobar_rows_do_not_depend_on_the_window(self, n):
        # the same for the cobar window of divided-power:n at degree bound
        # 2W', the CLI's choice, which covers every word of weight W'
        C = GradedCoalgebra.divided_power(n)
        rows = {(b, top): cobar_complex(C, 2 * top, b).homology()
                for top in range(8) for b in range(top + 1)}
        for (b, top), H in rows.items():
            for wider in range(top, 8):
                assert {k: v for k, v in rows[wider, wider].items() if abs(k[1]) <= b} == H
        if n == 7:
            assert {k for k, v in rows[7, 7].items() if v != (0, [])} == {(0, 0), (1, 1)}


# -- homology from one Smith form per differential --------------------------


def _random_complex(data):
    """Degrees 0..4 in weights 0 and 1, each differential built from the
    left kernel of the one above it, so d*d = 0, and drawn with torsion:
    a factor of 2 or 3 multiplies some of them, and the kernel
    combinations need not be primitive.  In each weight one drawn degree
    may have no differential, a zero map, so the one below it is drawn
    freely.  The complex takes the columns of each."""
    entries = st.integers(-3, 3)
    ranks, columns = {}, {}
    for w in (0, 1):
        rk = [data.draw(st.integers(0, 4)) for _ in range(5)]
        missing = data.draw(st.sampled_from([None, 2, 3, 4]))
        diffs = {}
        for q in (4, 3, 2, 1):
            rows, cols = rk[q - 1], rk[q]
            if not rows or not cols or q == missing:
                continue
            up = diffs.get(q + 1)
            scale = data.draw(st.sampled_from([1, 1, 2, 3]))
            if up is None:
                M = [[scale * data.draw(entries) for _ in range(cols)] for _ in range(rows)]
            else:
                K = oracle.kernel_basis(oracle.transpose(up))
                M = [[scale * sum(c * v[j] for c, v in zip(coeffs, K)) for j in range(cols)]
                     for coeffs in ([data.draw(entries) for _ in K] for _ in range(rows))]
            diffs[q] = M
        ranks[w] = {q: r for q, r in enumerate(rk) if r}
        columns[w] = {q: oracle.columns(M) for q, M in diffs.items()}
    return ChainComplex(ranks, columns)


def _sympy_rank(M):
    import sympy

    return sympy.Matrix(M).rank() if M else 0


def _sympy_torsion(M):
    """The invariant factors above 1 of the dense matrix M, read off the
    diagonal of sympy's Smith form."""
    if not M:
        return []
    import sympy
    from sympy.matrices.normalforms import smith_normal_form

    S = smith_normal_form(sympy.Matrix(M), domain=sympy.ZZ)
    return sorted(abs(int(S[i, i])) for i in range(min(S.shape)) if abs(S[i, i]) > 1)


def _homology_from_factors(C, factors):
    """Free ranks and torsion from the nonzero invariant factors of each
    differential, {(q, w): factors}."""
    out = {}
    for w, qs in C.ranks.items():
        for q, r in qs.items():
            if r:
                here, up = factors.get((q, w), []), factors.get((q + 1, w), [])
                out[(q, w)] = (r - len(here) - len(up), [d for d in up if d > 1])
    return out


def _per_differential_homology(C):
    """Homology from one Smith form of each whole differential, every
    cell kept: the route ChainComplex.homology takes without clearing."""
    return _homology_from_factors(C, {(q, w): linalg.invariant_factors(cols)
                                      for w, qs in C.diffs.items() for q, cols in qs.items()})


class TestHomologyInvariants:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_rank_and_smith_formula(self, data):
        """Free rank and torsion against sympy's rank and Smith form of the
        dense differentials, a route that shares no code with homology()."""
        pytest.importorskip("sympy")
        C = _random_complex(data)
        H = C.homology()
        for w, qs in C.ranks.items():
            for q, r in qs.items():
                d_here, d_up = _dense_differential(C, q, w), _dense_differential(C, q + 1, w)
                free = r - _sympy_rank(d_here) - _sympy_rank(d_up)
                assert H[(q, w)] == (free, _sympy_torsion(d_up))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_clearing_matches_one_smith_form_per_differential(self, data):
        """Skipping the cells the differential above clears leaves every
        rank and torsion factor as the whole differentials give them."""
        C = _random_complex(data)
        assert C.homology() == _per_differential_homology(C)

    def test_one_smith_form_per_differential(self, monkeypatch):
        C = bar_complex(_truncated_poly(3), 5, 5)
        calls = []
        real = linalg.invariant_factors
        monkeypatch.setattr(linalg, "invariant_factors",
                            lambda rows, unit_cols: calls.append(rows) or real(rows, unit_cols))
        monkeypatch.setattr(linalg, "row_hnf", lambda M: pytest.fail("HNF in homology()"))
        C.homology()
        assert len(calls) == sum(len(qs) for qs in C.diffs.values())


# -- the column form against dense oracles ---------------------------------


def _divided_power_algebra(n):
    """Gamma truncated at weight n, gamma_k in degree 2k and weight k, with
    gamma_m gamma_n = C(m+n, n) gamma_{m+n}: bar homology with torsion."""
    lab = [f"y{k}" for k in range(n + 1)]
    products = {(lab[a], lab[b]): {lab[a + b]: intz.graded_constant(a, b)} if a + b <= n else {}
                for a in range(n + 1) for b in range(n + 1)}
    return GradedAugmentedAlgebra([(lab[k], 2 * k, k) for k in range(n + 1)], lab[0], products)


def _oracle_homology(C):
    """Free ranks and torsion from the textbook Smith form (with
    transforms) of each differential, densified from its columns."""
    diag = {}
    for w, qs in C.diffs.items():
        for q in qs:
            D, _, _ = oracle.smith_normal_form(_dense_differential(C, q, w))
            diag[(q, w)] = [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0)) if D[i][i]]
    return _homology_from_factors(C, diag)


ORACLE_CASES = {
    "bar truncated:3": lambda: bar_complex(GradedAugmentedAlgebra.truncated(3), 12, 12),
    "bar truncated:4": lambda: bar_complex(GradedAugmentedAlgebra.truncated(4), 11, 11),
    "bar exterior-deg-1": lambda: bar_complex(GradedAugmentedAlgebra.truncated(2, -1, -1), 6, 6),
    "bar exterior-deg1": lambda: bar_complex(
        GradedAugmentedAlgebra.truncated(2, 1, 1), 6, 6),
    "bar divided-power algebra 6": lambda: bar_complex(_divided_power_algebra(6), 6, 6),
    "cobar divided-power:5": lambda: cobar_complex(GradedCoalgebra.divided_power(5), 10, 5),
    "cobar divided-power:7": lambda: cobar_complex(GradedCoalgebra.divided_power(7), 14, 7),
}


def _bar_columns(A, stages, weight_bound):
    return (window_words(_Window(A.augmentation_ideal(), A.bidegree, 1, stages, weight_bound)),
            bar_complex(A, stages, weight_bound), lambda word: bar_differential_word(A, word))


def _cobar_columns(C, degree_bound, weight_bound):
    letters = [c for c in C.labels if c != C.coaug]
    return (window_words(_Window(letters, C.bidegree, -1, None, weight_bound)),
            cobar_complex(C, degree_bound, weight_bound),
            lambda word: cobar_differential_word(C, word))


def _flat_divided_powers(n):
    """Divided powers g_0..g_n, all in bidegree (0, 0): every weight is 0,
    so nothing bounds the length of a cobar word."""
    lab = [f"g{k}" for k in range(n + 1)]
    delta = {lab[k]: {(lab[i], lab[k - i]): 1 for i in range(k + 1)} for k in range(n + 1)}
    return GradedCoalgebra([(g, 0, 0) for g in lab], lab[0], delta)


# exterior-deg-neg1 has shifted letter degree 0; in truncated:12 the labels
# x10 and x11 sort before x2
COLUMN_CASES = {
    "bar trivial": lambda: _bar_columns(GradedAugmentedAlgebra.truncated(1), 5, 5),
    "bar exterior-deg-neg1": lambda: _bar_columns(GradedAugmentedAlgebra.truncated(2, -1, -1), 6, 6),
    "bar exterior-deg1": lambda: _bar_columns(
        GradedAugmentedAlgebra.truncated(2, 1, 1), 6, 6),
    "bar truncated:3": lambda: _bar_columns(GradedAugmentedAlgebra.truncated(3), 12, 12),
    "bar truncated:4": lambda: _bar_columns(GradedAugmentedAlgebra.truncated(4), 11, 11),
    "bar truncated:12": lambda: _bar_columns(GradedAugmentedAlgebra.truncated(12), 11, 11),
    "bar divided-power algebra 6": lambda: _bar_columns(_divided_power_algebra(6), 6, 6),
    "cobar divided-power:5": lambda: _cobar_columns(GradedCoalgebra.divided_power(5), 10, 5),
    "cobar divided-power:7": lambda: _cobar_columns(GradedCoalgebra.divided_power(7), 14, 7),
}


# bar and cobar (co)algebras for the drawn windows; in the first bar words
# of several lengths share a group
DRAWN_ALGEBRAS = {
    "bar exterior-times-dual-numbers": _exterior_times_dual_numbers,
    "bar exterior-deg-neg1": lambda: GradedAugmentedAlgebra.truncated(2, -1, -1),
    "bar exterior-deg1": lambda: GradedAugmentedAlgebra.truncated(2, 1, 1),
    "bar divided-power algebra 4": lambda: _divided_power_algebra(4),
    "cobar divided-power:3": lambda: GradedCoalgebra.divided_power(3),
    "cobar divided-power:6": lambda: GradedCoalgebra.divided_power(6),
} | {f"bar truncated:{p}": functools.partial(GradedAugmentedAlgebra.truncated, p)
     for p in range(2, 6)}


def _assert_columns_are_word_images(name, strands, C, image):
    """Every column of every strand is the per-word image of its word,
    rows named by the words of the strand below, in place order."""
    for (q, w), src in strands.items():
        assert list(src) == sorted(src, key=lambda u: (len(u), u)), name
        dst = strands.get((q - 1, w))
        if dst is None:
            assert C.differential(q, w) is None, name
            continue
        words = {i: word for word, i in dst.items()}
        got = [{words[i]: c for i, c in col.items()} for col in C.differential(q, w)]
        assert got == [image(word) for word in src], (name, q, w)


class TestColumnForm:
    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    def test_homology_matches_dense_oracle(self, name):
        C = ORACLE_CASES[name]()
        assert C.homology() == _oracle_homology(C)

    def test_oracle_cases_cover_torsion(self):
        H = ORACLE_CASES["bar divided-power algebra 6"]().homology()
        # Tor_1 at bar degree 2w + 1 is Z/p at the prime powers w = p^k
        assert {w: H[(2 * w + 1, w)][1] for w in range(2, 7)} == {
            2: [2], 3: [3], 4: [2], 5: [5], 6: []}

    def test_columns_are_the_word_images(self):
        for name, build in COLUMN_CASES.items():
            _assert_columns_are_word_images(name, *build())

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_drawn_window_columns_are_the_word_images(self, data):
        """The same over drawn windows: bar stages at and above the
        longest word, and cobar degree bounds at and above the top degree
        2W - 1; every letter of these weighs at least 1."""
        name = data.draw(st.sampled_from(sorted(DRAWN_ALGEBRAS)))
        kind, algebra = name.split(" ", 1)[0], DRAWN_ALGEBRAS[name]()
        wb = data.draw(st.integers(0 if kind == "bar" else 1, 6))
        if kind == "bar":
            bounds = (data.draw(st.integers(wb, 8)), wb)
            _assert_columns_are_word_images((name, bounds), *_bar_columns(algebra, *bounds))
            return
        bounds = (data.draw(st.integers(2 * wb - 1, 2 * wb + 1)), wb)
        _assert_columns_are_word_images((name, bounds), *_cobar_columns(algebra, *bounds))

    @seed(20261018)
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(3, 7, 7), (4, 5, 5)]), st.data())
    def test_one_perturbed_coefficient_is_caught(self, window, data):
        """Adding e != 0 at row i of column j of d(q) adds e times column
        i of d(q-1) to d(q-1) d(q), and e times row j of d(q+1) to
        d(q) d(q+1); the check must refuse exactly when either is nonzero.
        Every entry of the drawn differential is perturbed in turn."""
        C = _bar_window_complex(*window)
        w = data.draw(st.sampled_from(sorted(C.diffs)))
        q = data.draw(st.sampled_from(sorted(C.diffs[w])))
        e = data.draw(st.integers(-3, 3).filter(bool))
        down, up = C.differential(q - 1, w), C.differential(q + 1, w)
        for j, i in itertools.product(range(C.rank(q, w)), range(C.rank(q - 1, w))):
            diffs = {v: {p: [dict(col) for col in cs] for p, cs in qs.items()}
                     for v, qs in C.diffs.items()}
            diffs[w][q][j][i] = diffs[w][q][j].get(i, 0) + e
            if (down and down[i]) or (up and any(j in col for col in up)):
                with pytest.raises(FalsificationError, match="d\\*d != 0"):
                    ChainComplex(C.ranks, diffs)
            else:
                ChainComplex(C.ranks, diffs)


@functools.cache
def _bar_window_complex(p, stages, weight_bound):
    return bar_complex(GradedAugmentedAlgebra.truncated(p), stages, weight_bound)


class TestNoDenseMatrix:
    def test_bar_homology_and_shuffle_form_no_dense_matrix(self, monkeypatch):
        # the dense helpers live in the test oracle only, and the boundary
        # lattices reach the Hermite form as the columns they are
        for name in ("zeros", "mat_mul", "transpose", "identity"):
            assert not hasattr(linalg, name)
        real = linalg.row_hnf

        def sparse_only(rows):
            rows = list(rows)
            if not all(type(row) is dict and all(row.values()) for row in rows):
                pytest.fail("a dense matrix was formed")
            return real(rows)

        monkeypatch.setattr(linalg, "row_hnf", sparse_only)
        H = bar_complex(GradedAugmentedAlgebra.truncated(3), 12, 12).homology()
        assert {k for k, v in H.items() if v != (0, [])} == {
            (0, 0), (3, 1), (8, 3), (11, 4), (16, 6), (19, 7), (24, 9), (27, 10), (32, 12)}
        # tau = [x|x2] generates Tor in (8, 3); its square is twice a class
        A = GradedAugmentedAlgebra.truncated(3)
        tau = {("x", "x2"): 1}
        shifted = dict(tau)
        for word, c in bar_differential_word(A, ("x", "x", "x")).items():
            shifted[word] = shifted.get(word, 0) - 2 * c
        W = BarHomologyWindow(A, 6, 6)
        assert W.shuffle_classes(shifted, tau) == {(16, 6): (0, 0, 0, 0, 2, 0)}

    def test_windows_never_call_the_per_word_route(self, monkeypatch):
        A = GradedAugmentedAlgebra.truncated(3)
        x = {("x",): 1}
        y = {("x", "x2"): 1}
        for word, c in bar_differential_word(A, ("x", "x", "x")).items():
            y[word] = y.get(word, 0) + c

        def refuse(*_):
            pytest.fail("a column was built word by word")

        monkeypatch.setattr("hopfwitt.homology.bar_differential_word", refuse)
        bar_complex(A, 12, 12)
        cobar_complex(GradedCoalgebra.divided_power(5), 10, 5)
        # [x] * [x|x2] with a boundary added to the second factor
        assert BarHomologyWindow(A, 6, 6).shuffle_classes(x, y) == {(11, 4): (0, 1, 0)}
