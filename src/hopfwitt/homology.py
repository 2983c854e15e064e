"""Bar and cobar complexes over Z with exact integer homology.

Small bigraded (co)algebras are described by finite label sets with
structure constants.  The normalized bar complex of an augmented algebra
and the cobar complex of a coaugmented coalgebra are assembled as chain
complexes of free Z-modules indexed by (total degree, weight), with
Koszul signs on shifted degrees:

  bar:   d(a_1|...|a_n) = sum_i (-1)^{e_i} (a_1|...|a_i a_{i+1}|...|a_n),
         e_i = sum_{j<=i} (|a_j| + 1), each product in the augmentation ideal;
  cobar: d(c_1|...|c_n) = sum_i (-1)^{f_i} (c_1|...|c_i'|c_i''|...|c_n),
         f_i = sum_{j<i} (|c_j| - 1) + |c_i'|, over the reduced diagonal.

The words of a window are walked once, by length over the sorted
letters, pruned by weight alone, so every face of a walked word is
walked too.  The letter weights must share one strict sign, so every
strand of a window is the whole complex's strand; a length or degree
bound that would cut one is refused, never applied.
Each word gets a place in its (degree, weight) group, so each
strand comes out in its (length, word) place order.  For each group and
letter the walk keeps a table from a word's place to the place of its
one-letter extension.  A word's column is built in place coordinates:
its prefix's column with every term moved by the table of the new
letter, plus the faces at the join, found through the same tables:
d(v|a) = d(v)|a +- (v'|last(v).a) in the bar and
d(v|c) = d(v)|c +- v|diag(c) in the cobar.  bar_differential_word
gives the face sum of one bar word, and the tests use it as an oracle;
its cobar twin is a test oracle only, in tests/window_oracle.py.

Each differential is stored as its list of columns, column j being
d(word j) as {row index: coeff}: a bar column has at most len(word) - 1
entries and a cobar column one per split, so no dense matrix is formed.
Both conventions are certified by the d*d = 0 check every ChainComplex
runs at construction, column by column, which also checks each row
index as it reads it.  Homology is computed by Smith
normal form, so free ranks and torsion are exact.  Each weight goes from
the top degree down, and the Smith form of d(q) skips the q-cells that
are unit-pivot columns of d(q+1)'s elimination (clearing): each is the
+-1 entry of a boundary, and d(q) kills boundaries, so its image, and
every nonzero invariant factor, is the same without them.  Bar homology
of a commutative algebra carries the shuffle product, with signs again
on shifted degrees.

ChainComplex.homology returns the homology as a map from (degree, weight)
to (free rank, torsion invariants).  The library holds no printed table:
the CLI forms its text and JSON tables from that map.
"""

from __future__ import annotations

import itertools

from . import intz, linalg
from .errors import FalsificationError, InputError, bound_overflow, shown

Chain = dict[tuple, int]
Column = dict[int, int]

_TUPLE_CAP = 200_000

# Largest accepted cube of a named (co)algebra's basis size: construction
# checks (co)associativity over label triples, up to a second at the limit.
VALIDATION_LIMIT = 400_000


def _add_term(acc: Chain, key: tuple, coeff: int) -> None:
    s = acc.get(key, 0) + coeff
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


class GradedAugmentedAlgebra:
    """Finite bigraded commutative algebra over Z, augmented to Z.

    Every label has a (degree, weight); the unit sits in (0, 0) and the
    augmentation kills every other label.  Products are stored for all
    ordered pairs and checked for bigrading, Koszul commutativity,
    unitality, associativity, and a multiplicative augmentation: no
    product of two labels other than the unit has a unit component.  So
    products[a, b] of two augmentation-ideal labels lies in the ideal,
    and the normalized bar faces read it as stored.
    """

    def __init__(self, basis: list[tuple[str, int, int]], unit: str,
                 products: dict[tuple[str, str], dict[str, int]]):
        labels = [b[0] for b in basis]
        if len(set(labels)) != len(labels):
            raise InputError("duplicate basis labels")
        self.labels = labels
        self.bidegree = {b[0]: (b[1], b[2]) for b in basis}
        if unit not in self.bidegree or self.bidegree[unit] != (0, 0):
            raise InputError("unit must be a basis label in bidegree (0, 0)")
        self.unit = unit
        self.products = {}
        for (a, b), out in products.items():
            self.products[(a, b)] = {k: v for k, v in out.items() if v}
        self._validate()

    def _validate(self):
        for a in self.labels:
            for b in self.labels:
                if (a, b) not in self.products:
                    raise InputError(f"product ({a},{b}) missing")
                if self.unit not in (a, b) and self.unit in self.products[(a, b)]:
                    raise InputError(f"augmentation is not multiplicative: product ({a},{b}) "
                                     f"has a {self.unit} component")
        for (a, b), out in self.products.items():
            da, wa = self.bidegree[a]
            db, wb = self.bidegree[b]
            for k, c in out.items():
                if k not in self.bidegree:
                    raise InputError(f"product ({a},{b}) hits unknown label {k}")
                dk, wk = self.bidegree[k]
                if (dk, wk) != (da + db, wa + wb):
                    raise InputError(f"product ({a},{b}) is not bigraded at {k}")
            # Koszul commutativity
            flip = self.products[(b, a)]
            sign = -1 if (da % 2) and (db % 2) else 1
            if out != {k: sign * c for k, c in flip.items()}:
                raise InputError(f"products ({a},{b}) and ({b},{a}) violate Koszul symmetry")
        for g in self.labels:
            if self.products[(self.unit, g)] != {g: 1}:
                raise InputError(f"unit law fails on {g}")
        for a in self.labels:
            for b in self.labels:
                for c in self.labels:
                    left: dict[str, int] = {}
                    for k, s in self.products[(a, b)].items():
                        for m, u in self.products[(k, c)].items():
                            left[m] = left.get(m, 0) + s * u
                    right: dict[str, int] = {}
                    for k, s in self.products[(b, c)].items():
                        for m, u in self.products[(a, k)].items():
                            right[m] = right.get(m, 0) + s * u
                    if {k: v for k, v in left.items() if v} != {k: v for k, v in right.items() if v}:
                        raise InputError(f"associativity fails on ({a},{b},{c})")

    @classmethod
    def truncated(cls, p: int, degree: int = 2, weight: int = 1) -> GradedAugmentedAlgebra:
        """Z[x]/x^p with x in (degree, weight): p = 1 is Z, the trivial
        algebra, and p = 2 the exterior algebra on x, whose square is
        zero.  For p >= 3 an odd degree fails Koszul symmetry."""
        if p < 1:
            raise InputError("truncated:p needs p >= 1")
        if p ** 3 > VALIDATION_LIMIT:
            raise bound_overflow(f"checking truncated:{shown(p)}", f"{shown(p ** 3)} triples",
                                 "homology.VALIDATION_LIMIT", VALIDATION_LIMIT)
        lab = ["1", "x"] + [f"x{k}" for k in range(2, p)]
        products = {(lab[a], lab[b]): {lab[a + b]: 1} if a + b < p else {}
                    for a in range(p) for b in range(p)}
        return cls([(lab[k], degree * k, weight * k) for k in range(p)], "1", products)

    def augmentation_ideal(self) -> list[str]:
        return [g for g in self.labels if g != self.unit]


class GradedCoalgebra:
    """Finite bigraded coalgebra over Z with a group-like coaugmentation.

    delta[c] is the diagonal of c and reduced[c] the same with every term
    on the coaugmentation dropped, the cobar split of c; the counit laws
    pin the dropped terms to coaug (x) c and c (x) coaug.
    """

    def __init__(self, basis: list[tuple[str, int, int]], coaug: str,
                 delta: dict[str, dict[tuple[str, str], int]]):
        labels = [b[0] for b in basis]
        if len(set(labels)) != len(labels):
            raise InputError("duplicate basis labels")
        self.labels = labels
        self.bidegree = {b[0]: (b[1], b[2]) for b in basis}
        if coaug not in self.bidegree or self.bidegree[coaug] != (0, 0):
            raise InputError("coaugmentation must be a basis label in bidegree (0, 0)")
        self.coaug = coaug
        self.delta = {}
        for c, out in delta.items():
            self.delta[c] = {k: v for k, v in out.items() if v}
        self._validate()
        self.reduced = {c: {(a, b): v for (a, b), v in out.items()
                            if a != coaug and b != coaug}
                        for c, out in self.delta.items()}

    def _validate(self):
        for c in self.labels:
            if c not in self.delta:
                raise InputError(f"diagonal of {c} missing")
        for c, out in self.delta.items():
            dc, wc = self.bidegree[c]
            for (a, b), v in out.items():
                if a not in self.bidegree or b not in self.bidegree:
                    raise InputError(f"diagonal of {c} hits unknown labels ({a},{b})")
                da, wa = self.bidegree[a]
                db, wb = self.bidegree[b]
                if (da + db, wa + wb) != (dc, wc):
                    raise InputError(f"diagonal of {c} is not bigraded at ({a},{b})")
            # counit laws pin the coaugmented terms exactly
            left = {b: v for (a, b), v in out.items() if a == self.coaug}
            right = {a: v for (a, b), v in out.items() if b == self.coaug}
            expect = {c: 1}
            if c == self.coaug:
                if out != {(c, c): 1}:
                    raise InputError("coaugmentation must be group-like")
                continue
            if left != expect or right != expect:
                raise InputError(f"counit law fails on {c}")
        for c in self.labels:
            one: Chain = {}
            two: Chain = {}
            for (a, b), v in self.delta[c].items():
                for (a1, a2), u in self.delta[a].items():
                    _add_term(one, (a1, a2, b), v * u)
                for (b1, b2), u in self.delta[b].items():
                    _add_term(two, (a, b1, b2), v * u)
            if one != two:
                raise InputError(f"coassociativity fails on {c}")

    @classmethod
    def divided_power(cls, bound: int) -> GradedCoalgebra:
        """Divided-power coalgebra on a generator in degree 2, weight 1,
        truncated at weight `bound`: Int(Z) on its binomial basis, the
        k-th element being C(x,k), with diagonal intz.comult; bound 0
        is Z, the trivial coalgebra."""
        if bound < 0:
            raise InputError("bound must be nonnegative")
        if (bound + 1) ** 3 > VALIDATION_LIMIT:
            raise bound_overflow(f"checking divided-power:{shown(bound)}",
                                 f"{shown((bound + 1) ** 3)} triples",
                                 "homology.VALIDATION_LIMIT", VALIDATION_LIMIT)
        basis = [(f"g{k}", 2 * k, k) for k in range(bound + 1)]
        delta = {f"g{n}": {(f"g{i}", f"g{j}"): c for (i, j), c
                           in intz.comult(intz.IntZElement.basis(n)).items()}
                 for n in range(bound + 1)}
        return cls(basis, "g0", delta)


class ChainComplex:
    """Bigraded complex of free Z-modules with differential of degree -1.

    ranks[w][q] is the rank in total degree q and weight w; diffs[w][q]
    is d from (q, w) to (q-1, w) as its list of columns, column j being
    the image of basis element j as {row index: coeff}.  At construction,
    in every weight, the column counts are checked against the ranks, and
    d(q-1) d(q) = 0 column by column, each row index of d(q) checked as
    that composition reads it; a wrong shape is raised before any
    d*d != 0.  The complex owns the column lists it is given and keeps
    them as they are; nothing here changes a column.

    The columns are the rows of the transpose, and a matrix and its
    transpose share their Smith form (U d V = D gives V^T d^T U^T = D),
    so homology hands the columns to the Smith form as they are, less
    the columns of the cells the differential above clears.
    """

    def __init__(self, ranks: dict[int, dict[int, int]],
                 diffs: dict[int, dict[int, list[Column]]]):
        self.ranks = {w: dict(qs) for w, qs in ranks.items()}
        self.diffs: dict[int, dict[int, list[Column]]] = {}
        # Degrees go up, so d(q-1) is checked before d(q) is composed with
        # it, and each entry of d(q) is read once, its row checked as it
        # picks the column of d(q-1); d*d != 0 is raised only once every
        # shape has passed.
        failed = None
        for w, qs in diffs.items():
            for q in sorted(qs):
                cols, down, rows = qs[q], qs.get(q - 1), self.rank(q - 1, w)
                if len(cols) != self.rank(q, w):
                    raise _wrong_shape(q, w)
                self.diffs.setdefault(w, {})[q] = cols
                if down is None:
                    if any(not 0 <= i < rows for col in cols for i in col):
                        raise _wrong_shape(q, w)
                    continue
                for col in cols:
                    out: Column = {}
                    for j, a in col.items():
                        if not 0 <= j < rows:
                            raise _wrong_shape(q, w)
                        for i, c in down[j].items():
                            out[i] = out.get(i, 0) + a * c
                    if failed is None and any(out.values()):
                        failed = (q, w)
        if failed is not None:
            q, w = failed
            raise FalsificationError(f"d*d != 0 at degree {q}, weight {w}")

    def rank(self, q: int, w: int) -> int:
        return self.ranks.get(w, {}).get(q, 0)

    def differential(self, q: int, w: int) -> list[Column] | None:
        return self.diffs.get(w, {}).get(q)

    def homology(self) -> dict[tuple[int, int], tuple[int, list[int]]]:
        """Free rank and torsion invariants of H at each (degree, weight).

        One Smith form per differential: its rank is the number of nonzero
        invariant factors, and the torsion at (q, w) is the factors above 1
        of the differential arriving there.

        Each weight is taken from the top degree down, and d(q) skips the
        q-cells that are unit-pivot columns of d(q+1)'s elimination
        (clearing, Chen-Kerber).  Those pivot rows are boundaries,
        unitriangular on their cells, and d(q) kills every boundary, so
        the image of each skipped cell lies in the span of the images of
        the kept ones: the image lattice, and so every nonzero invariant
        factor, is that of the whole of d(q).  A degree without d(q+1)
        skips nothing.
        """
        factors = {}
        for w, qs in self.diffs.items():
            cleared: set[int] = set()
            for q in sorted(qs, reverse=True):
                cols = qs[q]
                if q + 1 in qs:
                    cols = [col for j, col in enumerate(cols) if j not in cleared]
                cleared = set()
                factors[(q, w)] = linalg.invariant_factors(cols, cleared)
        out = {}
        for w, qs in self.ranks.items():
            for q, r in qs.items():
                if r == 0:
                    continue
                here = factors.get((q, w), [])
                up = factors.get((q + 1, w), [])
                out[(q, w)] = (r - len(here) - len(up), [d for d in up if d > 1])
        return out


def _wrong_shape(q: int, w: int) -> InputError:
    return InputError(f"differential at degree {q}, weight {w} has wrong shape")


def _degree_cut(degree_bound: int, key: tuple[int, int]) -> InputError:
    return InputError(f"degree bound {shown(degree_bound)} is below the |degree| {abs(key[0])} "
                      f"of the strand {key} of the window: it would cut its strands")


def _apply(cols: list[Column], v: Column) -> Column:
    """The image sum_j v[j] * cols[j], zero entries included."""
    out: Column = {}
    for j, a in v.items():
        for i, c in cols[j].items():
            out[i] = out.get(i, 0) + a * c
    return out


# -- words in a window, by strand ---------------------------------------


class _Window:
    """The words of a (degree, weight) window, each with an integer id.

    A word's degree sums its letters' degrees plus shift (+1 bar, -1
    cobar) each.  The walk goes once, by length, over the letters in
    sorted order, so within a length the words come in lexicographic
    order.  Every visited word has a group g, its (degree, weight) keys[g]
    (index[key] is g), and a place in it: the group lists its ids in
    (length, word) order, their place order, with no sort.  Word i has
    its prefix's id prefix[i], its last letter last[i], its group[i] and
    its place[i].  The strands are the groups, by key, each as its list
    of ids.

    A word's room, the letters it extends by, depends only on its group,
    so the walk plans each group once.  ext[g][a] is the table of group g
    and letter a: entry p is the place of word p of g followed by a, in
    its own group.  The walk extends every word of g, so each table
    covers them all.  steps[a] is letter a's shifted (degree, weight),
    and locate finds a word's group and place by walking the tables from
    the empty word.

    A word is visited when its |weight| is within weight_bound.  Letters
    whose weights do not share one strict sign are refused: every letter
    then moves the weight away from zero, so no word is longer than its
    |weight|, the visited words are closed under prefixes, and each group
    holds every word of its (degree, weight), a whole strand.  The
    visited words are closed under faces too: a face keeps its word's
    weight, so every face of a visited word has its place in the tables.  A
    max_len below the longest word, weight_bound over the lightest
    letter's |weight|, is refused before the walk; it never cuts one.  A
    degree_bound is refused as the walk opens a group whose |degree| is
    above it, before any word of that group is formed; the empty word's
    (0, 0) refuses a negative one.  Every group is a strand, so a walk
    that ends met no strand past the bound.  Every word the walk forms
    is visited, and counts against _TUPLE_CAP.
    """

    def __init__(self, letters: list[str], bidegree: dict[str, tuple[int, int]], shift: int,
                 max_len: int | None, weight_bound: int, degree_bound: int | None = None):
        if min(max_len or 0, weight_bound) < 0:
            raise InputError("bounds must be nonnegative")
        steps = [(a, bidegree[a][0] + shift, bidegree[a][1]) for a in sorted(letters)]
        weights = [wa for _, _, wa in steps]
        if not (all(wa > 0 for wa in weights) or all(wa < 0 for wa in weights)):
            raise InputError("cannot bound word length: letters need weights of one strict sign")
        longest = max((weight_bound // abs(wa) for wa in weights), default=0)
        if max_len is not None and longest > max_len:
            raise InputError(f"weight bound {shown(weight_bound)} needs words of length "
                             f"{shown(longest)}, above stages {max_len}: the window would cut "
                             "the strands of its top weights")
        reach = float("inf") if degree_bound is None else degree_bound
        if reach < 0:
            raise _degree_cut(degree_bound, (0, 0))
        prefix: list[int] = [-1]
        last: list[str | None] = [None]
        group, place = [0], [0]
        keys = [(0, 0)]
        members = [[0]]
        index = {(0, 0): 0}
        # per group, once extended: (letter, target group, its members, table)
        plans: list[list[tuple[str, int, list[int], list[int]]] | None] = [None]
        fits: dict[int, list[tuple[str, int, int]]] = {}  # room by what is left
        ext: list[dict[str, list[int]]] = [{}]
        # ids are handed out in walk order, so each length is a range of ids
        start = 0
        while start < len(prefix):
            end = len(prefix)
            for v in range(start, end):
                g = group[v]
                plan = plans[g]
                if plan is None:
                    # every letter moves the weight one way, so a group with
                    # r left before the bound extends by exactly the letters
                    # of weight at most r
                    d, w = keys[g]
                    r = weight_bound - abs(w)
                    room = fits.get(r)
                    if room is None:
                        room = fits[r] = [s for s in steps if abs(s[2]) <= r]
                    plan = plans[g] = []
                    for a, da, wa in room:
                        key = (d + da, w + wa)
                        h = index.get(key)
                        if h is None:
                            if abs(key[0]) > reach:
                                raise _degree_cut(degree_bound, key)
                            h = index[key] = len(keys)
                            keys.append(key)
                            members.append([])
                            plans.append(None)
                            ext.append({})
                        table = ext[g][a] = []
                        plan.append((a, h, members[h], table))
                formed = len(prefix) - 1 + len(plan)
                if formed > _TUPLE_CAP:
                    raise bound_overflow("the word window", f"at least {formed} words",
                                         "homology._TUPLE_CAP", _TUPLE_CAP)
                for a, h, ids, table in plan:
                    p = len(ids)
                    table.append(p)
                    ids.append(len(prefix))
                    prefix.append(v)
                    last.append(a)
                    group.append(h)
                    place.append(p)
            start = end
        self.prefix, self.last, self.group, self.place = prefix, last, group, place
        self.keys, self.index, self.ext = keys, index, ext
        self.steps = {a: (da, wa) for a, da, wa in steps}
        self.strands = dict(zip(keys, members))

    def locate(self, word: tuple) -> tuple[tuple[int, int], int | None]:
        """The (degree, weight) of word, with the shift, and its place in
        that group, or None for a word the walk did not visit.  The place
        is found by walking the tables from the empty word, one letter at
        a time, so it costs O(len); a letter with no step is refused."""
        steps, ext, index = self.steps, self.ext, self.index
        d = w = g = p = 0
        for a in word:
            step = steps.get(a)
            if step is None:
                raise InputError(f"letter {a!r} is not a letter of the window")
            d, w = d + step[0], w + step[1]
            if g is not None:
                table = ext[g].get(a)
                if table is None or p >= len(table):
                    g = None
                else:
                    g, p = index[d, w], table[p]
        return (d, w), None if g is None else p

    def complex(self, joins) -> ChainComplex:
        """The complex on the strands, d of degree -1, each column built in
        place coordinates from the column of the word's prefix: d(v|a) is
        d(v)|a, each term moved by the table of a on the group below v,
        plus the faces joining v's end to a, which joins(v, a) gives as
        (place, coeff) pairs with their signs, found through the same
        tables.  The letter weights share one strict sign, so no join face
        is a moved term: a moved term ends in a, a bar join in a product
        last(v).a, whose weight is not a's, and a cobar join in the second
        half of a split of a, whose weight is not a's either.  The join
        faces of one word are distinct words too, so each is set, not
        added.  Each strand hands the complex its words' columns as they
        are."""
        prefix, last, group, index = self.prefix, self.last, self.group, self.index
        below = [self.ext[index[d - 1, w]] if (d - 1, w) in index else {}
                 for d, w in self.keys]
        cols: list[Column] = [{}]
        for i in range(1, len(prefix)):
            v, a = prefix[i], last[i]
            table = below[group[v]].get(a)
            col: Column = {} if table is None else {table[u]: c for u, c in cols[v].items()}
            for t, c in joins(v, a):
                col[t] = c
            cols.append(col)
        ranks: dict[int, dict[int, int]] = {}
        diffs: dict[int, dict[int, list[Column]]] = {}
        for (q, w), ids in self.strands.items():
            ranks.setdefault(w, {})[q] = len(ids)
            if (q - 1, w) in self.strands:
                diffs.setdefault(w, {})[q] = [cols[i] for i in ids]
        del cols  # only the columns with a strand below are kept
        return ChainComplex(ranks, diffs)


# -- bar construction -------------------------------------------------


def bar_differential_word(A: GradedAugmentedAlgebra, word: tuple) -> Chain:
    """Normalized bar face sum of a single word."""
    out: Chain = {}
    sign_exp = 0
    for i in range(len(word) - 1):
        sign_exp += A.bidegree[word[i]][0] + 1
        sign = -1 if sign_exp % 2 else 1
        for k, c in A.products[word[i], word[i + 1]].items():
            merged = word[:i] + (k,) + word[i + 2:]
            _add_term(out, merged, sign * c)
    return out


def _bar_window(A: GradedAugmentedAlgebra, stages: int,
                weight_bound: int) -> tuple[_Window, ChainComplex]:
    W = _Window(A.augmentation_ideal(), A.bidegree, 1, stages, weight_bound)
    prefix, last, group, place, ext = W.prefix, W.last, W.group, W.place, W.ext
    odd = [d % 2 for d, _ in W.keys]
    ideal = A.augmentation_ideal()
    # (u|b)|a merges b and a at sign exponent deg(u) + |b| + 1; the empty
    # word has no last letter, and merges nothing
    merges = {None: {}} | {b: {a: [(k, c if A.bidegree[b][0] % 2 else -c)
                                   for k, c in A.products[b, a].items()]
                               for a in ideal if A.products[b, a]} for b in ideal}

    def joins(v, a):
        m = merges[last[v]].get(a)
        if m is None:
            return ()
        u = prefix[v]
        tables, p = ext[group[u]], place[u]
        sign = -1 if odd[group[u]] else 1
        return [(tables[k][p], sign * c) for k, c in m]

    return W, W.complex(joins)


def bar_complex(A: GradedAugmentedAlgebra, stages: int, weight_bound: int) -> ChainComplex:
    """Normalized bar complex on the words of absolute weight at most
    weight_bound, every strand whole; stages below the longest such word
    are refused, never used to cut one."""
    return _bar_window(A, stages, weight_bound)[1]


# -- cobar construction -----------------------------------------------


def cobar_complex(C: GradedCoalgebra, degree_bound: int | None,
                  weight_bound: int) -> ChainComplex:
    """Cobar complex of the reduced coalgebra on the words of absolute
    weight at most weight_bound, every strand whole; a degree_bound, if
    not None, below the absolute degree of a strand is refused as the
    walk reaches that strand, never used to trim one."""
    letters = [c for c in C.labels if c != C.coaug]
    W = _Window(letters, C.bidegree, -1, None, weight_bound, degree_bound)
    group, place, keys, index, ext = W.group, W.place, W.keys, W.index, W.ext
    splits = {c: [(a, b, x) for (a, b), x in C.reduced[c].items()] for c in letters}
    faces: dict[tuple[int, str], list[tuple[list[int], list[int], int]]] = {}

    def joins(v, c):
        # v|c splits c into a|b at sign exponent deg(v) + |a|; per group of
        # v and letter c, the tables reaching v|a|b
        g = group[v]
        plan = faces.get((g, c))
        if plan is None:
            plan = faces[g, c] = []
            d, w = keys[g]
            for a, b, x in splits[c]:
                da, wa = C.bidegree[a]
                second = ext[index[d + da - 1, w + wa]][b]
                plan.append((ext[g][a], second, -x if (d + da) % 2 else x))
        p = place[v]
        return [(second[first[p]], x) for first, second, x in plan]

    return W.complex(joins)


# -- shuffle product on bar words ------------------------------------


def shuffle_chains(A: GradedAugmentedAlgebra, x: Chain, y: Chain) -> Chain:
    """Eilenberg-Zilber shuffle of bar chains, with Koszul signs on the
    shifted degrees |a| + 1 of the letters.

    An x letter placed at spot s after i x letters hops the s - i y
    letters before it, so the sign exponent is the sum, over the x
    letters of odd shifted degree, of the number of odd y letters among
    the first s - i: a prefix sum read once per y word."""
    odd = {a: (d + 1) % 2 for a, (d, _) in A.bidegree.items()}
    ys = [(yw, yc, list(itertools.accumulate((odd[b] for b in yw), initial=0)))
          for yw, yc in y.items()]
    out: Chain = {}
    for xw, xc in x.items():
        p = len(xw)
        xo = [i for i, a in enumerate(xw) if odd[a]]
        for yw, yc, before in ys:
            c = xc * yc
            for positions in itertools.combinations(range(p + len(yw)), p):
                # spots go up, so each x letter is inserted at its own spot
                word = list(yw)
                for i, s in enumerate(positions):
                    word.insert(s, xw[i])
                e = 0
                for i in xo:
                    e += before[positions[i] - i]
                _add_term(out, tuple(word), -c if e % 2 else c)
    return out


class BarHomologyWindow:
    """Bar complex of A in a bounded window, with cycle reduction.

    reduce_cycle maps a chain to its canonical representative modulo
    boundaries, strand by strand; comparing reduced forms decides
    equality of homology classes.

    The window is built only up to the largest |weight| its chains have
    reached.  The bar differential keeps weight, so a strand and the
    differentials at and above it are the same, in columns and in place
    order, in every window whose weight bound reaches it; a chain that
    reaches further rebuilds the window at its weight.  complex is the
    whole window's complex.  Every complex built is d*d-checked, and a
    window whose words stages cannot hold, like one over _TUPLE_CAP, is
    refused at the call that would build it.
    """

    def __init__(self, A: GradedAugmentedAlgebra, stages: int, weight_bound: int):
        if min(stages, weight_bound) < 0:
            raise InputError("bounds must be nonnegative")
        self.algebra, self.stages, self.weight_bound = A, stages, weight_bound
        self._weights = {a: A.bidegree[a][1] for a in A.augmentation_ideal()}
        self._reach = -1  # the weight bound of the window built, if any

    def _build(self, reach: int) -> None:
        if reach > self._reach:
            self._window, self._complex = _bar_window(self.algebra, self.stages, reach)
            self._reach = reach

    @property
    def complex(self) -> ChainComplex:
        """The complex of the whole window, built on first read."""
        self._build(self.weight_bound)
        return self._complex

    def _vectorize(self, chain: Chain) -> dict[tuple[int, int], Column]:
        """The chain split by strand, each part as {place: coeff} in its
        strand without zero coefficients, each word placed by the
        window's tables, built first up to the chain's largest |weight|.
        A word the window never visited is refused whatever its
        coefficient."""
        weights = self._weights
        self._build(min(self.weight_bound, max(
            (abs(sum(weights.get(a, 0) for a in word)) for word in chain), default=0)))
        out: dict[tuple[int, int], Column] = {}
        locate = self._window.locate
        for word, c in chain.items():
            key, p = locate(word)
            if p is None:
                raise InputError(f"chain leaves the computed window at {key}")
            part = out.setdefault(key, {})
            if c:
                part[p] = c
        return out

    def _cycle_parts(self, chain: Chain) -> dict[tuple[int, int], Column]:
        """The chain split by strand; raises on a chain that is not a cycle
        in every strand."""
        parts = self._vectorize(chain)
        for key, v in parts.items():
            d = self._complex.differential(*key)
            if d and any(_apply(d, v).values()):
                raise InputError(f"chain is not a cycle in strand {key}")
        return parts

    def reduce_cycle(self, chain: Chain) -> dict[tuple[int, int], tuple[int, ...]]:
        """Canonical form of a cycle modulo boundaries; raises on a
        chain that is not a cycle in every strand."""
        out = {}
        for (q, w), v in self._cycle_parts(chain).items():
            # the columns of d(q+1) as rows: the row lattice is the boundaries
            up = self._complex.differential(q + 1, w)
            _, red = next(linalg.echelon_reduce(linalg.row_hnf(up) if up else [], [v]))
            if red:
                out[q, w] = tuple(red.get(i, 0) for i in range(len(self._window.strands[q, w])))
        return out

    def shuffle_classes(self, x: Chain, y: Chain) -> dict[tuple[int, int], tuple[int, ...]]:
        """Shuffle two cycles and reduce the result to canonical form."""
        self._cycle_parts(x)
        self._cycle_parts(y)
        return self.reduce_cycle(shuffle_chains(self.algebra, x, y))
