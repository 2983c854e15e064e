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
letters, and numbered, so each strand comes out in its (length, word)
place order.  A word's column is its prefix's column with the new letter
appended to every term, plus the faces at the join:
d(v|a) = d(v)|a +- (v'|last(v).a) in the bar and
d(v|c) = d(v)|c +- v|diag(c) in the cobar, every target found by id.
bar_differential_word and cobar_differential_word give the face sum of
one word; the tests use them as oracles.

Each differential is stored as its list of columns, column j being
d(word j) as {row index: coeff}: a bar column has at most len(word) - 1
entries and a cobar column one per split, so no dense matrix is formed.
Both conventions are certified by the d*d = 0 check every ChainComplex
runs at construction, column by column.  Homology is computed by Smith
normal form, so free ranks and torsion are exact.  Bar homology of a
commutative algebra carries the shuffle product, with signs again on
shifted degrees.
"""

from __future__ import annotations

import itertools

from . import intz, linalg
from .errors import FalsificationError, InputError, bound_overflow

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
    product of two labels other than the unit has a unit component.
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
    def trivial(cls) -> GradedAugmentedAlgebra:
        return cls([("1", 0, 0)], "1", {("1", "1"): {"1": 1}})

    @classmethod
    def exterior(cls, degree: int, weight: int, label: str = "e") -> GradedAugmentedAlgebra:
        """Exterior algebra on one generator: the square is zero."""
        return cls(
            [("1", 0, 0), (label, degree, weight)], "1",
            {("1", "1"): {"1": 1}, ("1", label): {label: 1},
             (label, "1"): {label: 1}, (label, label): {}})

    @classmethod
    def truncated(cls, p: int) -> GradedAugmentedAlgebra:
        """Z[x]/x^p with deg x = 2, weight 1."""
        if p < 2:
            raise InputError("truncated:p needs p >= 2")
        if p ** 3 > VALIDATION_LIMIT:
            raise bound_overflow(f"checking truncated:{p}", f"{p ** 3} triples",
                                 "homology.VALIDATION_LIMIT", VALIDATION_LIMIT)
        lab = ["1", "x"] + [f"x{k}" for k in range(2, p)]
        products = {(lab[a], lab[b]): {lab[a + b]: 1} if a + b < p else {}
                    for a in range(p) for b in range(p)}
        return cls([(lab[k], 2 * k, k) for k in range(p)], "1", products)

    def augmentation_ideal(self) -> list[str]:
        return [g for g in self.labels if g != self.unit]

    def reduced_product(self, a: str, b: str) -> dict[str, int]:
        """Product of two augmentation-ideal labels (normalized bar face),
        which has no unit component since the augmentation is
        multiplicative; the dict returned is the stored one, so shared."""
        return self.products[(a, b)]


class GradedCoalgebra:
    """Finite bigraded coalgebra over Z with a group-like coaugmentation."""

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
        self._reduced = {c: {(a, b): v for (a, b), v in out.items()
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
    def trivial(cls) -> GradedCoalgebra:
        return cls([("1", 0, 0)], "1", {"1": {("1", "1"): 1}})

    @classmethod
    def divided_power(cls, bound: int, label: str = "g") -> GradedCoalgebra:
        """Divided-power coalgebra on a generator in degree 2, weight 1,
        truncated at weight `bound`: Int(Z) on its binomial basis, the
        k-th element being C(x,k), with diagonal intz.comult."""
        if bound < 0:
            raise InputError("bound must be nonnegative")
        if (bound + 1) ** 3 > VALIDATION_LIMIT:
            raise bound_overflow(f"checking divided-power:{bound}", f"{(bound + 1) ** 3} triples",
                                 "homology.VALIDATION_LIMIT", VALIDATION_LIMIT)
        basis = [(f"{label}{k}", 2 * k, k) for k in range(bound + 1)]
        delta = {f"{label}{n}": {(f"{label}{i}", f"{label}{j}"): c for (i, j), c
                                 in intz.comult(intz.IntZElement.basis(n)).items()}
                 for n in range(bound + 1)}
        return cls(basis, f"{label}0", delta)

    def reduced_diagonal(self, c: str) -> dict[tuple[str, str], int]:
        """Diagonal with every coaugmented term dropped (cobar split); the
        table is built once, so the dict returned is shared."""
        return self._reduced[c]


class ChainComplex:
    """Bigraded complex of free Z-modules with differential of degree -1.

    ranks[w][q] is the rank in total degree q and weight w; diffs[w][q]
    is d from (q, w) to (q-1, w) as its list of columns, column j being
    the image of basis element j as {row index: coeff}.  Every column is
    checked against the ranks, and d(q) compose d(q+1) = 0 column by
    column, for every weight at construction.  The complex owns the
    column lists it is given and keeps them as they are; nothing here
    changes a column.

    The columns are the rows of the transpose, and a matrix and its
    transpose share their Smith form (U d V = D gives V^T d^T U^T = D),
    so homology hands the columns to the Smith form as they are.
    """

    def __init__(self, ranks: dict[int, dict[int, int]],
                 diffs: dict[int, dict[int, list[Column]]]):
        self.ranks = {w: dict(qs) for w, qs in ranks.items()}
        self.diffs: dict[int, dict[int, list[Column]]] = {}
        for w, qs in diffs.items():
            for q, cols in qs.items():
                rows = self.rank(q - 1, w)
                if len(cols) != self.rank(q, w) or any(
                        not 0 <= i < rows for col in cols for i in col):
                    raise InputError(f"differential at degree {q}, weight {w} has wrong shape")
                self.diffs.setdefault(w, {})[q] = cols
        for w, qs in self.diffs.items():
            for q, cols in qs.items():
                down = qs.get(q - 1)
                if down is not None and any(any(_apply(down, col).values()) for col in cols):
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
        """
        factors = {(q, w): linalg.invariant_factors(cols)
                   for w, qs in self.diffs.items() for q, cols in qs.items()}
        out = {}
        for w, qs in self.ranks.items():
            for q, r in qs.items():
                if r == 0:
                    continue
                here = factors.get((q, w), [])
                up = factors.get((q + 1, w), [])
                out[(q, w)] = (r - len(here) - len(up), [d for d in up if d > 1])
        return out


def _apply(cols: list[Column], v: Column) -> Column:
    """The image sum_j v[j] * cols[j], zero entries included."""
    out: Column = {}
    for j, a in v.items():
        for i, c in cols[j].items():
            out[i] = out.get(i, 0) + a * c
    return out


def homology_tsv(C: ChainComplex) -> str:
    """Homology table: degree, weight, free rank, torsion invariants."""
    lines = ["degree\tweight\trank\ttorsion"]
    H = C.homology()
    for (q, w) in sorted(H):
        free, torsion = H[(q, w)]
        tor = ",".join(str(d) for d in torsion) if torsion else "-"
        lines.append(f"{q}\t{w}\t{free}\t{tor}")
    return "\n".join(lines) + "\n"


# -- words in a window, by strand ---------------------------------------


class _Window:
    """The words of a (degree, weight) window, each with an integer id.

    A word's degree sums its letters' degrees plus shift (+1 bar, -1
    cobar) each.  The walk goes once, by length, over the letters in
    sorted order, so within a length the words come in lexicographic
    order and each strand lists its words in (length, word) order, their
    place order, with no sort.  Word i has its prefix's id prefix[i], its
    last letter last[i], its degree[i] and weight[i], and place[i] in its
    strand (None outside the window); ext[(i, a)] is the id of word i
    followed by letter a.

    A word is visited when its length is at most max_len and its weight
    (all letter weights of one strict sign), or else its bounded degree
    (all shifted degrees of one strict sign), is within its bound.  That
    quantity moves away from zero with every letter, so the visited words
    are closed under prefixes.  Every one-letter extension of a visited
    word shorter than max_len counts against _TUPLE_CAP, visited or not.
    """

    def __init__(self, letters: list[str], bidegree: dict[str, tuple[int, int]], shift: int,
                 max_len: int | None, weight_bound: int, degree_bound: int | None = None):
        if min(max_len or 0, weight_bound, degree_bound or 0) < 0:
            raise InputError("bounds must be nonnegative")
        steps = [(a, bidegree[a][0] + shift, bidegree[a][1]) for a in sorted(letters)]
        # prune on the first monotone quantity, by its place in (degree, weight)
        for axis, bound in ((1, weight_bound), (0, degree_bound)):
            moves = [s[axis + 1] for s in steps]
            if bound is not None and (all(v > 0 for v in moves) or all(v < 0 for v in moves)):
                break
        else:
            if max_len is None:
                raise InputError(
                    "cannot bound cobar word length: letters need uniformly signed "
                    "weights or degrees uniformly away from one")
            bound = None
        # along the pruned axis every letter moves one way, so a word with r
        # left before its bound extends by exactly the letters moving at most r
        fits: dict[int, list[tuple[str, int, int]]] = {}
        prefix: list[int] = [-1]
        last: list[str | None] = [None]
        degree, weight = [0], [0]
        pruned = weight if axis else degree
        place: list[int | None] = [0]
        ext: dict[tuple[int, str], int] = {}
        strands: dict[tuple[int, int], list[int]] = {(0, 0): [0]}  # ids in place order
        # ids are handed out in walk order, so each length is a range of ids
        start, length, visited = 0, 0, 0
        while start < len(prefix) and length != max_len:
            end = len(prefix)
            for v in range(start, end):
                visited += len(steps)
                if visited > _TUPLE_CAP:
                    raise bound_overflow("the word window", f"at least {visited} words",
                                         "homology._TUPLE_CAP", _TUPLE_CAP)
                d, w = degree[v], weight[v]
                room = steps
                if bound is not None:
                    r = bound - abs(pruned[v])
                    room = fits.get(r)
                    if room is None:
                        room = fits[r] = [s for s in steps if abs(s[axis + 1]) <= r]
                for a, da, wa in room:
                    key = (d + da, w + wa)
                    ext[v, a] = len(prefix)
                    if abs(key[1]) <= weight_bound and (degree_bound is None
                                                        or abs(key[0]) <= degree_bound):
                        strand = strands.setdefault(key, [])
                        place.append(len(strand))
                        strand.append(len(prefix))
                    else:
                        place.append(None)
                    prefix.append(v)
                    last.append(a)
                    degree.append(key[0])
                    weight.append(key[1])
            start, length = end, length + 1
        self.prefix, self.last, self.place = prefix, last, place
        self.degree, self.weight = degree, weight
        self.ext, self.strands = ext, strands

    def words(self) -> dict[tuple[int, int], dict[tuple, int]]:
        """Each strand as {word: place}, iterating in place order."""
        word: list[tuple] = [()]
        for i in range(1, len(self.prefix)):
            word.append(word[self.prefix[i]] + (self.last[i],))
        return {key: {word[i]: j for j, i in enumerate(ids)} for key, ids in self.strands.items()}

    def complex(self, joins) -> ChainComplex:
        """The complex on the strands, d of degree -1, each column built
        from the column of the word's prefix: d(v|a) is d(v)|a plus the
        faces joining v's end to a, which joins(v, a) gives as
        (target id, coeff) pairs with their signs."""
        # A face of a visited word is visited, so it has an id: a bar face
        # keeps the weight and is one letter shorter, so the pruned weight or
        # the length bound admits it; a cobar face keeps the weight and, with
        # positive shifted letters, lowers a positive degree by one.  Only a
        # degree bound on negative shifted letters loses cobar faces, those of
        # words on the bound, which have no visited extension and no strand
        # below.  So each column is held to the visited words, and every
        # column that is read is whole.
        ext, place = self.ext, self.place
        cols: list[Column] = [{}]
        for i in range(1, len(self.prefix)):
            a = self.last[i]
            col: Column = {}
            for u, c in cols[self.prefix[i]].items():
                t = ext.get((u, a))
                if t is not None:
                    col[t] = c
            for t, c in joins(self.prefix[i], a):
                s = col.get(t, 0) + c
                if s:
                    col[t] = s
                else:
                    col.pop(t, None)
            cols.append(col)
        ranks: dict[int, dict[int, int]] = {}
        diffs: dict[int, dict[int, list[Column]]] = {}
        for (q, w), ids in self.strands.items():
            ranks.setdefault(w, {})[q] = len(ids)
            if (q - 1, w) in self.strands:
                diffs.setdefault(w, {})[q] = [{place[t]: c for t, c in cols[i].items()}
                                              for i in ids]
        del cols  # freed before the complex checks its columns
        return ChainComplex(ranks, diffs)


# -- bar construction -------------------------------------------------


def bar_word_bidegree(A: GradedAugmentedAlgebra, word: tuple) -> tuple[int, int]:
    d = sum(A.bidegree[a][0] for a in word) + len(word)
    w = sum(A.bidegree[a][1] for a in word)
    return (d, w)


def bar_differential_word(A: GradedAugmentedAlgebra, word: tuple) -> Chain:
    """Normalized bar face sum of a single word."""
    out: Chain = {}
    sign_exp = 0
    for i in range(len(word) - 1):
        sign_exp += A.bidegree[word[i]][0] + 1
        sign = -1 if sign_exp % 2 else 1
        for k, c in A.reduced_product(word[i], word[i + 1]).items():
            merged = word[:i] + (k,) + word[i + 2:]
            _add_term(out, merged, sign * c)
    return out


def _bar_window(A: GradedAugmentedAlgebra, stages: int,
                weight_bound: int) -> tuple[_Window, ChainComplex]:
    W = _Window(A.augmentation_ideal(), A.bidegree, 1, stages, weight_bound)
    prefix, last, degree, ext = W.prefix, W.last, W.degree, W.ext
    ideal = A.augmentation_ideal()
    # (u|b)|a merges b and a at sign exponent deg(u) + |b| + 1
    merges = {(b, a): [(k, c if A.bidegree[b][0] % 2 else -c)
                       for k, c in A.reduced_product(b, a).items()]
              for b in ideal for a in ideal if A.reduced_product(b, a)}

    def joins(v, a):
        m = merges.get((last[v], a))
        if m is None:
            return ()
        u = prefix[v]
        sign = -1 if degree[u] % 2 else 1
        return [(ext[u, k], sign * c) for k, c in m]

    return W, W.complex(joins)


def bar_complex(A: GradedAugmentedAlgebra, stages: int, weight_bound: int) -> ChainComplex:
    """Normalized bar complex through the given number of tensor stages,
    keeping strands of absolute weight at most weight_bound."""
    return _bar_window(A, stages, weight_bound)[1]


# -- cobar construction -----------------------------------------------


def cobar_differential_word(C: GradedCoalgebra, word: tuple) -> Chain:
    """Derivation extension of the reduced diagonal with Koszul signs."""
    out: Chain = {}
    sign_exp = 0
    for i, letter in enumerate(word):
        if i > 0:
            sign_exp += C.bidegree[word[i - 1]][0] - 1
        for (a, b), v in C.reduced_diagonal(letter).items():
            sign = -1 if (sign_exp + C.bidegree[a][0]) % 2 else 1
            split = word[:i] + (a, b) + word[i + 1:]
            _add_term(out, split, sign * v)
    return out


def cobar_complex(C: GradedCoalgebra, degree_bound: int, weight_bound: int) -> ChainComplex:
    """Cobar complex of the reduced coalgebra, keeping words of absolute
    total degree at most degree_bound and absolute weight at most
    weight_bound."""
    letters = [c for c in C.labels if c != C.coaug]
    W = _Window(letters, C.bidegree, -1, None, weight_bound, degree_bound)
    degree, ext = W.degree, W.ext
    # v|c splits c into a|b at sign exponent deg(v) + |a|
    splits = {c: [(a, b, -x if C.bidegree[a][0] % 2 else x)
                  for (a, b), x in C.reduced_diagonal(c).items()] for c in letters}

    def joins(v, c):
        sign = -1 if degree[v] % 2 else 1
        out = []
        for a, b, x in splits[c]:
            t = ext.get((v, a))
            if t is not None and (t, b) in ext:
                out.append((ext[t, b], sign * x))
        return out

    return W.complex(joins)


# -- shuffle product on bar words ------------------------------------


def shuffle_chains(A: GradedAugmentedAlgebra, x: Chain, y: Chain) -> Chain:
    """Eilenberg-Zilber shuffle of bar chains, with Koszul signs on the
    shifted degrees |a| + 1 of the letters."""
    out: Chain = {}
    for xw, xc in x.items():
        for yw, yc in y.items():
            p, q = len(xw), len(yw)
            sx = [A.bidegree[a][0] + 1 for a in xw]
            sy = [A.bidegree[b][0] + 1 for b in yw]
            for positions in itertools.combinations(range(p + q), p):
                posset = set(positions)
                word = []
                sign_exp = 0
                xi = yi = 0
                y_placed = 0  # shifted degrees of the y letters placed so far
                for spot in range(p + q):
                    if spot in posset:
                        # every y letter already placed hops past this x letter
                        sign_exp += sx[xi] * y_placed
                        word.append(xw[xi])
                        xi += 1
                    else:
                        y_placed += sy[yi]
                        word.append(yw[yi])
                        yi += 1
                sign = -1 if sign_exp % 2 else 1
                _add_term(out, tuple(word), sign * xc * yc)
    return out


class BarHomologyWindow:
    """Bar complex of A in a bounded window, with cycle reduction.

    reduce_cycle maps a chain to its canonical representative modulo
    boundaries, strand by strand; comparing reduced forms decides
    equality of homology classes.
    """

    def __init__(self, A: GradedAugmentedAlgebra, stages: int, weight_bound: int):
        self.algebra = A
        window, self.complex = _bar_window(A, stages, weight_bound)
        self.strands = window.words()
        self._boundary_hnf: dict[tuple[int, int], list[linalg.Row]] = {}

    def _vectorize(self, chain: Chain) -> dict[tuple[int, int], Column]:
        """The chain split by strand, each part as {index: coeff} in its
        strand without zero coefficients."""
        out: dict[tuple[int, int], Column] = {}
        for word, c in chain.items():
            key = bar_word_bidegree(self.algebra, word)
            if key not in self.strands:
                raise InputError(f"chain leaves the computed window at {key}")
            part = out.setdefault(key, {})
            if c:
                part[self.strands[key][word]] = c
        return out

    def _boundaries(self, key: tuple[int, int]) -> list[linalg.Row]:
        if key not in self._boundary_hnf:
            q, w = key
            up = self.complex.differential(q + 1, w)
            # the columns of d(q+1) as rows: the row lattice is the boundaries
            self._boundary_hnf[key] = linalg.row_hnf(up) if up else []
        return self._boundary_hnf[key]

    def reduce_cycle(self, chain: Chain) -> dict[tuple[int, int], tuple[int, ...]]:
        """Canonical form of a cycle modulo boundaries; raises on a
        chain that is not a cycle in every strand."""
        out = {}
        for key, v in self._vectorize(chain).items():
            q, w = key
            d = self.complex.differential(q, w)
            if d and any(_apply(d, v).values()):
                raise InputError(f"chain is not a cycle in strand {key}")
            _, red = next(linalg.echelon_reduce(self._boundaries(key), [v]))
            if red:
                out[key] = tuple(red.get(i, 0) for i in range(len(self.strands[key])))
        return out

    def shuffle_classes(self, x: Chain, y: Chain) -> dict[tuple[int, int], tuple[int, ...]]:
        """Shuffle two cycles and reduce the result to canonical form."""
        self.reduce_cycle(x)
        self.reduce_cycle(y)
        return self.reduce_cycle(shuffle_chains(self.algebra, x, y))
