"""Filtered and graded Z-modules, Rees algebras, and a deformed binomial basis.

A FilteredModule is a decreasing filtration of a finite free Z-module
with injective structure maps and a bounded support range: below n_min
every stage equals the underlying module, above n_max every stage is
zero.  This shape makes the convolution tensor product a plain sum of
image lattices, computed exactly with Hermite normal forms.

GradedAlgebraPresentation, built by rees(), is the Rees algebra of
Int(Z) over Z[t]: the one-parameter deformation of the binomial ring
whose specializations at t=1 and t=0 recover the original product and
its divided-power shadow.  Its generator k is t^k C(x,k), so one integer
is its index, its weight and its label, and its table stores one integer
per term of the closed form intz.basis_product, keyed by index.  The
same deformation is realized polynomially
by the basis b_n(x,t) = x(x-t)...(x-t(n-1))/n! = t^n C(x/t, n), so both
read one closed form: C(x,m) C(x,n) = sum_k c_mnk C(x,k) gives
b_m b_n = sum_k c_mnk t^(m+n-k) b_k.
"""

from __future__ import annotations

import json

from . import intz, linalg
from .errors import FalsificationError, InputError, bound_overflow
from .poly import SparsePoly, format_terms

Row = linalg.Row


def _unit_rows(r: int) -> list[Row]:
    """The rows of the r x r identity."""
    return [{j: 1} for j in range(r)]


class FilteredModule:
    """Decreasing filtration X^n of a finite free Z-module.

    ranks[i] is the rank of stage n_min + i.  maps[i], the injection of
    stage n_min + i + 1 into stage n_min + i, is a list of ranks[i + 1]
    coordinate rows {a: q}: row b holds the coordinates of basis vector b
    of stage n_min + i + 1 in the basis of stage n_min + i, so it is
    column b of the integer matrix of the JSON form, the only place a
    structure map is dense.  A stage is a list of {column: entry} rows:
    its basis vectors in the underlying module (stage n_min).  Stage
    n_max + 1 is zero.  The module keeps the rows it is given and never
    changes them.
    """

    def __init__(self, n_min: int, n_max: int, ranks: list[int], maps: list[list[Row]]):
        _check_frame(n_min, n_max, ranks, maps)
        for i, rows in enumerate(maps):
            if len(rows) != ranks[i + 1] or any(not 0 <= a < ranks[i] for v in rows for a in v):
                raise InputError(f"structure map {i} is not {ranks[i + 1]} coordinate rows "
                                 f"in rank {ranks[i]}")
            if linalg.rank(rows) != len(rows):
                raise InputError(f"structure map into stage {n_min + i} is not injective")
        self.n_min = n_min
        self.n_max = n_max
        self.ranks = list(ranks)
        self.maps = list(maps)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_lattices(cls, ambient_rank: int, n_min: int, lattices: list[list[Row]]) -> FilteredModule:
        """Build from per-stage spanning rows inside a fixed ambient Z^r.

        lattices[i] is a list of rows, {column: entry} vectors of Z^r that
        span stage n_min + i.  Each stage must be contained in the previous
        one; stage 0 must span the ambient.  Each stage's basis is its HNF
        rows, and the map into the stage before is the unique coordinates
        of these rows in that stage's HNF rows, found by substitution down
        its pivots.
        """
        if not lattices:
            raise InputError("need at least one stage")
        if any(not 0 <= j < ambient_rank for rows in lattices for v in rows for j in v):
            raise InputError("lattice rows must live in the ambient module")
        bases = [linalg.row_hnf(rows) for rows in lattices]
        if bases[0] != _unit_rows(ambient_rank):
            raise InputError("bottom stage must span the ambient module")
        ranks = [len(H) for H in bases]
        maps = []
        for i in range(len(bases) - 1):
            sols = linalg.echelon_solve(bases[i], bases[i + 1])
            if sols is None:
                raise InputError(
                    f"stage {n_min + i + 1} is not contained in stage {n_min + i}")
            maps.append(sols)
        # coordinates of independent rows: every map is injective already
        X = cls.__new__(cls)
        X.n_min, X.n_max, X.ranks, X.maps = n_min, n_min + len(lattices) - 1, ranks, maps
        return X

    # -- queries ------------------------------------------------------

    def stages(self) -> list[list[Row]]:
        """The basis of each stage from n_min to n_max as {column: entry}
        rows of the underlying module, row b of each being the sum of
        q times row a of the one before over the coordinates {a: q} of
        row b of its structure map; a rank-0 stage is []."""
        out = [_unit_rows(self.ranks[0])]
        for coords in self.maps:
            prev, rows = out[-1], []
            for c in coords:
                v: Row = {}
                for a, q in c.items():
                    linalg.add_scaled(v, q, prev[a])
                rows.append(v)
            out.append(rows)
        return out

    def profile(self) -> tuple:
        return (self.n_min, self.n_max,
                tuple(tuple(tuple(sorted(h.items())) for h in linalg.row_hnf(S))
                      for S in self.stages()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FilteredModule):
            return NotImplemented
        return self.ranks[0] == other.ranks[0] and self.profile() == other.profile()

    def to_json(self) -> str:
        """Each structure map as the ranks[i] x ranks[i + 1] integer matrix
        acting on column vectors, column b its coordinate row b."""
        maps = [[[v.get(a, 0) for v in rows] for a in range(r)]
                for rows, r in zip(self.maps, self.ranks)]
        return json.dumps(
            {"n_min": self.n_min, "n_max": self.n_max, "ranks": self.ranks, "maps": maps},
            separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> FilteredModule:
        """Read the to_json form, whose values are JSON integers only.

        Each matrix is checked to be rectangular, of the shape the ranks
        give, and its columns become the coordinate rows."""
        try:
            obj = json.loads(text)
            if not isinstance(obj, dict):
                raise InputError("want an object")
            fields = []
            for key, depth in (("n_min", 0), ("n_max", 0), ("ranks", 1), ("maps", 3)):
                if key not in obj:
                    raise InputError(f"{key} is missing")
                fields.append(_json_ints(obj[key], key, depth))
            n_min, n_max, ranks, dense = fields
            _check_frame(n_min, n_max, ranks, dense)
            maps = []
            for i, M in enumerate(dense):
                c = len(M[0]) if M else 0
                if any(len(row) != c for row in M):
                    raise InputError("ragged matrix")
                if (len(M), c) != (ranks[i], ranks[i + 1]):
                    raise InputError(f"structure map {i} has shape {len(M)}x{c}, "
                                     f"expected {ranks[i]}x{ranks[i + 1]}")
                maps.append([{a: row[b] for a, row in enumerate(M) if row[b]} for b in range(c)])
            return cls(n_min, n_max, ranks, maps)
        except (InputError, ValueError, RecursionError) as exc:
            raise InputError(f"bad filtered module JSON: {exc}") from None


def _check_frame(n_min: int, n_max: int, ranks: list[int], maps: list) -> None:
    """The range, the ranks and the number of structure maps agree."""
    if n_max < n_min:
        raise InputError("empty filtration range")
    if len(ranks) != n_max - n_min + 1:
        raise InputError("rank list does not match the range")
    if any(r < 0 for r in ranks):
        raise InputError("ranks must be nonnegative")
    if len(maps) != len(ranks) - 1:
        raise InputError("need one structure map per adjacent pair of stages")


def _json_ints(value, field: str, depth: int):
    """value, checked to be depth nested lists around integers (not bools)."""
    if depth == 0:
        if type(value) is not int:
            raise InputError(f"{field} is not an integer")
    elif not isinstance(value, list):
        raise InputError(f"{field} is not a list")
    else:
        for k, x in enumerate(value):
            _json_ints(x, f"{field}[{k}]", depth - 1)
    return value


def degree_filtration_module(N: int) -> FilteredModule:
    """Filtration of the rank N+1 binomial span where stage q keeps the
    basis elements of index q through N.  Every graded piece has rank one."""
    if N < 0:
        raise InputError("N must be nonnegative")
    ranks = [N + 1 - q for q in range(N + 1)]
    maps = [[{b + 1: 1} for b in range(r - 1)] for r in ranks[:-1]]
    return FilteredModule(0, N, ranks, maps)


# Largest accepted work for day_tensor, counted before any of it is done:
# each stage pair (i, j) writes rank_i * rank_j spanning rows of the
# ambient length, plus one ambient length more, and has a fixed cost of
# about 16 entries.  At the limit the tensor takes about a second.
DAY_TENSOR_WORK_LIMIT = 2_000_000


def day_tensor(X: FilteredModule, Y: FilteredModule) -> FilteredModule:
    """Convolution tensor: stage n is the sum of the images of
    (stage i of X) tensor (stage j of Y) over i + j = n, inside the
    tensor product of the underlying modules.  Every stage pair (i, j)
    enters once, so the work is known from the ranks; over
    DAY_TENSOR_WORK_LIMIT it is refused."""
    ambient = X.ranks[0] * Y.ranks[0]
    pairs = len(X.ranks) * len(Y.ranks)
    work = (sum(X.ranks) * sum(Y.ranks) + pairs) * ambient + 16 * pairs
    if work > DAY_TENSOR_WORK_LIMIT:
        raise bound_overflow("the Day tensor", f"{work} units of work",
                             "filtration.DAY_TENSOR_WORK_LIMIT", DAY_TENSOR_WORK_LIMIT)
    lo = X.n_min + Y.n_min
    hi = X.n_max + Y.n_max
    sx, sy = X.stages(), Y.stages()
    # stage j of Y is all of Y for j <= Y.n_min, and stage i of X shrinks
    # as i grows, so the pairs with j < Y.n_min add nothing new; u (x) v
    # has entry u[a] * v[b] at index a * rank(Y) + b
    ry = Y.ranks[0]
    lattices = [[{a * ry + b: x * y for a, x in u.items() for b, y in v.items()}
                 for i in range(max(X.n_min, n - Y.n_max), min(X.n_max, n - Y.n_min) + 1)
                 for u in sx[i - X.n_min] for v in sy[n - i - Y.n_min]]
                for n in range(lo, hi + 1)]
    return FilteredModule.from_lattices(ambient, lo, lattices)


def associated_graded(X: FilteredModule) -> dict[int, int]:
    """Ranks of the graded pieces stage n / stage n+1.

    Quotients must be free: a structure map whose cokernel has torsion
    (an invariant factor above one) is rejected.
    """
    for i, rows in enumerate(X.maps):
        if any(d != 1 for d in linalg.invariant_factors(rows)):
            raise InputError(f"graded piece at stage {X.n_min + i} has torsion; "
                             "only split filtrations are supported")
    return {X.n_min + i: r - s for i, (r, s) in enumerate(zip(X.ranks, X.ranks[1:] + [0]))}


# -- the Rees algebra of the binomial ring ---------------------------

# A constant of Z[t] as output: {t-exponent: int}.
TPoly = dict[int, int]


def t_poly(terms: TPoly) -> SparsePoly:
    """The constant as a polynomial in t, whose monomials are powers of t
    alone; SparsePoly drops the zeros."""
    return SparsePoly({(("t", e),) if e else (): c for e, c in terms.items()})


def _gen_label(k: int) -> str:
    return "1" if k == 0 else f"C{k}"


def _labels(bound: int) -> list[str]:
    return [_gen_label(k) for k in range(bound + 1)]


def _t_power(e: int) -> str:
    return "" if e == 0 else "t" if e == 1 else f"t^{e}"


class GradedAlgebraPresentation:
    """The Rees algebra of Int(Z) over Z[t] up to weight `bound`, built by
    rees(bound): the one-parameter deformation of the filtered binomial ring.

    Generator k is b_k = t^k C(x,k): one integer is its index, its weight
    and its label, "1" (the unit) for k = 0 and Ck above; t has weight
    one.  constants[(i, j)] = intz.basis_product(i, j), one dict for both
    orders, is stored for i + j <= bound, and its integer c on k stands for
    the constant c * t^(i+j-k).  Its indices k never pass i+j (the degree
    filtration is multiplicative), and basis_product(0, j) = {j: 1} is the
    unit law.  The associativity check and specialization run on these
    integers; labels are formed only for output.
    """

    def __init__(self, bound: int):
        """The table has at most min(i,j)+1 terms per stored pair (i, j);
        more than intz.WORK_LIMIT of them weighted by the bound is refused."""
        if bound < 0:
            raise InputError("bound must be nonnegative")
        intz._check_work((i + 1 for i in range(bound + 1) for _ in range(i, bound + 1 - i)),
                         bound, "the Rees table")
        self.bound = bound
        # each pair lighter generator first, in index order, then its mirror
        self.constants: dict[tuple[int, int], dict[int, int]] = {}
        for i in range(bound + 1):
            for j in range(i, bound + 1 - i):
                self.constants[i, j] = self.constants[j, i] = intz.basis_product(i, j)

    def pairs(self) -> list[tuple[int, int]]:
        """Each stored unordered pair once, as indices i <= j, in the order
        stored."""
        return [(i, j) for i, j in self.constants if i <= j]

    def product_text(self, i: int, j: int) -> dict[str, str]:
        """The constants of the stored product b_i * b_j in their canonical
        text form, {label_k: text of c * t^(i+j-k)}."""
        if (i, j) not in self.constants:
            raise InputError(f"product ({i},{j}) not stored (weight bound {self.bound})")
        return {_gen_label(k): format_terms(((_t_power(i + j - k), c),))
                for k, c in self.constants[i, j].items()}

    def check_associative(self) -> None:
        """(xy)z = x(yz) for generator triples within the weight bound.

        Each constant is a single term n t^d, and any bracketing of a, b, c
        puts t^(a+b+c-k) on generator k, so the stored integers n decide
        it.  The table is symmetric and the unit law holds, so
        (ab)c = a(bc) = b(ac) for 1 <= a <= b <= c covers every ordered
        triple."""
        table, bound = self.constants, self.bound

        def times(x: dict[int, int], g: int) -> dict[int, int]:
            acc: dict[int, int] = {}
            for k, m in x.items():
                for j, n in table[k, g].items():
                    acc[j] = acc.get(j, 0) + m * n
            return {j: n for j, n in acc.items() if n}

        for a in range(1, bound // 3 + 1):
            for b in range(a, (bound - a) // 2 + 1):
                ab = table[a, b]
                for c in range(b, bound - a - b + 1):
                    ab_c = times(ab, c)
                    if ab_c != times(table[b, c], a):
                        raise FalsificationError(f"associativity fails on (C{a},C{b},C{c})")
                    if ab_c != times(table[a, c], b):
                        raise FalsificationError(f"associativity fails on (C{b},C{a},C{c})")

    def specialize(self, value: int) -> dict[tuple[str, str], dict[str, int]]:
        """Substitute an integer for t; returns plain integer constants,
        one entry per unordered generator pair, keyed by labels and ordered
        as pairs() gives them.  A value that would take some c * t^e past
        intz.EVAL_BITS_LIMIT bits is refused first."""
        table, pairs = self.constants, self.pairs()
        t_bits = abs(value).bit_length()
        if t_bits > 1:
            need = max((c.bit_length() + (i + j - k) * t_bits
                        for i, j in pairs for k, c in table[i, j].items()), default=0)
            if need > intz.EVAL_BITS_LIMIT:
                raise bound_overflow("specializing t", f"{need} bits in one constant",
                                     "intz.EVAL_BITS_LIMIT", intz.EVAL_BITS_LIMIT)
        labels = _labels(self.bound)
        out: dict[tuple[str, str], dict[str, int]] = {}
        for i, j in pairs:
            spec = out[labels[i], labels[j]] = {}
            for k, c in table[i, j].items():
                v = c * value ** (i + j - k)
                if v:
                    spec[labels[k]] = v
        return out

    def to_json(self) -> str:
        labels = _labels(self.bound)
        pairs = [{"i": labels[i], "j": labels[j], "out": self.product_text(i, j)}
                 for i, j in self.pairs()]
        obj = {"weights": {str(k): [g] for k, g in enumerate(labels)}, "constants": pairs,
               "bound": self.bound, "unit": labels[0]}
        return json.dumps(obj, separators=(",", ":"))


def rees(bound: int = 10) -> GradedAlgebraPresentation:
    """The Rees algebra of Int(Z) over Z[t] up to weight `bound`."""
    return GradedAlgebraPresentation(bound)


def drinfeld_structure_constants(m: int, n: int) -> dict[int, SparsePoly]:
    """Constants c_k(t) of b_m * b_n = sum_k c_k(t) * b_k for the deformed
    basis b_n(x,t) = x(x-t)(x-2t)...(x-(n-1)t)/n! = t^n C(x/t, n).

    Substituting x/t into C(x,m) C(x,n) = sum_k c_mnk C(x,k) and
    multiplying by t^(m+n) gives c_k(t) = c_mnk t^(m+n-k), the Rees
    table: integer polynomials in t of t-degree m+n-k.  The
    min(m,n)+1 terms, weighted by m+n, are counted against
    intz.WORK_LIMIT before any is formed.
    """
    if m < 0 or n < 0:
        raise InputError("indices must be nonnegative")
    intz._check_work((min(m, n) + 1,), m + n, "the Drinfeld constants")
    return {k: t_poly({m + n - k: c}) for k, c in intz.basis_product(m, n).items()}
