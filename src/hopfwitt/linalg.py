"""Exact linear algebra over Z: Hermite and Smith normal forms, ranks.

A lattice is given by the rows that span it, each a {column: entry} dict
of its nonzero entries.  HNF by integer row reduction gives canonical
lattice forms; coordinates in a lattice, and a canonical residue modulo
it, are read off its HNF rows by substitution.  No routine tracks
transforms.  Ranks and invariant factors take one route of their own:
unit-pivot sparse elimination (Dumas-Saunders-Villard), then, on the
small core it leaves, fraction-free Bareiss elimination for the rank and
a nonzero maximal minor D, and a Smith form computed modulo D
(Domich-Kannan-Trotter), so no entry outgrows D.  A modulus over
MODULUS_BITS_LIMIT bits is refused.  invariant_factors can report its
unit-pivot columns, the cells homology clears in the differential
below.  Every routine takes the same {column: entry} rows; only the
small core is held dense, internally.
"""

from __future__ import annotations

import heapq
from math import gcd
from typing import Iterable, Iterator

from .errors import bound_overflow

Matrix = list[list[int]]
Row = dict[int, int]


def add_scaled(row: Row, q: int, other: Row) -> None:
    """row += q * other in place, for q nonzero; entries that cancel leave
    row, so it keeps no zero entry."""
    for j, x in other.items():
        v = row.get(j, 0) + q * x
        if v:
            row[j] = v
        else:
            del row[j]


def row_hnf(rows: Iterable[Row]) -> list[Row]:
    """Row-style Hermite normal form of the lattice the rows span, as
    {column: entry} rows without zero entries.

    Canonical for the row lattice: row echelon, positive pivots, entries
    above each pivot reduced into [0, pivot).  Two sets of rows span the
    same lattice iff their HNFs are equal.  Each distinct nonzero row
    enters once, in the bucket of its leading column.  Columns are taken
    in increasing order; at each, Euclid runs among the rows of its bucket
    alone, every row cleared there moving to the bucket of its new leading
    column, and the row left is the pivot, made positive, which then
    reduces the entries above it.
    """
    seen = set()
    lead: dict[int, list[Row]] = {}
    for row in rows:
        r = {j: x for j, x in row.items() if x}
        key = frozenset(r.items())
        if r and key not in seen:
            seen.add(key)
            lead.setdefault(min(r), []).append(r)
    cols = list(lead)
    heapq.heapify(cols)
    H: list[Row] = []
    filled: set[int] = set()  # every column some row of H may hold
    while cols:
        col = heapq.heappop(cols)
        group = lead.pop(col)
        while len(group) > 1:
            piv = min(group, key=lambda r: abs(r[col]))
            p = piv[col]
            rest = [piv]
            for r in group:
                if r is piv:
                    continue
                add_scaled(r, -(r[col] // p), piv)
                if col in r:
                    rest.append(r)
                elif r:
                    j = min(r)
                    if j not in lead:
                        lead[j] = []
                        heapq.heappush(cols, j)
                    lead[j].append(r)
            group = rest
        piv = group[0]
        p = piv[col]
        if p < 0:
            for j in piv:
                piv[j] = -piv[j]
            p = -p
        if col in filled:
            for h in H:
                q = h.get(col, 0) // p
                if q:
                    add_scaled(h, -q, piv)
        filled.update(piv)
        H.append(piv)
    return H


def echelon_reduce(H: list[Row], vectors: Iterable[Row]) -> Iterator[tuple[Row, Row]]:
    """For each vector v, coordinates q and a residue r with v = q H + r,
    q as {row index: coordinate} and r as a row, both without zeros.

    H is in row echelon form with no zero rows, as row_hnf returns it, so
    its rows are independent.  Each row's coordinate is the floor quotient
    at its pivot column once the rows above it are subtracted, since the
    rows below are zero there; a remainder stays in that column.  Only the
    pivots v reaches are visited, by the walk of _reduce.  With positive
    pivots, as row_hnf gives, r is the same for every vector of one coset
    of the row lattice, and v is in the lattice iff r is empty.
    """
    pivots = [(min(h), h) for h in H]
    order = {col: k for k, (col, _) in enumerate(pivots)}
    for v in vectors:
        res = {j: x for j, x in v.items() if x}
        coords: Row = {}
        _reduce(res, pivots, order, coords)
        yield coords, res


def echelon_solve(H: list[Row], vectors: Iterable[Row]) -> list[Row] | None:
    """Coordinates of each vector in the row lattice of H, unique since
    its rows are independent, or None when some vector is not in that
    lattice; H and the coordinates as for echelon_reduce."""
    out = []
    for coords, res in echelon_reduce(H, vectors):
        if res:
            return None
        out.append(coords)
    return out


# -- invariants without transforms ------------------------------------------

MODULUS_BITS_LIMIT = 1024


def _unit_pivot_core(rows: Iterable[Row]) -> tuple[list[int], Matrix]:
    """Unit-pivot sparse elimination: the unit-pivot columns and the core.

    Each row is copied, without its zero entries when it has any, since
    _reduce takes rows without zeros; the copies are taken sparsest
    first.  A row that meets a pivot column is reduced by the pivot rows,
    and one that meets none is left as it is, with nothing to subtract.
    The row then becomes a pivot on its first +-1 entry if it has one,
    else it joins the core; passes repeat until one adds no pivot, so the
    core is zero in every pivot column.  The pivot rows restricted to
    their pivot columns are unitriangular, so SNF(A) is an identity block
    beside SNF(core).  The core comes back dense on the columns where it
    is nonzero.
    """
    pivots: list[tuple[int, dict[int, int]]] = []
    order: dict[int, int] = {}
    core = sorted((dict(row) if 0 not in row.values() else {j: x for j, x in row.items() if x}
                   for row in rows), key=len)
    grew = True
    while grew:
        grew = False
        rest = []
        for row in core:
            if not order.keys().isdisjoint(row):
                _reduce(row, pivots, order)
            for col, x in row.items():
                if x == 1 or x == -1:
                    order[col] = len(pivots)
                    pivots.append((col, row))
                    grew = True
                    break
            else:
                if row:
                    rest.append(row)
        core = rest
    cols = sorted({j for row in core for j in row})
    return [col for col, _ in pivots], [[row.get(j, 0) for j in cols] for row in core]


def _reduce(row: Row, pivots: list, order: dict[int, int], coords: Row | None = None) -> None:
    """Reduce row by the pivot rows, in the order the pivots were chosen:
    each pivot row is subtracted q times, q the floor quotient of row's
    entry in its pivot column, and q goes to coords[index] when coords is
    given.  A unit pivot clears its column, as a // (+-1) = a * (+-1); a
    positive pivot p leaves an entry in [0, p), whose quotient is 0.

    A pivot row is zero in the columns of earlier pivots, so subtracting it
    only ever fills columns of later ones, which the heap then visits.
    Neither row nor a pivot row may hold a zero entry: an entry that
    cancels leaves row.
    """
    heap = [order[j] for j in row if j in order]
    heapq.heapify(heap)
    while heap:
        k = heapq.heappop(heap)
        col, prow = pivots[k]
        q = row.get(col, 0) // prow[col]
        if not q:
            continue
        if coords is not None:
            coords[k] = q
        for j, x in prow.items():
            v = row.get(j, 0) - q * x
            if not v:
                del row[j]
                continue
            if j not in row and j in order:
                heapq.heappush(heap, order[j])
            row[j] = v


def _bareiss(M: Matrix) -> tuple[int, int]:
    """Rank r of M and the absolute value of a nonzero r x r minor.

    Fraction-free elimination (Bareiss): every entry formed is a minor of
    M, so entries stay bounded, and the last pivot is the minor returned.
    M is overwritten.
    """
    m, n = len(M), len(M[0]) if M else 0
    r, prev = 0, 1
    for c in range(n):
        p = next((i for i in range(r, m) if M[i][c]), None)
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
        piv, a = M[r], M[r][c]
        for row in M[r + 1:]:
            b = row[c]
            for j in range(c + 1, n):
                row[j] = (a * row[j] - b * piv[j]) // prev
        prev = a
        r += 1
        if r == m:
            break
    return r, abs(prev)


def _diagonal_mod(M: Matrix, D: int) -> list[int]:
    """gcd(d, D) over the nonzero entries d of a diagonal form of M mod D.

    Row and column operations invertible over Z/D keep the lattice
    L + D*Z^n unchanged, L being the row lattice of M.  Each pivot has the
    least gcd with D in its block; an entry it does not divide modulo D is
    merged into it by an extended-gcd step, which strictly lowers that gcd.
    """
    M = [[x % D for x in row] for row in M]
    m, n = len(M), len(M[0])
    out = []
    for t in range(min(m, n)):
        best, at = D, None
        for i in range(t, m):
            for j in range(t, n):
                if M[i][j]:
                    g = gcd(M[i][j], D)
                    if g < best:
                        best, at = g, (i, j)
            if best == 1:
                break
        if at is None:
            break
        i, j = at
        M[t], M[i] = M[i], M[t]
        for row in M[t:]:
            row[t], row[j] = row[j], row[t]
        while True:
            # clear column t by row operations, on columns t.. only
            piv = M[t][t:]
            p = piv[0]
            g = gcd(p, D)
            inv = pow(p // g, -1, D // g)
            for i in range(t + 1, m):
                row = M[i][t:]
                b = row[0]
                if not b:
                    continue
                if b % g == 0:
                    q = b // g * inv % D
                    M[i][t:] = [(y - q * x) % D for x, y in zip(piv, row)]
                else:
                    h, s, u = _xgcd(p, b)
                    M[i][t:] = [(p // h * y - b // h * x) % D for x, y in zip(piv, row)]
                    M[t][t:] = piv = [(s * x + u * y) % D for x, y in zip(piv, row)]
                    p = piv[0]
                    g = gcd(p, D)
                    inv = pow(p // g, -1, D // g)
            # row t: entries the pivot divides mod D clear by column
            # operations that touch row t alone; one it does not is merged
            piv = M[t]
            j = next((j for j in range(t + 1, n) if piv[j] % g), None)
            if j is None:
                break
            b = piv[j]
            h, s, u = _xgcd(p, b)
            for row in M[t:]:
                x, y = row[t], row[j]
                row[t], row[j] = (s * x + u * y) % D, (p // h * y - b // h * x) % D
        out.append(gcd(M[t][t], D))
    return out


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, u) with s*a + u*b = g = gcd(a, b), for a, b > 0."""
    s0, s1, u0, u1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1, u0, u1 = s1, s0 - q * s1, u1, u0 - q * u1
    return a, s0, u0


def _divisor_chain(diag: list[int]) -> list[int]:
    """Smith form of a diagonal matrix: pairwise (gcd, lcm) until each
    entry divides the next."""
    d = list(diag)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return d


def rank(rows: Iterable[Row]) -> int:
    """Rank of the {column: entry} rows: unit pivots plus the Bareiss rank
    of the core."""
    units, core = _unit_pivot_core(rows)
    return len(units) + _bareiss(core)[0]


def invariant_factors(rows: Iterable[Row], unit_cols: set[int] | None = None) -> list[int]:
    """The nonzero invariant factors of the {column: entry} rows, each
    dividing the next.  A matrix and its transpose share them, so the
    rows may as well be the columns.  The unit-pivot columns are added
    to unit_cols when it is given, one per leading factor 1 (the core may
    give more); the pivot rows, integer combinations of the rows, are
    unitriangular on them.

    Unit pivots give the factors 1.  For the core of rank r with a nonzero
    r x r minor D, the first r invariant factors of L + D*Z^n are those of
    the core, since their product divides D; so the core's Smith form is
    taken modulo D, where no entry outgrows D.  A modulus over
    MODULUS_BITS_LIMIT bits is refused.
    """
    units, core = _unit_pivot_core(rows)
    if unit_cols is not None:
        unit_cols.update(units)
    r, D = _bareiss([row[:] for row in core])
    if D.bit_length() > MODULUS_BITS_LIMIT:
        raise bound_overflow("the Smith form modulus", f"{D.bit_length()} bits",
                             "linalg.MODULUS_BITS_LIMIT", MODULUS_BITS_LIMIT)
    core_factors = _divisor_chain(_diagonal_mod(core, D)) if D > 1 else []
    return [1] * len(units) + (core_factors + [D] * r)[:r]

