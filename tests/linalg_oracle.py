"""Transform-tracking integer linear algebra, kept as a test oracle.

The library computes ranks and invariant factors without transforms and
solves stage inclusions on echelon bases; these slower textbook routes
(a Smith form carrying U and V, integer solving and kernels through it,
column-lattice comparison through the HNF) check it independently.
"""

from __future__ import annotations

from hopfwitt.errors import InputError
from hopfwitt.linalg import Matrix, identity, row_hnf, shape, transpose


def mat_vec(A: Matrix, v: list[int]) -> list[int]:
    r, c = shape(A)
    if len(v) != c:
        raise InputError("vector length mismatch")
    return [sum(A[i][j] * v[j] for j in range(c)) for i in range(r)]


def dense(columns: list[dict[int, int]], rows: int) -> Matrix:
    """The rows x len(columns) matrix whose column j is the {row: entry}
    dict columns[j], as ChainComplex stores a differential."""
    return [[col.get(i, 0) for col in columns] for i in range(rows)]


def columns(A: Matrix) -> list[dict[int, int]]:
    """The columns of A as {row: entry} dicts without zero entries."""
    return [{i: row[j] for i, row in enumerate(A) if row[j]} for j in range(shape(A)[1])]


def column_lattice_hnf(A: Matrix) -> Matrix:
    """Canonical form of the lattice spanned by the columns of A."""
    return row_hnf(transpose(A))


def lattices_equal(A: Matrix, B: Matrix) -> bool:
    """Whether the column lattices of A and B coincide."""
    return column_lattice_hnf(A) == column_lattice_hnf(B)


def smith_normal_form(A: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """U A V = D with U, V unimodular and D diagonal, d_i | d_{i+1} >= 0.

    Returns (D, U, V).
    """
    r, c = shape(A)
    D = [row[:] for row in A]
    U = identity(r)
    V = identity(c)

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        D[dst] = [x - q * y for x, y in zip(D[dst], D[src])]
        U[dst] = [x - q * y for x, y in zip(U[dst], U[src])]

    def add_col(dst, src, q):
        for row in D:
            row[dst] -= q * row[src]
        for row in V:
            row[dst] -= q * row[src]

    t = 0
    while t < min(r, c):
        # locate the smallest-magnitude nonzero entry in the remaining block
        pivot = None
        for i in range(t, r):
            for j in range(t, c):
                if D[i][j] and (pivot is None or abs(D[i][j]) < abs(D[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        # clear row and column t; restart when a remainder shrinks the pivot
        while True:
            again = False
            for i in range(t + 1, r):
                if D[i][t]:
                    q = D[i][t] // D[t][t]
                    add_row(i, t, q)
                    if D[i][t]:
                        swap_rows(t, i)
                        again = True
            for j in range(t + 1, c):
                if D[t][j]:
                    q = D[t][j] // D[t][t]
                    add_col(j, t, q)
                    if D[t][j]:
                        swap_cols(t, j)
                        again = True
            if not again:
                break
        # divisibility: fold an offending row into the pivot row so the
        # next clearing pass leaves the remainder gcd(pivot, entry)
        offender = None
        for i in range(t + 1, r):
            for j in range(t + 1, c):
                if D[i][j] % D[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, -1)  # row_t += row_off, then redo this pivot
            continue
        if D[t][t] < 0:
            D[t] = [-x for x in D[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return D, U, V


def solve_integer(A: Matrix, b: list[int]) -> list[int] | None:
    """One integer solution of A x = b, or None when none exists."""
    r, c = shape(A)
    if len(b) != r:
        raise InputError("right-hand side length mismatch")
    D, U, V = smith_normal_form(A)
    ub = mat_vec(U, b)
    y = [0] * c
    for i in range(r):
        d = D[i][i] if i < min(r, c) else 0
        if d:
            if ub[i] % d:
                return None
            y[i] = ub[i] // d
        elif ub[i]:
            return None
    return mat_vec(V, y)


def kernel_basis(A: Matrix) -> Matrix:
    """Columns forming a Z-basis of ker(A), returned as a list of vectors."""
    r, c = shape(A)
    D, _, V = smith_normal_form(A)
    out = []
    for j in range(c):
        d = D[j][j] if j < min(r, c) else 0
        if not d:
            out.append([V[i][j] for i in range(c)])
    return out


def member_of_column_lattice(A: Matrix, v: list[int]) -> bool:
    return solve_integer(A, v) is not None
