"""Dense and transform-tracking integer linear algebra, kept as a test oracle.

The library computes ranks and invariant factors without transforms and
keeps every lattice and structure map as sparse {column: entry} rows;
these slower textbook routes on lists of row lists (the dense Euclid
Hermite form, sympy's Hermite form, a Smith form carrying U and V,
integer solving and kernels through it, column-lattice comparison
through the HNF) check it independently.  The column route of filtered
modules, stage embeddings composed from the structure matrices of the
JSON form and the Day tensor glued from Kronecker blocks, checks the row
stages the library keeps.
"""

from __future__ import annotations

import json

from hopfwitt.errors import InputError
from hopfwitt.linalg import Matrix, Row


def shape(A: Matrix) -> tuple[int, int]:
    if not A:
        return (0, 0)
    cols = len(A[0])
    if any(len(r) != cols for r in A):
        raise InputError("ragged matrix")
    return (len(A), cols)


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(r: int, c: int) -> Matrix:
    return [[0] * c for _ in range(r)]


def transpose(A: Matrix) -> Matrix:
    r, c = shape(A)
    return [[A[i][j] for i in range(r)] for j in range(c)]


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    ra, ca = shape(A)
    rb, cb = shape(B)
    if ca != rb:
        raise InputError(f"shape mismatch: {ra}x{ca} times {rb}x{cb}")
    out = zeros(ra, cb)
    for i in range(ra):
        Ai = A[i]
        for k in range(ca):
            a = Ai[k]
            if a:
                Bk = B[k]
                row = out[i]
                for j in range(cb):
                    row[j] += a * Bk[j]
    return out


def sparse_rows(A: Matrix) -> list[Row]:
    """The rows of A as {column: entry} dicts without zero entries."""
    return [{j: x for j, x in enumerate(row) if x} for row in A]


def dense_rows(rows: list[Row], cols: int) -> Matrix:
    """The {column: entry} rows as lists of length cols."""
    return [[row.get(j, 0) for j in range(cols)] for row in rows]


def row_hnf(A: Matrix) -> Matrix:
    """Row-style Hermite normal form with zero rows dropped, by Euclid
    down each column of the dense matrix.

    Canonical for the row lattice: row echelon, positive pivots, entries
    above each pivot reduced into [0, pivot).  Two matrices span the same
    row lattice iff their HNFs are identical.
    """
    r, c = shape(A)
    M = [row[:] for row in A]
    pivot_row = 0
    for col in range(c):
        # find a nonzero entry in this column at or below pivot_row
        best = None
        for i in range(pivot_row, len(M)):
            if M[i][col]:
                if best is None or abs(M[i][col]) < abs(M[best][col]):
                    best = i
        if best is None:
            continue
        M[pivot_row], M[best] = M[best], M[pivot_row]
        # euclid the column below the pivot to zero
        while True:
            dirty = False
            for i in range(pivot_row + 1, len(M)):
                if M[i][col]:
                    q = M[i][col] // M[pivot_row][col]
                    if q:
                        M[i] = [x - q * y for x, y in zip(M[i], M[pivot_row])]
                    if M[i][col]:
                        M[pivot_row], M[i] = M[i], M[pivot_row]
                        dirty = True
            if not dirty:
                break
        if M[pivot_row][col] < 0:
            M[pivot_row] = [-x for x in M[pivot_row]]
        # reduce entries above the pivot
        p = M[pivot_row][col]
        for i in range(pivot_row):
            q = M[i][col] // p
            if q:
                M[i] = [x - q * y for x, y in zip(M[i], M[pivot_row])]
        pivot_row += 1
        if pivot_row == len(M):
            break
    return [row for row in M[:pivot_row] if any(row)]


def sympy_row_hnf(A: Matrix) -> Matrix:
    """sympy's Hermite form in the row convention of row_hnf.  sympy spans
    the column lattice and puts each basis column's pivot at its last
    nonzero entry, so its form of the transposed matrix with the
    coordinates reversed, read back with them reversed again and in
    reverse order, is the row form."""
    from sympy import Matrix as SympyMatrix
    from sympy.matrices.normalforms import hermite_normal_form

    W = hermite_normal_form(SympyMatrix([row[::-1] for row in A]).T)
    return [[int(W[i, j]) for i in reversed(range(W.rows))] for j in range(W.cols)][::-1]


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


def kron(A: Matrix, B: Matrix) -> Matrix:
    """Kronecker product; (A x B)[(a,b),(c,d)] = A[a][c] * B[b][d]."""
    ra, ca = shape(A)
    rb, cb = shape(B)
    out = zeros(ra * rb, ca * cb)
    for a in range(ra):
        for c in range(ca):
            x = A[a][c]
            if x:
                for b in range(rb):
                    Bb = B[b]
                    row = out[a * rb + b]
                    for d in range(cb):
                        row[c * cb + d] = x * Bb[d]
    return out


def hstack(blocks: list[Matrix], rows: int) -> Matrix:
    """Concatenate matrices with a common row count side by side."""
    out = [[] for _ in range(rows)]
    for B in blocks:
        if B and len(B) != rows:
            raise InputError("row count mismatch in hstack")
        for i in range(rows):
            out[i].extend(B[i] if B else [])
    return out


def embeddings(X) -> list[Matrix]:
    """The matrix of each stage of the FilteredModule X inside its
    underlying module, from n_min to n_max, its columns spanning the
    stage: each the one before times the structure map, read from the
    JSON form."""
    out = [identity(X.ranks[0])]
    for M in json.loads(X.to_json())["maps"]:
        out.append(mat_mul(out[-1], M))
    return out


def day_tensor_columns(X, Y) -> list[Matrix]:
    """For each n from X.n_min + Y.n_min to X.n_max + Y.n_max, a matrix
    whose columns span stage n of the Day tensor of X and Y: the
    Kronecker products of the stage embeddings over i + j = n."""
    ex, ey = embeddings(X), embeddings(Y)
    ambient = X.ranks[0] * Y.ranks[0]
    lattices = []
    for n in range(X.n_min + Y.n_min, X.n_max + Y.n_max + 1):
        blocks = [kron(ex[i - X.n_min], ey[n - i - Y.n_min])
                  for i in range(max(X.n_min, n - Y.n_max), min(X.n_max, n - Y.n_min) + 1)]
        lattices.append(hstack(blocks, ambient))
    return lattices
