"""Kernels of the twisted Frobenius as finite abelian groups, through ghost
lattices: an oracle for witt.twisted_kernel and witt.stable_twisted_kernel
that shares none of their code.  It uses only linalg's row_hnf,
echelon_solve and invariant_factors, and its own arithmetic in the lift.

The coefficient ring is R/I for a torsion-free lift R = Z[w]/(f), f monic
of degree k: Z/m is Z = Z[w]/(w) with I = mR, and F_q = F_p[w]/(f) has
I = pR.  Over R the ghost map is injective and additive, so

    W_S(R/I) = G_0(S) / G_I(S)  as groups,  G_J(S) = ghost(W_S(J)),

lattices in R^S = Z^(k|S|), ghost component n of S in the columns
k*pos(n) .. k*pos(n) + k - 1.  Every x in W_S(J) is the Witt sum of the
V_d[x_d] with x_d in J, and ghost_n(V_d[a]) = d * a^(n/d) for d | n, so
G_J(S) is spanned by the vectors d * (a^j) for j in S/d, at n = d*j, over
d in S and a in J.  By Newton's forward differences in the coordinates of
a, the points a = c * sum_i beta_i w^i with beta in N^k and
|beta| <= max(S/d) suffice, for J = cR (c = 1 for G_0).

TF_n(-; t) acts on ghosts as Phi: w -> (w_nm - t^((n-1)m) * w_m) over m
in S/n, and maps G_I(S) into G_I(S/n).  So its kernel is K / G_I(S) with
K = {x in G_0(S) : Phi x in G_I(S/n)}: the rows of one row_hnf of
[Phi(b) | b] over the basis b of G_0(S), stacked over [G_I(S/n) | 0],
whose left part is zero.  The stable kernel, the restriction to S of the
kernel on the deepened set D (S with n*S, divisor-closed), is
(K(D) restricted to S, plus G_I(S)) / G_I(S).  The type of K / G_I(S) is
the invariant factors of G_I(S) in coordinates of a basis of K.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import gcd

from hopfwitt.linalg import echelon_solve, invariant_factors, row_hnf


def _mul(a: tuple, b: tuple, f: tuple) -> tuple:
    """a * b in Z[w]/(f), f monic and little-endian with its leading 1."""
    k = len(f) - 1
    c = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            c[i + j] += x * y
    for i in range(2 * k - 2, k - 1, -1):  # w^i = -w^(i-k) * sum_{j<k} f_j w^j
        for j in range(k):
            c[i - k + j] -= c[i] * f[j]
    return tuple(c[:k])


def _powers(a: tuple, top: int, f: tuple) -> list[tuple]:
    """[a^0, a^1, ..., a^top] in Z[w]/(f)."""
    out = [(1,) + (0,) * (len(f) - 2)]
    for _ in range(top):
        out.append(_mul(out[-1], a, f))
    return out


def ghost_lattice(S: list[int], f: tuple, c: int) -> list[dict]:
    """The HNF of G_J(S) for J = cR, from the Newton points of each d."""
    k = len(f) - 1
    pos = {n: i for i, n in enumerate(S)}
    rows = []
    for d in S:
        js = [j for j in S if d * j in pos]
        for beta in itertools.product(range(js[-1] + 1), repeat=k):
            if sum(beta) > js[-1]:
                continue
            powers = _powers(tuple(c * b for b in beta), js[-1], f)
            rows.append({k * pos[d * j] + i: d * x
                         for j in js for i, x in enumerate(powers[j]) if x})
    return row_hnf(rows)


def _kernel_lattice(S: list[int], f: tuple, c: int, n: int, t: tuple) -> list[dict]:
    """The HNF of K = {x in G_0(S) : Phi x in G_I(S/n)}."""
    k = len(f) - 1
    pos = {m: i for i, m in enumerate(S)}
    T = [m for m in S if n * m in pos]
    width = k * len(T)  # the columns of Phi x come first
    stacked = []
    for b in ghost_lattice(S, f, 1):
        row = {width + col: x for col, x in b.items()}
        for i, m in enumerate(T):
            w_nm = [b.get(k * pos[n * m] + h, 0) for h in range(k)]
            w_m = tuple(b.get(k * pos[m] + h, 0) for h in range(k))
            twisted = _mul(_powers(t, (n - 1) * m, f)[-1], w_m, f)
            for h in range(k):
                if x := w_nm[h] - twisted[h]:
                    row[k * i + h] = x
        stacked.append(row)
    stacked += ghost_lattice(T, f, c)
    return [{col - width: x for col, x in r.items()}
            for r in row_hnf(stacked) if min(r) >= width]


def kernel_type(S: list[int], f: tuple, c: int, n: int, t: tuple,
                stable: bool) -> list[int]:
    """The invariant factors above 1 of ker TF_n(-; t) on W_S(R/cR), or of
    the stable kernel: the group is their direct sum of cyclic groups."""
    k = len(f) - 1
    S = sorted(S)
    if stable:
        deep = sorted({e for m in set(S) | {n * m for m in S}
                       for e in range(1, m + 1) if m % e == 0})
        at = {m: i for i, m in enumerate(deep)}
        keep = {k * at[m] + h: k * i + h for i, m in enumerate(S) for h in range(k)}
        restricted = [{keep[col]: x for col, x in r.items() if col in keep}
                      for r in _kernel_lattice(deep, f, c, n, t)]
        K = row_hnf(restricted + ghost_lattice(S, f, c))
    else:
        K = _kernel_lattice(S, f, c, n, t)
    coords = echelon_solve(K, ghost_lattice(S, f, c))
    assert coords is not None, "G_I(S) must lie in K"
    return [d for d in invariant_factors(coords) if d > 1]


def type_order_profile(factors: list[int]) -> dict[int, int]:
    """{order: how many elements have it} in the sum of the Z/d."""
    orders: Counter = Counter()
    for x in itertools.product(*(range(d) for d in factors)):
        o = 1
        for xi, d in zip(x, factors):
            e = d // gcd(xi, d)
            o = o * e // gcd(o, e)
        orders[o] += 1
    return dict(orders)
