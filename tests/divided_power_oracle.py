"""The points of the t-fibres of the Rees algebra of Int(Z) over Z/p^e,
kept as a test oracle for the twisted Witt kernels.

The Rees algebra of Int(Z) under its degree filtration lifts the Hilbert
additive group H = Spec Int(Z) over A^1/G_m.  On the basis b_n = t^n C(x,n)
its product is

    b_m * b_n = sum_k t^(m+n-k) * C(k, m) * C(m, k-n) * b_k,  max(m,n) <= k <= m+n,

and its coproduct b_n -> sum_(i+j=n) b_i (x) b_j does not involve t.
Truncated at N = p^(k-1), a point of the fibre at t in Z/p^e is a sequence
a_0 = 1, a_1, ..., a_N that satisfies the product whenever m + n <= N, and
the coproduct gives the group law (a * b)_n = sum_i a_i * b_(n-i), the
Vandermonde identity.  At t = 0 the product is a_i * a_j = C(i+j, i) *
a_(i+j): the fibre is the divided-power additive group G_a^# =
Spec Gamma_Z[x], which is ker F on the p-typical Witt vectors over a
p-nilpotent ring (Drinfeld, arXiv:2005.04746).  Its twisted analogue is
ker(F_p - [t]^(p-1)).  This module uses math.comb alone and no Witt or
Int(Z) code.
"""

from __future__ import annotations

import math
from collections import Counter

Point = tuple[int, ...]


def fibre_points(p: int, e: int, k: int, t: int) -> list[Point]:
    """Every point (a_0, ..., a_N) of the fibre at t in Z/p^e, N = p^(k-1),
    assigned index by index: a_n is kept when, for 0 < i < n,
    a_i * a_(n-i) = sum_(j <= n) t^(n-j) * C(j, i) * C(i, j-n+i) * a_j,
    whose only term in a_n is C(n, i) * a_n."""
    q, top = p ** e, p ** (k - 1)
    points: list[list[int]] = [[1]]
    for n in range(1, top + 1):
        # (i, C(n, i), [(j, t^(n-j) C(j, i) C(i, j-n+i)) for j < n]) for 0 < i < n
        rules = [(i, math.comb(n, i), [(j, t ** (n - j) * math.comb(j, i) * math.comb(i, j - n + i))
                                       for j in range(max(i, n - i), n)])
                 for i in range(1, n)]
        points = [a + [an] for a in points for an in range(q)
                  if all((a[i] * a[n - i] - sum(c * a[j] for j, c in lower) - top_c * an) % q == 0
                         for i, top_c, lower in rules)]
    return [tuple(a) for a in points]


def divided_power_points(p: int, e: int, k: int) -> list[Point]:
    """The points of the fibre at t = 0, where a_i * a_(n-i) = C(n, i) * a_n."""
    return fibre_points(p, e, k, 0)


def vandermonde(a: Point, b: Point, q: int) -> Point:
    """(a * b)_n = sum_{i <= n} a_i * b_(n-i) mod q."""
    return tuple(sum(a[i] * b[n - i] for i in range(n + 1)) % q for n in range(len(a)))


def order_profile(elements, add, is_zero) -> dict[int, int]:
    """{order: how many elements have it} for elements of a finite group
    with the given sum and zero test."""
    orders: Counter = Counter()
    for x in elements:
        j, y = 1, x
        while not is_zero(y):
            y, j = add(y, x), j + 1
        orders[j] += 1
    return dict(orders)


def point_order_profile(points: list[Point], q: int) -> dict[int, int]:
    """The order profile of points in Z/q under the Vandermonde law, whose
    zero is (1, 0, ..., 0)."""
    unit = (1,) + (0,) * (len(points[0]) - 1)
    return order_profile(points, lambda a, b: vandermonde(a, b, q), lambda a: a == unit)
