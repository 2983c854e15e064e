"""The points of the divided-power line over Z/p^e, kept as a test oracle
for the t = 0 Witt kernel.

At t = 0 the twisted Frobenius F_p - [t]^(p-1) is F_p, and over a
p-nilpotent ring ker F on the p-typical Witt vectors is the divided-power
additive group G_a^# = Spec Gamma_Z[x] (Drinfeld, arXiv:2005.04746).
Truncated at N = p^(k-1), a point of Gamma_Z[x] in Z/p^e is a sequence
a_0 = 1, a_1, ..., a_N with a_i * a_j = C(i+j, i) * a_(i+j) whenever
i + j <= N, and the coproduct x -> x + y gives the group law
(a * b)_n = sum_i a_i * b_(n-i), the Vandermonde identity.  This module
uses math.comb alone and no Witt code.
"""

from __future__ import annotations

import math
from collections import Counter

Point = tuple[int, ...]


def divided_power_points(p: int, e: int, k: int) -> list[Point]:
    """Every point (a_0, ..., a_N) in Z/p^e, N = p^(k-1), assigned index by
    index: a_n is kept when a_i * a_(n-i) = C(n, i) * a_n for 0 < i < n."""
    q, top = p ** e, p ** (k - 1)
    points: list[list[int]] = [[1]]
    for n in range(1, top + 1):
        points = [a + [an] for a in points for an in range(q)
                  if all((a[i] * a[n - i] - math.comb(n, i) * an) % q == 0
                         for i in range(1, n))]
    return [tuple(a) for a in points]


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
