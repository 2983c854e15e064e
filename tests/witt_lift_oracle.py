"""Truncated Witt vectors computed on integer lifts, kept as a test oracle
for the library's ghost route.

A Witt operation is given by polynomials with integer coefficients, so it
commutes with every ring map.  This module lifts each coefficient ring to
Z[y], where the ghost map w_n = sum_{d | n} d * x_d^(n/d) is injective,
combines ghost components there, solves the triangular system

    x_n = (w_n - sum_{d | n, d < n} d * x_d^(n/d)) / n

with exact integer division, and maps the result back.  Its lifts differ
from the library's on purpose: a residue mod m lifts to (-m/2, m/2] and an
element of F_q = F_p[w]/(f) to a polynomial in y with coefficients in
(-p/2, p/2], which is not reduced mod f until the end.  Elements of Z[y]
are tuples of integer coefficients, lowest degree first.  The module uses
the rings' JSON form only, and nothing of hopfwitt.witt.
"""

from __future__ import annotations

from typing import Sequence

Lifted = tuple[int, ...]


def _centred(c: int, m: int) -> int:
    c %= m
    return c - m if 2 * c > m else c


def poly_add(a: Lifted, b: Lifted) -> Lifted:
    if len(a) < len(b):
        a, b = b, a
    return tuple(x + b[i] if i < len(b) else x for i, x in enumerate(a))


def poly_mul(a: Lifted, b: Lifted) -> Lifted:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def poly_rem(a: Lifted, f: Sequence[int]) -> Lifted:
    """a mod the monic f by long division, top degree first: deg f coefficients."""
    k = len(f) - 1
    rest = list(a) + [0] * k
    for top in range(len(rest) - 1, k - 1, -1):
        c = rest[top]
        for i, fc in enumerate(f):
            rest[top - k + i] -= c * fc
    return tuple(rest[:k])


def poly_scale(c: int, a: Lifted) -> Lifted:
    return tuple(c * x for x in a)


def poly_pow(a: Lifted, e: int) -> Lifted:
    out: Lifted = (1,)
    for _ in range(e):
        out = poly_mul(out, a)
    return out


class LiftOracle:
    """Witt arithmetic over one coefficient ring, done in Z[y]; vectors are
    component lists in the order of the truncation set, a sorted tuple."""

    def __init__(self, ring):
        spec = ring.to_json_obj()
        self.kind = spec["kind"]
        self.m = spec.get("m")
        self.p = spec.get("p")
        self.modulus = spec.get("modulus")

    def lift(self, a) -> Lifted:
        if self.kind == "Z":
            return (a,)
        if self.kind == "Zmod":
            return (_centred(a, self.m),)
        return tuple(_centred(c, self.p) for c in a)

    def reduce(self, x: Lifted):
        if self.kind == "Z":
            if any(x[1:]):
                raise AssertionError(f"an integer lift left Z: {x}")
            return x[0]
        if self.kind == "Zmod":
            return x[0] % self.m
        return tuple(c % self.p for c in poly_rem(x, self.modulus))

    # -- the ghost map and its inverse on lifts ---------------------------

    @staticmethod
    def ghosts(S: Sequence[int], xs: Sequence[Lifted]) -> list[Lifted]:
        x = dict(zip(S, xs))
        out = []
        for n in S:
            w: Lifted = (0,)
            for d in S:
                if n % d == 0:
                    w = poly_add(w, poly_scale(d, poly_pow(x[d], n // d)))
            out.append(w)
        return out

    @staticmethod
    def components(S: Sequence[int], ws: Sequence[Lifted]) -> list[Lifted]:
        x: dict[int, Lifted] = {}
        for n, w in zip(S, ws):
            for d in S:
                if d < n and n % d == 0:
                    w = poly_add(w, poly_scale(-d, poly_pow(x[d], n // d)))
            if any(c % n for c in w):
                raise AssertionError(f"ghost vector not integral at index {n}")
            x[n] = tuple(c // n for c in w)
        return [x[n] for n in S]

    # -- operations on reduced component lists ------------------------------

    def _lifted_ghosts(self, S, a) -> list[Lifted]:
        return self.ghosts(S, [self.lift(c) for c in a])

    def _from_ghosts(self, S, ws) -> list:
        return [self.reduce(x) for x in self.components(S, ws)]

    def ghost(self, S, a) -> list:
        return [self.reduce(w) for w in self._lifted_ghosts(S, a)]

    def add(self, S, a, b) -> list:
        return self._from_ghosts(S, list(map(poly_add, self._lifted_ghosts(S, a),
                                             self._lifted_ghosts(S, b))))

    def mul(self, S, a, b) -> list:
        return self._from_ghosts(S, list(map(poly_mul, self._lifted_ghosts(S, a),
                                             self._lifted_ghosts(S, b))))

    def sub(self, S, a, b) -> list:
        return self._from_ghosts(S, [poly_add(x, poly_scale(-1, y)) for x, y in
                                     zip(self._lifted_ghosts(S, a), self._lifted_ghosts(S, b))])

    def frobenius(self, n: int, S, a) -> tuple[tuple[int, ...], list]:
        """(S/n, F_n a): ghost m of F_n a is ghost nm of a."""
        w = dict(zip(S, self._lifted_ghosts(S, a)))
        T = tuple(m for m in S if n * m in w)
        return T, self._from_ghosts(T, [w[n * m] for m in T])

    def twisted_frobenius(self, n: int, S, a, t) -> tuple[tuple[int, ...], list]:
        """(S/n, TF_n(a; t)): ghost m is w_nm(a) - t^((n-1)m) * w_m(a)."""
        w = dict(zip(S, self._lifted_ghosts(S, a)))
        T = tuple(m for m in S if n * m in w)
        tl = self.lift(t)
        return T, self._from_ghosts(T, [
            poly_add(w[n * m], poly_scale(-1, poly_mul(poly_pow(tl, (n - 1) * m), w[m])))
            for m in T])
