"""The generic Q[x] and Z[[u]] routes for Int(Z), kept as a test oracle.

The library works on the binomial basis through closed forms only.  This
route expands elements into Q[x], computes there, and transforms back by
the difference table of values; on the dual side it keeps a ring of
truncated power series and pushes a series through the formal group law
u |-> u1 + u2 + u1*u2.  Neither shares code with the closed forms it
checks.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable, Mapping, Sequence

from hopfwitt.binomial import is_prime
from hopfwitt.errors import FalsificationError, InputError
from hopfwitt.intz import IntZElement, TensorElement, basis_product, eval_at, filtration_degree
from hopfwitt.poly import SparsePoly


# -- polynomial helpers the library does not need ----------------------


def degree_in(p: SparsePoly, var: str) -> int:
    """The largest exponent of var in p; 0 for the zero polynomial."""
    return max((dict(mono).get(var, 0) for mono, _ in p.items()), default=0)


def is_univariate_in(p: SparsePoly, var: str) -> bool:
    """Whether var is the only variable of p."""
    return all(name == var for mono, _ in p.items() for name, _ in mono)


def substitute(p: SparsePoly, values: Mapping[str, SparsePoly | Fraction | int]) -> SparsePoly:
    """Replace variables by polynomials or scalars; the others are kept."""
    total = SparsePoly()
    for mono, c in p.items():
        term = SparsePoly.constant(c)
        for name, e in mono:
            term = term * (values[name] if name in values else SparsePoly.variable(name)) ** e
        total = total + term
    return total


# -- the binomial basis inside Q[x] -----------------------------------


def falling_factorial(n: int, var: str = "x") -> SparsePoly:
    """x(x-1)...(x-n+1) as a polynomial; the empty product is 1."""
    x = SparsePoly.variable(var)
    out = SparsePoly.constant(1)
    for i in range(n):
        out = out * (x - i)
    return out


def binomial_poly(n: int, var: str = "x") -> SparsePoly:
    """C(x, n) as an element of Q[x]."""
    if n < 0:
        raise InputError("binomial polynomial index must be nonnegative")
    return falling_factorial(n, var) * Fraction(1, factorial(n))


def binomial_transform(p: SparsePoly, var: str = "x") -> list[Fraction]:
    """Coefficients [c_0, ..., c_d] of p in the binomial basis.

    c_n = (Delta^n p)(0), read off the difference table of the exact
    values p(0), ..., p(deg p).  Works for any p in Q[x]; integrality of
    the output is exactly membership in the integer-valued subring.
    """
    if not is_univariate_in(p, var):
        raise InputError(f"polynomial is not univariate in {var!r}")
    if p.is_zero():
        return []
    deg = degree_in(p, var)
    values = [p.evaluate({var: k}) for k in range(deg + 1)]
    coeffs: list[Fraction] = []
    row = values
    while row:
        coeffs.append(row[0])
        row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
    return coeffs


def binomial_expand(coeffs: dict[int, int] | list, var: str = "x") -> SparsePoly:
    """sum_n c_n C(x, n) back in Q[x]."""
    if isinstance(coeffs, list):
        coeffs = {n: c for n, c in enumerate(coeffs)}
    out = SparsePoly()
    for n, c in coeffs.items():
        if c:
            out = out + binomial_poly(n, var) * c
    return out


def from_poly(p: SparsePoly, var: str = "x") -> IntZElement:
    """Transform p in Q[x] to the binomial basis; non-integer-valued
    input is a caller error."""
    out: dict[int, int] = {}
    for n, c in enumerate(binomial_transform(p, var)):
        if c.denominator != 1:
            raise InputError(
                f"polynomial is not integer-valued: C(x,{n}) coefficient {c}"
            )
        if c:
            out[n] = int(c)
    return IntZElement(out)


def to_poly(f: IntZElement, var: str = "x") -> SparsePoly:
    return binomial_expand(dict(f.items()), var)


# -- coassociativity ------------------------------------------------------


def map_left(te: TensorElement, fn: Callable[[IntZElement], TensorElement]) -> dict:
    """(fn (x) id)(te) as coefficients on C(x,i) (x) C(x,j) (x) C(x,k)."""
    out: dict[tuple[int, int, int], int] = {}
    for (m, n), c in te.items():
        for (i, j), d in fn(IntZElement.basis(m)).items():
            out[(i, j, n)] = out.get((i, j, n), 0) + c * d
    return {key: c for key, c in out.items() if c}


def map_right(te: TensorElement, fn: Callable[[IntZElement], TensorElement]) -> dict:
    """(id (x) fn)(te) as coefficients on C(x,i) (x) C(x,j) (x) C(x,k)."""
    out: dict[tuple[int, int, int], int] = {}
    for (m, n), c in te.items():
        for (j, k), d in fn(IntZElement.basis(n)).items():
            out[(m, j, k)] = out.get((m, j, k), 0) + c * d
    return {key: c for key, c in out.items() if c}


def tensor_multiply_by_term_pairs(x: TensorElement, y: TensorElement) -> TensorElement:
    """(f (x) g)(f' (x) g') = ff' (x) gg', forming both basis products
    afresh for every pair of terms."""
    out: dict[tuple[int, int], int] = {}
    for (m1, n1), c1 in x.items():
        for (m2, n2), c2 in y.items():
            for i, a in basis_product(m1, m2).items():
                for j, b in basis_product(n1, n2).items():
                    out[(i, j)] = out.get((i, j), 0) + c1 * c2 * a * b
    return TensorElement(out)


# -- the Frobenius congruence by the full difference table -------------


def frobenius_by_difference_table(f: IntZElement, p: int) -> bool:
    """Whether f^p == f modulo p, p prime: the binomial coefficients of
    g = f^p - f are the leading entries of the difference table of its
    values g(0..p*deg f), each value from eval_at, built row by row mod p
    and so quadratic in the table."""
    if not is_prime(p):
        raise InputError(f"modulus {p} is not prime")
    d = filtration_degree(f)
    if d is None:
        return True
    row = []
    for k in range(p * d + 1):
        v = eval_at(f, k) % p
        row.append((pow(v, p, p) - v) % p)
    while row:
        if row[0]:
            return False
        row = [(b - a) % p for a, b in zip(row, row[1:])]
    return True


# -- truncated integer power series -----------------------------------


class TruncSeries:
    """Z[[u]]/(u^N): a variable name, the truncation order N and the N
    coefficients (index k holds the u^k coefficient).  Arithmetic drops
    terms of order >= N, and two series only combine when both the
    variable and the truncation order agree."""

    __slots__ = ("var", "trunc", "coeffs")

    def __init__(self, var: str, trunc: int, coeffs: Sequence[int] = ()):
        if trunc < 1:
            raise InputError("truncation order must be at least 1")
        if len(coeffs) > trunc:
            raise InputError("more coefficients than the truncation order allows")
        if not all(isinstance(c, int) for c in coeffs):
            raise InputError("series coefficients must be integers")
        self.var = var
        self.trunc = trunc
        self.coeffs = tuple(coeffs) + (0,) * (trunc - len(coeffs))

    @classmethod
    def one(cls, var: str, trunc: int) -> TruncSeries:
        return cls(var, trunc, (1,))

    @classmethod
    def generator(cls, var: str, trunc: int) -> TruncSeries:
        """The series u itself."""
        if trunc < 2:
            return cls(var, trunc)
        return cls(var, trunc, (0, 1))

    @classmethod
    def binomial_power(cls, a: int, var: str, trunc: int) -> TruncSeries:
        """(1+u)^a for any integer a, negative allowed.

        Coefficients are the generalized binomials C(a, n), built by the
        multiplicative recurrence so everything stays in Z.
        """
        coeffs = [1]
        c = 1
        for n in range(1, trunc):
            # C(a, n) = C(a, n-1) * (a - n + 1) / n, exact at every step
            num = c * (a - n + 1)
            if num % n:
                raise FalsificationError("binomial recurrence left a remainder")
            c = num // n
            coeffs.append(c)
        return cls(var, trunc, coeffs)

    def coefficient(self, k: int) -> int:
        if k < 0:
            return 0
        if k >= self.trunc:
            raise InputError(f"coefficient index {k} not below truncation {self.trunc}")
        return self.coeffs[k]

    def _check_compatible(self, other: TruncSeries) -> None:
        if self.var != other.var or self.trunc != other.trunc:
            raise InputError(
                "series mismatch: "
                f"{self.var!r}/{self.trunc} vs {other.var!r}/{other.trunc}"
            )

    def __add__(self, other: TruncSeries) -> TruncSeries:
        self._check_compatible(other)
        return TruncSeries(
            self.var, self.trunc,
            [a + b for a, b in zip(self.coeffs, other.coeffs)],
        )

    def __neg__(self) -> TruncSeries:
        return TruncSeries(self.var, self.trunc, [-a for a in self.coeffs])

    def __sub__(self, other: TruncSeries) -> TruncSeries:
        return self + (-other)

    def __mul__(self, other: TruncSeries | int) -> TruncSeries:
        if isinstance(other, int):
            return TruncSeries(self.var, self.trunc, [other * a for a in self.coeffs])
        self._check_compatible(other)
        out = [0] * self.trunc
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(self.trunc - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncSeries(self.var, self.trunc, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> TruncSeries:
        if n < 0:
            return self.inverse() ** (-n)
        result = TruncSeries.one(self.var, self.trunc)
        base = self
        while n:
            if n & 1:
                result = result * base
            if n > 1:
                base = base * base
            n >>= 1
        return result

    def inverse(self) -> TruncSeries:
        """Multiplicative inverse; constant term must be a unit of Z."""
        c0 = self.coeffs[0]
        if c0 not in (1, -1):
            raise InputError("series is not invertible over Z (constant term not a unit)")
        inv = [c0] + [0] * (self.trunc - 1)
        for k in range(1, self.trunc):
            acc = sum(self.coeffs[j] * inv[k - j] for j in range(1, k + 1))
            inv[k] = -c0 * acc
        return TruncSeries(self.var, self.trunc, inv)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (self.var, self.trunc, self.coeffs) == (other.var, other.trunc, other.coeffs)

    def __hash__(self) -> int:
        return hash((self.var, self.trunc, self.coeffs))

    def __repr__(self) -> str:
        body = ",".join(str(c) for c in self.coeffs)
        return f"TruncSeries({self.var}[{body}]+O({self.var}^{self.trunc}))"


# -- the formal group law on the dual side ----------------------------


def series_group_law(s: TruncSeries, left_var: str = "u1", right_var: str = "u2") -> SparsePoly:
    """Push s through u |-> u1 + u2 + u1*u2, truncating each variable at
    the truncation order.  This is the formal-group comultiplication on
    the dual side (multiplicativity of t = 1 + u)."""
    u1 = SparsePoly.variable(left_var)
    u2 = SparsePoly.variable(right_var)
    law = u1 + u2 + u1 * u2
    total = SparsePoly()
    power = SparsePoly.constant(1)
    for k in range(s.trunc):
        c = s.coefficient(k)
        if c:
            total = total + power * c
        if k + 1 < s.trunc:
            power = _truncate_bidegree(power * law, left_var, right_var, s.trunc)
    return total


def _truncate_bidegree(p: SparsePoly, v1: str, v2: str, bound: int) -> SparsePoly:
    kept = {}
    for mono, c in p.items():
        exps = dict(mono)
        if exps.get(v1, 0) < bound and exps.get(v2, 0) < bound:
            kept[mono] = c
    return SparsePoly(kept)


def pair_tensor(te: TensorElement, law: SparsePoly,
                left_var: str = "u1", right_var: str = "u2") -> int:
    """Pair f (x) g against a bivariate series, slot by slot."""
    total = 0
    for (m, n), c in te.items():
        mono: list[tuple[str, int]] = []
        if m:
            mono.append((left_var, m))
        if n:
            mono.append((right_var, n))
        coeff = law.coefficient(tuple(sorted(mono)))
        if coeff.denominator != 1:
            raise InputError("bivariate series has non-integer coefficients")
        total += c * int(coeff)
    return total
