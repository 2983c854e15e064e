"""The descending elimination for the deformed binomial basis, kept as a
test oracle.

The library reads the structure constants of b_n(x,t) = t^n C(x/t, n)
off the Int(Z) closed form; this route expands b_m * b_n as a Fraction
polynomial in x and t and eliminates it term by term, so the Z[t]
integrality it certifies does not rest on that closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from hopfwitt.errors import FalsificationError, InputError
from hopfwitt.poly import SparsePoly

from intz_oracle import degree_in, is_univariate_in, substitute


# -- deformed binomial basis polynomials ------------------------------


@dataclass(frozen=True)
class DeformedBasisElem:
    """b_n(x,t) = x(x-t)(x-2t)...(x-(n-1)t) / n!."""

    index: int
    poly: SparsePoly

    def at_t(self, value) -> SparsePoly:
        return substitute(self.poly, {"t": Fraction(value)})

    def evaluate(self, x_value, t_value) -> Fraction:
        return self.poly.evaluate({"x": Fraction(x_value), "t": Fraction(t_value)})


def drinfeld_poly(n: int) -> DeformedBasisElem:
    if n < 0:
        raise InputError("index must be nonnegative")
    x = SparsePoly.variable("x")
    t = SparsePoly.variable("t")
    prod = SparsePoly.constant(1)
    fact = 1
    for i in range(n):
        prod = prod * (x - t * i)
        fact *= i + 1
    return DeformedBasisElem(n, prod * Fraction(1, fact))


def _x_coefficient(p: SparsePoly, k: int) -> SparsePoly:
    """Coefficient of x^k as a polynomial in the remaining variables."""
    terms = {}
    for mono, coeff in p.items():
        d = dict(mono)
        if d.get("x", 0) == k:
            rest = tuple(sorted((v, e) for v, e in d.items() if v != "x"))
            terms[rest] = terms.get(rest, Fraction(0)) + coeff
    return SparsePoly(terms)


def elimination_constants(m: int, n: int) -> dict[int, SparsePoly]:
    """Expand b_m * b_n = sum_k c_k(t) * b_k by descending elimination.

    The c_k are certified to be integer polynomials in t of t-degree at
    most m+n-k; either failure raises FalsificationError, since the
    integrality of these constants is exactly the claim that the
    deformed basis spans a ring over Z[t].
    """
    if m < 0 or n < 0:
        raise InputError("indices must be nonnegative")
    residue = drinfeld_poly(m).poly * drinfeld_poly(n).poly
    facts = [1]
    for i in range(1, m + n + 1):
        facts.append(facts[-1] * i)
    out: dict[int, SparsePoly] = {}
    for k in range(m + n, -1, -1):
        lead = _x_coefficient(residue, k)
        if lead.is_zero():
            continue
        # the leading x^k coefficient of b_k is 1/k!
        c = lead * facts[k]
        if any(v.denominator != 1 for _, v in c.items()):
            raise FalsificationError(
                f"structure constant c_{k} of ({m},{n}) is not in Z[t]: {c}")
        if not is_univariate_in(c, "t"):
            raise FalsificationError(
                f"structure constant c_{k} of ({m},{n}) involves x: {c}")
        d = degree_in(c, "t")
        if d > m + n - k:
            raise FalsificationError(
                f"structure constant c_{k} of ({m},{n}) has t-degree {d} > {m + n - k}")
        out[k] = c
        residue = residue - c * drinfeld_poly(k).poly
    if not residue.is_zero():
        raise FalsificationError(f"elimination left a nonzero residue for ({m},{n})")
    return out


def _truncate_total_degree(p: SparsePoly, bound: int) -> SparsePoly:
    terms = {}
    for mono, coeff in p.items():
        if sum(e for _, e in mono) <= bound:
            terms[mono] = coeff
    return SparsePoly(terms)


def drinfeld_group_law_samples(n_max: int, samples: list[tuple[int, int, int]]) -> None:
    """Numeric shadow of the group structure carried by the deformed basis.

    Two identities are checked per sample (a, b, t), through index n_max,
    with FalsificationError on any mismatch:

    1. the coefficient series E_a(X) = sum_n b_n(a,t) X^n is a
       homomorphism from the deformed law X + Y + tXY to multiplication:
       E_a(X + Y + tXY) = E_a(X) * E_a(Y) modulo total degree n_max + 1;
    2. convolution in the evaluation point is plain addition:
       b_n(a + b, t) = sum over i+j=n of b_i(a,t) b_j(b,t).
    """
    basis = [drinfeld_poly(k) for k in range(n_max + 1)]
    X = SparsePoly.variable("X")
    Y = SparsePoly.variable("Y")
    for a, b, t in samples:
        law = X + Y + X * Y * t
        lawpow = SparsePoly.constant(1)
        lhs = SparsePoly()
        ex = SparsePoly()
        for n in range(n_max + 1):
            cn = basis[n].evaluate(a, t)
            lhs = lhs + _truncate_total_degree(lawpow, n_max) * cn
            ex = ex + X ** n * cn
            lawpow = _truncate_total_degree(lawpow * law, n_max)
        rhs = _truncate_total_degree(ex * _truncate_total_degree(substitute(ex, {"X": Y}), n_max), n_max)
        if lhs != rhs:
            raise FalsificationError(
                f"series homomorphism fails at a={a}, t={t}")
        for n in range(n_max + 1):
            left = basis[n].evaluate(a + b, t)
            right = sum((basis[i].evaluate(a, t) * basis[n - i].evaluate(b, t)
                         for i in range(n + 1)), Fraction(0))
            if left != right:
                raise FalsificationError(
                    f"additive convolution fails at n={n}, a={a}, b={b}, t={t}: {left} != {right}")
