"""Binomial coefficients and the binomial-basis transform.

The binomial polynomials C(x,n) = x(x-1)...(x-n+1)/n! form a Z-basis of
the ring of integer-valued polynomials: every p in Q[x] is uniquely
p = sum_n c_n C(x,n) with c_n = (Delta^n p)(0), Delta the forward
difference, and p takes integer values on Z exactly when every c_n is an
integer.  The transform here builds the difference table of the exact
values p(0), ..., p(deg p) rather than shifting symbolically; both routes
are O(deg^2) but the value table keeps intermediate objects small.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .errors import InputError
from .poly import SparsePoly


def binomial_int(a: int, n: int) -> int:
    """C(a, n) for any integer a and n >= 0.

    Negative a is allowed: C(a, n) = (-1)^n C(n-a-1, n), so C(-2, 3) = -4.
    """
    if n < 0:
        raise InputError("lower binomial index must be nonnegative")
    if a >= 0:
        return comb(a, n)
    return (-1) ** n * comb(n - a - 1, n)


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
    return falling_factorial(n, var).exact_div(factorial(n))


def binomial_transform(p: SparsePoly, var: str = "x") -> list[Fraction]:
    """Coefficients [c_0, ..., c_d] of p in the binomial basis.

    Works for any p in Q[x]; integrality of the output is exactly
    membership in the integer-valued subring.
    """
    if not p.is_univariate_in(var):
        raise InputError(f"polynomial is not univariate in {var!r}")
    deg = p.total_degree()
    if deg is None:
        return []
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
