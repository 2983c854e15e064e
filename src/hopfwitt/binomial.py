"""Integer helpers shared by the Int(Z) and coefficient-ring modules.

Generalized binomial coefficients C(a, n) for any integer a, and a
primality test by trial division up to sqrt(n), for n up to PRIME_LIMIT.
Both are plain int arithmetic, so this module imports nothing else from
the package beyond its errors.
"""

from __future__ import annotations

from math import comb

from .errors import InputError, bound_overflow

# Largest number is_prime tests: trial division then takes at most about
# sqrt(PRIME_LIMIT) / 2 = 500,000 divisions.
PRIME_LIMIT = 10**12


def binomial_int(a: int, n: int) -> int:
    """C(a, n) for any integer a and n >= 0.

    Negative a is allowed: C(a, n) = (-1)^n C(n-a-1, n), so C(-2, 3) = -4.
    """
    if n < 0:
        raise InputError("lower binomial index must be nonnegative")
    if a >= 0:
        return comb(a, n)
    return (-1) ** n * comb(n - a - 1, n)


def is_prime(n: int) -> bool:
    """Whether n is prime; n over PRIME_LIMIT is refused before any division."""
    if n > PRIME_LIMIT:
        raise bound_overflow("a primality test by trial division",
                             f"n = 2^{n.bit_length() - 1} or more",
                             "binomial.PRIME_LIMIT", PRIME_LIMIT)
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True
