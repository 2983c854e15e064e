"""Truncated integer power series Z[[u]]/(u^N).

A TruncSeries keeps its variable name, truncation order N, and the
coefficient list of length N (index k holds the u^k coefficient).  All
coefficients are plain ints; arithmetic silently drops terms of order >= N,
which is the whole point of the type.  Two series only combine when both
the variable and the truncation order agree.
"""

from __future__ import annotations

from typing import Sequence

from .errors import FalsificationError, InputError


class TruncSeries:
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

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, var: str, trunc: int) -> TruncSeries:
        return cls(var, trunc)

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

    # -- queries -----------------------------------------------------------

    def coefficient(self, k: int) -> int:
        if k < 0:
            return 0
        if k >= self.trunc:
            raise InputError(f"coefficient index {k} not below truncation {self.trunc}")
        return self.coeffs[k]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def order(self) -> int | None:
        """Index of the lowest nonzero coefficient, None for zero."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return None

    def _check_compatible(self, other: TruncSeries) -> None:
        if self.var != other.var or self.trunc != other.trunc:
            raise InputError(
                "series mismatch: "
                f"{self.var!r}/{self.trunc} vs {other.var!r}/{other.trunc}"
            )

    # -- arithmetic --------------------------------------------------------

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

    # -- text form ---------------------------------------------------------

    def __str__(self) -> str:
        body = ",".join(str(c) for c in self.coeffs)
        return f"{self.var}[{body}]+O({self.var}^{self.trunc})"

    def __repr__(self) -> str:
        return f"TruncSeries({self})"
