"""Coefficient rings for Witt vectors.

Four kinds, all commutative with unit and exact arithmetic:

- IntegerRing: Z, elements are Python ints.
- ZModRing(m): Z/m, elements are ints in [0, m).
- GaloisField(p, k): F_{p^k}, elements are length-k tuples of ints mod p
  (little-endian coefficients on the power basis of w, where w is a root
  of the modulus).  The modulus comes from a small table of Conway
  polynomials, which covers the field sizes exercised here; F_p itself
  takes the modulus w.
- PolynomialRing: Z[vars], elements are SparsePoly values with integer
  coefficients; this is the ring universal identities are proved over.

Every ring R is a quotient of a torsion-free lift ring ``R.lift_ring``:
its elements are the lift's elements in canonical range, and the ring map
``R.reduce`` sends any lift element there.  Z and Z[vars] are their own
lift.  Z/m lifts to Z and stores 0..m-1.  F_q = F_p[w]/(f) lifts to
MonicQuotientRing Z[w]/(f~), where f~ is the stored monic modulus read
over Z, and stores coefficient tuples mod p; reducing every coefficient
mod p is a ring map onto F_q.  So reduce is the only map between a ring
and its lift, and all arithmetic lives in the three lift rings: Z,
Z[w]/(f) and Z[vars] add, negate, subtract and multiply, form n * a and
a^n (``scale``, ``pow``) and divide exactly by an integer (``div_int``).
An identity with integer coefficients, such as a Witt vector operation,
is computed on the lift, where the Witt ghost map is injective, and then
reduced.  Z adds, negates, subtracts, multiplies and scales by the C
functions of the operator module themselves, and pow and div_int by
Python methods.  Z[w]/(f) computes add, neg, sub and scale coefficient by
coefficient, the first three by mapping the same C functions over the
coefficients, and a^n as an int power at k = 1, else by squaring from a.
It multiplies in closed form at k = 1 and k = 2, the lifts of F_p and
F_{p^2}, and by a convolution reduced through a table of w^(k+i) at
k >= 3, where a closed form per degree would not pay for its code.
Z[vars] forms n * a and a^n as products, so that its count of product
terms covers them.

The finite rings enumerate their elements in a fixed order (Z/m as
0..m-1, F_q by the base-p little-endian integer index), which is what
makes kernel enumerations deterministic.
"""

from __future__ import annotations

import operator
from typing import Iterator

from .binomial import is_prime
from .errors import InputError, bound_overflow
from .poly import SparsePoly

# Conway polynomials, little-endian coefficient lists including the leading
# 1, for the field sizes the test surface uses; the only moduli F_q takes.
_CONWAY: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),          # w^2 + w + 1
    (2, 3): (1, 1, 0, 1),       # w^3 + w + 1
    (2, 4): (1, 1, 0, 0, 1),    # w^4 + w + 1
    (3, 2): (2, 2, 1),          # w^2 + 2w + 2
    (3, 3): (1, 2, 0, 1),       # w^3 + 2w + 1
    (5, 2): (2, 4, 1),          # w^2 + 4w + 2
    (7, 2): (3, 6, 1),          # w^2 + 6w + 3
}


class CoeffRing:
    """A coefficient ring as a quotient of its lift: the lift ring, the
    reduction onto this ring, and equality by the JSON form.  The rings that
    are their own lift (Z, Z[w]/(f), Z[..]) compute; every ring has zero()
    and one(), and the rings that print have text and JSON forms.  A ring
    without a JSON form prints as its class name and equals only the
    rings of its class that have none."""

    is_finite = False

    @property
    def lift_ring(self) -> CoeffRing:
        """A torsion-free ring this one is a quotient of; itself by default."""
        return self

    def reduce(self, x):
        """The image of an element of lift_ring in this ring."""
        return x

    def _form(self) -> dict | type:
        """The JSON form, or the class of a ring without one."""
        return self.to_json_obj() if hasattr(self, "to_json_obj") else type(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoeffRing):
            return NotImplemented
        return self._form() == other._form()

    def __hash__(self) -> int:
        form = self._form()
        return hash(str(sorted(form.items())) if isinstance(form, dict) else form)

    def __str__(self) -> str:
        return type(self).__name__

    def __repr__(self) -> str:
        return str(self)


class IntegerRing(CoeffRing):
    # The operator module's C functions: a builtin is not a descriptor, so
    # the instance attribute is the function itself, called without self.
    add = operator.add
    neg = operator.neg
    sub = operator.sub
    mul = operator.mul
    scale = operator.mul  # n * a

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return n

    def pow(self, a, n: int):
        if n < 0:
            raise InputError("negative powers are not defined here")
        return a ** n

    def div_int(self, a, n: int):
        q, r = divmod(a, n)
        return None if r else q

    def element_str(self, a) -> str:
        return str(a)

    def element_from_str(self, text: str):
        try:
            return int(text)
        except ValueError as exc:
            raise InputError(f"bad integer: {text!r}") from exc

    def to_json_obj(self) -> dict:
        return {"kind": "Z"}

    def __str__(self) -> str:
        return "Z"


class ZModRing(CoeffRing):
    is_finite = True
    lift_ring = IntegerRing()

    def __init__(self, m: int):
        if m < 2:
            raise InputError("modulus must be at least 2")
        self.m = m

    def zero(self):
        return 0

    def one(self):
        return 1 % self.m

    def reduce(self, x):
        return x % self.m

    def elements(self) -> Iterator[int]:
        return iter(range(self.m))

    def size(self) -> int:
        return self.m

    def element_str(self, a) -> str:
        return str(a)

    def element_from_str(self, text: str):
        try:
            return int(text) % self.m
        except ValueError as exc:
            raise InputError(f"bad residue: {text!r}") from exc

    def to_json_obj(self) -> dict:
        return {"kind": "Zmod", "m": self.m}

    def __str__(self) -> str:
        return f"Z/{self.m}"


class GaloisField(CoeffRing):
    is_finite = True

    def __init__(self, p: int, k: int):
        if not is_prime(p):
            raise InputError(f"{p} is not prime")
        if k < 1:
            raise InputError("extension degree must be positive")
        if k > 1 and (p, k) not in _CONWAY:
            raise InputError(f"no built-in modulus for F_{p}^{k}")
        self.p = p
        self.k = k
        self.modulus = _CONWAY[(p, k)] if k > 1 else (0, 1)  # w - 0: the prime field
        self._lift = MonicQuotientRing(self.modulus)

    @property
    def lift_ring(self) -> MonicQuotientRing:
        return self._lift

    def reduce(self, x):
        p = self.p
        return tuple([c % p for c in x])

    def zero(self):
        return (0,) * self.k

    def one(self):
        return (1 % self.p,) + (0,) * (self.k - 1)

    def elements(self) -> Iterator[tuple[int, ...]]:
        for idx in range(self.p ** self.k):
            digits = []
            v = idx
            for _ in range(self.k):
                digits.append(v % self.p)
                v //= self.p
            yield tuple(digits)

    def size(self) -> int:
        return self.p ** self.k

    def element_str(self, a) -> str:
        return ",".join(str(c) for c in a)

    def element_from_str(self, text: str):
        try:
            parts = [int(c) for c in text.split(",")]
        except ValueError as exc:
            raise InputError(f"bad field element: {text!r}") from exc
        if len(parts) != self.k:
            raise InputError(
                f"field element needs {self.k} coordinates, got {len(parts)}"
            )
        return tuple(c % self.p for c in parts)

    def to_json_obj(self) -> dict:
        return {"kind": "Fq", "p": self.p, "k": self.k,
                "modulus": list(self.modulus)}

    def __str__(self) -> str:
        return f"F_{self.p ** self.k}"


class MonicQuotientRing(CoeffRing):
    """Z[w]/(f) for a monic integer polynomial f of degree k: elements are
    length-k tuples of ints, little-endian on the power basis of w.  It is
    torsion-free, the lift ring of the field with the same modulus.

    A product at k = 1 (the lifts of the prime fields) is the product of
    the single coordinates, and at k = 2 (F_4, F_9, ...) it is written out
    with w^2 = r0 + r1 w; these are the degrees Witt arithmetic over F_q
    mostly sees.  From k = 3 on it is the convolution reduced through the
    table of w^(k+i), whose size grows with k."""

    def __init__(self, modulus: tuple[int, ...]):
        self.modulus = modulus
        self.k = k = len(modulus) - 1
        # reduction table: w^(k+i) in the power basis, i = 0..k-2
        self._red: list[tuple[int, ...]] = []
        if k > 1:
            top = [-c for c in modulus[:k]]  # w^k = -(lower part)
            rep = list(top)
            self._red.append(tuple(rep))
            for _ in range(k - 2):
                carry = rep[-1]
                rep = [0] + rep[:-1]  # multiply by w
                rep = [rep[i] + carry * top[i] for i in range(k)]
                self._red.append(tuple(rep))

    def zero(self):
        return (0,) * self.k

    def one(self):
        return (1,) + (0,) * (self.k - 1)

    def from_int(self, n: int):
        return (n,) + (0,) * (self.k - 1)

    def add(self, a, b):
        return tuple(map(operator.add, a, b))

    def neg(self, a):
        return tuple(map(operator.neg, a))

    def sub(self, a, b):
        return tuple(map(operator.sub, a, b))

    def scale(self, n: int, a):
        return tuple([n * x for x in a])

    def mul(self, a, b):
        k = self.k
        if k == 1:
            return (a[0] * b[0],)
        if k == 2:
            a0, a1 = a
            b0, b1 = b
            r0, r1 = self._red[0]  # w^2 = r0 + r1 w
            c = a1 * b1
            return (a0 * b0 + r0 * c, a0 * b1 + a1 * b0 + r1 * c)
        conv = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        out = conv[:k]
        for i in range(k, 2 * k - 1):
            c = conv[i]
            if c:
                red = self._red[i - k]
                for j in range(k):
                    out[j] += c * red[j]
        return tuple(out)

    def pow(self, a, n: int):
        """a^n: an int power at k = 1, else by squaring from a (a product fewer than from one())."""
        if n < 0:
            raise InputError("negative powers are not defined here")
        if self.k == 1:
            return (a[0] ** n,)
        if n == 0:
            return self.one()
        while not n & 1:
            a = self.mul(a, a)
            n >>= 1
        result = a
        while n > 1:
            n >>= 1
            a = self.mul(a, a)
            if n & 1:
                result = self.mul(result, a)
        return result

    def div_int(self, a, n: int):
        qs = [divmod(c, n) for c in a]
        return None if any(r for _, r in qs) else tuple(q for q, _ in qs)

    def to_json_obj(self) -> dict:
        return {"kind": "MonicQuotient", "modulus": list(self.modulus)}

    def __str__(self) -> str:
        return f"Z[w]/{self.modulus}"


# Most terms len(a) * len(b) the products of one Witt operation may form.
TERM_LIMIT = 100_000


class PolynomialRing(CoeffRing):
    """Z[vars]: elements are SparsePoly values with integer coefficients.
    An instance refuses a product that would take the count of the terms
    its products formed past TERM_LIMIT; each Witt operation restarts the
    count (witt._lifted_ghosts)."""

    terms = 0

    def zero(self):
        return SparsePoly()

    def one(self):
        return SparsePoly.constant(1)

    def from_int(self, n: int):
        return SparsePoly.constant(n)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        self.terms += len(a) * len(b)
        if self.terms > TERM_LIMIT:
            raise bound_overflow("a Witt operation over Z[..]", f"{self.terms} product terms",
                                 "rings.TERM_LIMIT", TERM_LIMIT)
        return a * b

    def scale(self, n: int, a):
        """n * a, formed as a product so that the term count includes it."""
        return self.mul(self.from_int(n), a)

    def pow(self, a, n: int):
        if n < 0:
            raise InputError("negative powers are not defined here")
        result = self.one()
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            if n > 1:
                base = self.mul(base, base)
            n >>= 1
        return result

    def div_int(self, a, n: int):
        qs = {m: divmod(c, n) for m, c in a.items()}
        if any(r for _, r in qs.values()):
            return None
        return SparsePoly({m: q for m, (q, _) in qs.items()})

    def element_str(self, a) -> str:
        return str(a)

    def element_from_str(self, text: str):
        return SparsePoly.parse(text)

    def to_json_obj(self) -> dict:
        return {"kind": "Poly"}

    def __str__(self) -> str:
        return "Z[..]"


def ring_from_spec(spec: str) -> CoeffRing:
    """Parse the CLI ring syntax: Z | Zmod:m | Fq:p,k | Poly."""
    spec = spec.strip()
    if spec == "Z":
        return IntegerRing()
    if spec == "Poly":
        return PolynomialRing()
    if spec.startswith("Zmod:"):
        try:
            return ZModRing(int(spec[5:]))
        except ValueError as exc:
            raise InputError(f"bad modulus in {spec!r}") from exc
    if spec.startswith("Fq:"):
        body = spec[3:].split(",")
        if len(body) != 2:
            raise InputError(f"Fq ring spec needs p,k: {spec!r}")
        try:
            p, k = int(body[0]), int(body[1])
        except ValueError as exc:
            raise InputError(f"bad Fq parameters in {spec!r}") from exc
        return GaloisField(p, k)
    raise InputError(f"unknown ring spec {spec!r}")
