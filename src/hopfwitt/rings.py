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
reduced.  Z computes scale, sub and pow directly, Z[w]/(f) the first two
coefficient by coefficient and a^n by squaring from a, and Z[vars] forms
n * a and a^n as products, so that its count of product terms covers
them.

The finite rings enumerate their elements in a fixed order (Z/m as
0..m-1, F_q by the base-p little-endian integer index), which is what
makes kernel enumerations deterministic.
"""

from __future__ import annotations

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
    and one(), and the rings that print have text and JSON forms."""

    is_finite = False

    @property
    def lift_ring(self) -> CoeffRing:
        """A torsion-free ring this one is a quotient of; itself by default."""
        return self

    def reduce(self, x):
        """The image of an element of lift_ring in this ring."""
        return x

    def is_zero(self, a) -> bool:
        return a == self.zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoeffRing):
            return NotImplemented
        return self.to_json_obj() == other.to_json_obj()

    def __hash__(self) -> int:
        return hash(str(sorted(self.to_json_obj().items())))

    def __repr__(self) -> str:
        return str(self)


class IntegerRing(CoeffRing):
    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return n

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def scale(self, n: int, a):
        return n * a

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
        return tuple(c % self.p for c in x)

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
    torsion-free, the lift ring of the field with the same modulus."""

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
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def scale(self, n: int, a):
        return tuple(n * x for x in a)

    def mul(self, a, b):
        k = self.k
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
        """a^n by squaring from a itself, one product fewer than from one()."""
        if n < 0:
            raise InputError("negative powers are not defined here")
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
