"""Int(Z) and Int(Z) (x) Int(Z) as Witt coefficient rings, kept as a test
oracle for the universal Frobenius-fixed vector.

Over a torsion-free ring a Witt vector whose ghost components are all r is
fixed by every Frobenius F_n.  Its components are integer-valued
polynomials in r, so the universal such vector lives over Int(Z), not over
Z[x]: it is the image of x under Int(Z) -> W_S(Int(Z)), the vector with
ghosts (x, x, ...).  Both rings are free on their binomial bases, so n
divides an element exactly when it divides every coordinate, which is all
the triangular solve of the ghost map needs.  Products are intz.mult and
TensorElement.multiply; the ghost route itself is the library's.
"""

from __future__ import annotations

from hopfwitt import intz
from hopfwitt.intz import IntZElement, TensorElement
from hopfwitt.rings import CoeffRing

X = IntZElement.basis(1)


class _BinomialLift(CoeffRing):
    """The ring operations of a Z-algebra free on a basis, for an element
    type built from a {basis key: coefficient} dict."""

    element: type

    def add(self, a, b):
        out = dict(a.items())
        for key, c in b.items():
            out[key] = out.get(key, 0) + c
        return self.element(out)

    def sub(self, a, b):
        return self.add(a, self.scale(-1, b))

    def scale(self, n: int, a):
        return self.element({key: n * c for key, c in a.items()})

    def pow(self, a, n: int):
        result = self.one()
        for _ in range(n):
            result = self.mul(result, a)
        return result

    def div_int(self, a, n: int):
        if any(c % n for _, c in a.items()):
            return None
        return self.element({key: c // n for key, c in a.items()})


class IntZRing(_BinomialLift):
    """Int(Z) on the basis C(x, n)."""

    element = IntZElement

    def one(self):
        return IntZElement.one()

    def mul(self, a, b):
        return intz.mult(a, b)


class IntZTensorRing(_BinomialLift):
    """Int(Z) (x) Int(Z) on the basis C(x, m) (x) C(x, n)."""

    element = TensorElement

    def one(self):
        return TensorElement({(0, 0): 1})

    def mul(self, a, b):
        return a.multiply(b)
