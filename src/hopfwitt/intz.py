"""The ring of integer-valued polynomials on its binomial basis.

Elements are finite Z-linear combinations of C(x,n) = x(x-1)...(x-n+1)/n!,
stored as a map from basis index to integer coefficient.  This basis is
free over Z and every operation works on it through classical closed
forms, so integrality holds by construction:

- product  C(x,m) C(x,n) = sum_k C(k,m) C(m,k-n) C(x,k), max(m,n) <= k <= m+n,
  whose top constant C(m+n,n) is the divided-power structure of the
  associated graded;
- comultiplication  Delta C(x,n) = sum_{i+j=n} C(x,i) (x) C(x,j),
  the coefficient-level form of the Vandermonde identity
  C(a+b,n) = sum C(a,i) C(b,j);
- counit: evaluation at 0;
- antipode  S(C(x,n)) = C(-x,n) = (-1)^n sum_{k=1..n} C(n-1,k-1) C(x,k),
  from C(-x,n) = (-1)^n C(x+n-1,n) and Vandermonde.

The public constructors and parse check what comes from outside:
indices are nonnegative, and an element's coefficients are integers.
Every operation builds its result once, in one dict, and hands it to a
private constructor that drops the zero coefficients and checks nothing
else.

The same module holds the degree filtration (span of C(x,k), k <= n),
the congruence f^p = f mod p, and the pairing against Z[[u]], u = t-1,
under which C(x,n) is dual to u^n.  A series there is its list of
coefficients, truncated at its length, and the integer point a becomes
the group-like series (1+u)^a, whose coefficients are the C(a,n).  The
generic route through Q[x] and a truncated series ring, which checks
these closed forms independently, is kept in tests/intz_oracle.py.
"""

from __future__ import annotations

import json
from itertools import accumulate
from math import ceil, comb, e, log2
from typing import Iterable, Iterator, Mapping, Sequence

from .binomial import binomial_int, is_prime
from .errors import InputError, bound_overflow
from .poly import format_terms


def _checked(c) -> int:
    """A coefficient from outside the library, refused unless an integer
    (a bool is not one)."""
    if not isinstance(c, int) or isinstance(c, bool):
        raise InputError("basis coefficients must be integers")
    return c


class IntZElement:
    """An integer-valued polynomial in binomial-basis coordinates."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        clean: dict[int, int] = {}
        if coeffs:
            for n, c in coeffs.items():
                if n < 0:
                    raise InputError("basis indices must be nonnegative")
                if _checked(c):
                    clean[n] = c
        self._coeffs = clean

    @classmethod
    def _of(cls, coeffs: dict[int, int]) -> IntZElement:
        """The element of coefficients the library formed, in a dict it
        hands over: zeros are dropped and nothing else is checked."""
        f = cls.__new__(cls)
        f._coeffs = {n: c for n, c in coeffs.items() if c} if 0 in coeffs.values() else coeffs
        return f

    # -- constructors ------------------------------------------------------

    @classmethod
    def basis(cls, n: int) -> IntZElement:
        return cls({n: 1})

    @classmethod
    def one(cls) -> IntZElement:
        return cls({0: 1})

    @classmethod
    def zero(cls) -> IntZElement:
        return cls()

    # -- queries -----------------------------------------------------------

    def coefficient(self, n: int) -> int:
        return self._coeffs.get(n, 0)

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._coeffs.items()))

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._coeffs))

    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntZElement):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    # -- additive structure ------------------------------------------------

    def __add__(self, other: IntZElement) -> IntZElement:
        out = dict(self._coeffs)
        for n, c in other._coeffs.items():
            out[n] = out.get(n, 0) + c
        return IntZElement._of(out)

    def __neg__(self) -> IntZElement:
        return IntZElement._of({n: -c for n, c in self._coeffs.items()})

    def __sub__(self, other: IntZElement) -> IntZElement:
        return self + (-other)

    def scale(self, k: int) -> IntZElement:
        return IntZElement._of({n: k * c for n, c in self._coeffs.items()})

    # -- text and JSON forms ----------------------------------------------

    def __str__(self) -> str:
        return format_terms((f"C(x,{n})" if n else "", c)
                            for n, c in sorted(self._coeffs.items()))

    def __repr__(self) -> str:
        return f"IntZElement({self})"

    @classmethod
    def parse(cls, text: str) -> IntZElement:
        """Accepts sums like ``3*C(x,2)+C(x,1)-4``."""
        import re

        if not text.strip():
            raise InputError("empty element")
        coeffs: dict[int, int] = {}
        pos = 0
        term_re = re.compile(
            r"\s*(?P<sign>[+-])?\s*(?:"
            r"(?P<coef>\d+)\s*(?P<star>\*)?\s*)?"
            r"(?:C\(\s*x\s*,\s*(?P<idx>\d+)\s*\))?"
        )
        first = True
        while pos < len(text.rstrip()):
            m = term_re.match(text, pos)
            if not m or m.end() == pos:
                raise InputError(f"bad element syntax at: {text[pos:]!r}")
            sign, coef, star, idx = m.group("sign", "coef", "star", "idx")
            if sign is None and not first:
                raise InputError(f"missing +/- between terms in {text!r}")
            if coef is None and idx is None:
                raise InputError(f"empty term in {text!r}")
            if coef is not None and idx is None and star is not None:
                raise InputError(f"dangling * in {text!r}")
            digits = max(len(coef or ""), len(idx or ""))
            if digits > MAX_DIGITS:
                raise bound_overflow("a numeral", f"{digits} digits", "intz.MAX_DIGITS", MAX_DIGITS)
            s = -1 if sign == "-" else 1
            c = int(coef) if coef is not None else 1
            n = int(idx) if idx is not None else 0
            coeffs[n] = coeffs.get(n, 0) + s * c
            pos = m.end()
            first = False
        return cls(coeffs)

    def to_json(self) -> str:
        return json.dumps(
            {"coeffs": {str(n): str(c) for n, c in sorted(self._coeffs.items())}},
            sort_keys=True, separators=(",", ":"),
        )


class TensorElement:
    """An element of IntZ (x) IntZ in the basis C(x,m) (x) C(x,n)."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[tuple[int, int], int] | None = None):
        clean: dict[tuple[int, int], int] = {}
        if coeffs:
            for (m, n), c in coeffs.items():
                if m < 0 or n < 0:
                    raise InputError("basis indices must be nonnegative")
                if _checked(c):
                    clean[(m, n)] = c
        self._coeffs = clean

    @classmethod
    def _of(cls, coeffs: dict[tuple[int, int], int]) -> TensorElement:
        """The tensor of coefficients the library formed, in a dict it
        hands over: zeros are dropped and nothing else is checked."""
        t = cls.__new__(cls)
        t._coeffs = {mn: c for mn, c in coeffs.items() if c} if 0 in coeffs.values() else coeffs
        return t

    @classmethod
    def simple(cls, f: IntZElement, g: IntZElement) -> TensorElement:
        return cls._of({(m, n): a * b for m, a in f._coeffs.items() for n, b in g._coeffs.items()})

    def items(self) -> Iterator[tuple[tuple[int, int], int]]:
        return iter(sorted(self._coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0][0])))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self._coeffs == other._coeffs

    def multiply(self, other: TensorElement) -> TensorElement:
        """Componentwise product (f (x) g)(f' (x) g') = ff' (x) gg'.  Each
        basis_product is formed once per call for each unordered index
        pair, however many term pairs meet it."""
        products: dict[tuple[int, int], list[tuple[int, int]]] = {}

        def product(m: int, n: int) -> list[tuple[int, int]]:
            key = (m, n) if m <= n else (n, m)
            terms = products.get(key)
            if terms is None:
                terms = products[key] = list(basis_product(m, n).items())
            return terms

        out: dict[tuple[int, int], int] = {}
        for (m1, n1), c1 in self._coeffs.items():
            for (m2, n2), c2 in other._coeffs.items():
                right = product(n1, n2)
                for i, a in product(m1, m2):
                    ca = c1 * c2 * a
                    for j, b in right:
                        out[(i, j)] = out.get((i, j), 0) + ca * b
        return TensorElement._of(out)

    def __str__(self) -> str:
        def side(n: int) -> str:
            return "1" if n == 0 else f"C(x,{n})"

        return format_terms((f"{side(m)}@{side(n)}", c) for (m, n), c in self.items())

    def __repr__(self) -> str:
        return f"TensorElement({self})"

    def to_json(self) -> str:
        return json.dumps(
            {"coeffs": {f"{m},{n}": str(c) for (m, n), c in self.items()}},
            sort_keys=True, separators=(",", ":"),
        )


# -- ring and Hopf operations ---------------------------------------------


# Largest accepted (terms formed) x (top basis index of the result) for
# mult, comult and antipode; at the limit each takes about a second.
WORK_LIMIT = 10_000_000
# Longest accepted decimal numeral, and largest accepted bit length of one
# binomial in eval_at or specialized Rees constant: with these and WORK_LIMIT
# every value the CLI prints stays under Python's 4300-digit limit on int/str.
MAX_DIGITS = 1000
EVAL_BITS_LIMIT = 10_000


def _check_work(counts: Iterable[int], top: int, what: str) -> None:
    """Refuse when sum(counts) * top exceeds WORK_LIMIT, before any term is
    formed; stops summing as soon as the budget is spent."""
    budget = WORK_LIMIT // max(top, 1)
    total = 0
    for c in counts:
        total += c
        if total > budget:
            raise bound_overflow(what, f"at least {total * max(top, 1)} terms x top index",
                                 "intz.WORK_LIMIT", WORK_LIMIT)


def _accumulate(parts: Iterable[tuple[int, Iterable[tuple[int, int]]]]) -> IntZElement:
    """sum of c * (sum_k d_k C(x,k)) over the given (c, [(k, d_k)]) parts."""
    out: dict[int, int] = {}
    for c, terms in parts:
        for k, d in terms:
            out[k] = out.get(k, 0) + c * d
    return IntZElement._of(out)


def basis_product(m: int, n: int) -> dict[int, int]:
    """C(x,m) * C(x,n) = sum_k C(k,m) C(m,k-n) C(x,k), max(m,n) <= k <= m+n."""
    return {k: comb(k, m) * comb(m, k - n) for k in range(max(m, n), m + n + 1)}


def mult(f: IntZElement, g: IntZElement) -> IntZElement:
    """Product, the bilinear extension of basis_product."""
    _check_work((min(m, n) + 1 for m in f._coeffs for n in g._coeffs),
                max(f._coeffs, default=0) + max(g._coeffs, default=0), "the product")
    return _accumulate((a * b, basis_product(m, n).items())
                       for m, a in f._coeffs.items() for n, b in g._coeffs.items())


def comult(f: IntZElement) -> TensorElement:
    """Delta C(x,n) = sum_{i+j=n} C(x,i) (x) C(x,j), extended Z-linearly."""
    _check_work((n + 1 for n in f._coeffs), max(f._coeffs, default=0), "the coproduct")
    # each (i, n - i) is written once: pairs from different n never meet
    return TensorElement._of({(i, n - i): c for n, c in f._coeffs.items() for i in range(n + 1)})


def counit(f: IntZElement) -> int:
    """Evaluation at 0: only C(x,0) survives."""
    return f.coefficient(0)


def eval_at(f: IntZElement, a: int) -> int:
    """Value at an integer point, a sum of generalized binomials.  C(a, n)
    has at most |a| + n bits; past EVAL_BITS_LIMIT each is sized first."""
    if abs(a) + max(f._coeffs, default=0) > EVAL_BITS_LIMIT:
        for n in f._coeffs:
            N = a if a >= 0 else n - a - 1
            k = min(n, N - n)  # C(a, n) = +-C(N, k), between 2^k and (e N / k)^k
            bits = k if k > EVAL_BITS_LIMIT or k < 1 else ceil(k * (log2(N) - log2(k) + log2(e)))
            if bits > EVAL_BITS_LIMIT:
                raise bound_overflow(f"C(x,{n}) at the point", f"about {bits} bits",
                                     "intz.EVAL_BITS_LIMIT", EVAL_BITS_LIMIT)
    return sum(c * binomial_int(a, n) for n, c in f.items())


def antipode(f: IntZElement) -> IntZElement:
    """S(C(x,n)) = C(-x,n) = (-1)^n sum_{k=1..n} C(n-1,k-1) C(x,k) and S(1) = 1,
    extended Z-linearly: every term adds into one dict, and the terms
    that cancel are dropped."""
    _check_work(f._coeffs, max(f._coeffs, default=0), "the antipode")
    out: dict[int, int] = {}
    for n, c in f._coeffs.items():
        if n == 0:
            out[0] = c  # no other n reaches C(x,0)
            continue
        if n % 2:
            c = -c
        for k in range(1, n + 1):  # c runs through (-1)^n c_n C(n-1,k-1)
            out[k] = out.get(k, 0) + c
            c = c * (n - k) // k
    return IntZElement._of(out)


# -- filtration -------------------------------------------------------------


def filtration_degree(f: IntZElement) -> int | None:
    """Smallest n with f in fil^n = span{C(x,k): k <= n}; None for 0.

    None plays the role of -infinity: the zero element lies in every
    filtration stage.
    """
    if f.is_zero():
        return None
    return max(f.support())


def graded_constant(m: int, n: int) -> int:
    """Top binomial-basis coefficient of C(x,m) * C(x,n).

    This is the structure constant of the associated graded divided power
    algebra, gamma_m gamma_n = C(m+n, n) gamma_{m+n}, read off the product.
    """
    if m < 0 or n < 0:
        raise InputError("basis indices must be nonnegative")
    return mult(IntZElement.basis(m), IntZElement.basis(n)).coefficient(m + n)


# -- Frobenius congruence ---------------------------------------------------


# Longest accepted value table p * max(deg f, 1) + 1 for the Frobenius
# check, each value of which costs one add per coefficient.
FROB_TABLE_LIMIT = 2_000


def _values(f: IntZElement, count: int) -> list[int]:
    """f(0), f(1), ..., f(count - 1), by one running sum per coefficient
    from the top down: Delta^n f(k) = c_n + sum_{j<k} Delta^(n+1) f(j),
    as Delta^n f(0) = c_n, the coefficient of C(x,n)."""
    d = max(f._coeffs, default=0)
    seq = [f._coeffs.get(d, 0)] * count
    for n in range(d - 1, -1, -1):
        seq = list(accumulate(seq[:count - 1], initial=f._coeffs.get(n, 0)))
    return seq


def frobenius_mod_p_identity(f: IntZElement, p: int) -> bool:
    """Whether f^p == f modulo p, the perfectness witness mod p.

    g = f^p - f has degree at most p*deg f, and the binomial transform
    between its coefficients and its values g(0..p*deg f) is unitriangular
    over Z, so the coefficients all vanish mod p exactly when those values
    do: the check asks that (f(k)^p - f(k)) mod p is 0 for each k, one
    pass over the values of _values.  No rational arithmetic and no
    degree-p*deg(f) expansion is ever materialized.  A table longer than
    FROB_TABLE_LIMIT is refused before p is tested for primality.

    Every value f(k) is an integer, so f(k)^p == f(k) mod p by Fermat's
    little theorem, and once p passes the primality check the answer is
    True for every f.  The check demonstrates the identity and exercises
    _values and FROB_TABLE_LIMIT; it cannot detect a wrong product table,
    which only forming f^p through mult would, at p times the degree.
    """
    d = filtration_degree(f)
    values = p * max(d or 0, 1) + 1
    if values > FROB_TABLE_LIMIT:
        raise bound_overflow(f"the mod-{p} check of a degree-{d} element", f"{values} values",
                             "intz.FROB_TABLE_LIMIT", FROB_TABLE_LIMIT)
    if not is_prime(p):
        raise InputError(f"modulus {p} is not prime")
    if d is None:
        return True
    return all((pow(v, p, p) - v) % p == 0 for v in _values(f, p * d + 1))


# -- duality pairing --------------------------------------------------------


def pair(f: IntZElement, s: Sequence[int]) -> int:
    """<C(x,n), u^k> = delta_{n,k}, extended bilinearly, against the series
    sum_k s[k] u^k truncated at u^len(s).

    The truncation must exceed every basis index of f, otherwise
    dropped terms could contribute and the answer would be untrustworthy.
    """
    d = filtration_degree(f)
    if d is not None and len(s) <= d:
        raise InputError(
            f"series truncation {len(s)} too small for element of degree {d}"
        )
    return sum(c * s[n] for n, c in f._coeffs.items())


def group_like(a: int, trunc: int) -> list[int]:
    """Coefficients of (1+u)^a below u^trunc, the group-like series attached
    to the integer point a."""
    return [binomial_int(a, n) for n in range(trunc)]
