"""Sparse multivariate polynomials over the rationals.

A polynomial is a finite map from monomials to nonzero Fraction
coefficients.  A monomial is a tuple of (name, exponent) pairs, sorted by
name, with all exponents positive; the empty tuple is the constant
monomial.  Zero coefficients are never stored, so the zero polynomial is
the empty map and equality is plain dict equality.

Serialization uses graded lexicographic order (total degree descending,
then exponent vectors over the sorted variable universe, descending), which
makes the text form canonical: the same polynomial always prints the same
bytes.  The grammar accepted by parse() is a sum of terms
``coef*var^e*var^e``, coefficient written as ``num`` or ``num/den``, with
``+``/``-`` separators; both coefficient and variables are optional in a
term as long as something is present.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

from .errors import InputError

Monomial = tuple[tuple[str, int], ...]
Scalar = Union[int, Fraction]


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for name, e in b:
        out[name] = out.get(name, 0) + e
    return tuple(sorted((n, e) for n, e in out.items() if e))


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


class SparsePoly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, c in terms.items():
                c = Fraction(c)
                if c:
                    clean[mono] = c
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c: Scalar) -> SparsePoly:
        return cls({(): Fraction(c)})

    @classmethod
    def variable(cls, name: str) -> SparsePoly:
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
            raise InputError(f"bad variable name: {name!r}")
        return cls({((name, 1),): Fraction(1)})

    zero_poly: SparsePoly  # filled in below the class body
    one_poly: SparsePoly

    # -- queries -----------------------------------------------------------

    def items(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, mono: Monomial | Mapping[str, int]) -> Fraction:
        if isinstance(mono, Mapping):
            mono = tuple(sorted((n, e) for n, e in mono.items() if e))
        return self._terms.get(mono, Fraction(0))

    def constant_term(self) -> Fraction:
        return self._terms.get((), Fraction(0))

    def variables(self) -> tuple[str, ...]:
        seen: set[str] = set()
        for mono in self._terms:
            for name, _ in mono:
                seen.add(name)
        return tuple(sorted(seen))

    def total_degree(self) -> int | None:
        """Total degree, or None for the zero polynomial."""
        if not self._terms:
            return None
        return max(_mono_degree(m) for m in self._terms)

    def degree_in(self, name: str) -> int:
        if not self._terms:
            return 0
        return max((dict(m).get(name, 0) for m in self._terms), default=0)

    def is_integral(self) -> bool:
        """True when every coefficient is an integer."""
        return all(c.denominator == 1 for c in self._terms.values())

    def is_univariate_in(self, name: str) -> bool:
        return all(all(n == name for n, _ in m) for m in self._terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: SparsePoly | Scalar) -> SparsePoly:
        other = _coerce(other)
        out = dict(self._terms)
        for mono, c in other._terms.items():
            s = out.get(mono, Fraction(0)) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        res = SparsePoly.__new__(SparsePoly)
        res._terms = out
        return res

    __radd__ = __add__

    def __neg__(self) -> SparsePoly:
        res = SparsePoly.__new__(SparsePoly)
        res._terms = {m: -c for m, c in self._terms.items()}
        return res

    def __sub__(self, other: SparsePoly | Scalar) -> SparsePoly:
        return self + (-_coerce(other))

    def __rsub__(self, other: Scalar) -> SparsePoly:
        return _coerce(other) - self

    def __mul__(self, other: SparsePoly | Scalar) -> SparsePoly:
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return SparsePoly()
            res = SparsePoly.__new__(SparsePoly)
            res._terms = {m: k * c for m, k in self._terms.items()}
            return res
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = _mono_mul(m1, m2)
                s = out.get(mono, Fraction(0)) + c1 * c2
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        res = SparsePoly.__new__(SparsePoly)
        res._terms = out
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int) -> SparsePoly:
        if n < 0:
            raise InputError("negative polynomial power")
        result = SparsePoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def exact_div(self, k: Scalar) -> SparsePoly:
        """Divide by a nonzero scalar; caller checks integrality separately."""
        k = Fraction(k)
        if not k:
            raise InputError("division by zero")
        return self * (1 / k)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _coerce(other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- substitution ------------------------------------------------------

    def substitute(self, values: Mapping[str, SparsePoly | Scalar]) -> SparsePoly:
        """Replace variables by polynomials or scalars; others are kept."""
        subs = {n: _coerce(v) for n, v in values.items()}
        total = SparsePoly()
        for mono, c in self._terms.items():
            term = SparsePoly.constant(c)
            for name, e in mono:
                if name in subs:
                    term = term * subs[name] ** e
                else:
                    term = term * SparsePoly.variable(name) ** e
            total = total + term
        return total

    def evaluate(self, values: Mapping[str, Scalar]) -> Fraction:
        """Evaluate at a full point; raises if a variable is missing."""
        total = Fraction(0)
        for mono, c in self._terms.items():
            v = c
            for name, e in mono:
                if name not in values:
                    raise InputError(f"no value for variable {name!r}")
                v *= Fraction(values[name]) ** e
            total += v
        return total

    # -- canonical text form ----------------------------------------------

    def _sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        universe = self.variables()

        def key(item: tuple[Monomial, Fraction]):
            mono, _ = item
            exps = dict(mono)
            vec = tuple(exps.get(n, 0) for n in universe)
            return (-_mono_degree(mono), tuple(-e for e in vec))

        return sorted(self._terms.items(), key=key)

    def __str__(self) -> str:
        return format_terms(
            ("*".join(name if e == 1 else f"{name}^{e}" for name, e in mono), c)
            for mono, c in self._sorted_terms()
        )

    def __repr__(self) -> str:
        return f"SparsePoly({self})"

    # -- parsing -----------------------------------------------------------

    _TOKEN = re.compile(
        r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
        r"|(?P<op>[\^*+-]))"
    )

    @classmethod
    def parse(cls, text: str) -> SparsePoly:
        tokens = _tokenize(text)
        return _parse_sum(tokens, text)


def format_terms(terms: Iterable[tuple[str, Scalar]]) -> str:
    """The text form of SparsePoly: nonzero (monomial text, coefficient)
    pairs, in the given order, as a signed sum; the empty sum is 0."""
    parts: list[str] = []
    for body, c in terms:
        mag = abs(c)
        if not body:
            chunk = str(mag)
        elif mag == 1:
            chunk = body
        else:
            chunk = f"{mag}*{body}"
        if not parts:
            parts.append(chunk if c > 0 else "-" + chunk)
        else:
            parts.append(("+" if c > 0 else "-") + chunk)
    return "".join(parts) or "0"


def _coerce(v: SparsePoly | Scalar) -> SparsePoly:
    if isinstance(v, SparsePoly):
        return v
    return SparsePoly.constant(v)


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = SparsePoly._TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise InputError(f"bad character in polynomial: {text[pos:].strip()[0]!r}")
            break
        tokens.append(m.group(m.lastgroup))  # type: ignore[arg-type]
        pos = m.end()
    return tokens


def _parse_sum(tokens: list[str], original: str) -> SparsePoly:
    if not tokens:
        raise InputError("empty polynomial")
    result = SparsePoly()
    i = 0
    sign = 1
    while i < len(tokens):
        if tokens[i] == "+":
            sign = 1
            i += 1
        elif tokens[i] == "-":
            sign = -1
            i += 1
        term, i = _parse_term(tokens, i, original)
        result = result + term * sign
        sign = 1
        if i < len(tokens) and tokens[i] not in ("+", "-"):
            raise InputError(f"expected + or - in polynomial: {original!r}")
    return result


def _parse_term(tokens: list[str], i: int, original: str) -> tuple[SparsePoly, int]:
    coeff = Fraction(1)
    mono: dict[str, int] = {}
    saw_factor = False
    while i < len(tokens):
        tok = tokens[i]
        if tok in ("+", "-"):
            break
        if tok in ("*", "^"):
            raise InputError(f"misplaced {tok!r} in polynomial: {original!r}")
        if re.fullmatch(r"\d+(/\d+)?", tok):
            coeff *= Fraction(tok)
            saw_factor = True
            i += 1
        else:
            name = tok
            exp = 1
            i += 1
            if i < len(tokens) and tokens[i] == "^":
                i += 1
                if i >= len(tokens) or not re.fullmatch(r"\d+", tokens[i]):
                    raise InputError(f"bad exponent in polynomial: {original!r}")
                exp = int(tokens[i])
                i += 1
            mono[name] = mono.get(name, 0) + exp
            saw_factor = True
        if i < len(tokens) and tokens[i] == "*":
            i += 1
            if i >= len(tokens) or tokens[i] in ("+", "-", "*", "^"):
                raise InputError(f"dangling * in polynomial: {original!r}")
    if not saw_factor:
        raise InputError(f"empty term in polynomial: {original!r}")
    key = tuple(sorted((n, e) for n, e in mono.items() if e))
    return SparsePoly({key: coeff}), i


SparsePoly.zero_poly = SparsePoly()
SparsePoly.one_poly = SparsePoly.constant(1)
