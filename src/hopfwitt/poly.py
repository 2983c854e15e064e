"""Sparse multivariate polynomials with exact coefficients.

A polynomial is a finite map from monomials to nonzero coefficients,
stored as they are given: the library builds every polynomial from
Python ints, so its polynomials lie in Z[vars], while the test oracles
give rational coefficients to work in Q[vars].  A monomial is a tuple
of (name, exponent) pairs, sorted by name, with all exponents positive;
the empty tuple is the constant monomial.  Zero coefficients are never
stored, so the zero polynomial is the empty map and equality is plain
dict equality.

Serialization uses graded lexicographic order (total degree descending,
then exponent vectors over the sorted variable universe, descending), which
makes the text form canonical: the same polynomial always prints the same
bytes.  The grammar accepted by parse() is a sum of terms
``coef*var^e*var^e``, the coefficient a nonnegative integer, with
``+``/``-`` separators; both coefficient and variables are optional in a
term as long as something is present.  parse() reads Z[vars] only, so
any ``/`` is refused.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Mapping

from .errors import InputError

Monomial = tuple[tuple[str, int], ...]


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
    """Immutable sparse polynomial; its coefficients are kept as given.
    In arithmetic anything that is not a SparsePoly is taken for a
    scalar; == also takes an int, as a constant."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        self._terms = {mono: c for mono, c in terms.items() if c} if terms else {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c: int) -> SparsePoly:
        return cls({(): c})

    @classmethod
    def variable(cls, name: str) -> SparsePoly:
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
            raise InputError(f"bad variable name: {name!r}")
        return cls({((name, 1),): 1})

    # -- queries -----------------------------------------------------------

    def items(self) -> Iterator[tuple[Monomial, int]]:
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, mono: Monomial | Mapping[str, int]) -> int:
        if isinstance(mono, Mapping):
            mono = tuple(sorted((n, e) for n, e in mono.items() if e))
        return self._terms.get(mono, 0)

    def variables(self) -> tuple[str, ...]:
        seen: set[str] = set()
        for mono in self._terms:
            for name, _ in mono:
                seen.add(name)
        return tuple(sorted(seen))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: SparsePoly | int) -> SparsePoly:
        other = _coerce(other)
        out = dict(self._terms)
        for mono, c in other._terms.items():
            s = out.get(mono, 0) + c
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

    def __sub__(self, other: SparsePoly | int) -> SparsePoly:
        return self + (-_coerce(other))

    def __mul__(self, other: SparsePoly | int) -> SparsePoly:
        if not isinstance(other, SparsePoly):
            if not other:
                return SparsePoly()
            res = SparsePoly.__new__(SparsePoly)
            res._terms = {m: k * other for m, k in self._terms.items()}
            return res
        out: dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = _mono_mul(m1, m2)
                s = out.get(mono, 0) + c1 * c2
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

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = _coerce(other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- evaluation --------------------------------------------------------

    def evaluate(self, values: Mapping[str, int]) -> int:
        """Evaluate at a full point; raises if a variable is missing."""
        total = 0
        for mono, c in self._terms.items():
            v = c
            for name, e in mono:
                if name not in values:
                    raise InputError(f"no value for variable {name!r}")
                v *= values[name] ** e
            total += v
        return total

    # -- canonical text form ----------------------------------------------

    def _sorted_terms(self) -> list[tuple[Monomial, int]]:
        universe = self.variables()

        def key(item: tuple[Monomial, int]):
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
        r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
        r"|(?P<op>[\^*+-]))"
    )

    @classmethod
    def parse(cls, text: str) -> SparsePoly:
        tokens = _tokenize(text)
        return _parse_sum(tokens, text)


def format_terms(terms: Iterable[tuple[str, int]]) -> str:
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


def _coerce(v: SparsePoly | int) -> SparsePoly:
    if isinstance(v, SparsePoly):
        return v
    return SparsePoly.constant(v)


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = SparsePoly._TOKEN.match(text, pos)
        if not m:
            rest = text[pos:].strip()
            if rest[:1] == "/":
                raise InputError("polynomial ring elements need integer coefficients")
            if rest:
                raise InputError(f"bad character in polynomial: {rest[0]!r}")
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


def _numeral(tok: str) -> int:
    try:
        return int(tok)
    except ValueError as exc:  # past Python's limit on int/str conversion
        raise InputError(f"numeral of {len(tok)} digits in polynomial is too long") from exc


def _parse_term(tokens: list[str], i: int, original: str) -> tuple[SparsePoly, int]:
    coeff = 1
    mono: dict[str, int] = {}
    saw_factor = False
    while i < len(tokens):
        tok = tokens[i]
        if tok in ("+", "-"):
            break
        if tok in ("*", "^"):
            raise InputError(f"misplaced {tok!r} in polynomial: {original!r}")
        if tok.isdigit():
            coeff *= _numeral(tok)
            saw_factor = True
            i += 1
        else:
            name = tok
            exp = 1
            i += 1
            if i < len(tokens) and tokens[i] == "^":
                i += 1
                if i >= len(tokens) or not tokens[i].isdigit():
                    raise InputError(f"bad exponent in polynomial: {original!r}")
                exp = _numeral(tokens[i])
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
