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
bytes.  format_terms prints that form and signed_terms reads it back, for
Int(Z) elements too: a signed sum, where a sign may lead the first term
and must stand between two terms, with whitespace free around both.  A
term of parse() joins factors, each a nonnegative numeral or ``var^e``
(``^e`` optional), by ``*`` or by juxtaposition, so ``2x`` and ``x y``
are products and ``2 3`` is 6.  parse() reads Z[vars] only, so any
``/`` is refused.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Mapping

from .errors import InputError, read_int, shown

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

    @classmethod
    def parse(cls, text: str) -> SparsePoly:
        if "/" in text:
            raise InputError("polynomial ring elements need integer coefficients")
        terms: dict[Monomial, int] = {}
        for sign, term in signed_terms(text, _TERM, "polynomial"):
            coeff, mono = sign, {}
            for num, name, exp in re.findall(_FACTOR, term[0]):
                if name:
                    mono[name] = mono.get(name, 0) + (read_int(exp, "polynomial") if exp else 1)
                else:
                    coeff *= read_int(num, "polynomial")
            key = tuple(sorted((n, e) for n, e in mono.items() if e))
            terms[key] = terms.get(key, 0) + coeff
        return cls(terms)


# A factor of a Z[vars] term is a numeral or a variable with an optional
# exponent; a term joins factors by * or by juxtaposition.
_FACTOR = r"(\d+)|([A-Za-z_][A-Za-z0-9_]*)(?:\s*\^\s*(\d+))?"
_TERM = rf"(?:{_FACTOR})(?:\s*\*?\s*(?:{_FACTOR}))*"


def signed_terms(text: str, term: str, what: str) -> Iterator[tuple[int, re.Match]]:
    """Read `text` as a signed sum: the sign (1 or -1) and the match of the
    pattern `term` of each term, left to right.  A sign may lead the first
    term and must stand between two terms; whitespace may surround signs
    and terms.  Anything else is one InputError naming `what`."""
    if not text.strip():
        raise InputError(f"empty {what}")
    sign_re, term_re = re.compile(r"\s*([+-]?)\s*"), re.compile(term)
    pos = 0
    while True:
        s = sign_re.match(text, pos)
        at = s.end()
        if pos and not s[1] and at == len(text):  # the sum ends after a term
            return
        # only the first term may go unsigned
        t = term_re.match(text, at) if s[1] or not pos else None
        if not t or t.end() == at:
            rest = text[at:]
            raise InputError(f"bad {what} at {shown(rest)}" if rest else f"{what} ends in a sign")
        yield (-1 if s[1] == "-" else 1), t
        pos = t.end()


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
