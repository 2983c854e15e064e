"""The two hand-written readers that poly.signed_terms replaced, kept as
an oracle for it.

poly_parse reads a Z[vars] sum through a tokenizer and recursive descent;
intz_parse reads an Int(Z) element with one regex loop.  Each returns the
value or raises InputError, as the readers in hopfwitt do; their messages
may differ from the library's, their verdicts and values may not.
"""

from __future__ import annotations

import re

from hopfwitt.errors import InputError
from hopfwitt.intz import MAX_DIGITS, IntZElement
from hopfwitt.poly import SparsePoly

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[\^*+-]))"
)
_INTZ_TERM = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:"
    r"(?P<coef>\d+)\s*(?P<star>\*)?\s*)?"
    r"(?:C\(\s*x\s*,\s*(?P<idx>\d+)\s*\))?"
)


def poly_parse(text: str) -> SparsePoly:
    tokens = _tokenize(text)
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
        term, i = _parse_term(tokens, i)
        result = result + term * sign
        sign = 1
        if i < len(tokens) and tokens[i] not in ("+", "-"):
            raise InputError("expected + or -")
    return result


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            rest = text[pos:].strip()
            if rest[:1] == "/":
                raise InputError("polynomial ring elements need integer coefficients")
            if rest:
                raise InputError(f"bad character in polynomial: {rest[0]!r}")
            break
        tokens.append(m.group(m.lastgroup))
        pos = m.end()
    return tokens


def _numeral(tok: str) -> int:
    try:
        return int(tok)
    except ValueError as exc:  # past Python's limit on int/str conversion
        raise InputError(f"numeral of {len(tok)} digits is too long") from exc


def _parse_term(tokens: list[str], i: int) -> tuple[SparsePoly, int]:
    coeff = 1
    mono: dict[str, int] = {}
    saw_factor = False
    while i < len(tokens):
        tok = tokens[i]
        if tok in ("+", "-"):
            break
        if tok in ("*", "^"):
            raise InputError(f"misplaced {tok!r}")
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
                    raise InputError("bad exponent")
                exp = _numeral(tokens[i])
                i += 1
            mono[name] = mono.get(name, 0) + exp
            saw_factor = True
        if i < len(tokens) and tokens[i] == "*":
            i += 1
            if i >= len(tokens) or tokens[i] in ("+", "-", "*", "^"):
                raise InputError("dangling *")
    if not saw_factor:
        raise InputError("empty term")
    key = tuple(sorted((n, e) for n, e in mono.items() if e))
    return SparsePoly({key: coeff}), i


def intz_parse(text: str) -> IntZElement:
    if not text.strip():
        raise InputError("empty element")
    coeffs: dict[int, int] = {}
    pos = 0
    first = True
    while pos < len(text.rstrip()):
        m = _INTZ_TERM.match(text, pos)
        if not m or m.end() == pos:
            raise InputError("bad element syntax")
        sign, coef, star, idx = m.group("sign", "coef", "star", "idx")
        if sign is None and not first:
            raise InputError("missing +/- between terms")
        if coef is None and idx is None:
            raise InputError("empty term")
        if coef is not None and idx is None and star is not None:
            raise InputError("dangling *")
        if max(len(coef or ""), len(idx or "")) > MAX_DIGITS:
            raise InputError("numeral too long")
        s = -1 if sign == "-" else 1
        c = int(coef) if coef is not None else 1
        n = int(idx) if idx is not None else 0
        coeffs[n] = coeffs.get(n, 0) + s * c
        pos = m.end()
        first = False
    return IntZElement(coeffs)
