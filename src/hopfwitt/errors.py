"""Exception types shared across the package, and the readers of outside
text.

Two failure modes are kept apart on purpose.  InputError means the caller
handed us something malformed or out of contract (bad syntax, composite
modulus, truncation too short) and maps to exit code 2 in the CLI.
FalsificationError means an internal mathematical invariant that is supposed
to be a theorem failed to hold (an exact division left a remainder, a
structure constant came out non-integral).  That is never a user mistake;
it maps to exit code 3 and should be treated as a bug or a falsified claim.
Input whose work would pass a limit, a module constant, is an InputError
too, and bound_overflow builds every one of those.

read_int reads every integer from outside, and read_named every
`name:parameters` argument (a ring, algebra or coalgebra).  Refusals
quote outside input through shown, so each stays one short line.
"""

import sys
from typing import Callable


class InputError(ValueError):
    """Malformed or out-of-contract input."""


class FalsificationError(AssertionError):
    """A mathematical invariant the code relies on failed to hold."""


def shown(x: str | int) -> str:
    """x as a refusal quotes it: text as its repr, cut to its first 20
    characters and followed by its length when longer; an integer of
    more than 20 digits as ~2^k, k = floor(log2 |x|)."""
    if isinstance(x, int):
        if -10 ** 20 < x < 10 ** 20:
            return str(x)
        return f"~{'-' if x < 0 else ''}2^{x.bit_length() - 1}"
    return repr(x) if len(x) <= 20 else f"{x[:20]!r}... ({len(x)} characters)"


def bound_overflow(what: str, need: str, limit: str, cap: int) -> InputError:
    """The refusal of input whose work would pass a limit: `what` needs
    `need` (a measure with its unit), over the constant named `limit`
    (module.NAME), whose value is `cap`."""
    return InputError(f"bound overflow: {what} needs {need}, over {limit} = {cap}")


def read_int(text: str, what: str) -> int:
    """int(text), or one short InputError: `bad <what>` with the text, or
    with the digit count of a numeral past Python's int/str conversion
    limit."""
    try:
        return int(text)
    except ValueError as exc:
        digits = text.strip().lstrip("+-").replace("_", "")
        if digits.isdecimal() and len(digits) > sys.get_int_max_str_digits() > 0:
            raise InputError(f"bad {what}: numeral of {len(digits)} digits is too long") from exc
        raise InputError(f"bad {what}: {shown(text)}") from exc


def read_named(text: str, table: dict[str, Callable], what: str):
    """The object `text` names, built by `table`, whose keys are the
    syntax: a name, or a name, a colon and one letter per comma-separated
    integer parameter, as "Fq:p,k"; read_int reads the parameters, which
    the key's builder takes in order.  A refusal of an unknown name lists
    the keys."""
    name, colon, params = text.strip().partition(":")
    for key, build in table.items():
        key_name, _, key_params = key.partition(":")
        if key_name == name:
            letters = key_params.split(",") if key_params else []
            fields = params.split(",") if colon else []
            if len(fields) != len(letters):
                raise InputError(f"{what} syntax is {key}, got {shown(text)}")
            return build(*(read_int(f, f"{c} in {key}") for f, c in zip(fields, letters)))
    raise InputError(f"unknown {what} {shown(text)}; choose {' | '.join(table)}")
