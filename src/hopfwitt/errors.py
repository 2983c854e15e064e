"""Exception types shared across the package.

Two failure modes are kept apart on purpose.  InputError means the caller
handed us something malformed or out of contract (bad syntax, composite
modulus, truncation too short) and maps to exit code 2 in the CLI.
FalsificationError means an internal mathematical invariant that is supposed
to be a theorem failed to hold (an exact division left a remainder, a
structure constant came out non-integral).  That is never a user mistake;
it maps to exit code 3 and should be treated as a bug or a falsified claim.
Input whose work would pass a limit, a module constant, is an InputError
too, and bound_overflow builds every one of those.  read_int reads a
numeral from outside, so that one past Python's limit on int/str
conversion is refused by its digit count rather than echoed.
"""

import sys


class InputError(ValueError):
    """Malformed or out-of-contract input."""


class FalsificationError(AssertionError):
    """A mathematical invariant the code relies on failed to hold."""


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
        raise InputError(f"bad {what}: {text!r}") from exc
