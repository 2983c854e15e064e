"""Exception types shared across the package.

Two failure modes are kept apart on purpose.  InputError means the caller
handed us something malformed or out of contract (bad syntax, composite
modulus, truncation too short) and maps to exit code 2 in the CLI.
FalsificationError means an internal mathematical invariant that is supposed
to be a theorem failed to hold (an exact division left a remainder, a
structure constant came out non-integral).  That is never a user mistake;
it maps to exit code 3 and should be treated as a bug or a falsified claim.
Input whose work would pass a limit, a module constant, is an InputError
too, and bound_overflow builds every one of those.
"""


class InputError(ValueError):
    """Malformed or out-of-contract input."""


class FalsificationError(AssertionError):
    """A mathematical invariant the code relies on failed to hold."""


def bound_overflow(what: str, need: str, limit: str, cap: int) -> InputError:
    """The refusal of input whose work would pass a limit: `what` needs
    `need` (a measure with its unit), over the constant named `limit`
    (module.NAME), whose value is `cap`."""
    return InputError(f"bound overflow: {what} needs {need}, over {limit} = {cap}")
