"""The words of a homology._Window, and the (co)algebras and per-word
cobar differential of the homology tests, kept as test oracles.

The library never forms a word tuple of its window: columns are built in
place coordinates and a chain's words are placed by walking the window's
tables.  The tests compare the window with full enumeration, and build
chains from strand places, through the words rebuilt here from each id's
prefix and last letter.

The trivial and exterior algebras and the trivial coalgebra are written
out as their own tables here, so the named constructors
GradedAugmentedAlgebra.truncated and GradedCoalgebra.divided_power are
checked against tables they did not build.  cobar_differential_word
gives the face sum of one cobar word, which the cobar windows' columns
are checked against.
"""

from hopfwitt.homology import Chain, GradedAugmentedAlgebra, GradedCoalgebra, _add_term


def visited_words(window) -> list[tuple]:
    """The word of each id the walk visited, by id."""
    word: list[tuple] = [()]
    for i in range(1, len(window.prefix)):
        word.append(word[window.prefix[i]] + (window.last[i],))
    return word


def window_words(window) -> dict[tuple[int, int], dict[tuple, int]]:
    """Each strand of the window as {word: place}, iterating in place
    order."""
    word = visited_words(window)
    return {key: {word[i]: j for j, i in enumerate(ids)} for key, ids in window.strands.items()}


def trivial_algebra() -> GradedAugmentedAlgebra:
    """Z, its unit alone."""
    return GradedAugmentedAlgebra([("1", 0, 0)], "1", {("1", "1"): {"1": 1}})


def exterior_algebra(degree: int, weight: int) -> GradedAugmentedAlgebra:
    """Exterior algebra on one generator e in (degree, weight): the
    square is zero."""
    return GradedAugmentedAlgebra(
        [("1", 0, 0), ("e", degree, weight)], "1",
        {("1", "1"): {"1": 1}, ("1", "e"): {"e": 1}, ("e", "1"): {"e": 1}, ("e", "e"): {}})


def trivial_coalgebra() -> GradedCoalgebra:
    """Z, its coaugmentation alone."""
    return GradedCoalgebra([("1", 0, 0)], "1", {"1": {("1", "1"): 1}})


def cobar_differential_word(C: GradedCoalgebra, word: tuple) -> Chain:
    """Derivation extension of the reduced diagonal with Koszul signs."""
    out: Chain = {}
    sign_exp = 0
    for i, letter in enumerate(word):
        if i > 0:
            sign_exp += C.bidegree[word[i - 1]][0] - 1
        for (a, b), v in C.reduced[letter].items():
            sign = -1 if (sign_exp + C.bidegree[a][0]) % 2 else 1
            split = word[:i] + (a, b) + word[i + 1:]
            _add_term(out, split, sign * v)
    return out
