"""The words of a homology._Window, kept as a test oracle.

The library never forms a word tuple of its window: columns are built in
place coordinates and a chain's words are placed by walking the window's
tables.  The tests compare the window with full enumeration, and build
chains from strand places, through the words rebuilt here from each id's
prefix and last letter.
"""


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
