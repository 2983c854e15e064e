"""Every run of the suite draws the same hypothesis examples.

Each @given test derives its examples from a seed fixed by the test
itself, and no example database under .hypothesis/ is read or written,
so a commit that passes once passes every time.  Each test keeps its
own max_examples and deadline.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
