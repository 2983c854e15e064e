"""Exact computational algebra for binomial Hopf structures and Witt vectors.

Modules by topic:

- poly, binomial: sparse integer polynomials, generalized binomial
  coefficients and a primality test (the arithmetic substrate).
- intz: the ring of integer-valued polynomials on its binomial basis, with
  its Hopf structure by closed forms, degree filtration, and the duality
  pairing against coefficient lists of Z[[t-1]].
- rings, witt: coefficient rings and truncated big/p-typical Witt vectors,
  universal operation polynomials, (twisted) Frobenii, kernels.
- linalg, filtration: exact integer linear algebra, bounded filtered
  modules with Day tensor and associated graded, the Rees deformation and
  the Drinfeld basis.
- homology: bar and cobar complexes over small graded (co)algebras, with
  integer homology and the shuffle product.
- cli: the command-line interface.

Everything is exact: Python ints throughout, polynomial coefficients
included, and no floating point in any result.
"""

__version__ = "0.1.0"

from .errors import FalsificationError, InputError

__all__ = ["FalsificationError", "InputError", "__version__"]
