"""Truncated big Witt vectors, computed through the ghost map.

A truncation set S is a finite divisor-closed set of positive integers;
W_S(R) has one coordinate a_d per d in S and ghost components

    w_n(a) = sum_{d | n, d in S} d * a_d^(n/d).

Every ring operation runs the same way.  A coefficient ring's elements
already are elements of its torsion-free lift (Z for Z/m, Z[w]/(f) for
F_q, the ring itself for Z and Z[vars]; see rings.py), so the ghost
components are formed there as they stand and combined as the operation
prescribes (sum, product, negation, an integer multiple or power, a ghost
shift for the Frobenius), and one triangular solve recovers the
components, each by an exact division by its index, before reduce maps
them back.  The ghost map is injective on a torsion-free ring, and the
operations are given by universal polynomials with integer coefficients,
so the result is the same as evaluating those polynomials in the ring
itself.  A division leaving a remainder would falsify that integrality
theorem, so it raises FalsificationError.  The universal polynomials themselves are the same
computation run on generic vectors over Z[a_d, b_d].

The p-typical theory is the special case S = {1, p, ..., p^(k-1)}.

Frobenius F_n lands in the quotient set S/n = {m : nm in S}; Verschiebung
V_n inserts coordinates along multiples of n; the Teichmueller lift [r]
has r in coordinate 1 and zeros elsewhere.  The twisted operator

    TF_n(a; t) = F_n(a) - [t]^(n-1) * restrict(a)

interpolates between F_n - id at t = 1 and F_n at t = 0.

Over a finite ring, kernel_enumerate applies any operator to every
vector.  The kernels of TF_n are searched depth-first instead, assigning
components in truncation order: every prefix of S is a truncation set and
restriction commutes with TF_n, so output component m is fixed once a_nm
is assigned, and a prefix that makes it nonzero is dropped.  Every kernel
returned is certified a subgroup exactly, by growing the span of its
members from {0} one coset at a time: at most |K| - 1 + log2|K| Witt sums,
fewer than 2|K|, with |K| already bounded by KERNEL_LIMIT.
"""

from __future__ import annotations

import itertools
import json
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import FalsificationError, InputError, bound_overflow
from .poly import SparsePoly
from .rings import CoeffRing, IntegerRing, PolynomialRing


# Largest accepted sum of the members of a truncation set.  Over a lift
# the ghost component w_n takes about n times a component's bits, so the
# work of the ghost map and of its inverse grows with this sum.
TRUNC_SUM_LIMIT = 10_000


def divisors(n: int) -> list[int]:
    """The positive divisors of n in increasing order, by trial division up
    to sqrt(n); n over TRUNC_SUM_LIMIT, whose set would pass it, is refused
    before any division."""
    if n > TRUNC_SUM_LIMIT:
        raise bound_overflow("a truncation set", f"member sum {n} or more",
                             "witt.TRUNC_SUM_LIMIT", TRUNC_SUM_LIMIT)
    low: list[int] = []
    high: list[int] = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            low.append(d)
            if d * d < n:
                high.append(n // d)
        d += 1
    return low + high[::-1]


class TruncationSet:
    """A finite divisor-closed set of positive integers, with the sum of
    its members and the proper divisors of each, over which the ghost map
    sums.  It is immutable, so each quotient S/n is built once."""

    __slots__ = ("members", "member_sum", "proper_divisors", "_quotients")

    def __init__(self, members: Iterable[int]):
        present = set(members)
        ms = sorted(present)
        if not ms:
            raise InputError("truncation set must be nonempty")
        if ms[0] < 1:
            raise InputError("truncation set members must be positive")
        total = sum(ms)
        if total > TRUNC_SUM_LIMIT:
            raise bound_overflow("a truncation set", f"member sum {total}",
                                 "witt.TRUNC_SUM_LIMIT", TRUNC_SUM_LIMIT)
        self.proper_divisors = {n: divisors(n)[:-1] for n in ms}
        for n, ds in self.proper_divisors.items():
            for d in ds:
                if d not in present:
                    raise InputError(
                        f"truncation set is not divisor-closed: {d} divides {n}"
                    )
        self.members = tuple(ms)
        self.member_sum = total
        self._quotients: dict[int, TruncationSet] = {}

    @classmethod
    def divisor_closure(cls, seeds: Iterable[int]) -> TruncationSet:
        out: set[int] = set()
        for n in seeds:
            out.update(divisors(n))
        return cls(out)

    @classmethod
    def p_typical(cls, p: int, length: int) -> TruncationSet:
        """{1, p, ..., p^(length-1)}."""
        if length < 1:
            raise InputError("length must be positive")
        return cls(p ** i for i in range(length))

    def quotient(self, n: int) -> TruncationSet:
        """S/n = {m : n*m in S}; empty quotients are rejected, on every call."""
        if (q := self._quotients.get(n)) is None:
            if n < 1:
                raise InputError("quotient index must be positive")
            ms = [m // n for m in self.members if m % n == 0]
            if not ms:
                raise InputError(f"S/{n} is empty for S = {list(self.members)}")
            q = self._quotients[n] = TruncationSet(ms)
        return q

    def __contains__(self, n: int) -> bool:
        return n in self.members

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncationSet):
            return NotImplemented
        return self.members == other.members

    def __hash__(self) -> int:
        return hash(self.members)

    def __str__(self) -> str:
        return "{" + ",".join(str(m) for m in self.members) + "}"

    __repr__ = __str__


class WittVector:
    """A Witt vector: truncation set, coefficient ring, one component per
    member of S."""

    __slots__ = ("trunc", "ring", "comps")

    def __init__(self, trunc: TruncationSet, ring: CoeffRing, comps: Mapping[int, object]):
        # the members are distinct, so equal sizes and every member present mean equal keys
        if len(comps) != len(trunc) or not all(map(comps.__contains__, trunc)):
            missing = [d for d in trunc if d not in comps]
            extra = [d for d in comps if d not in trunc]
            raise InputError(
                f"components must match the truncation set {trunc}: "
                f"missing {missing}, extra {extra}"
            )
        self.trunc = trunc
        self.ring = ring
        self.comps = {d: comps[d] for d in trunc}

    @classmethod
    def zero(cls, trunc: TruncationSet, ring: CoeffRing) -> WittVector:
        return cls(trunc, ring, {d: ring.zero() for d in trunc})

    @classmethod
    def from_list(cls, trunc: TruncationSet, ring: CoeffRing,
                  values: Sequence) -> WittVector:
        if len(values) != len(trunc):
            raise InputError(
                f"need {len(trunc)} components for {trunc}, got {len(values)}"
            )
        return cls(trunc, ring, dict(zip(trunc, values)))

    def as_list(self) -> list:
        return [self.comps[d] for d in self.trunc]

    def restrict(self, target: TruncationSet) -> WittVector:
        """Drop components outside a smaller truncation set."""
        for d in target:
            if d not in self.trunc:
                raise InputError(f"cannot restrict: {d} missing from {self.trunc}")
        return WittVector(target, self.ring, {d: self.comps[d] for d in target})

    def is_zero(self) -> bool:
        return all(self.ring.is_zero(v) for v in self.comps.values())

    def _check_compatible(self, other: WittVector) -> None:
        if self.trunc is not other.trunc and self.trunc != other.trunc:
            raise InputError(
                f"truncation sets differ: {self.trunc} vs {other.trunc}"
            )
        if self.ring is not other.ring and self.ring != other.ring:
            raise InputError("coefficient rings differ")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WittVector):
            return NotImplemented
        return (
            self.trunc == other.trunc
            and self.ring == other.ring
            and self.comps == other.comps
        )

    def __hash__(self) -> int:
        return hash((self.trunc, tuple(str(self.comps[d]) for d in self.trunc)))

    def __str__(self) -> str:
        body = ",".join(self.ring.element_str(self.comps[d]) for d in self.trunc)
        return f"({body})"

    def __repr__(self) -> str:
        return f"W{self.trunc}{self}"

    def to_json(self) -> str:
        return json.dumps(
            {
                "trunc": list(self.trunc),
                "ring": self.ring.to_json_obj(),
                "coeffs": {str(d): self.ring.element_str(self.comps[d])
                           for d in self.trunc},
            },
            sort_keys=True, separators=(",", ":"),
        )


# -- the ghost route -------------------------------------------------------


def _lower_sum(L: CoeffRing, trunc: TruncationSet, comps: Mapping[int, object], n: int):
    """sum_{d | n, d < n, d in S} d * x_d^(n/d), computed in L: the ghost
    component w_n without its last term n * x_n."""
    acc = L.zero()
    for d in trunc.proper_divisors[n]:
        acc = L.add(acc, L.scale(d, L.pow(comps[d], n // d)))
    return acc


def _ghosts(L: CoeffRing, trunc: TruncationSet, comps: Mapping[int, object]) -> dict:
    """w_n = sum_{d | n, d in S} d * x_d^(n/d), computed in L."""
    return {n: L.add(_lower_sum(L, trunc, comps, n), L.scale(n, comps[n])) for n in trunc}


# Largest accepted (bit length of a component) x (largest index) over Z and
# Z[vars], whose values are printed unreduced: ghost components then stay
# near this many bits and those of a product or a twisted Frobenius near
# twice as many, so every printed value stays under Python's 4300-digit
# limit on int/str conversion.
GHOST_BITS_LIMIT = 6000


# Largest accepted (bits of the largest element index) x (member sum) over
# Z/m and F_q, whose lifts are formed unreduced: the lifted ghost component
# w_n takes about n times an element's bits, so this is near the bits of
# all of them together, and the ghost map and its inverse grow with it.
LIFT_BITS_LIMIT = 1_000_000


def _check_ghost_bits(ring: CoeffRing, trunc: TruncationSet, *groups: Iterable) -> None:
    """Refuse elements whose ghost components over trunc would pass
    GHOST_BITS_LIMIT bits, before any is formed; each group of elements is
    checked in turn, and a refusal names the largest of the first group
    past the limit.  Over Z[..] the top ghost also multiplies each exponent
    by the largest index, and the product may not pass the limit in bits
    either.  Over rings other than their own lift (Z/m, F_q), which
    reduce every value they print, the lifted ghosts together may not pass
    LIFT_BITS_LIMIT bits, whatever the elements."""
    if ring.lift_ring is not ring:
        bits = (ring.size() - 1).bit_length()
        if bits * trunc.member_sum > LIFT_BITS_LIMIT:
            raise bound_overflow(
                f"the lifted ghosts of {bits}-bit elements over member sum {trunc.member_sum}",
                f"{bits * trunc.member_sum} bits", "witt.LIFT_BITS_LIMIT", LIFT_BITS_LIMIT)
        return
    top = trunc.members[-1]
    cap = 1 << (GHOST_BITS_LIMIT // top)
    for elements in groups:
        exp = 0
        if isinstance(ring, PolynomialRing):
            terms = [t for x in elements for t in x.items()]
            elements = [c for _, c in terms]
            exp = max((e for m, _ in terms for _, e in m), default=0)
        else:
            elements = list(elements)
        if elements and (max(elements) >= cap or min(elements) <= -cap):
            bits = max(x.bit_length() for x in elements)
            raise bound_overflow(f"a {bits}-bit component to the power {top}",
                                 f"{bits * top} bits", "witt.GHOST_BITS_LIMIT", GHOST_BITS_LIMIT)
        if exp and (exp * top).bit_length() > GHOST_BITS_LIMIT:
            raise bound_overflow(f"a {exp.bit_length()}-bit exponent times {top}",
                                 f"{(exp * top).bit_length()} bits", "witt.GHOST_BITS_LIMIT",
                                 GHOST_BITS_LIMIT)


def _lifted_ghosts(*vectors: WittVector, scalars: Sequence = ()) -> list[dict]:
    """Ghost components of the vectors, formed in their ring's lift_ring,
    whose elements their components already are, for vectors over one
    truncation set.  A public operation forms those of all its inputs in
    one call, at its start, where a Z[..] lift restarts its count of
    product terms (rings.TERM_LIMIT bounds one operation) and the sizes are
    checked once: first the scalars the operation raises to powers, then
    each vector's components."""
    R = vectors[0].ring
    if isinstance(R, PolynomialRing):
        R.terms = 0
    _check_ghost_bits(R, vectors[0].trunc, scalars, *(a.comps.values() for a in vectors))
    return [_ghosts(R.lift_ring, a.trunc, a.comps) for a in vectors]


def _deghost(L: CoeffRing, trunc: TruncationSet, ghosts: Mapping[int, object],
             error: type[Exception] = FalsificationError) -> dict:
    """The components x_n in L whose ghost components are the given ones.

    Triangular: n*x_n = w_n - sum_{d | n, d < n, d in S} d * x_d^(n/d).
    L is torsion-free, so the solution is unique; a division by n leaving
    a remainder means the ghost vector is not in the image, which for the
    ghost vector of a ring operation falsifies the integrality theorem the
    construction rests on.
    """
    out: dict[int, object] = {}
    for n in trunc:
        q = L.div_int(L.sub(ghosts[n], _lower_sum(L, trunc, out, n)), n)
        if q is None:
            raise error(f"ghost vector is not integral at index {n}")
        out[n] = q
    return out


def _from_lifted_ghosts(trunc: TruncationSet, ring: CoeffRing,
                        ghosts: Mapping[int, object]) -> WittVector:
    comps = _deghost(ring.lift_ring, trunc, ghosts)
    return WittVector(trunc, ring, {d: ring.reduce(comps[d]) for d in trunc})


def ghost(a: WittVector) -> list:
    """All ghost components, in truncation-set order."""
    return [a.ring.reduce(g) for g in _lifted_ghosts(a)[0].values()]


# -- universal polynomials --------------------------------------------------


def universal_poly(op: str, S: TruncationSet, n: int | None = None) -> dict[int, SparsePoly]:
    """Universal polynomials for one operation over one truncation set.

    op is "sum", "product", "neg", or "frobenius" (which needs n); the
    result maps each output index to a polynomial in a_d (and b_d for the
    binary operations): the operation run on generic vectors over Z[a, b].
    """
    if n is not None and op != "frobenius":
        raise InputError(f"only frobenius takes the index n, not {op!r}")
    R = PolynomialRing()
    a = WittVector(S, R, {d: SparsePoly.variable(f"a{d}") for d in S})
    b = WittVector(S, R, {d: SparsePoly.variable(f"b{d}") for d in S})
    if op == "sum":
        out = witt_add(a, b)
    elif op == "product":
        out = witt_mul(a, b)
    elif op == "neg":
        out = witt_neg(a)
    elif op == "frobenius":
        if n is None:
            raise InputError("frobenius needs the index n")
        out = frobenius(n, a)
    else:
        raise InputError(f"unknown operation {op!r}")
    return out.comps


# -- arithmetic -------------------------------------------------------------


def _unary(a: WittVector, f: Callable) -> WittVector:
    """The vector whose lifted ghost components are f of those of a."""
    return _from_lifted_ghosts(
        a.trunc, a.ring, {m: f(g) for m, g in _lifted_ghosts(a)[0].items()}
    )


def _binary(a: WittVector, b: WittVector, f: Callable) -> WittVector:
    a._check_compatible(b)
    ga, gb = _lifted_ghosts(a, b)
    return _from_lifted_ghosts(a.trunc, a.ring, {m: f(ga[m], gb[m]) for m in a.trunc})


def witt_add(a: WittVector, b: WittVector) -> WittVector:
    return _binary(a, b, a.ring.lift_ring.add)


def witt_mul(a: WittVector, b: WittVector) -> WittVector:
    return _binary(a, b, a.ring.lift_ring.mul)


def witt_sub(a: WittVector, b: WittVector) -> WittVector:
    return _binary(a, b, a.ring.lift_ring.sub)


def witt_neg(a: WittVector) -> WittVector:
    return _unary(a, a.ring.lift_ring.neg)


def witt_int(n: int, trunc: TruncationSet, ring: CoeffRing) -> WittVector:
    """The image of the integer n under Z -> W_S(R): every ghost is n."""
    k = ring.lift_ring.from_int(n)
    return _unary(WittVector.zero(trunc, ring), lambda g: k)


def witt_scalar(n: int, a: WittVector) -> WittVector:
    """n-fold additive multiple of a."""
    L = a.ring.lift_ring
    return _unary(a, lambda g: L.scale(n, g))


def witt_pow(a: WittVector, k: int) -> WittVector:
    """k-th Witt power of a, k >= 0."""
    if k < 0:
        raise InputError("negative Witt powers are not defined")
    L = a.ring.lift_ring
    return _unary(a, lambda g: L.pow(g, k))


# -- the standard operators -------------------------------------------------


def teichmuller(r, trunc: TruncationSet, ring: CoeffRing) -> WittVector:
    """[r] = (r, 0, ..., 0)."""
    comps = {d: ring.zero() for d in trunc}
    comps[1] = r
    return WittVector(trunc, ring, comps)


def frobenius(n: int, a: WittVector) -> WittVector:
    """F_n : W_S -> W_{S/n}, ghost_m(F_n a) = ghost_{nm}(a)."""
    if n < 1:
        raise InputError("Frobenius index must be positive")
    T = a.trunc.quotient(n)
    g, = _lifted_ghosts(a)
    return _from_lifted_ghosts(T, a.ring, {m: g[n * m] for m in T})


def verschiebung(n: int, a: WittVector, target: TruncationSet) -> WittVector:
    """V_n : W_S -> W_T, (V_n a)_m = a_{m/n} when n | m and m/n in S.

    The caller supplies the divisor-closed target; it must satisfy
    T/n = S so no component of a is silently dropped.
    """
    if n < 1:
        raise InputError("Verschiebung index must be positive")
    if target.quotient(n) != a.trunc:
        raise InputError(
            f"target {target} does not satisfy T/{n} = {a.trunc}"
        )
    comps = {}
    for m in target:
        if m % n == 0 and (m // n) in a.trunc:
            comps[m] = a.comps[m // n]
        else:
            comps[m] = a.ring.zero()
    return WittVector(target, a.ring, comps)


def twisted_frobenius(n: int, a: WittVector, t) -> WittVector:
    """TF_n(a; t) = F_n(a) - [t]^(n-1) * restrict(a), valued in W_{S/n}.

    t is a ring element; t = ring.one() degenerates to F_n - restrict and
    t = ring.zero() to F_n.  Ghost m of the result is
    w_nm(a) - t^((n-1)m) * w_m(a).
    """
    T = a.trunc.quotient(n)
    L = a.ring.lift_ring
    g, = _lifted_ghosts(a, scalars=[t])
    return _from_lifted_ghosts(
        T, a.ring, {m: L.sub(g[n * m], L.mul(L.pow(t, (n - 1) * m), g[m])) for m in T}
    )


# -- ghost inversion over Z -------------------------------------------------


def from_ghost(values: Sequence[int], trunc: TruncationSet) -> WittVector:
    """Recover the integer Witt vector with the given ghost components.

    Only defined over Z (torsion-free, so the triangular solve is exact
    when solvable); raises InputError when the ghost vector is not in the
    image.
    """
    ring = IntegerRing()
    if len(values) != len(trunc):
        raise InputError("ghost vector length does not match the truncation set")
    comps = _deghost(ring, trunc, dict(zip(trunc, values)), InputError)
    return WittVector(trunc, ring, comps)


def divides_additively(p: int, a: WittVector) -> bool:
    """Whether a = p . z for some z in W_S(Z) (additive p-th multiple).

    Over Z this is decidable through ghosts: p.z has ghost p*ghost(z), so
    divide the ghost vector by p and ask whether it de-ghosts integrally.
    """
    if not isinstance(a.ring, IntegerRing):
        raise InputError("additive divisibility is only decided over Z")
    gh = ghost(a)
    if any(g % p for g in gh):
        return False
    try:
        from_ghost([g // p for g in gh], a.trunc)
    except InputError:
        return False
    return True


# -- kernels ----------------------------------------------------------------


# Most vectors (all_vectors, counted before it starts) or prefixes (the
# pruned search, counted as it goes) a kernel search visits.
KERNEL_LIMIT = 200_000


def all_vectors(trunc: TruncationSet, ring: CoeffRing) -> Iterator[WittVector]:
    """Every Witt vector over a finite ring, in deterministic order."""
    if not ring.is_finite:
        raise InputError(f"cannot enumerate Witt vectors over {ring}")
    total = ring.size() ** len(trunc)
    if total > KERNEL_LIMIT:
        raise bound_overflow("the enumeration", f"{total} vectors",
                             "witt.KERNEL_LIMIT", KERNEL_LIMIT)
    pools = [list(ring.elements()) for _ in trunc]
    for combo in itertools.product(*pools):
        yield WittVector.from_list(trunc, ring, list(combo))


def kernel_enumerate(op: Callable[[WittVector], WittVector],
                     trunc: TruncationSet, ring: CoeffRing) -> list[WittVector]:
    """Brute-force kernel of an additive operator on W_S(R), R finite.

    The result is certified a subgroup exactly (_check_subgroup); when an
    operator that is not additive has a zero set that is not a subgroup,
    the check fails and says so.
    """
    kernel = [a for a in all_vectors(trunc, ring) if op(a).is_zero()]
    _check_subgroup(kernel, trunc, ring)
    return kernel


def _check_subgroup(vectors: list[WittVector], trunc: TruncationSet,
                    ring: CoeffRing) -> None:
    """Exact: from H = {0}, each member g outside H adds the cosets j*g + H, each the last
    plus g, until j*g is back in H.  Every sum must be a member, so H ends as K, a subgroup,
    after at most |K| - 1 + log2|K| sums.  Each member of H keeps the lifted ghosts of the
    sum that reached it, a lift of it, so only each g has its ghosts formed."""
    members = {tuple(v.as_list()): v for v in vectors}
    if (zero := tuple(WittVector.zero(trunc, ring).as_list())) not in members:
        raise FalsificationError("kernel does not contain zero")
    L = ring.lift_ring
    span = {zero: {m: L.zero() for m in trunc}}  # member -> lifted ghosts
    def plus(gh: dict, gg: dict) -> tuple:  # h + g, as witt_add forms it, with its ghosts
        total = {m: L.add(gh[m], gg[m]) for m in trunc}
        if (key := tuple(_from_lifted_ghosts(trunc, ring, total).as_list())) not in members:
            raise FalsificationError("kernel is not closed under addition; operator not additive?")
        return key, total
    for g in (k for k in members if k not in span):
        gg = _lifted_ghosts(members[g])[0]
        coset = list(span.items())  # H, zero first
        while (rep := plus(coset[0][1], gg))[0] not in span:
            coset = [rep] + [plus(gh, gg) for _, gh in coset[1:]]
            span.update(coset)


def _kernel_search(n: int, t, trunc: TruncationSet, ring: CoeffRing) -> Iterator[list]:
    """The component lists of ker(TF_n(-; t)) on W_S(R), R finite, in the
    order of all_vectors, by the search the module docstring describes.
    Depth d forms only the new lifted ghost w_d; when n | d, output
    component m = d/n has ghost w_d - t^((n-1)m) w_m and is solved with
    the lifted output components kept along the path.  KERNEL_LIMIT caps
    the prefixes visited."""
    if not ring.is_finite:
        raise InputError(f"cannot enumerate Witt vectors over {ring}")
    trunc.quotient(n)  # refuses an empty S/n
    limit = KERNEL_LIMIT
    if ring.size() > limit:  # the first level alone visits |R| prefixes
        raise bound_overflow("the kernel search", f"at least {ring.size()} prefixes",
                             "witt.KERNEL_LIMIT", limit)
    L = ring.lift_ring
    pool = list(ring.elements())
    zero = ring.zero()
    S = trunc.members
    x: dict = {}  # components on the path, lift elements as they are, in order of S
    w: dict = {}  # their ghost components
    y: dict = {}  # lifted output components of TF_n
    visited = 0

    def dive(k: int) -> Iterator[list]:
        nonlocal visited
        if k == len(S):
            yield list(x.values())
            return
        d = S[k]
        m = d // n if d % n == 0 else 0
        base = _lower_sum(L, trunc, x, d)
        if m:
            twist, known = L.pow(t, (n - 1) * m), _lower_sum(L, trunc, y, m)
        for r in pool:
            visited += 1
            if visited > limit:
                raise bound_overflow("the kernel search", f"at least {visited} prefixes",
                                     "witt.KERNEL_LIMIT", limit)
            wd = L.add(base, L.scale(d, r))
            if m:
                # n = 1 gives m = d, and w_d - w_d = 0
                ghost_m = L.sub(wd, L.mul(twist, w[m] if m < d else wd))
                q = L.div_int(L.sub(ghost_m, known), m)
                if q is None:
                    raise FalsificationError(f"ghost vector is not integral at index {m}")
                if ring.reduce(q) != zero:
                    continue
                y[m] = q
            x[d], w[d] = r, wd
            yield from dive(k + 1)

    return dive(0)


def twisted_kernel(n: int, t, trunc: TruncationSet, ring: CoeffRing) -> list[WittVector]:
    """ker(TF_n(-; t)) on W_S(R) over a finite ring R, by the pruned
    search of _kernel_search: the members kernel_enumerate finds for
    twisted_frobenius, in the same order."""
    kernel = [WittVector.from_list(trunc, ring, comps)
              for comps in _kernel_search(n, t, trunc, ring)]
    _check_subgroup(kernel, trunc, ring)
    return kernel


def stable_twisted_kernel(n: int, t, trunc: TruncationSet,
                          ring: CoeffRing) -> list[WittVector]:
    """Members of ker(TF_n(-; t)) on W_S that lift to kernel elements one
    truncation level deeper.

    The twisted kernels form an inverse system as the truncation set
    grows; the honest finite-level kernel can overshoot the limit because
    the constraint coming from the next level is invisible.  One extra
    level is enough to stabilize over the finite rings handled here, and
    the enumeration stays exhaustive: search ker(TF_n) on the deepened
    set and project.
    """
    deep = TruncationSet.divisor_closure(
        set(trunc.members) | {n * d for d in trunc}
    )
    keep = [i for i, d in enumerate(deep) if d in trunc]
    found: list[WittVector] = []
    seen: set[tuple] = set()
    for comps in _kernel_search(n, t, deep, ring):
        small = tuple(comps[i] for i in keep)
        if small not in seen:
            seen.add(small)
            found.append(WittVector.from_list(trunc, ring, small))
    _check_subgroup(found, trunc, ring)
    return found
