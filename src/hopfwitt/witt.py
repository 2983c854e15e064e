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
them straight into the result; the ghost map and the solve are one loop
each over the position plan of S, on lists in member order.  The ghost
map is injective on a torsion-free ring, and the operations are given by
universal polynomials with integer coefficients, so the result is the
same as evaluating those polynomials in the ring itself.  A division
leaving a remainder would falsify that integrality theorem, so it raises
FalsificationError.  Before any power is formed, one size check holds
every operation to GHOST_BITS_LIMIT over Z and Z[vars] and LIFT_BITS_LIMIT
over Z/m and F_q, by one measure of its inputs or, in witt_pow, its ghosts.
The universal polynomials themselves are the same computation run on
generic vectors over Z[a_d, b_d].

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
is assigned.  It is affine in a_nm, so the residues that make it zero
solve a linear congruence, and a prefix is extended only by those, looked
up in a table built once per search.  The stable kernel searches the
deepened set and stops each prefix at its first lift past the last
position of S, since one lift settles that the prefix's part in S is
stable; KERNEL_LIMIT counts the residues extended and the congruences
looked up.
Every kernel returned is certified a subgroup exactly, by growing the
span of its members from {0} one coset at a time: at most
|K| - 1 + log2|K| Witt sums, fewer than 2|K|, with |K| already bounded
by KERNEL_LIMIT.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import FalsificationError, InputError, bound_overflow, shown
from .poly import SparsePoly
from .rings import CoeffRing, IntegerRing, MonicQuotientRing, PolynomialRing


# Largest accepted sum of the members of a truncation set.  Over a lift
# the ghost component w_n takes about n times a component's bits, so the
# work of the ghost map and of its inverse grows with this sum.
TRUNC_SUM_LIMIT = 10_000


# Largest accepted bits of a ghost component over Z and Z[vars], as
# _check_size bounds them; their values are printed unreduced, and those of
# a product or a twisted Frobenius reach near twice as many bits, so every
# printed value stays under Python's 4300-digit limit on int/str conversion.
GHOST_BITS_LIMIT = 6000


# Largest accepted bits of all the lifted ghosts together over Z/m and F_q,
# as _check_size bounds them: the lifts are formed unreduced, and the ghost
# map and its inverse grow with these bits.
LIFT_BITS_LIMIT = 1_000_000


def divisors(n: int) -> list[int]:
    """The positive divisors of n in increasing order, by trial division up
    to sqrt(n); n over TRUNC_SUM_LIMIT, whose set would pass it, is refused
    before any division."""
    if n > TRUNC_SUM_LIMIT:
        raise bound_overflow("a truncation set", f"member sum {shown(n)} or more",
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
    """A finite divisor-closed set of positive integers, with its member
    sum and the position plan of the ghost route: index maps each member
    to its position, and plan holds (i, n, terms) for each position i > 0,
    with one (position of d, d, n/d) in terms per term d * x_d^(n/d) of
    w_n, 1 < d < n.  It is immutable, so each quotient S/n and each
    deepened set is built once."""

    __slots__ = ("members", "member_sum", "index", "plan", "_quotients", "_deepened")

    def __init__(self, members: Iterable[int]):
        ms = sorted(set(members))
        if not ms:
            raise InputError("truncation set must be nonempty")
        if ms[0] < 1:
            raise InputError("truncation set members must be positive")
        total = sum(ms)
        if total > TRUNC_SUM_LIMIT:
            raise bound_overflow("a truncation set", f"member sum {shown(total)}",
                                 "witt.TRUNC_SUM_LIMIT", TRUNC_SUM_LIMIT)
        self.index = index = {n: i for i, n in enumerate(ms)}
        plan = []
        for i, n in enumerate(ms):
            ds = divisors(n)
            for d in ds[:-1]:
                if d not in index:
                    raise InputError(f"truncation set is not divisor-closed: {d} divides {n}")
            if i:
                plan.append((i, n, tuple((index[d], d, n // d) for d in ds[1:-1])))
        self.plan = tuple(plan)
        self.members = tuple(ms)
        self.member_sum = total
        self._quotients: dict[int, TruncationSet] = {}
        self._deepened: dict[int, TruncationSet] = {}

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
                raise InputError(f"S/{shown(n)} is empty: no member of S is a multiple of it")
            q = self._quotients[n] = TruncationSet(ms)
        return q

    def deepened(self, n: int) -> TruncationSet:
        """The divisor closure of S and nS, on which the stable kernel of
        TF_n is searched."""
        if (deep := self._deepened.get(n)) is None:
            deep = self._deepened[n] = TruncationSet.divisor_closure(
                set(self.members) | {n * d for d in self.members})
        return deep

    def __contains__(self, n: int) -> bool:
        return n in self.index

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
        members = trunc.members
        # the members are distinct, so equal sizes and every member present mean equal keys
        if len(comps) != len(members) or not all(map(comps.__contains__, members)):
            missing = [d for d in members if d not in comps]
            extra = [d for d in comps if d not in trunc]
            raise InputError(
                f"components must match the truncation set {trunc}: "
                f"missing {missing}, extra {extra}"
            )
        self.trunc = trunc
        self.ring = ring
        self.comps = {d: comps[d] for d in members}

    @classmethod
    def zero(cls, trunc: TruncationSet, ring: CoeffRing) -> WittVector:
        return cls(trunc, ring, {d: ring.zero() for d in trunc})

    @classmethod
    def from_list(cls, trunc: TruncationSet, ring: CoeffRing,
                  values: Sequence) -> WittVector:
        if len(values) != len(trunc.members):
            raise InputError(
                f"need {len(trunc)} components for {trunc}, got {len(values)}"
            )
        # one value per member, so the keys are S's: no second check or copy
        v = cls.__new__(cls)
        v.trunc, v.ring, v.comps = trunc, ring, dict(zip(trunc.members, values))
        return v

    def as_list(self) -> list:
        return list(self.comps.values())  # every constructor keys comps in the order of S

    def restrict(self, target: TruncationSet) -> WittVector:
        """Drop components outside a smaller truncation set."""
        for d in target:
            if d not in self.trunc:
                raise InputError(f"cannot restrict: {d} missing from {self.trunc}")
        return WittVector(target, self.ring, {d: self.comps[d] for d in target})

    def is_zero(self) -> bool:
        comps = list(self.comps.values())
        return comps.count(self.ring.zero()) == len(comps)

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

    def to_json_obj(self) -> dict:
        return {
            "trunc": list(self.trunc),
            "ring": self.ring.to_json_obj(),
            "coeffs": {str(d): self.ring.element_str(self.comps[d]) for d in self.trunc},
        }


# -- the ghost route -------------------------------------------------------


def _lower_sum(pow: Callable, add: Callable, scale: Callable, v: Sequence, entry: tuple):
    """sum_{d | n, d < n, d in S} d * v_d^(n/d) for the plan entry
    (i, n, terms) of S, with v by position and the lift's pow, add and
    scale: the ghost component w_n without its last term n * v_n.  The
    first divisor is 1, at position 0 of every set, so the sum starts from
    v_1^n."""
    _, n, terms = entry
    acc = pow(v[0], n)
    for j, d, e in terms:
        acc = add(acc, scale(d, pow(v[j], e)))
    return acc


def _ghost_map(L: CoeffRing, trunc: TruncationSet, comps: Sequence) -> list:
    """w_n = sum_{d | n, d in S} d * x_d^(n/d) in L, by position in S;
    w_1 = x_1.  This loop and _solve's, which every operation runs, write
    out _lower_sum's sum, since a call per member costs them measurably."""
    pow, add, scale = L.pow, L.add, L.scale
    x1 = comps[0]
    out = [x1]
    for i, n, terms in trunc.plan:
        acc = pow(x1, n)
        for j, d, e in terms:
            acc = add(acc, scale(d, pow(comps[j], e)))
        out.append(add(acc, scale(n, comps[i])))
    return out


def _solve(L: CoeffRing, trunc: TruncationSet, ghosts: Sequence,
           error: type[Exception] = FalsificationError) -> list:
    """The components x_n in L, in member order, whose ghost components
    are the given ones.

    Triangular: x_1 = w_1 and, for n > 1,
    n*x_n = w_n - sum_{d | n, d < n, d in S} d * x_d^(n/d).
    L is torsion-free, so the solution is unique; a division by n leaving
    a remainder means the ghost vector is not in the image, which for the
    ghost vector of a ring operation falsifies the integrality theorem the
    construction rests on.
    """
    pow, add, scale, sub, div_int = L.pow, L.add, L.scale, L.sub, L.div_int
    x1 = ghosts[0]
    out = [x1]
    for i, n, terms in trunc.plan:
        acc = pow(x1, n)
        for j, d, e in terms:
            acc = add(acc, scale(d, pow(out[j], e)))
        if (q := div_int(sub(ghosts[i], acc), n)) is None:
            raise error(f"ghost vector is not integral at index {n}")
        out.append(q)
    return out


def _size(x) -> int:
    """The size of a lift element: 0 for 0 and +-1, whose powers keep
    their size; else the bit length of |x| for an int, and of the sum of
    the absolute values of its integers for a Z[w]/(f) tuple or a Z[..]
    polynomial.  A k-th power is at most k times as large, in Z[w]/(f)
    plus (k - 1) times the lift's growth_bits, the growth of w^j's
    reduction."""
    if isinstance(x, int):
        return x.bit_length() if x > 1 or x < -1 else 0
    const, cs = ((x.coefficient(()), [c for _, c in x.items()]) if isinstance(x, SparsePoly)
                 else (x[0], x))
    total = sum(map(abs, cs))
    return 0 if total == abs(const) <= 1 else total.bit_length()


def _check_size(ring: CoeffRing, trunc: TruncationSet, elements: Iterable,
                vectors: Sequence[WittVector] = (), k: int | None = None) -> None:
    """Refuse, before any is formed, powers of lift elements that would
    pass a size limit.  With k, the elements are ghosts that witt_pow
    raises to the power k; without, they are the scalars of an operation
    on vectors over trunc, whose ghost map raises them and the vectors'
    components to powers up to max S, which is then the power.

    Over Z and Z[..], which print their values unreduced, the largest
    _size times the power may not pass GHOST_BITS_LIMIT; over Z[..] the
    bits of the largest exponent times the power may not either.  Over
    Z/m and F_q, which reduce what they print, the lifted ghosts together
    may not pass LIFT_BITS_LIMIT: k times the sum of the ghosts' sizes,
    each size but 0 plus growth_bits over Z[w]/(f), or
    max(bits(|R| - 1), each scalar's size) times the member sum, the
    components, at most |R| - 1 each, counted without being read.  Any
    other ring that is its own lift, such as a bare Z[w]/(f), has no bound
    here and is refused."""
    if ring.lift_ring is not ring:
        if k is None:
            bits = (ring.size() - 1).bit_length()
            for x in elements:  # a loop, which costs least where there is no scalar
                bits = max(bits, _size(x))
            total = bits * trunc.member_sum
        else:
            L = ring.lift_ring
            growth = L.growth_bits if isinstance(L, MonicQuotientRing) else 0
            total = sum(s + growth for s in map(_size, elements) if s) * k
        if total > LIFT_BITS_LIMIT:
            what = (f"the lifted ghosts of {bits}-bit elements over member sum {trunc.member_sum}"
                    if k is None else f"the lifted ghosts to the power {k}")
            raise bound_overflow(what, f"{total} bits", "witt.LIFT_BITS_LIMIT", LIFT_BITS_LIMIT)
        return
    power = trunc.members[-1] if k is None else k
    xs = list(itertools.chain(elements, *[a.comps.values() for a in vectors]))
    if isinstance(ring, IntegerRing):
        top = _size(max(map(abs, xs), default=0))  # at C level: the size grows with |x|
    elif isinstance(ring, PolynomialRing):
        top = max(map(_size, xs), default=0)
        exp = max((e for x in xs for m, _ in x.items() for _, e in m), default=0)
        if (exp * power).bit_length() > GHOST_BITS_LIMIT:
            raise bound_overflow(f"a {exp.bit_length()}-bit exponent times {power}",
                                 f"{(exp * power).bit_length()} bits", "witt.GHOST_BITS_LIMIT",
                                 GHOST_BITS_LIMIT)
    else:
        raise InputError(f"no Witt vectors over the ring {type(ring).__name__}: "
                         "the coefficient ring must be Z, Z/m, F_q or Z[..]")
    if top * power > GHOST_BITS_LIMIT:
        noun = "component" if k is None else "ghost component"
        raise bound_overflow(f"a {top}-bit {noun} to the power {power}", f"{top * power} bits",
                             "witt.GHOST_BITS_LIMIT", GHOST_BITS_LIMIT)


def _lifted_ghosts(*vectors: WittVector, scalars: Sequence = ()) -> list[list]:
    """Ghost lists of the vectors, formed in their ring's lift_ring, whose
    elements their components already are, for vectors over one truncation
    set.  A public operation forms those of all its inputs in one call, at
    its start, where a Z[..] lift restarts its count of product terms
    (rings.TERM_LIMIT bounds one operation) and _check_size sizes the
    scalars, lift elements the operation raises to powers or multiplies
    by, on every ring, with the vectors' components over Z and Z[..]; over
    Z/m and F_q it counts the components without reading them."""
    R, trunc = vectors[0].ring, vectors[0].trunc
    if isinstance(R, PolynomialRing):
        R.terms = 0
    _check_size(R, trunc, scalars, vectors)
    return [_ghost_map(R.lift_ring, trunc, tuple(a.comps.values())) for a in vectors]


def _from_lifted_ghosts(trunc: TruncationSet, ring: CoeffRing, ghosts: Sequence) -> WittVector:
    """The vector over ring with the given lifted ghost list: the solved
    components, reduced straight into the result's dict."""
    v, reduce = WittVector.__new__(WittVector), ring.reduce
    v.trunc, v.ring = trunc, ring
    v.comps = {d: reduce(x) for d, x in zip(trunc.members, _solve(ring.lift_ring, trunc, ghosts))}
    return v


def ghost(a: WittVector) -> list:
    """All ghost components, in truncation-set order."""
    return list(map(a.ring.reduce, _lifted_ghosts(a)[0]))


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


def _unary(a: WittVector, f: Callable, scalars: Sequence = ()) -> WittVector:
    """The vector whose lifted ghost components are f of those of a; the
    scalars f uses are sized with a, on every ring."""
    g, = _lifted_ghosts(a, scalars=scalars)
    return _from_lifted_ghosts(a.trunc, a.ring, list(map(f, g)))


def _binary(a: WittVector, b: WittVector, f: Callable) -> WittVector:
    a._check_compatible(b)
    ga, gb = _lifted_ghosts(a, b)
    return _from_lifted_ghosts(a.trunc, a.ring, list(map(f, ga, gb)))


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
    return _unary(WittVector.zero(trunc, ring), lambda g: k, scalars=[k])


def witt_scalar(n: int, a: WittVector) -> WittVector:
    """n-fold additive multiple of a."""
    L = a.ring.lift_ring
    return _unary(a, lambda g: L.scale(n, g), scalars=[L.from_int(n)])


def witt_pow(a: WittVector, k: int) -> WittVector:
    """k-th Witt power of a, k >= 0."""
    if k < 0:
        raise InputError("negative Witt powers are not defined")
    pow = a.ring.lift_ring.pow
    g, = _lifted_ghosts(a)
    _check_size(a.ring, a.trunc, g, k=k)
    return _from_lifted_ghosts(a.trunc, a.ring, [pow(x, k) for x in g])


# -- the standard operators -------------------------------------------------


def teichmuller(r, trunc: TruncationSet, ring: CoeffRing) -> WittVector:
    """[r] = (r, 0, ..., 0)."""
    return WittVector.from_list(trunc, ring, [r] + [ring.zero()] * (len(trunc) - 1))


def frobenius(n: int, a: WittVector) -> WittVector:
    """F_n : W_S -> W_{S/n}, ghost_m(F_n a) = ghost_{nm}(a)."""
    if n < 1:
        raise InputError("Frobenius index must be positive")
    T = a.trunc.quotient(n)
    g, = _lifted_ghosts(a)
    at = a.trunc.index
    return _from_lifted_ghosts(T, a.ring, [g[at[n * m]] for m in T.members])


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
    zero = a.ring.zero()  # T/n = S, so m/n is in S whenever n | m
    return WittVector.from_list(target, a.ring, [a.comps[m // n] if m % n == 0 else zero
                                                 for m in target.members])


def twisted_frobenius(n: int, a: WittVector, t) -> WittVector:
    """TF_n(a; t) = F_n(a) - [t]^(n-1) * restrict(a), valued in W_{S/n}.

    t is a ring element; t = ring.one() degenerates to F_n - restrict and
    t = ring.zero() to F_n.  Ghost m of the result is
    w_nm(a) - t^((n-1)m) * w_m(a).
    """
    T = a.trunc.quotient(n)
    L, at = a.ring.lift_ring, a.trunc.index
    g, = _lifted_ghosts(a, scalars=[t])
    return _from_lifted_ghosts(
        T, a.ring, [L.sub(g[at[n * m]], L.mul(L.pow(t, (n - 1) * m), g[at[m]])) for m in T.members]
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
    return WittVector.from_list(trunc, ring, _solve(ring, trunc, values, InputError))


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


# Most vectors all_vectors enumerates (counted before it starts), or units
# of work of the pruned search (counted as it goes): one per residue a
# prefix is extended by, one per congruence a prefix looks up.
KERNEL_LIMIT = 200_000


def all_vectors(trunc: TruncationSet, ring: CoeffRing) -> Iterator[WittVector]:
    """Every Witt vector over a finite ring, in deterministic order."""
    if not ring.is_finite:
        raise InputError(f"cannot enumerate Witt vectors over {ring}")
    total = ring.size() ** len(trunc)
    if total > KERNEL_LIMIT:
        raise bound_overflow("the enumeration", f"{shown(total)} vectors",
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
    after at most |K| - 1 + log2|K| sums.  Each member of H keeps the lifted ghost list of
    the sum that reached it, a lift of it, so only each g has its ghosts formed."""
    members = dict.fromkeys(tuple(v.as_list()) for v in vectors)
    if (zero := (ring.zero(),) * len(trunc)) not in members:
        raise FalsificationError("kernel does not contain zero")
    L, reduce = ring.lift_ring, ring.reduce
    span = {zero: [L.zero()] * len(trunc)}  # member -> lifted ghosts
    def plus(gh: list, gg: list) -> tuple:  # h + g, as witt_add forms it, with its ghosts
        total = list(map(L.add, gh, gg))
        if (key := tuple(map(reduce, _solve(L, trunc, total)))) not in members:
            raise FalsificationError("kernel is not closed under addition; operator not additive?")
        return key, total
    for g in (k for k in members if k not in span):
        gg = _ghost_map(L, trunc, g)
        coset = list(span.items())  # H, zero first
        while (rep := plus(coset[0][1], gg))[0] not in span:
            coset = [rep] + [plus(gh, gg) for _, gh in coset[1:]]
            span.update(coset)


def _kernel_search(n: int, t, trunc: TruncationSet, ring: CoeffRing,
                   last: int) -> Iterator[list]:
    """The component lists of ker(TF_n(-; t)) on W_S(R), R finite, in the
    order of all_vectors, by the search the module docstring describes,
    except that a prefix through position last of S yields only its first
    completion: past the last position a caller keeps, one member settles
    the prefix.  Depth k forms only the new lifted ghost w_d, d = S[k], by
    the plan of S; when n | d, output component m = d/n has ghost
    w_d - t^((n-1)m) w_m and is solved by the plan of S/n with the lifted
    output components kept along the path.

    That lifted component is affine in the residue r at d: q(r) = q(0) +
    c*r, with c = n for n > 1 (w_d = ... + d*r enters once, divided by m)
    and c = 0 for n = 1 (w_d enters twice, with t^0 = 1).  So a prefix
    forms q(0) once, whose integrality is that of every q(r), and takes
    the residues with reduce(c*r) = reduce(-q(0)) from a table built once
    per search, in the order of ring.elements().  KERNEL_LIMIT caps the
    work: one unit per residue a prefix is extended by and one per
    congruence looked up, so a prefix with no solution still costs one."""
    if not ring.is_finite:
        raise InputError(f"cannot enumerate Witt vectors over {ring}")
    T = trunc.quotient(n)  # refuses an empty S/n
    limit = KERNEL_LIMIT

    def refuse(count: int):
        raise bound_overflow("the kernel search", f"at least {shown(count)} units of work",
                             "witt.KERNEL_LIMIT", limit)

    if ring.size() > limit:  # the first level alone extends the empty prefix |R| times
        refuse(ring.size())
    L, reduce = ring.lift_ring, ring.reduce
    pow, add, scale, sub, mul, neg, div_int = L.pow, L.add, L.scale, L.sub, L.mul, L.neg, L.div_int
    pool, zero, size = list(ring.elements()), ring.zero(), len(trunc)
    # for each position of S holding some n*m: the positions of m in S and in S/n, m, t^((n-1)m)
    outputs = {trunc.index[n * m]: (trunc.index[m], j, m, pow(t, (n - 1) * m))
               for j, m in enumerate(T.members)}
    c = n if n > 1 else 0
    solutions: dict = {}  # reduce(c*r) -> the residues r with that image, in pool order
    for r in pool:
        solutions.setdefault(reduce(scale(c, r)), []).append(r)
    # by position: the path's components as lift elements, their ghosts, TF_n's lifted outputs
    x, w, y, visited = [zero] * size, [zero] * size, [zero] * len(T), 0

    def dive(k: int) -> Iterator[list]:
        nonlocal visited
        if k == size:
            yield x.copy()
            return
        d = trunc.members[k]
        base = _lower_sum(pow, add, scale, x, trunc.plan[k - 1]) if k else zero  # w_1 = x_1
        residues = pool
        if out := outputs.get(k):
            i, j, m, twist = out
            ghost0 = sub(base, mul(twist, w[i] if i < k else base))  # at r = 0, w_d = base
            q0 = (div_int(sub(ghost0, _lower_sum(pow, add, scale, y, T.plan[j - 1])), m)
                  if j else ghost0)  # y_1 is its own ghost
            if q0 is None:
                raise FalsificationError(f"ghost vector is not integral at index {m}")
            visited += 1
            if visited > limit:
                refuse(visited)
            residues = solutions.get(reduce(neg(q0)), ())
        for r in residues:
            visited += 1
            if visited > limit:
                refuse(visited)
            if out:
                y[j] = add(q0, scale(c, r))
            x[k], w[k] = r, add(base, scale(d, r))
            yield from dive(k + 1) if k != last else itertools.islice(dive(k + 1), 1)

    return dive(0)


def twisted_kernel(n: int, t, trunc: TruncationSet, ring: CoeffRing) -> list[WittVector]:
    """ker(TF_n(-; t)) on W_S(R) over a finite ring R, by the pruned
    search of _kernel_search: the members kernel_enumerate finds for
    twisted_frobenius, in the same order."""
    kernel = [WittVector.from_list(trunc, ring, comps)
              for comps in _kernel_search(n, t, trunc, ring, len(trunc) - 1)]
    _check_subgroup(kernel, trunc, ring)
    return kernel


def stable_twisted_kernel(n: int, t, trunc: TruncationSet,
                          ring: CoeffRing) -> list[WittVector]:
    """Members of ker(TF_n(-; t)) on W_S that lift to kernel elements one
    truncation level deeper.

    The twisted kernels form an inverse system as the truncation set
    grows; the honest finite-level kernel can overshoot the limit because
    the constraint coming from the next level is invisible.  One extra
    level is enough to stabilize over the finite rings handled here: search
    ker(TF_n) on the deepened set and project.  One lift settles that a
    kept part is stable, so the search takes only the first completion of
    each prefix through the last kept position; a member of the deepened
    set outside S may still come before that position, and the repeats
    it brings are dropped, so the order is that of the full projection.
    """
    deep = trunc.deepened(n)
    keep = [deep.index[d] for d in trunc]
    found: list[WittVector] = []
    seen: set[tuple] = set()
    for comps in _kernel_search(n, t, deep, ring, keep[-1]):
        small = tuple(comps[i] for i in keep)
        if small not in seen:
            seen.add(small)
            found.append(WittVector.from_list(trunc, ring, small))
    _check_subgroup(found, trunc, ring)
    return found
