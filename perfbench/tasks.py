"""Seeded task lists for the in-process workloads, with output checks.

Each workload builder returns ``(warmups, tasks)``.  A warm-up is a call
made during set-up so that lazy work (universal polynomials, the Int(Z)
caches) lands in ``setup_s``; a task is one timed call.  The seed fixes
the inputs; the shape of each list (task kinds, rings, truncation sets,
degrees, supports, integer sizes) is the same for every seed, so seeds
vary values, not cost.

Checks do not reuse the code under test where an independent route
exists: every Witt component is recomputed here on integer lifts (class
Lift), and binomial and deformed-basis values from their definitions.
Only the public API that ROADMAP items 2-5 keep is called.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable

from common import Task
from hopfwitt import filtration, homology, intz, witt
from hopfwitt.rings import GaloisField, IntegerRing, ZModRing


# -- independent arithmetic ---------------------------------------------


class Lift:
    """Exact Witt vector arithmetic on integer lifts, used only by the checks.

    Every Witt operation is given by polynomials with integer coefficients,
    so it commutes with reduction from Z to Z/m and from Z[y] to
    F_q = F_p[y]/(f).  The checks lift the inputs (components in [0, m), or
    polynomials in y with coefficients in [0, p)), combine ghost components
    there, where the ghost map is injective, recover every component with
    a_n = (w_n - sum over d | n, d < n, of d * a_d^(n/d)) / n, and reduce.
    An element of Z[y] is a tuple of coefficients, lowest degree first; Z
    and Z/m lift to constants.
    """

    def __init__(self, ring):
        obj = ring.to_json_obj()
        self.kind = obj["kind"]
        if self.kind == "Zmod":
            self.m = obj["m"]
        elif self.kind == "Fq":
            self.p, self.k, self.modulus = obj["p"], obj["k"], obj["modulus"]

    def lift(self, a) -> tuple:
        return tuple(a) if self.kind == "Fq" else (a,)

    def reduce(self, x: tuple):
        if self.kind == "Z":
            return x[0]
        if self.kind == "Zmod":
            return x[0] % self.m
        out = [c % self.p for c in x] + [0] * self.k
        # divide by the monic modulus from the top degree down
        for top in range(len(out) - 1, self.k - 1, -1):
            c = out[top]
            if c:
                for i, mc in enumerate(self.modulus):
                    out[top - self.k + i] = (out[top - self.k + i] - c * mc) % self.p
        return tuple(out[:self.k])

    @staticmethod
    def add(a: tuple, b: tuple) -> tuple:
        if len(a) < len(b):
            a, b = b, a
        return tuple(x + (b[i] if i < len(b) else 0) for i, x in enumerate(a))

    @staticmethod
    def scale(c: int, a: tuple) -> tuple:
        return tuple(c * x for x in a)

    @staticmethod
    def mul(a: tuple, b: tuple) -> tuple:
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return tuple(out)

    def pow(self, a: tuple, e: int) -> tuple:
        out = (1,)
        for _ in range(e):
            out = self.mul(out, a)
        return out

    def ghost(self, trunc, comps: dict) -> dict:
        """w_n = sum over d | n, d in S, of d * a_d^(n/d), on lifts."""
        lifted = {d: self.lift(comps[d]) for d in trunc}
        out = {}
        for n in trunc:
            acc = (0,)
            for d in trunc:
                if n % d == 0:
                    acc = self.add(acc, self.scale(d, self.pow(lifted[d], n // d)))
            out[n] = acc
        return out

    def components(self, trunc, ghosts: dict) -> dict:
        """The reduced components of the lifted vector with these ghosts."""
        comps: dict = {}
        for n in sorted(trunc):
            rest = ghosts[n]
            for d in comps:
                if n % d == 0:
                    rest = self.add(rest, self.scale(-d, self.pow(comps[d], n // d)))
            quotients = [divmod(c, n) for c in rest]
            if any(r for _, r in quotients):
                raise ArithmeticError(f"ghost component {n} is not divisible by {n}")
            comps[n] = tuple(q for q, _ in quotients)
        return {n: self.reduce(a) for n, a in comps.items()}


def binom(a: int, n: int) -> int:
    """C(a, n) for any integer a, from math.comb."""
    if a >= 0:
        return math.comb(a, n)
    return (-1) ** n * math.comb(n - a - 1, n)


def intz_value(f, a: int) -> int:
    return sum(c * binom(a, n) for n, c in f.items())


def drinfeld_value(n: int, x: Fraction, t: Fraction) -> Fraction:
    """b_n(x, t) = x (x - t) ... (x - (n-1) t) / n!."""
    out = Fraction(1)
    for i in range(n):
        out *= x - i * t
    return out / math.factorial(n)


def t_value(p, t: Fraction) -> Fraction:
    """A polynomial in t, evaluated from its terms."""
    total = Fraction(0)
    for mono, c in p.items():
        total += c * t ** dict(mono).get("t", 0)
    return total


def _first_failure(checks) -> str | None:
    for ok, message in checks:
        if not ok:
            return message
    return None


# -- witt-arith ---------------------------------------------------------

RINGS = {
    "Z": IntegerRing(),
    "Z/8": ZModRing(8),
    "Z/9": ZModRing(9),
    "F4": GaloisField(2, 2),
    "F9": GaloisField(3, 2),
}
TRUNCS = {
    "S12": (1, 2, 3, 4, 6, 12),
    "S16": (1, 2, 4, 8, 16),
    "S27": (1, 3, 9, 27),
    "S24": (1, 2, 3, 4, 6, 8, 12, 24),
}
# (Frobenius / twisted index, Verschiebung index) per truncation set
TRUNC_INDEX = {"S12": (2, 3), "S16": (2, 4), "S27": (3, 9), "S24": (2, 3)}
# Over F_q the 24-set costs seconds per product; it runs over Z, Z/8, Z/9.
WITT_COMBOS = [(r, s) for s in TRUNCS for r in RINGS
               if not (s == "S24" and r in ("F4", "F9"))]
# (truncation set, ring, index n = p): W_{1,p} and W_{1,2,4} kernels
KERNEL_CASES = [
    ((1, 2), GaloisField(2, 1), 2),
    ((1, 3), GaloisField(3, 1), 3),
    ((1, 2), GaloisField(2, 2), 2),
    ((1, 3), ZModRing(9), 3),
    ((1, 2, 4), ZModRing(8), 2),
    ((1, 2, 4), GaloisField(2, 2), 2),
    ((1, 3), GaloisField(3, 2), 3),
]
# |stable kernel| at t = 1 over W_{1,p}(F_2), W_{1,p}(F_3), W_{1,p}(F_4)
STABLE_CARDINALITY = {("F_2", (1, 2)): 4, ("F_3", (1, 3)): 9, ("F_4", (1, 2)): 4}


def _element(rng: random.Random, ring):
    """A seeded ring element; integers keep two digits so that their
    powers, and the cost of big-integer arithmetic, do not vary by seed."""
    if isinstance(ring, IntegerRing):
        return rng.choice([-1, 1]) * rng.randint(50, 99)
    return rng.choice(list(ring.elements()))


def _vector(rng, trunc, ring):
    return witt.WittVector.from_list(trunc, ring, [_element(rng, ring) for _ in trunc])


def _witt_text(v) -> str:
    return f"{v.trunc}{v}"


def _quotient(trunc, n: int) -> tuple:
    """S/n = {m : nm in S}, the truncation set F_n and TF_n land on."""
    return tuple(m for m in trunc if n * m in trunc)


def _twisted_ghosts(L, n, t, trunc, comps) -> dict:
    """Lifted ghost components of TF_n(a; t): w_nm(a) - t^((n-1)m) w_m(a)."""
    g, tl = L.ghost(trunc, comps), L.lift(t)
    return {m: L.add(g[n * m], L.scale(-1, L.mul(L.pow(tl, (n - 1) * m), g[m])))
            for m in _quotient(trunc, n)}


def _witt_task(kind, run, L, out_trunc, ghosts) -> Task:
    """A Witt task whose check compares every component of the output with
    the same operation done on lifts; ghosts() gives the lifted result's
    ghost components."""
    def check(out):
        if tuple(out.trunc) != tuple(out_trunc):
            return f"{kind}: result on {out.trunc}, expected {out_trunc}"
        want = L.components(out_trunc, ghosts())
        bad = [m for m in out_trunc if out.comps[m] != want[m]]
        return f"{kind}: components differ at {bad}" if bad else None
    return Task(kind, run, check, _witt_text)


def _witt_tasks(rng, ring_name, trunc_name) -> list[Task]:
    ring = RINGS[ring_name]
    S = TRUNCS[trunc_name]
    L = Lift(ring)
    n, v = TRUNC_INDEX[trunc_name]
    TS = witt.TruncationSet(S)
    a, b = _vector(rng, TS, ring), _vector(rng, TS, ring)
    Sv = _quotient(S, v)
    c = _vector(rng, witt.TruncationSet(Sv), ring)
    t = _element(rng, ring)
    tag = f"{ring_name}:{trunc_name}"

    def ga():
        return L.ghost(S, a.comps)

    def combine(op):
        def ghosts():
            x, y = ga(), L.ghost(S, b.comps)
            return {m: op(x[m], y[m]) for m in S}
        return ghosts

    def versch():
        gc = L.ghost(Sv, c.comps)
        return {m: L.scale(v, gc[m // v]) if m % v == 0 else (0,) for m in S}

    def ghost_check(out):
        want = [L.reduce(w) for w in ga().values()]
        return None if list(out) == want else f"ghost {tag}: components differ"

    tasks = [
        _witt_task(f"witt_add {tag}", lambda: witt.witt_add(a, b), L, S,
                   combine(L.add)),
        _witt_task(f"witt_mul {tag}", lambda: witt.witt_mul(a, b), L, S,
                   combine(L.mul)),
        _witt_task(f"witt_sub {tag}", lambda: witt.witt_sub(a, b), L, S,
                   combine(lambda x, y: L.add(x, L.scale(-1, y)))),
        _witt_task(f"frobenius {tag}", lambda: witt.frobenius(n, a), L, _quotient(S, n),
                   lambda: {m: ga()[n * m] for m in _quotient(S, n)}),
        _witt_task(f"verschiebung {tag}", lambda: witt.verschiebung(v, c, TS), L, S,
                   versch),
        _witt_task(f"twisted_frobenius {tag}", lambda: witt.twisted_frobenius(n, a, t),
                   L, _quotient(S, n), lambda: _twisted_ghosts(L, n, t, S, a.comps)),
        Task(f"ghost {tag}", lambda: witt.ghost(a), ghost_check, repr),
    ]
    if trunc_name == "S24":  # a second product, see witt_arith
        a2, b2 = _vector(rng, TS, ring), _vector(rng, TS, ring)

        def product2():
            x, y = L.ghost(S, a2.comps), L.ghost(S, b2.comps)
            return {m: L.mul(x[m], y[m]) for m in S}
        tasks.append(_witt_task(f"witt_mul {tag}", lambda: witt.witt_mul(a2, b2), L, S,
                                product2))
    return tasks


def _kernel_check(kind, n, t, S, ring, expected_size):
    L = Lift(ring)
    zero = L.reduce((0,))

    def maps_to_zero(member):
        image = L.components(_quotient(S, n), _twisted_ghosts(L, n, t, S, member.comps))
        return all(x == zero for x in image.values())

    def check(members):
        zeros = [m for m in members if all(x == zero for x in m.comps.values())]
        total = ring.size() ** len(S)
        return _first_failure([
            (len(zeros) == 1, f"{kind}: zero vector missing or repeated"),
            (total % len(members) == 0,
             f"{kind}: {len(members)} members do not divide {total}"),
            (expected_size is None or len(members) == expected_size,
             f"{kind}: {len(members)} members, expected {expected_size}"),
            (all(maps_to_zero(m) for m in members),
             f"{kind}: a member does not map to zero"),
        ])
    return check


def _kernel_tasks(rng, trunc, ring, n) -> tuple[list[Task], list[Callable]]:
    """Both kernels at t = 1 (TF_n = F_n - restriction); the kernel size
    sets the cost of the subgroup check, so t is not seeded."""
    S = witt.TruncationSet(trunc)
    t = ring.one()
    tag = f"{ring}:{list(trunc)}"
    # the deepened set the stable search runs on, for the warm-up
    deep = witt.TruncationSet.divisor_closure(set(trunc) | {n * d for d in trunc})
    a, b = _vector(rng, S, ring), _vector(rng, deep, ring)
    warm = [lambda: witt.twisted_frobenius(n, a, t),
            lambda: witt.twisted_frobenius(n, b, t)]
    stable_size = STABLE_CARDINALITY.get((str(ring), tuple(trunc)))
    tasks = [
        Task(f"kernel_enumerate {tag}",
             lambda: witt.kernel_enumerate(
                 lambda x: witt.twisted_frobenius(n, x, t), S, ring),
             _kernel_check(f"kernel_enumerate {tag}", n, t, trunc, ring, None),
             lambda out: repr([str(v) for v in out])),
        Task(f"stable_twisted_kernel {tag}",
             lambda: witt.stable_twisted_kernel(n, t, S, ring),
             _kernel_check(f"stable_twisted_kernel {tag}", n, t, trunc, ring,
                           stable_size),
             lambda out: repr([str(v) for v in out])),
    ]
    return tasks, warm


def witt_arith(seed: int):
    """143 tasks.  The 24-set has two products per ring, so that exactly
    ten tasks are slower than kernel_enumerate on W_{1,2,4}(Z/8): the tail
    (the 11th slowest) is that one task, well apart from its neighbours,
    and not the slowest of the six near-equal 24-set sums and differences,
    whose maximum jumps from run to run."""
    rng = random.Random(seed)
    tasks: list[Task] = []
    warmups: list[Callable] = []
    for ring_name, trunc_name in WITT_COMBOS:
        group = _witt_tasks(rng, ring_name, trunc_name)
        tasks.extend(group)
        warm = _witt_tasks(random.Random(rng.random()), ring_name, trunc_name)
        warmups.extend(task.run for task in warm)
    for trunc, ring, n in KERNEL_CASES:
        group, warm = _kernel_tasks(rng, trunc, ring, n)
        tasks.extend(group)
        warmups.extend(warm)
    rng.shuffle(tasks)
    return warmups, tasks


# -- homology-dense -----------------------------------------------------


def truncated_algebra(p: int):
    """Z[x]/x^p, deg x = 2, weight 1, through the public constructor."""
    def label(k):
        return "1" if k == 0 else ("x" if k == 1 else f"x{k}")
    basis = [(label(k), 2 * k, k) for k in range(p)]
    products = {(label(a), label(b)): ({label(a + b): 1} if a + b < p else {})
                for a in range(p) for b in range(p)}
    return homology.GradedAugmentedAlgebra(basis, "1", products)


def _euler_check(kind):
    """Per weight, sum (-1)^q rank C_q equals sum (-1)^q free rank H_q."""
    def check(out):
        C, H = out
        for w, qs in C.ranks.items():
            chain = sum((-1) ** q * r for q, r in qs.items())
            hom = sum((-1) ** q * H[(q, w)][0] for q in qs if (q, w) in H)
            if chain != hom:
                return f"{kind}: Euler characteristic {chain} != {hom} at weight {w}"
        return None
    return check


def _homology_text(out) -> str:
    return repr(sorted(out[1].items()))


def _complex_task(kind, build) -> Task:
    def run():
        C = build()
        return C, C.homology()
    return Task(kind, run, _euler_check(kind), _homology_text)


SHUFFLE_WINDOW = (3, 6, 6)  # Z[x]/x^3, stages, weight bound
# The shuffle tasks all cost the same and outnumber the eight complexes
# seven to one, so the median and the tail (ten tasks beyond it) both fall
# inside one group of equal tasks instead of on the edge between kinds.
SHUFFLE_TASKS = 56


def _cycle(rng, A):
    """A seeded cycle of weight at most 3 and its part without boundaries:
    letters x and x2 (length-one words are cycles) plus a multiple of
    d[x|x|x]."""
    letters = {w: rng.choice([-1, 1]) * rng.randint(1, 5) for w in (("x",), ("x2",))}
    k = rng.choice([-2, -1, 1, 2])
    chain = dict(letters)
    for w, c in homology.bar_differential_word(A, ("x", "x", "x")).items():
        chain[w] = chain.get(w, 0) + k * c
    return {w: c for w, c in chain.items() if c}, letters


def _shuffle_task(rng, A) -> Task:
    (x, x_letters), (y, y_letters) = _cycle(rng, A), _cycle(rng, A)
    _, stages, wb = SHUFFLE_WINDOW

    def run():
        return homology.BarHomologyWindow(A, stages, wb).shuffle_classes(x, y)

    def check(out):
        # the class of a shuffle does not see the boundaries added to x, y
        plain = homology.BarHomologyWindow(A, stages, wb).shuffle_classes(
            x_letters, y_letters)
        return None if plain == out else "shuffle_classes: class depends on boundaries"

    return Task("shuffle_classes", run, check, lambda out: repr(sorted(out.items())))


BAR_CASES = [(3, s) for s in range(10, 15)] + [(4, 8), (4, 9)]


def homology_dense(seed: int):
    rng = random.Random(seed)
    algebras = {p: truncated_algebra(p) for p in (3, 4)}
    G = homology.GradedCoalgebra.divided_power(5)
    tasks = [_complex_task(f"bar x^{p} stages {s}",
                           lambda A=algebras[p], s=s: homology.bar_complex(A, s, s))
             for p, s in BAR_CASES]
    tasks.append(_complex_task("cobar dp5", lambda: homology.cobar_complex(G, 10, 5)))
    tasks += [_shuffle_task(rng, algebras[SHUFFLE_WINDOW[0]])
              for _ in range(SHUFFLE_TASKS)]
    rng.shuffle(tasks)
    warm_shuffle = _shuffle_task(random.Random(seed + 1), algebras[3])
    warmups = [
        lambda: homology.bar_complex(algebras[3], 4, 4).homology(),
        lambda: homology.bar_complex(algebras[4], 4, 4).homology(),
        lambda: homology.cobar_complex(G, 4, 2).homology(),
        warm_shuffle.run,
    ]
    return warmups, tasks


# -- intz-filt ----------------------------------------------------------

POINTS = (-7, -2, 0, 3, 11)
# Tasks of one kind share a size, so each kind has one cost, and the counts
# put the median inside the 16 Drinfeld tasks (milliseconds each, steadier
# than the sub-millisecond element tasks) and the tail inside the products.
DEGREE = 30
MULT_TASKS = 8
ELEMENT_TASKS = 4
TENSOR_DEGREES = (6, 5, 4, 6)
DRINFELD_TASKS = 16
DRINFELD_SUM = 16
DAY_PAIRS = ((5, 5), (4, 5), (3, 4))
REES_BOUNDS = (8, 9, 10, 11, 12)


def _intz_element(rng, degree: int, gaps=(0, 2, 5, 9)):
    """Seeded coefficients on the fixed support {degree - g : g in gaps}."""
    return intz.IntZElement({degree - g: rng.choice([-9, -4, -2, -1, 1, 2, 3, 7])
                             for g in gaps if g <= degree})


def _points_check(kind, pairs):
    """pairs(out) yields (got, expected) at sample points."""
    def check(out):
        for got, want in pairs(out):
            if got != want:
                return f"{kind}: {got} != {want}"
        return None
    return check


def _tensor_value(te, a: int, b: int) -> int:
    return sum(c * binom(a, m) * binom(b, n) for (m, n), c in te.items())


def _index(label: str) -> int:
    """Basis index of a Rees generator label: "1", "C1", "C2", ..."""
    return 0 if label == "1" else int(label[1:])


def _rees_check(bound):
    def check(out):
        t0, t1 = out
        for (i, j), cs in t1.items():
            m, n = _index(i), _index(j)
            for a in POINTS:
                got = sum(c * binom(a, _index(k)) for k, c in cs.items())
                if got != binom(a, m) * binom(a, n):
                    return f"rees({bound}) at t=1: ({i},{j}) wrong at x={a}"
            want = {f"C{m + n}" if m + n else "1": math.comb(m + n, n)}
            if t0[(i, j)] != want:
                return f"rees({bound}) at t=0: ({i},{j}) gives {t0[(i, j)]}"
        return None
    return check


def _rees_task(bound) -> Task:
    def run():
        P = filtration.rees(bound)
        P.check_associative()
        return P.specialize(0), P.specialize(1)
    return Task(f"rees {bound}", run, _rees_check(bound),
                lambda out: repr(sorted(out[1].items())))


def _drinfeld_task(rng, total) -> Task:
    m = rng.randint(total // 2 - 2, total // 2 + 2)
    n = total - m
    samples = [(Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-5, 5)))
               for _ in range(3)]

    def pairs(cs):
        for x, t in samples:
            rhs = sum((t_value(c, t) * drinfeld_value(k, x, t) for k, c in cs.items()),
                      Fraction(0))
            yield rhs, drinfeld_value(m, x, t) * drinfeld_value(n, x, t)

    return Task(f"drinfeld {total}",
                lambda: filtration.drinfeld_structure_constants(m, n),
                _points_check("drinfeld", pairs),
                lambda out: repr({k: str(p) for k, p in sorted(out.items())}))


def _day_task(n1, n2) -> Task:
    X = filtration.degree_filtration_module(n1)
    Y = filtration.degree_filtration_module(n2)

    def run():
        return filtration.associated_graded(filtration.day_tensor(X, Y))

    def check(gr):
        conv = {}
        for i in range(n1 + 1):
            for j in range(n2 + 1):
                conv[i + j] = conv.get(i + j, 0) + 1
        return _first_failure([
            (sum(gr.values()) == (n1 + 1) * (n2 + 1),
             f"day {n1},{n2}: graded ranks sum to {sum(gr.values())}"),
            ({k: v for k, v in gr.items() if v} == conv,
             f"day {n1},{n2}: graded ranks {gr} are not the convolution"),
        ])

    return Task(f"day_tensor {n1},{n2}", run, check, lambda out: repr(sorted(out.items())))


def intz_filt(seed: int):
    rng = random.Random(seed)
    tasks: list[Task] = []
    for _ in range(MULT_TASKS):
        f, g = _intz_element(rng, DEGREE), _intz_element(rng, DEGREE)
        tasks.append(Task(
            "mult", lambda f=f, g=g: intz.mult(f, g),
            _points_check("mult", lambda h, f=f, g=g: (
                (intz_value(h, a), intz_value(f, a) * intz_value(g, a)) for a in POINTS)),
            str))
    for _ in range(ELEMENT_TASKS):
        f = _intz_element(rng, DEGREE)
        a = rng.randint(-40, 40)
        tasks += [
            Task("comult", lambda f=f: intz.comult(f),
                 _points_check("comult", lambda te, f=f: (
                     (_tensor_value(te, a, b), intz_value(f, a + b))
                     for a, b in zip(POINTS, reversed(POINTS)))), str),
            Task("antipode", lambda f=f: intz.antipode(f),
                 _points_check("antipode", lambda s, f=f: (
                     (intz_value(s, a), intz_value(f, -a)) for a in POINTS)), str),
            Task("eval_at", lambda f=f, a=a: intz.eval_at(f, a),
                 _points_check("eval_at", lambda v, f=f, a=a: [(v, intz_value(f, a))]),
                 repr),
            Task("pair", lambda f=f, a=a: intz.pair(f, intz.group_like(a, DEGREE + 1)),
                 _points_check("pair", lambda v, f=f, a=a: [(v, intz_value(f, a))]),
                 repr),
        ]
    for p in (2, 3, 5, 7):
        f = _intz_element(rng, DEGREE)
        tasks.append(Task(f"frobtest {p}",
                          lambda f=f, p=p: intz.frobenius_mod_p_identity(f, p),
                          lambda ok: None if ok is True else "f^p != f mod p", repr))
    for d in TENSOR_DEGREES:
        f, g = _intz_element(rng, d, (0, 1, 3)), _intz_element(rng, d, (0, 2, 3))
        tf, tg = intz.comult(f), intz.comult(g)
        tasks.append(Task(
            "tensor_multiply", lambda tf=tf, tg=tg: tf.multiply(tg),
            _points_check("tensor_multiply", lambda te, f=f, g=g: (
                (_tensor_value(te, a, b), intz_value(f, a + b) * intz_value(g, a + b))
                for a, b in zip(POINTS, reversed(POINTS)))), str))
    tasks += [_rees_task(b) for b in REES_BOUNDS]
    tasks += [_drinfeld_task(rng, DRINFELD_SUM) for _ in range(DRINFELD_TASKS)]
    tasks += [_day_task(n1, n2) for n1, n2 in DAY_PAIRS]
    rng.shuffle(tasks)

    top = intz.IntZElement({n: 1 for n in range(DEGREE + 1)})
    small = intz.comult(intz.IntZElement({n: 1 for n in range(7)}))
    warmups = [
        lambda: intz.mult(top, top),
        lambda: intz.comult(top),
        lambda: intz.antipode(top),
        lambda: intz.eval_at(top, 5),
        lambda: intz.pair(top, intz.group_like(5, DEGREE + 1)),
        lambda: intz.frobenius_mod_p_identity(top, 2),
        lambda: small.multiply(small),
        _rees_task(8).run,
        lambda: filtration.drinfeld_structure_constants(4, 4),
        _day_task(1, 1).run,
    ]
    return warmups, tasks


WORKLOADS = {
    "witt-arith": witt_arith,
    "homology-dense": homology_dense,
    "intz-filt": intz_filt,
}
