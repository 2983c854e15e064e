"""The Z[t] route to the associativity of a graded algebra table, kept
as a test oracle.

The library's GradedAlgebraPresentation is the Rees algebra of Int(Z):
generator k has weight k, and constants[(i, j)] = {k: c} stores each
constant c * t^(i+j-k) as its one integer c.  It compares (ab)c with
a(bc) and b(ac) once per unordered triple of generators besides the
unit.  The tests also install other index-keyed tables, not associative
in general, on a rees() instance, so that check meets tables where each
comparison matters on its own.  This route forms the {k: {t-exponent:
int}} tables in Z[t], multiplies them and tries every ordered triple
within the weight bound, the unit included, so its verdict rests neither
on weight homogeneity nor on the symmetry of the table.
"""

from __future__ import annotations

from hopfwitt.filtration import GradedAlgebraPresentation, TPoly


def product(P: GradedAlgebraPresentation, i: int, j: int) -> dict[int, TPoly]:
    """The stored product b_i * b_j as {k: {i + j - k: c}}."""
    return {k: {i + j - k: c} for k, c in P.constants[i, j].items()}


def multiply(P: GradedAlgebraPresentation, x: dict[int, TPoly],
             y: dict[int, TPoly]) -> dict[int, TPoly]:
    """Product of Z[t]-combinations of generators."""
    acc: dict[int, TPoly] = {}
    for i, a in x.items():
        for j, b in y.items():
            ab: TPoly = {}
            for ea, ca in a.items():
                for eb, cb in b.items():
                    ab[ea + eb] = ab.get(ea + eb, 0) + ca * cb
            for k, c in product(P, i, j).items():
                slot = acc.setdefault(k, {})
                for e1, c1 in ab.items():
                    for e2, c2 in c.items():
                        slot[e1 + e2] = slot.get(e1 + e2, 0) + c1 * c2
    out = {k: {e: c for e, c in terms.items() if c} for k, terms in acc.items()}
    return {k: terms for k, terms in out.items() if terms}


def failing_triples(P: GradedAlgebraPresentation) -> list[tuple[int, int, int]]:
    """Every ordered generator triple (a, b, c) within the weight bound
    with (ab)c != a(bc) in Z[t]."""
    gens = range(P.bound + 1)
    return [(a, b, c) for a in gens for b in gens for c in gens
            if a + b + c <= P.bound
            and multiply(P, product(P, a, b), {c: {0: 1}})
            != multiply(P, {a: {0: 1}}, product(P, b, c))]
