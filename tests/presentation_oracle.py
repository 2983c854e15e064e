"""The Z[t] route to the associativity of a graded algebra table, kept
as a test oracle.

The library's GradedAlgebraPresentation is the Rees algebra of Int(Z):
it stores each constant as one integer c, its t-exponent read off the
weights, and compares (ab)c with a(bc) and b(ac) once per unordered
triple of generators besides the unit.  The tests also install other
weight-homogeneous tables, not associative in general, on a rees()
instance, so that check meets tables where each comparison matters on
its own.  This route multiplies the {label: {t-exponent: int}} tables
that product() forms in Z[t] and tries every ordered triple within the
weight bound, the unit included, so its verdict rests neither on weight
homogeneity nor on the symmetry of the table.
"""

from __future__ import annotations

from hopfwitt.filtration import GradedAlgebraPresentation, TPoly


def multiply(P: GradedAlgebraPresentation, x: dict[str, TPoly],
             y: dict[str, TPoly]) -> dict[str, TPoly]:
    """Product of Z[t]-combinations of generators."""
    acc: dict[str, TPoly] = {}
    for i, a in x.items():
        for j, b in y.items():
            ab: TPoly = {}
            for ea, ca in a.items():
                for eb, cb in b.items():
                    ab[ea + eb] = ab.get(ea + eb, 0) + ca * cb
            for k, c in P.product(i, j).items():
                slot = acc.setdefault(k, {})
                for e1, c1 in ab.items():
                    for e2, c2 in c.items():
                        slot[e1 + e2] = slot.get(e1 + e2, 0) + c1 * c2
    out = {k: {e: c for e, c in terms.items() if c} for k, terms in acc.items()}
    return {k: terms for k, terms in out.items() if terms}


def failing_triples(P: GradedAlgebraPresentation) -> list[tuple[str, str, str]]:
    """Every ordered generator triple (a, b, c) within the weight bound
    with (ab)c != a(bc) in Z[t]."""
    gens = [g for g, w in P.generators if w <= P.bound]
    return [(a, b, c) for a in gens for b in gens for c in gens
            if P.weights[a] + P.weights[b] + P.weights[c] <= P.bound
            and multiply(P, P.product(a, b), {c: {0: 1}})
            != multiply(P, {a: {0: 1}}, P.product(b, c))]
