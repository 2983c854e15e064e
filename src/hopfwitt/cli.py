"""Command line surface.

Every subcommand is a pure function from parsed arguments to an output
string, so identical invocations produce byte-identical output.  Exit
codes: 0 success, 2 bad input, 3 a mathematical invariant failed.

Payload arguments starting with "@" are read from the named file.
Witt vector components are separated by ";" when present, else ","
(use ";" over Fq, whose elements contain commas).  The only JSON input
is a filtered module; every other JSON form is output.  The series of
`intz pair` is a polynomial, so its length is the truncation.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .errors import FalsificationError, InputError, bound_overflow

# Each group's handlers import that group's library modules, so a command
# loads only what it runs and `man` loads none.


def _payload(text: str) -> str:
    if text.startswith("@"):
        try:
            with open(text[1:], encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError as exc:
            raise InputError(f"cannot read payload file {text[1:]!r}: {exc}") from exc
    return text


def _ints(text: str, flag: str) -> list[int]:
    from .intz import MAX_DIGITS

    toks = [tok.strip() for tok in text.split(",") if tok.strip()]
    digits = max(map(len, toks), default=0)
    if digits > MAX_DIGITS:
        raise bound_overflow(f"a numeral in {flag}", f"{digits} digits",
                             "intz.MAX_DIGITS", MAX_DIGITS)
    try:
        return [int(tok) for tok in toks]
    except ValueError as exc:
        raise InputError(f"{flag} wants comma-separated integers, got {text!r}") from exc


def _json_line(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _components(text: str) -> list[str]:
    sep = ";" if ";" in text else ","
    return [tok.strip() for tok in text.split(sep)]


# -- witt argument plumbing ------------------------------------------


def _witt_context(args):
    from . import witt
    from .rings import ring_from_spec

    trunc = witt.TruncationSet(_ints(args.trunc, "--trunc"))
    return trunc, ring_from_spec(args.ring)


def _witt_vector(trunc, ring, payload: str):
    from . import witt

    comps = [ring.element_from_str(tok) for tok in _components(_payload(payload))]
    return witt.WittVector.from_list(trunc, ring, comps)


def _vector_out(v, fmt: str) -> str:
    if fmt == "json":
        return v.to_json() + "\n"
    return str(v) + "\n"


# -- intz subcommands ------------------------------------------------


def _element(payload: str):
    from . import intz

    return intz.IntZElement.parse(_payload(payload))


def _element_out(f, fmt: str) -> str:
    return (f.to_json() if fmt == "json" else str(f)) + "\n"


def _cmd_intz_mul(args) -> str:
    from . import intz

    return _element_out(intz.mult(_element(args.f), _element(args.g)), args.format)


def _cmd_intz_comul(args) -> str:
    from . import intz

    te = intz.comult(_element(args.f))
    return (te.to_json() if args.format == "json" else str(te)) + "\n"


def _cmd_intz_antipode(args) -> str:
    from . import intz

    return _element_out(intz.antipode(_element(args.f)), args.format)


def _value_out(v: int, fmt: str) -> str:
    return _json_line({"value": v}) if fmt == "json" else f"{v}\n"


def _cmd_intz_eval(args) -> str:
    from . import intz

    return _value_out(intz.eval_at(_element(args.f), args.a), args.format)


def _cmd_intz_pair(args) -> str:
    from . import intz

    # the series is a polynomial: C(x,n) past its last coefficient pairs to
    # zero, so those terms of f drop out and the series length truncates
    coeffs = _ints(args.series, "--series")
    f = intz.IntZElement({n: c for n, c in _element(args.f).items() if n < len(coeffs)})
    return _value_out(intz.pair(f, coeffs), args.format)


def _cmd_intz_frobtest(args) -> str:
    from . import intz

    f = _element(args.f)
    primes = _ints(args.primes, "--primes")
    for p in primes:
        if not intz.frobenius_mod_p_identity(f, p):
            raise FalsificationError(f"f^p = f mod p failed at p={p} for {f}")
    if args.format == "json":
        return _json_line({"element": str(f), "ok": True, "primes": primes})
    return "".join(f"p={p} ok\n" for p in primes)


# -- witt subcommands ------------------------------------------------


def _cmd_witt_add(args) -> str:
    from . import witt

    trunc, ring = _witt_context(args)
    a = _witt_vector(trunc, ring, args.coeffs)
    b = _witt_vector(trunc, ring, args.coeffs2)
    return _vector_out(witt.witt_add(a, b), args.format)


def _cmd_witt_mul(args) -> str:
    from . import witt

    trunc, ring = _witt_context(args)
    a = _witt_vector(trunc, ring, args.coeffs)
    b = _witt_vector(trunc, ring, args.coeffs2)
    return _vector_out(witt.witt_mul(a, b), args.format)


def _cmd_witt_ghost(args) -> str:
    from . import witt

    trunc, ring = _witt_context(args)
    a = _witt_vector(trunc, ring, args.coeffs)
    parts = [ring.element_str(g) for g in witt.ghost(a)]
    if args.format == "json":
        return _json_line({"ghost": parts, "trunc": list(trunc)})
    return "[" + ",".join(parts) + "]\n"


def _cmd_witt_frob(args) -> str:
    from . import witt

    trunc, ring = _witt_context(args)
    a = _witt_vector(trunc, ring, args.coeffs)
    return _vector_out(witt.frobenius(args.n, a), args.format)


def _cmd_witt_versch(args) -> str:
    from . import witt

    # input components live on the quotient set S/n, output on S
    trunc, ring = _witt_context(args)
    a = _witt_vector(trunc.quotient(args.n), ring, args.coeffs)
    return _vector_out(witt.verschiebung(args.n, a, trunc), args.format)


def _cmd_witt_teich(args) -> str:
    from . import witt

    trunc, ring = _witt_context(args)
    r = ring.element_from_str(args.r)
    return _vector_out(witt.teichmuller(r, trunc, ring), args.format)


def _cmd_witt_twisted(args) -> str:
    from . import witt

    trunc, ring = _witt_context(args)
    a = _witt_vector(trunc, ring, args.coeffs)
    t = ring.element_from_str(args.t)
    return _vector_out(witt.twisted_frobenius(args.n, a, t), args.format)


def _cmd_witt_kernel(args) -> str:
    from . import witt

    trunc, ring = _witt_context(args)
    t = ring.element_from_str(args.t)
    search = witt.stable_twisted_kernel if args.stable else witt.twisted_kernel
    kernel = search(args.n, t, trunc, ring)
    if args.format == "json":
        return _json_line(
            {"cardinality": len(kernel), "vectors": [str(v) for v in kernel]}
        )
    lines = [f"cardinality {len(kernel)}"] + [str(v) for v in kernel]
    return "\n".join(lines) + "\n"


def _cmd_witt_unipoly(args) -> str:
    from . import witt

    trunc = witt.TruncationSet(_ints(args.trunc, "--trunc"))
    polys = witt.universal_poly(args.op, trunc, args.n)
    if args.format == "json":
        obj = {"op": args.op, "polys": {str(d): str(p) for d, p in polys.items()},
               "trunc": list(trunc)}
        if args.n is not None:
            obj["n"] = args.n
        return _json_line(obj)
    return "".join(f"{d}: {polys[d]}\n" for d in sorted(polys))


# -- filt subcommands ------------------------------------------------


def _module_payload(payload: str):
    from . import filtration

    return filtration.FilteredModule.from_json(_payload(payload))


def _cmd_filt_tensor(args) -> str:
    from . import filtration

    # the module JSON is the canonical text form, so both formats agree
    r = filtration.day_tensor(_module_payload(args.x), _module_payload(args.y))
    return r.to_json() + "\n"


def _cmd_filt_gr(args) -> str:
    from . import filtration

    ranks = filtration.associated_graded(_module_payload(args.x))
    if args.format == "json":
        return _json_line({"ranks": {str(n): r for n, r in ranks.items()}})
    return "".join(f"{n}\t{ranks[n]}\n" for n in sorted(ranks))


def _comb_str(out: dict[str, object]) -> str:
    """The terms in the order given, which is basis order for every caller."""
    terms = []
    for label, c in out.items():
        cs = str(c)
        terms.append(label if cs == "1" else f"{cs}*{label}")
    return " + ".join(terms)


def _cmd_filt_rees(args) -> str:
    from . import filtration

    P = filtration.rees(args.bound)
    if args.t is None and args.format == "json":
        return P.to_json() + "\n"
    # the unit's products, those of index 0, are not listed; specialize
    # keys its table in pairs() order
    pairs = P.pairs()
    if args.t is None:
        out = {(i, j): P.product_text(i, j) for i, j in pairs if i}
    else:
        out = {(i, j): o for (i, j), o in zip(pairs, P.specialize(args.t).values()) if i}
        if args.format == "json":
            rows = [{"i": f"C{i}", "j": f"C{j}", "out": o} for (i, j), o in out.items()]
            return _json_line({"constants": rows, "t": args.t})
    return "".join(f"C{i}*C{j} = {_comb_str(o)}\n" for (i, j), o in out.items())


def _cmd_filt_drinfeld(args) -> str:
    from . import filtration

    cs = filtration.drinfeld_structure_constants(args.m, args.n)
    if args.format == "json":
        return _json_line(
            {"constants": {str(k): str(p) for k, p in cs.items()},
             "m": args.m, "n": args.n}
        )
    return f"b{args.m}*b{args.n} = {_comb_str({f'b{k}': p for k, p in cs.items()})}\n"


# -- homology subcommands --------------------------------------------


def _algebra_by_name(name: str):
    from . import homology

    if name == "trivial":
        return homology.GradedAugmentedAlgebra.trivial()
    if name == "exterior-deg-neg1":
        return homology.GradedAugmentedAlgebra.exterior(-1, -1)
    if name == "exterior-deg1":
        return homology.GradedAugmentedAlgebra.exterior(1, 1, label="s")
    if name.startswith("truncated:"):
        try:
            p = int(name.split(":", 1)[1])
        except ValueError as exc:
            raise InputError(f"bad algebra name {name!r}") from exc
        return homology.GradedAugmentedAlgebra.truncated(p)
    raise InputError(
        f"unknown algebra {name!r}; choose trivial, exterior-deg-neg1, "
        "exterior-deg1, or truncated:p"
    )


def _coalgebra_by_name(name: str):
    from . import homology

    if name == "trivial":
        return homology.GradedCoalgebra.trivial()
    if name.startswith("divided-power:"):
        try:
            bound = int(name.split(":", 1)[1])
        except ValueError as exc:
            raise InputError(f"bad coalgebra name {name!r}") from exc
        return homology.GradedCoalgebra.divided_power(bound)
    raise InputError(
        f"unknown coalgebra {name!r}; choose trivial or divided-power:N"
    )


def _homology_out(C, fmt: str) -> str:
    from . import homology

    if fmt != "json":
        return homology.homology_tsv(C)
    rows = [{"degree": q, "weight": w, "rank": free, "torsion": torsion}
            for (q, w), (free, torsion) in sorted(C.homology().items())]
    return _json_line({"cells": rows})


def _cmd_homology_bar(args) -> str:
    from . import homology

    A = _algebra_by_name(args.algebra)
    wb = args.weight_bound if args.weight_bound is not None else args.stages
    C = homology.bar_complex(A, args.stages, wb)
    return _homology_out(C, args.format)


def _cmd_homology_cobar(args) -> str:
    from . import homology

    G = _coalgebra_by_name(args.coalgebra)
    # a cobar word of weight w has degree 2w - length, so 2W covers them all
    C = homology.cobar_complex(G, 2 * args.weight_bound, args.weight_bound)
    return _homology_out(C, args.format)


# -- man page --------------------------------------------------------


def _option_line(action: argparse.Action) -> str:
    names = ", ".join(action.option_strings)
    if action.nargs == 0:
        return names
    if action.choices is not None:
        meta = "{" + ",".join(str(c) for c in action.choices) + "}"
    else:
        meta = action.metavar or action.dest.upper()
    return f"{names} {meta}"


def _leaf_section(prog: str, leaf: argparse.ArgumentParser) -> list[str]:
    positionals = []
    options = []
    for action in leaf._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if action.option_strings:
            options.append(action)
        else:
            positionals.append(action)
    usage = " ".join([prog] + [a.dest.upper() for a in positionals] + ["[options]"])
    lines = [f"  {usage}"]
    if leaf.description:
        lines.append(f"      {leaf.description}")
    for a in positionals:
        if a.help:
            lines.append(f"      {a.dest.upper()}: {a.help}")
    for a in options:
        text = _option_line(a)
        if a.help:
            text += f": {a.help}"
        if a.default not in (None, False, argparse.SUPPRESS) and "default" not in (a.help or ""):
            text += f" (default {a.default})"
        lines.append(f"      {text}")
    return lines


def _man_page(parser: argparse.ArgumentParser) -> str:
    top = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    lines = [
        "HOPFWITT(1)",
        "",
        "NAME",
        f"  {parser.prog} - {parser.description}",
        "",
        "SYNOPSIS",
        f"  {parser.prog} <group> <command> [options] [payloads]",
        "",
        "PAYLOADS",
        "  Arguments starting with @ are read from the named file.",
        "  Witt components split on ';' when present, else ','; use ';' over Fq.",
        "",
        "EXIT STATUS",
        "  0 success; 2 bad input; 3 a mathematical invariant failed.",
        "",
        "COMMANDS",
    ]
    for name, group in top.choices.items():
        sub = next((a for a in group._actions
                    if isinstance(a, argparse._SubParsersAction)), None)
        if sub is None:
            lines.append("")
            lines.extend(_leaf_section(f"{parser.prog} {name}", group))
            continue
        for leaf_name, leaf in sub.choices.items():
            lines.append("")
            lines.extend(_leaf_section(f"{parser.prog} {name} {leaf_name}", leaf))
    return "\n".join(lines) + "\n"


def _cmd_man(args) -> str:
    return _man_page(build_parser())


# -- parser ----------------------------------------------------------


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="output encoding")


class _Parser(argparse.ArgumentParser):
    """Refuses bad usage, such as an unknown or removed option, with one
    `error: ...` line and exit status 2, as every other refusal; its
    subparsers are of the same class."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hopfwitt",
        description="exact integer-valued polynomial, Witt vector, "
                    "deformation, and bar/cobar computations",
    )
    top = parser.add_subparsers(dest="group", required=True)

    g = top.add_parser("intz", help="integer-valued polynomial Hopf algebra")
    sub = g.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mul", description="product of two elements")
    p.add_argument("f", help="element, e.g. C(x,1)+2*C(x,2)")
    p.add_argument("g", help="element")
    _add_format(p)
    p.set_defaults(func=_cmd_intz_mul)

    p = sub.add_parser("comul", description="comultiplication of an element")
    p.add_argument("f", help="element")
    _add_format(p)
    p.set_defaults(func=_cmd_intz_comul)

    p = sub.add_parser("antipode", description="antipode of an element")
    p.add_argument("f", help="element")
    _add_format(p)
    p.set_defaults(func=_cmd_intz_antipode)

    p = sub.add_parser("eval", description="integer value at an integer point")
    p.add_argument("f", help="element")
    p.add_argument("a", type=int, help="evaluation point")
    _add_format(p)
    p.set_defaults(func=_cmd_intz_eval)

    p = sub.add_parser("pair", description="duality pairing against a power series")
    p.add_argument("f", help="element")
    p.add_argument("--series", required=True,
                   help="series coefficients from degree 0, e.g. 1,2,1")
    _add_format(p)
    p.set_defaults(func=_cmd_intz_pair)

    p = sub.add_parser("frobtest", description="check f^p = f mod p per prime")
    p.add_argument("f", help="element")
    p.add_argument("--primes", default="2,3,5,7", help="primes to test")
    _add_format(p)
    p.set_defaults(func=_cmd_intz_frobtest)

    g = top.add_parser("witt", help="truncated big Witt vectors")
    sub = g.add_subparsers(dest="command", required=True)

    def witt_parser(name: str, description: str, vectors: int = 1):
        q = sub.add_parser(name, description=description)
        q.add_argument("--trunc", required=True,
                       help="divisor-closed truncation set, e.g. 1,2,4")
        q.add_argument("--ring", default="Z", help="Z | Zmod:m | Fq:p,k | Poly")
        if vectors >= 1:
            q.add_argument("--coeffs", required=True, help="vector components")
        if vectors >= 2:
            q.add_argument("--coeffs2", required=True, help="second vector")
        _add_format(q)
        return q

    p = witt_parser("add", "Witt sum of two vectors", vectors=2)
    p.set_defaults(func=_cmd_witt_add)

    p = witt_parser("mul", "Witt product of two vectors", vectors=2)
    p.set_defaults(func=_cmd_witt_mul)

    p = witt_parser("ghost", "ghost components of a vector")
    p.set_defaults(func=_cmd_witt_ghost)

    p = witt_parser("frob", "Frobenius F_n, landing on the quotient set")
    p.add_argument("--n", type=int, required=True, help="Frobenius index")
    p.set_defaults(func=_cmd_witt_frob)

    p = witt_parser("versch", "Verschiebung V_n from the quotient set")
    p.add_argument("--n", type=int, required=True, help="Verschiebung index")
    p.set_defaults(func=_cmd_witt_versch)

    p = witt_parser("teich", "Teichmuller lift of a ring element", vectors=0)
    p.add_argument("--r", required=True, help="ring element")
    p.set_defaults(func=_cmd_witt_teich)

    p = witt_parser("twisted", "twisted Frobenius F_n minus [t]^(n-1) times restriction")
    p.add_argument("--n", type=int, required=True, help="Frobenius index")
    p.add_argument("--t", required=True, help="twist parameter, a ring element")
    p.set_defaults(func=_cmd_witt_twisted)

    p = witt_parser("kernel", "kernel of the twisted Frobenius over a finite ring",
                    vectors=0)
    p.add_argument("--n", type=int, required=True, help="Frobenius index")
    p.add_argument("--t", required=True, help="twist parameter, a ring element")
    p.add_argument("--stable", action="store_true",
                   help="keep only members lifting one truncation level deeper")
    p.set_defaults(func=_cmd_witt_kernel)

    p = sub.add_parser("unipoly", description="universal polynomials of one operation")
    p.add_argument("--trunc", required=True,
                   help="divisor-closed truncation set, e.g. 1,2,4")
    p.add_argument("--op", choices=("sum", "product", "neg", "frobenius"),
                   required=True, help="operation")
    p.add_argument("--n", type=int, default=None,
                   help="index for frobenius")
    _add_format(p)
    p.set_defaults(func=_cmd_witt_unipoly)

    g = top.add_parser("filt", help="filtered modules and the deformation")
    sub = g.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tensor", description="Day convolution of two filtered modules")
    p.add_argument("x", help="filtered module JSON")
    p.add_argument("y", help="filtered module JSON")
    _add_format(p)
    p.set_defaults(func=_cmd_filt_tensor)

    p = sub.add_parser("gr", description="associated graded ranks of a filtered module")
    p.add_argument("x", help="filtered module JSON")
    _add_format(p)
    p.set_defaults(func=_cmd_filt_gr)

    p = sub.add_parser("rees", description="Rees algebra structure constants over Z[t]")
    p.add_argument("--bound", type=int, default=10, help="weight bound")
    p.add_argument("--t", type=int, default=None,
                   help="specialize t to this integer")
    _add_format(p)
    p.set_defaults(func=_cmd_filt_rees)

    p = sub.add_parser("drinfeld", description="structure constants of the deformed basis")
    p.add_argument("--m", type=int, required=True, help="left index")
    p.add_argument("--n", type=int, required=True, help="right index")
    _add_format(p)
    p.set_defaults(func=_cmd_filt_drinfeld)

    g = top.add_parser("homology", help="bar and cobar homology windows")
    sub = g.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bar", description="homology of the bar complex of a named algebra")
    p.add_argument("--algebra", required=True,
                   help="trivial | exterior-deg-neg1 | exterior-deg1 | truncated:p")
    p.add_argument("--stages", type=int, required=True, help="tensor length bound")
    p.add_argument("--weight-bound", type=int, default=None,
                   help="|weight| bound, at most stages (default: stages)")
    _add_format(p)
    p.set_defaults(func=_cmd_homology_bar)

    p = sub.add_parser("cobar", description="homology of the cobar complex of a named coalgebra")
    p.add_argument("--coalgebra", required=True,
                   help="trivial | divided-power:N")
    p.add_argument("--weight-bound", type=int, default=5, help="|weight| bound")
    _add_format(p)
    p.set_defaults(func=_cmd_homology_cobar)

    p = top.add_parser("man", description="print the manual page")
    p.set_defaults(func=_cmd_man)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FalsificationError as exc:
        print(f"falsified: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
