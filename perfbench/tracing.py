"""Span and counter tracing installed from outside the library.

Every public hopfwitt function or method named in LAYERS is replaced by a
wrapper wherever it is looked up: the module that defines it, every other
hopfwitt module that imported it by name, and every class attribute that
aliases it (``__radd__ = __add__``).  ``Tracer.restore`` puts every original
back.  Nothing under ``src/`` is edited.

A span wrapper records (name, start, end, parent, task id) in flat arrays
kept in memory; a counting wrapper only bumps a counter, for functions
called once per word or per ring operation, where a span would cost more
than the work.  Self time is a span's duration minus the durations of its
direct children, so it sums to wall time without double counting.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter

# (group, module, owner, attribute, mode)
#   owner None: a module-level function; otherwise a class in the module.
#   mode "span" records a span; "count" only counts calls.
LAYERS: list[tuple[str, str, str | None, str, str]] = [
    ("cli.main", "cli", None, "main", "span"),
    ("witt.unipoly", "witt", None, "universal_poly", "span"),
    ("witt.eval", "witt", None, "evaluate_universal", "span"),
    ("witt.kernel", "witt", None, "kernel_enumerate", "span"),
    ("witt.kernel", "witt", None, "stable_twisted_kernel", "span"),
] + [
    ("witt.arith", "witt", None, name, "span")
    for name in ("witt_add", "witt_mul", "witt_sub", "witt_neg", "frobenius",
                 "verschiebung", "twisted_frobenius", "teichmuller", "ghost")
] + [
    ("rings.mul", "rings", "*CoeffRing", "mul", "count"),
    ("rings.pow", "rings", "*CoeffRing", "pow", "count"),
] + [
    ("poly.arith", "poly", "SparsePoly", name, "span")
    for name in ("__add__", "__mul__", "__pow__", "exact_div", "evaluate",
                 "substitute")
] + [
    ("binomial.transform", "binomial", None, "binomial_transform", "span"),
    ("binomial.expand", "binomial", None, "binomial_expand", "span"),
    ("intz.mult", "intz", None, "mult", "span"),
    ("intz.basis_product", "intz", None, "basis_product", "count"),
    ("intz.antipode", "intz", None, "antipode", "span"),
    ("intz.frobtest", "intz", None, "frobenius_mod_p_identity", "span"),
] + [
    ("series", "series", "TruncSeries", name, "span")
    for name in ("binomial_power", "coefficient", "__add__", "__neg__",
                 "__sub__", "__mul__", "__pow__", "inverse")
] + [
    ("filtration.day_tensor", "filtration", None, "day_tensor", "span"),
    ("filtration.from_lattices", "filtration", "FilteredModule",
     "from_lattices", "span"),
    ("filtration.assoc_graded", "filtration", None, "associated_graded", "span"),
    ("filtration.rees", "filtration", None, "rees", "span"),
] + [
    ("filtration.rees", "filtration", "GradedAlgebraPresentation", name, "span")
    for name in ("specialize", "check_associative", "multiply")
] + [
    ("filtration.drinfeld", "filtration", None,
     "drinfeld_structure_constants", "span"),
    ("homology.build", "homology", None, "bar_complex", "span"),
    ("homology.build", "homology", None, "cobar_complex", "span"),
    ("homology.build", "homology", "BarHomologyWindow", "__init__", "span"),
    ("homology.words", "homology", None, "bar_word_bidegree", "count"),
    ("homology.words", "homology", None, "cobar_word_bidegree", "count"),
    ("homology.homology", "homology", "ChainComplex", "homology", "span"),
    ("linalg.hnf", "linalg", None, "row_hnf", "span"),
    ("linalg.snf", "linalg", None, "smith_normal_form", "span"),
    ("linalg.mat_mul", "linalg", None, "mat_mul", "span"),
]

# The per-layer metrics, in report order: name -> (unit, better).
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "cli.import_ms": ("ms", "lower"),
    "cli.self_s": ("s", "lower"),
    "witt.unipoly.calls": ("count", "lower"),
    "witt.unipoly.s": ("s", "lower"),
    "witt.unipoly.terms_max": ("count", "lower"),
    "witt.eval.calls": ("count", "lower"),
    "witt.eval.s": ("s", "lower"),
    "witt.arith.self_s": ("s", "lower"),
    "witt.kernel.s": ("s", "lower"),
    "witt.kernel.op_evals": ("count", "lower"),
    "witt.kernel.kept_ratio": ("ratio", "higher"),
    "rings.mul.calls": ("count", "lower"),
    "rings.pow.calls": ("count", "lower"),
    "poly.mul.calls": ("count", "lower"),
    "poly.arith.self_s": ("s", "lower"),
    "binomial.transform.calls": ("count", "lower"),
    "binomial.transform.s": ("s", "lower"),
    "binomial.expand.s": ("s", "lower"),
    "intz.mult.calls": ("count", "lower"),
    "intz.mult.self_s": ("s", "lower"),
    "intz.basis_product.calls": ("count", "lower"),
    "intz.antipode.s": ("s", "lower"),
    "intz.frobtest.s": ("s", "lower"),
    "series.self_s": ("s", "lower"),
    "filtration.day_tensor.self_s": ("s", "lower"),
    "filtration.from_lattices.self_s": ("s", "lower"),
    "filtration.assoc_graded.self_s": ("s", "lower"),
    "filtration.rees.self_s": ("s", "lower"),
    "filtration.drinfeld.self_s": ("s", "lower"),
    "homology.build.self_s": ("s", "lower"),
    "homology.words.visited": ("count", "lower"),
    "homology.words.kept": ("count", "lower"),
    "homology.words.kept_ratio": ("ratio", "higher"),
    "homology.homology.self_s": ("s", "lower"),
    "homology.max_rank": ("count", "lower"),
    "linalg.hnf.calls": ("count", "lower"),
    "linalg.hnf.s": ("s", "lower"),
    "linalg.snf.calls": ("count", "lower"),
    "linalg.snf.s": ("s", "lower"),
    "linalg.mat_mul.s": ("s", "lower"),
    "linalg.max_dim": ("count", "lower"),
    "linalg.max_bits": ("bits", "lower"),
    "trace.overhead_ratio": ("ratio", "higher"),
}


def _matrix_dim(M) -> int:
    if not M:
        return 0
    return max(len(M), max(len(row) for row in M))


def _matrix_bits(M) -> int:
    return max((abs(x).bit_length() for row in M for x in row), default=0)


def _complex_ranks(C) -> list[int]:
    return [r for qs in C.ranks.values() for r in qs.values()]


class Tracer:
    """Holds the spans and counters of one process; install() patches the
    library, restore() undoes every patch."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_task = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_outer = array("b")  # 1 when no enclosing span of its group
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self.counts: Counter = Counter()
        self.gauges: dict[str, int] = {}
        self.task = -1
        self._patches: list[tuple[object, str, object]] = []
        self.children: list[tuple[dict, dict]] = []  # (totals, spans)

    # -- recording ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _gauge(self, key: str, value: int) -> None:
        if value > self.gauges.get(key, 0):
            self.gauges[key] = value

    def _open_span(self, nid: int, group: str) -> int:
        i = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_task.append(self.task)
        self.span_outer.append(0 if self._open[group] else 1)
        self.span_end.append(0.0)
        self._stack.append(i)
        self._open[group] += 1
        self.span_start.append(time.perf_counter())
        return i

    def _close_span(self, i: int, group: str) -> None:
        self.span_end[i] = time.perf_counter()
        self._stack.pop()
        self._open[group] -= 1

    def _hook(self, group: str, args: tuple, result: object) -> None:
        """Counters read off arguments and results; timed as a child span
        named trace.hook so no layer's self time absorbs it."""
        nid = self._name_id("trace.hook")
        i = self._open_span(nid, "trace.hook")
        try:
            if group == "witt.unipoly":
                self._gauge("witt.unipoly.terms_max",
                            sum(len(p) for p in result.values()))
            elif group == "witt.kernel":
                self.counts["witt.kernel.kept"] += len(result)
            elif group == "homology.build":
                C = result if result is not None else args[0].complex
                ranks = _complex_ranks(C)
                self.counts["homology.words.kept"] += sum(ranks)
                self._gauge("homology.max_rank", max(ranks, default=0))
            elif group.startswith("linalg."):
                dims = [_matrix_dim(a) for a in args if isinstance(a, list)]
                self._gauge("linalg.max_dim", max(dims, default=0))
                if group == "linalg.hnf":
                    self._gauge("linalg.max_bits", _matrix_bits(result))
                elif group == "linalg.snf":
                    self._gauge("linalg.max_bits",
                                max(_matrix_bits(M) for M in result))
        finally:
            self._close_span(i, "trace.hook")

    # -- wrappers ---------------------------------------------------------

    _HOOKED = ("witt.unipoly", "witt.kernel", "homology.build",
               "linalg.hnf", "linalg.snf", "linalg.mat_mul")

    def _span_wrapper(self, group: str, fn):
        tracer = self
        nid = self._name_id(f"{group}:{fn.__qualname__}")
        hooked = group in self._HOOKED
        counts_tf = fn.__name__ == "twisted_frobenius"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counts_tf and tracer._open["witt.kernel"]:
                tracer.counts["witt.kernel.op_evals"] += 1
            i = tracer._open_span(nid, group)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close_span(i, group)
            if hooked:
                tracer._hook(group, args, result)
            return result

        return wrapper

    def _count_wrapper(self, group: str, fn):
        counts = self.counts
        key = f"{group}.calls"
        if group == "homology.words":
            opened = self._open

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if opened["homology.build"]:
                    counts["homology.words.visited"] += 1
                return fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

        return wrapper

    # -- patching ---------------------------------------------------------

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def absorb(self, part: dict) -> None:
        """Take in the totals and spans a traced child process wrote (see
        cli_entry.py), its spans tagged with the current task."""
        spans = dict(part["spans"], task=[self.task] * len(part["spans"]["name"]))
        self.children.append((part["trace"], spans))

    def install(self) -> None:
        """Wrap every LAYERS entry that exists; a name a later version of
        the library drops is skipped, and its metrics read zero.  The
        tracer becomes `active`, so tasks that start traced children can
        find it."""
        global active
        import hopfwitt.cli  # noqa: F401  (loads every library module)

        active = self

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "hopfwitt" or name.startswith("hopfwitt.")]
        for group, modname, owner_name, attr, mode in LAYERS:
            module = sys.modules.get(f"hopfwitt.{modname}")
            if module is None:
                continue
            make = self._span_wrapper if mode == "span" else self._count_wrapper
            if owner_name is None:
                original = module.__dict__.get(attr)
                if original is None:
                    continue
                wrapper = make(group, original)
                for m in modules:
                    for name, value in list(m.__dict__.items()):
                        if value is original:
                            self._set(m, name, wrapper)
                continue
            if owner_name.startswith("*"):
                base = module.__dict__.get(owner_name[1:])
                owners = [base] + _all_subclasses(base) if base else []
            else:
                owners = [module.__dict__[owner_name]] if owner_name in module.__dict__ else []
            for owner in owners:
                raw = owner.__dict__.get(attr)
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(make(group, raw.__func__))
                    self._set(owner, attr, wrapped)
                    continue
                wrapper = make(group, raw)
                for name, value in list(owner.__dict__.items()):
                    if value is raw:
                        self._set(owner, name, wrapper)

    def restore(self) -> None:
        global active
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        active = None

    # -- results ----------------------------------------------------------

    def aggregate(self) -> dict:
        """Mergeable raw totals, with those of absorbed children: per group
        the call count, inclusive time of outermost spans and self time;
        plus counters and gauges."""
        n = len(self.span_name)
        child = [0.0] * n
        start, end, parent = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        groups: dict[str, dict[str, float]] = {}
        group_of = [name.split(":", 1)[0] for name in self.names]
        by_name: Counter = Counter()
        for i in range(n):
            by_name[self.names[self.span_name[i]]] += 1
            g = group_of[self.span_name[i]]
            row = groups.setdefault(g, {"calls": 0, "s": 0.0, "self_s": 0.0})
            dur = end[i] - start[i]
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            if self.span_outer[i]:
                row["s"] += dur
        own = {"groups": groups, "calls_by_name": dict(by_name),
               "counts": dict(self.counts), "gauges": dict(self.gauges),
               "spans": n}
        return merge([own] + [totals for totals, _ in self.children])

    def span_arrays(self) -> dict:
        """All spans, those of absorbed children after this process's own,
        as parallel arrays; parent is an index into them."""
        own = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
            "parent": self.span_parent.tolist(),
            "task": self.span_task.tolist(),
        }
        return concat_spans([own] + [spans for _, spans in self.children])


# The installed tracer, if any.  Installing patches the library for the
# whole process, so which tracer is installed is process-wide state too.
active: Tracer | None = None


def concat_spans(parts: list[dict]) -> dict:
    """Span arrays of several processes as one, names and parents
    re-indexed."""
    out = {"names": [], "name": [], "start": [], "end": [], "parent": [], "task": []}
    ids: dict[str, int] = {}
    for part in parts:
        remap = [ids.setdefault(n, len(ids)) for n in part["names"]]
        base = len(out["name"])
        out["name"] += [remap[i] for i in part["name"]]
        out["start"] += part["start"]
        out["end"] += part["end"]
        out["parent"] += [p + base if p >= 0 else -1 for p in part["parent"]]
        out["task"] += part["task"]
    out["names"] = list(ids)
    return out


def write_spans(path, arrays: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(arrays, fh, separators=(",", ":"))


def _all_subclasses(cls) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_all_subclasses(sub))
    return out


def merge(aggregates: list[dict]) -> dict:
    """Sum groups and counters, take the max of gauges."""
    out = {"groups": {}, "calls_by_name": Counter(), "counts": Counter(),
           "gauges": {}, "spans": 0}
    for agg in aggregates:
        for g, row in agg["groups"].items():
            acc = out["groups"].setdefault(g, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for k, v in row.items():
                acc[k] += v
        out["calls_by_name"].update(agg["calls_by_name"])
        out["counts"].update(agg["counts"])
        for k, v in agg["gauges"].items():
            out["gauges"][k] = max(v, out["gauges"].get(k, 0))
        out["spans"] += agg["spans"]
    return out


def layer_metrics(agg: dict, import_ms: float, overhead_ratio: float) -> dict[str, float]:
    """The LAYER_METRICS values from merged raw totals."""
    groups, counts, gauges = agg["groups"], agg["counts"], agg["gauges"]

    def g(group: str, field: str) -> float:
        return groups.get(group, {}).get(field, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    visited = counts.get("homology.words.visited", 0)
    kept = counts.get("homology.words.kept", 0)
    op_evals = counts.get("witt.kernel.op_evals", 0)
    values = {
        "cli.import_ms": import_ms,
        "cli.self_s": g("cli.main", "self_s"),
        "witt.unipoly.calls": g("witt.unipoly", "calls"),
        "witt.unipoly.s": g("witt.unipoly", "s"),
        "witt.unipoly.terms_max": gauges.get("witt.unipoly.terms_max", 0),
        "witt.eval.calls": g("witt.eval", "calls"),
        "witt.eval.s": g("witt.eval", "s"),
        "witt.arith.self_s": g("witt.arith", "self_s"),
        "witt.kernel.s": g("witt.kernel", "s"),
        "witt.kernel.op_evals": op_evals,
        "witt.kernel.kept_ratio": ratio(counts.get("witt.kernel.kept", 0), op_evals),
        "rings.mul.calls": counts.get("rings.mul.calls", 0),
        "rings.pow.calls": counts.get("rings.pow.calls", 0),
        "poly.mul.calls": agg["calls_by_name"].get(
            "poly.arith:SparsePoly.__mul__", 0),
        "poly.arith.self_s": g("poly.arith", "self_s"),
        "binomial.transform.calls": g("binomial.transform", "calls"),
        "binomial.transform.s": g("binomial.transform", "s"),
        "binomial.expand.s": g("binomial.expand", "s"),
        "intz.mult.calls": g("intz.mult", "calls"),
        "intz.mult.self_s": g("intz.mult", "self_s"),
        "intz.basis_product.calls": counts.get("intz.basis_product.calls", 0),
        "intz.antipode.s": g("intz.antipode", "s"),
        "intz.frobtest.s": g("intz.frobtest", "s"),
        "series.self_s": g("series", "self_s"),
        "filtration.day_tensor.self_s": g("filtration.day_tensor", "self_s"),
        "filtration.from_lattices.self_s": g("filtration.from_lattices", "self_s"),
        "filtration.assoc_graded.self_s": g("filtration.assoc_graded", "self_s"),
        "filtration.rees.self_s": g("filtration.rees", "self_s"),
        "filtration.drinfeld.self_s": g("filtration.drinfeld", "self_s"),
        "homology.build.self_s": g("homology.build", "self_s"),
        "homology.words.visited": visited,
        "homology.words.kept": kept,
        "homology.words.kept_ratio": ratio(kept, visited),
        "homology.homology.self_s": g("homology.homology", "self_s"),
        "homology.max_rank": gauges.get("homology.max_rank", 0),
        "linalg.hnf.calls": g("linalg.hnf", "calls"),
        "linalg.hnf.s": g("linalg.hnf", "s"),
        "linalg.snf.calls": g("linalg.snf", "calls"),
        "linalg.snf.s": g("linalg.snf", "s"),
        "linalg.mat_mul.s": g("linalg.mat_mul", "s"),
        "linalg.max_dim": gauges.get("linalg.max_dim", 0),
        "linalg.max_bits": gauges.get("linalg.max_bits", 0),
        "trace.overhead_ratio": overhead_ratio,
    }
    return values
