"""The library keeps what its callers use.

Every public function and method defined in src/hopfwitt must be named
somewhere in src/ outside its own def, or be kept on purpose with the
reason given in KEPT.  A method is named only as an attribute,
obj.method.  A helper that only tests need belongs in a test oracle,
not in the library.  A call from perfbench/*.py is no caller: a name
only the benchmark runs is kept in KEPT, its reason naming the workload
or writer that calls it.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hopfwitt"

# Public names that no library code names, kept in the library on purpose.
KEPT = {
    "error": "_Parser.error overrides argparse.ArgumentParser.error, which argparse "
             "calls on bad usage",
    "divides_additively": "acceptance criterion 3 checks with it that F_p a - a^p is "
                          "p times a Witt vector",
    "p_typical": "acceptance criteria 4 and 4b build S_k = {1, p, ..., p^(k-1)} with it",
    "simple": "acceptance criterion 6 pairs f (x) g built with it against the group law",
    "counit": "the counit of the Hopf algebra Int(Z), with mult, comult and antipode; "
              "acceptance criterion 1 checks the counit law with it",
    "graded_constant": "the divided-power constants of gr Int(Z); the bar homology "
                       "of the associated graded is checked against them",
    "restrict": "W_S -> W_T for T in S, the map twisted_frobenius subtracts; acceptance "
                "criteria 3 and 4 use it",
    "witt_int": "the ring map Z -> W_S(R); acceptance criterion 4b's closed form is "
                "written with it",
    "witt_scalar": "n * a in W_S(R); acceptance criterion 3 checks F_n V_n = n with it",
    "witt_pow": "a^k in W_S(R), the power of the ring structure; the congruence "
                "F_p a = a^p mod p is checked with it",
    "degree_filtration_module": "perfbench intz-filt: _day_task builds the inputs of its "
                                "Day tensor tasks with it",
    "check_associative": "perfbench intz-filt: each Rees task (_rees_task) checks rees(bound) "
                         "with it",
    "bar_differential_word": "perfbench homology-dense: _cycle adds a multiple of d[x|x|x] to "
                             "each shuffle task's cycles with it",
    "shuffle_classes": "perfbench homology-dense: its 56 shuffle tasks (_shuffle_task) call it",
    "multiply": "TensorElement.multiply; perfbench intz-filt: the tensor_multiply tasks and "
                "a warmup call it",
    "group_like": "perfbench intz-filt: the pair tasks pair against group_like(a, n)",
    "evaluate": "SparsePoly.evaluate; perfbench cli-cold: the independent check of "
                "witt-unipoly-product-s8 in cli_tasks.py evaluates the printed polynomials",
    "witt_sub": "perfbench witt-arith: the witt_sub tasks of _witt_tasks call it",
    "kernel_enumerate": "perfbench witt-arith: its kernel_enumerate tasks, the generic route "
                        "that the tail task runs",
}


def _names(tree: ast.AST, method: bool) -> Counter:
    """How often each identifier is named in tree.  A method counts only
    where it is named as an attribute (obj.name): a bare local or
    parameter of the same name calls nothing.  Other names count as plain
    names, attributes and imported names."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif method:
            continue
        elif isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
    return out


def _public_defs(tree: ast.Module):
    """(qualified name, def node, whether it is a method) of each public
    module function and of each public method of a module class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub, True
        elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, False


def _unused_public_names() -> dict[str, str]:
    """Each public def named nowhere in src/ outside its own body, by
    qualified name, with its module."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    in_src = {m: sum((_names(t, m) for t in trees.values()), Counter()) for m in (False, True)}
    unused = {}
    for module, tree in trees.items():
        for qualname, node, method in _public_defs(tree):
            name = node.name
            if in_src[method][name] - _names(node, method)[name] <= 0:
                unused[f"{module}.{qualname}"] = name
    return unused


def test_every_public_name_has_a_caller_or_a_reason():
    unused = _unused_public_names()
    unexplained = sorted(q for q, name in unused.items() if name not in KEPT)
    assert unexplained == [], "only tests call these; move them into a test oracle"


def test_every_kept_name_is_still_test_only():
    """An entry of KEPT whose name gained a library caller, or left the
    library, is stale."""
    assert sorted(KEPT) == sorted(set(_unused_public_names().values()))
