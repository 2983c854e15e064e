"""The cli-cold workload: one fresh ``python -m hopfwitt.cli`` per task.

Golden cases are the 23 argv lists of the CLI golden tests; their stdout
must equal ``tests/golden/<name>.out`` byte for byte.  Slow cases are the
slow paths of ROADMAP items 2-5 at sizes that finish; hang cases are known
hangs that run under the per-task limit.  Both compare stdout with
``perfbench/expected/<name>.out``.

Regenerate the expected files (each is confirmed by an invariant checked
in-process before it is written) from the checkout root with

    PYTHONPATH=$PWD/src python3 perfbench/cli_tasks.py --write-expected

A hang case's file comes from an independent route that finishes: the
weight-2 window of truncated:20 holds only words of length <= 2, so the
7-stage window equals the 2-stage one.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import tracing
from common import Task

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected"

DEG2 = '{"n_min":0,"n_max":2,"ranks":[3,2,1],"maps":[[[0,0],[1,0],[0,1]],[[0],[1]]]}'
CONC1 = '{"n_min":1,"n_max":1,"ranks":[1],"maps":[]}'
CONC2 = '{"n_min":2,"n_max":2,"ranks":[1],"maps":[]}'


def _degree_filtration_json(n: int) -> str:
    """The degree filtration of rank n+1: stage q keeps basis q..n."""
    ranks = [n + 1 - q for q in range(n + 1)]
    maps = [[[1 if a == b + 1 else 0 for b in range(ranks[q] - 1)]
             for a in range(ranks[q])] for q in range(n)]
    return json.dumps({"n_min": 0, "n_max": n, "ranks": ranks, "maps": maps},
                      separators=(",", ":"))


GOLDEN_CASES = [
    ("intz-mul", ["intz", "mul", "C(x,1)", "C(x,1)"]),
    ("intz-comul", ["intz", "comul", "C(x,2)"]),
    ("intz-antipode-json", ["intz", "antipode", "C(x,2)", "--format", "json"]),
    ("intz-eval", ["intz", "eval", "C(x,4)", "6"]),
    ("intz-pair", ["intz", "pair", "C(x,2)", "--series", "1,3,3,1"]),
    ("intz-frobtest", ["intz", "frobtest", "C(x,3)", "--primes", "2,3,5"]),
    ("witt-add", ["witt", "add", "--trunc", "1,2", "--ring", "Z",
                  "--coeffs", "1,2", "--coeffs2", "3,4"]),
    ("witt-mul-zmod8", ["witt", "mul", "--trunc", "1,2", "--ring", "Zmod:8",
                        "--coeffs", "1,2", "--coeffs2", "3,4"]),
    ("witt-ghost", ["witt", "ghost", "--trunc", "1,2", "--ring", "Z",
                    "--coeffs", "1,0"]),
    ("witt-frob", ["witt", "frob", "--trunc", "1,2,4", "--ring", "Z",
                   "--coeffs", "1,2,3", "--n", "2"]),
    ("witt-versch", ["witt", "versch", "--trunc", "1,2,4", "--ring", "Z",
                     "--coeffs", "5,7", "--n", "2"]),
    ("witt-teich", ["witt", "teich", "--trunc", "1,2,4", "--ring", "Z",
                    "--r", "2"]),
    ("witt-twisted", ["witt", "twisted", "--trunc", "1,2", "--ring", "Z",
                      "--coeffs", "1,2", "--n", "2", "--t", "1"]),
    ("witt-kernel-stable-f4", ["witt", "kernel", "--trunc", "1,2",
                               "--ring", "Fq:2,2", "--n", "2", "--t", "1,0",
                               "--stable"]),
    ("witt-unipoly-sum", ["witt", "unipoly", "--trunc", "1,2", "--op", "sum"]),
    ("filt-rees-b3", ["filt", "rees", "--bound", "3"]),
    ("filt-rees-t0", ["filt", "rees", "--bound", "2", "--t", "0"]),
    ("filt-drinfeld-22", ["filt", "drinfeld", "--m", "2", "--n", "2"]),
    ("filt-gr", ["filt", "gr", DEG2]),
    ("filt-tensor", ["filt", "tensor", CONC1, CONC2]),
    ("homology-bar-extneg1", ["homology", "bar", "--algebra",
                              "exterior-deg-neg1", "--stages", "4"]),
    ("homology-bar-trunc3", ["homology", "bar", "--algebra", "truncated:3",
                             "--stages", "3"]),
    ("homology-cobar-dp5", ["homology", "cobar", "--coalgebra",
                            "divided-power:5", "--weight-bound", "5"]),
]

MUL24_A = [1, 2, 3, 4, 5, 6, 7, 0]
MUL24_B = [3, 1, 4, 1, 5, 1, 2, 6]
SLOW_CASES = [
    ("witt-mul-s24-zmod8", ["witt", "mul", "--trunc", "1,2,3,4,6,8,12,24",
                            "--ring", "Zmod:8",
                            "--coeffs", ",".join(map(str, MUL24_A)),
                            "--coeffs2", ",".join(map(str, MUL24_B))]),
    ("witt-unipoly-product-s8", ["witt", "unipoly", "--op", "product",
                                 "--trunc", "1,2,4,8"]),
    ("intz-antipode-25", ["intz", "antipode", "C(x,25)"]),
    ("homology-bar-trunc10-w2", ["homology", "bar", "--algebra", "truncated:10",
                                 "--stages", "6", "--weight-bound", "2"]),
    ("homology-cobar-dp7", ["homology", "cobar", "--coalgebra", "divided-power:7",
                            "--weight-bound", "7"]),
    ("filt-tensor-deg5", ["filt", "tensor", _degree_filtration_json(5),
                          _degree_filtration_json(5)]),
]
# name -> (argv that hangs today, argv of the independent route)
HANG_CASES = {
    "homology-bar-trunc20-s7-w2": (
        ["homology", "bar", "--algebra", "truncated:20", "--stages", "7",
         "--weight-bound", "2"],
        ["homology", "bar", "--algebra", "truncated:20", "--stages", "2",
         "--weight-bound", "2"]),
}


def cases() -> list[tuple[str, list[str], Path]]:
    """(name, argv, expected stdout file) for every cli-cold task."""
    out = [(name, argv, ROOT / "tests" / "golden" / f"{name}.out")
           for name, argv in GOLDEN_CASES]
    out += [(name, argv, EXPECTED / f"{name}.out") for name, argv in SLOW_CASES]
    out += [(name, argv, EXPECTED / f"{name}.out")
            for name, (argv, _) in HANG_CASES.items()]
    return out


def invoke(name: str, argv: list[str]) -> subprocess.CompletedProcess:
    """One fresh interpreter running the CLI.  While a tracer is installed
    the child is cli_entry.py, whose totals and spans the tracer absorbs.
    An exception here (the per-task limit) kills and reaps the child."""
    if tracing.active is None:
        return subprocess.run([sys.executable, "-m", "hopfwitt.cli", *argv],
                              capture_output=True, cwd=ROOT)
    part = HERE / "results" / f".cli-trace-{name}.json"
    try:
        proc = subprocess.run([sys.executable, str(HERE / "cli_entry.py"), str(part),
                               "--", *argv], capture_output=True, cwd=ROOT)
        tracing.active.absorb(json.loads(part.read_text()))
    finally:
        part.unlink(missing_ok=True)
    return proc


def _stdout_text(proc) -> str:
    text = proc.stdout.decode(errors="replace")
    return text if proc.returncode == 0 else f"{text}[exit {proc.returncode}]"


def _cli_task(name, argv, expected: Path) -> Task:
    want = expected.read_bytes()

    def check(proc):
        if proc.returncode != 0:
            err = proc.stderr.decode(errors="replace")[-300:]
            return f"{name}: exit {proc.returncode}: {err}"
        if proc.stdout != want:
            return f"{name}: stdout differs from {expected.relative_to(ROOT)}"
        return None

    return Task(name, lambda: invoke(name, argv), check, _stdout_text)


def cli_cold(seed: int):
    """The workload builder: every case once, in seeded order.  Set-up is
    one fresh interpreter that imports hopfwitt.cli and exits."""
    tasks = [_cli_task(*case) for case in cases()]
    random.Random(seed).shuffle(tasks)
    warmups = [lambda: subprocess.run([sys.executable, "-c", "import hopfwitt.cli"],
                                      check=True, cwd=ROOT)]
    return warmups, tasks


# -- invariants confirming the expected files ----------------------------


def _window_counts(letters, stages, weight_bound, degree_bound, shift):
    """Word counts per (degree, weight) of a bar (shift +1) or cobar
    (shift -1) window; letters are (degree, weight) with weight >= 1."""
    counts: dict[tuple[int, int], int] = {}

    def grow(length, degree, weight):
        if abs(degree) <= degree_bound:
            counts[(degree, weight)] = counts.get((degree, weight), 0) + 1
        if length == stages:
            return
        for d, w in letters:
            if weight + w <= weight_bound:
                grow(length + 1, degree + d + shift, weight + w)

    grow(0, 0, 0)
    return counts


def _euler_ok(text: str, counts) -> bool:
    rows = [line.split("\t") for line in text.splitlines()[1:]]
    free = {(int(q), int(w)): int(r) for q, w, r, _ in rows}
    weights = {w for _, w in counts}
    for w in weights:
        chain = sum((-1) ** q * n for (q, ww), n in counts.items() if ww == w)
        hom = sum((-1) ** q * r for (q, ww), r in free.items() if ww == w)
        if chain != hom:
            return False
    return set(free) == set(counts)


def confirm(name: str, text: str) -> bool:
    """The in-process invariant each expected file must satisfy."""
    import tasks
    from hopfwitt import intz, poly
    from hopfwitt.rings import IntegerRing, ZModRing

    if name == "witt-mul-s24-zmod8":
        S = (1, 2, 3, 4, 6, 8, 12, 24)
        L = tasks.Lift(ZModRing(8))
        got = [int(c) for c in text.strip()[1:-1].split(",")]
        ga, gb = (L.ghost(S, dict(zip(S, v))) for v in (MUL24_A, MUL24_B))
        want = L.components(S, {m: L.mul(ga[m], gb[m]) for m in S})
        return got == [want[m] for m in S]
    if name == "witt-unipoly-product-s8":
        S = (1, 2, 4, 8)
        polys = {int(d): poly.SparsePoly.parse(p)
                 for d, p in (line.split(": ", 1) for line in text.splitlines())}
        L = tasks.Lift(IntegerRing())
        for a, b in [((1, 2, 3, 4), (5, -6, 7, 8)), ((-3, 0, 2, 9), (4, 4, -1, 0))]:
            point = {f"a{d}": x for d, x in zip(S, a)}
            point.update({f"b{d}": x for d, x in zip(S, b)})
            got = [int(polys[d].evaluate(point)) for d in S]
            ga, gb = (L.ghost(S, dict(zip(S, v))) for v in (a, b))
            want = L.components(S, {m: L.mul(ga[m], gb[m]) for m in S})
            if got != [want[m] for m in S]:
                return False
        return True
    if name == "intz-antipode-25":
        s = intz.IntZElement.parse(text.strip())
        return all(tasks.intz_value(s, a) == tasks.binom(-a, 25) for a in tasks.POINTS)
    if name == "homology-bar-trunc10-w2":
        letters = [(2 * k, k) for k in range(1, 10)]
        return _euler_ok(text, _window_counts(letters, 6, 2, 10**9, 1))
    if name == "homology-cobar-dp7":
        letters = [(2 * k, k) for k in range(1, 8)]
        return _euler_ok(text, _window_counts(letters, 7, 7, 14, -1))
    if name == "homology-bar-trunc20-s7-w2":
        letters = [(2 * k, k) for k in range(1, 20)]
        return _euler_ok(text, _window_counts(letters, 7, 2, 10**9, 1))
    if name == "filt-tensor-deg5":
        ranks = json.loads(text)["ranks"] + [0]
        gr = [ranks[n] - ranks[n + 1] for n in range(len(ranks) - 1)]
        return gr == [min(n, 10 - n) + 1 for n in range(11)]
    raise KeyError(name)


def write_expected() -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    EXPECTED.mkdir(exist_ok=True)
    todo = [(name, argv) for name, argv in SLOW_CASES]
    todo += [(name, route) for name, (_, route) in HANG_CASES.items()]
    for name, argv in todo:
        proc = subprocess.run([sys.executable, "-m", "hopfwitt.cli", *argv],
                              capture_output=True, env=env, check=True)
        text = proc.stdout.decode()
        if not confirm(name, text):
            raise SystemExit(f"{name}: output fails its invariant; not written")
        (EXPECTED / f"{name}.out").write_bytes(proc.stdout)
        print(f"wrote {name}.out ({len(proc.stdout)} bytes)")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-expected"]:
        raise SystemExit("usage: cli_tasks.py --write-expected")
    write_expected()
