"""hopfwitt benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload witt-arith --seed 1 --seconds 10 --trace 0

Run from the root of a checkout (the directory holding src/ and tests/).
Workloads: witt-arith, homology-dense, intz-filt and cli-cold (one fresh
`python -m hopfwitt.cli` per task, one at a time); each runs in fresh
worker processes, see worker.py.  With --trace 0 it prints the end-to-end metrics,
with --trace 1 the per-layer metrics of a traced run plus the tracing
overhead.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Raw results, with the
Python version, nproc, git SHA, seed, sample counts and the output digest,
go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from common import REF_S, TASK_LIMIT_S  # noqa: E402

WORKLOADS = ("witt-arith", "homology-dense", "intz-filt", "cli-cold")
# Set-ups per run, each in a fresh worker, setup_s being their median: at
# least SETUP_MIN, and more, up to SETUP_MAX, while one more set-up worker,
# as long as the mean one so far, still ends within SETUP_BUDGET_S.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 8.0
IMPORT_SAMPLES = 5  # interpreters per side of cli.import_ms
WORKER_LIMIT_S = 170.0
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it

END_TO_END = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "task_p50_ms": "ms",
    "task_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def child_env() -> dict:
    """The environment of every child: absolute src first on PYTHONPATH."""
    rest = os.environ.get("PYTHONPATH")
    path = str(SRC) + (os.pathsep + rest if rest else "")
    return dict(os.environ, PYTHONPATH=path)


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def wall(argv: list[str], timeout: float) -> tuple[float, subprocess.CompletedProcess | None]:
    """Wall time of one child process; None when it hit the limit (the
    child is killed and reaped by subprocess.run)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, env=child_env(),
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None
    return time.perf_counter() - start, proc


# -- workers ----------------------------------------------------------------


def worker(workload: str, seed: int, mode: str, seconds: float, tag: str,
           spans: Path | None = None) -> dict:
    out = RESULTS / f".{workload}-seed{seed}-{tag}.json"
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
            "--out", str(out)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    _, proc = wall(argv, WORKER_LIMIT_S)
    if proc is None or proc.returncode != 0:
        err = proc.stderr.decode(errors="replace")[-2000:] if proc else "worker timed out"
        raise SystemExit(f"{workload} worker ({mode}) failed:\n{err}")
    try:
        return json.loads(out.read_text())
    finally:
        out.unlink()


def run_workload(args) -> dict:
    if args.trace:
        spans = RESULTS / f"{args.workload}-seed{args.seed}-spans.json"
        r = worker(args.workload, args.seed, "trace", args.seconds, "trace", spans)
        traced, untraced = r["passes"]
        return {"kinds": r["kinds"], "passes": r["passes"], "digest": r["digest"],
                "trace": r["trace"], "spans_file": str(spans.relative_to(ROOT)),
                "overhead_ratio": throughput(traced) / throughput(untraced)}
    setups: list[list[float]] = []
    start = time.perf_counter()
    while len(setups) < SETUP_MIN - 1 or (
            len(setups) < SETUP_MAX - 1 and (time.perf_counter() - start)
            * (len(setups) + 1) / len(setups) < SETUP_BUDGET_S):
        s = worker(args.workload, args.seed, "setup", args.seconds, f"setup{len(setups)}")
        setups.append([s["setup_s"], s["setup_speed"]])
    r = worker(args.workload, args.seed, "run", args.seconds, "run")
    setups.append([r["setup_s"], r["setup_speed"]])
    return {"kinds": r["kinds"], "passes": r["passes"], "speeds": r["speeds"],
            "digest": r["digest"], "setup_samples": setups,
            "peak_rss_mb": r["rss_kb"] / 1024, "rss_of": r["rss_of"]}


def import_ms() -> float:
    """Median fresh `import hopfwitt.cli` minus median bare interpreter."""
    def median_wall(code: str) -> float:
        return statistics.median(wall([sys.executable, "-c", code], TASK_LIMIT_S)[0]
                                 for _ in range(IMPORT_SAMPLES))
    return 1e3 * (median_wall("import hopfwitt.cli") - median_wall("pass"))


# -- metrics ----------------------------------------------------------------


def throughput(results: list) -> float:
    """Successful tasks per second of busy time over one or more passes.
    A timeout's time is the per-task limit, not the program's, so it is
    left out of the busy time (the task still counts as failed)."""
    ok = sum(1 for status, _ in results if status == "ok")
    return ok / sum(elapsed for status, elapsed in results if status != "timeout")


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest sample with TAIL_BEYOND samples
    above it; with fewer samples, the maximum."""
    ordered = sorted(latencies)
    i = len(ordered) - 1
    if len(ordered) > TAIL_BEYOND:
        i -= TAIL_BEYOND
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def hd_median(values: list[float], steps: int = 16) -> float:
    """Harrell-Davis estimate of the median: a weighted mean of the order
    statistics, the i-th weighted by the Beta((n+1)/2, (n+1)/2) mass on
    [(i-1)/n, i/n] (Simpson's rule).  It weighs the tasks around the middle
    instead of taking the middle one or two, so when the middle of the list
    falls on a jump in cost between two kinds of task, one task moving
    across the jump does not move the estimate by the whole jump."""
    ordered = sorted(values)
    n = len(ordered)
    a = (n + 1) / 2
    log_beta = 2 * math.lgamma(a) - math.lgamma(2 * a)

    def density(x: float) -> float:
        if x <= 0 or x >= 1:
            return 0.0
        return math.exp((a - 1) * (math.log(x) + math.log1p(-x)) - log_beta)

    weights = []
    for i in range(n):
        lo, h = i / n, 1 / (n * steps)
        inner = sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        weights.append((density(lo) + inner + density(lo + steps * h)) * h / 3)
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def end_to_end(raw: dict, attempted: int, failed: int) -> tuple[dict, dict]:
    """The end-to-end metrics of an untraced run.

    Every time is scaled to the reference speed: multiplied by REF_S over
    the speed sample taken next to it (common.speed_sample), so that the
    minutes in which a shared machine runs slower or faster do not move
    the figures.

    The task list is the same in every pass, so each task is one sample.
    tasks_per_s is the list's ok tasks over the sum of each task's mean
    time, so it counts every second the tasks took.  p50 and the tail are
    taken over each task's median time, so a pass that an interruption of
    the machine slowed does not move a task: in homology-dense the tail is
    the third slowest of 56 sub-millisecond tasks, which a single pause
    made jump.  p50 is the Harrell-Davis median (hd_median): in witt-arith
    the middle of the list sits on a 30 % jump in cost between kinds.  A
    task that timed out has no time of its own (its time is the limit), so
    it is left out of all three; it counts in fail_ratio.
    """
    passes = raw["passes"]
    scaled = [[e * REF_S / v for (_, e), v in zip(p, speeds)]
              for p, speeds in zip(passes, raw["speeds"])]
    timed = [k for k in range(len(passes[0])) if passes[0][k][0] != "timeout"]
    busy = sum(statistics.fmean(p[k] for p in scaled) for k in timed)
    lat = [statistics.median(p[k] for p in scaled) for k in timed]
    ok = sum(1 for k in timed if all(p[k][0] == "ok" for p in passes))
    tail_value, tail_pct = tail(lat)
    values = {
        "setup_s": statistics.median(s * REF_S / v for s, v in raw["setup_samples"]),
        "tasks_per_s": ok / busy,
        "task_p50_ms": 1e3 * hd_median(lat),
        "task_tail_ms": 1e3 * tail_value,
        "peak_rss_mb": raw["peak_rss_mb"],
        "ok_ratio": 1 - failed / attempted,
    }
    shape = f"n={len(lat)} tasks, median of {len(passes)} passes each"
    speed = statistics.median(v for p in raw["speeds"] for v in p)
    notes = {
        "setup_s": f"median of {len(raw['setup_samples'])}",
        "speed": f"times scaled to a reference kernel time of {1e3 * REF_S:.3f} ms; "
                 f"median sample {1e3 * speed:.3f} ms",
        "tasks_per_s": f"{ok} ok tasks in {busy:.3f} s, mean of {len(passes)} passes",
        "task_p50_ms": f"Harrell-Davis median, {shape}",
        "task_tail_ms": f"p{tail_pct:.2f}, {shape}, {TAIL_BEYOND} beyond",
        "peak_rss_mb": raw["rss_of"],
        "ok_ratio": f"fail_ratio {failed / attempted:.6f} "
                    f"({failed}/{attempted} runs of a task)",
    }
    return values, notes


def summary(raw: dict) -> tuple[int, int, bool, dict]:
    flat = [r for p in raw["passes"] for r in p]
    statuses = {}
    for s, _ in flat:
        key = s.split(":", 1)[0]
        statuses[key] = statuses.get(key, 0) + 1
    failed = sum(n for k, n in statuses.items() if k != "ok")
    # a timeout fails its task; only a wrong output or an error is incorrect
    correct = not any(k in ("wrong", "error") for k in statuses)
    return len(flat), failed, correct, statuses


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in (SRC / "hopfwitt" / "__init__.py",
                           ROOT / "tests" / "golden") if not p.exists()]
    if missing:
        print(f"error: not a hopfwitt checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    raw = run_workload(args)
    attempted, failed, correct, statuses = summary(raw)

    if args.trace:
        metrics = tracing.layer_metrics(raw["trace"], import_ms(), raw["overhead_ratio"])
        units = {k: u for k, (u, _) in tracing.LAYER_METRICS.items()}
        notes = {}
    else:
        metrics, notes = end_to_end(raw, attempted, failed)
        units = END_TO_END
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "git_sha": git_sha(), "attempted": attempted,
        "failed": failed, "statuses": statuses, "digest": raw["digest"],
        "metrics": metrics, "notes": notes,
        "setup_samples": raw.get("setup_samples"), "spans_file": raw.get("spans_file"),
        "tail_beyond": TAIL_BEYOND, "kinds": raw["kinds"], "passes": raw["passes"],
        "speeds": raw.get("speeds"),
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))

    print(f"# {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} tasks, {failed} failed {statuses}")
    if raw["digest"]:
        print(f"# output digest sha256:{raw['digest']}")
    if "speed" in notes:
        print(f"# {notes['speed']}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:34s} {value:>16.6f} {units[name]}{note}")
    print(f"# results: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
