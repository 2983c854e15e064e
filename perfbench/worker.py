"""Runs one workload in a fresh interpreter and writes its raw results as
JSON.  run.py starts it; by hand, from the checkout root:

    PYTHONPATH=$PWD/src python3 perfbench/worker.py --workload intz-filt \
        --seed 1 --seconds 10 --mode run --out perfbench/results/w.json

Modes:
  setup  build inputs and warm up, then stop (one set-up time sample,
         with the mean of a speed sample before and one after it);
  run    set up, then run the task list in a closed loop, pass after
         pass: at least MIN_PASSES, then more until --seconds have gone
         by (always whole passes).  Speed samples of the reference
         kernel (common.speed_sample) are taken between chunks of tasks,
         so that run.py can scale each task's time by the machine's
         speed next to it;
  trace  install the tracer first, set up and run one traced pass, then
         restore every original and run one untraced pass, whose
         throughput is the base of the tracing overhead ratio.

The task lists come from tasks.py (witt-arith, homology-dense,
intz-filt: library calls in this process) and cli_tasks.py (cli-cold: one
child process per task, whose peak RSS is the one reported).  Pass one is
checked task by task with the lists' invariants; every later pass must
reproduce pass one's output text exactly.  A task that hit the per-task
limit in pass one keeps that result in later passes instead of spending
the limit again.
"""

import time

from common import speed_sample

START_SPEED = speed_sample(1.0)  # the longest sample, kept out of set-up
T0 = time.perf_counter()  # process start, before hopfwitt is imported

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402

from common import MIN_PASSES, TASK_LIMIT_S  # noqa: E402

RUN_DEADLINE_S = 140.0  # no new pass starts after this much process time
CHUNK_S = 0.04  # in run mode, a speed sample after this much task time


class TaskTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise TaskTimeout()


def run_task(fn):
    """(status, seconds, output) of one call under the per-task limit."""
    signal.setitimer(signal.ITIMER_REAL, TASK_LIMIT_S)
    start = time.perf_counter()
    try:
        out = fn()
        status = "ok"
    except TaskTimeout:
        out, status = None, "timeout"
    except Exception as exc:  # a task that raises is recorded, not fatal
        out, status = None, f"error: {type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return status, elapsed, out


def run_pass(task_list, tracer=None, carried=None, speeds=None):
    """One result per task; tasks in `carried` (index -> result) are not
    run again.  Given a list `speeds`, also take a speed sample before the
    first task and after every CHUNK_S of task time, and append one speed
    per task: the mean of the samples before and after its chunk."""
    results = []
    chunk_start, busy = 0, 0.0
    before = speed_sample() if speeds is not None else None
    for i, task in enumerate(task_list):
        if carried and i in carried:
            results.append(carried[i])
        else:
            if tracer is not None:
                tracer.task = i
            results.append(run_task(task.run))
            busy += results[-1][1]
        if speeds is not None and (busy >= CHUNK_S or i == len(task_list) - 1):
            after = speed_sample(busy)
            speeds.extend([(before + after) / 2] * (i + 1 - chunk_start))
            before, chunk_start, busy = after, i + 1, 0.0
    if tracer is not None:
        tracer.task = -1
    return results


def check_first_pass(task_list, results):
    """Replace each ok status by a failure when the check rejects the
    output; return the output texts (None for failed tasks)."""
    texts = []
    for k, (task, (status, elapsed, out)) in enumerate(zip(task_list, results)):
        text = None
        if status == "ok":
            try:
                problem = task.check(out)
                text = task.text(out)
            except Exception as exc:  # a crashing check is a failed task
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                status, text = f"wrong: {problem}", None
        results[k] = (status, elapsed, None)
        texts.append(text)
    return texts


def compare_pass(task_list, results, texts):
    """Statuses of a later pass: its outputs must equal pass one's text."""
    out = []
    for task, text, (status, elapsed, value) in zip(task_list, texts, results):
        if status == "ok" and (text is None or task.text(value) != text):
            status = "wrong: output differs from pass one"
        out.append((status, elapsed, None))
    return out


def digest(task_list, texts, statuses) -> str:
    h = hashlib.sha256()
    for task, text, status in zip(task_list, texts, statuses):
        h.update(f"{task.kind}\t{text if text is not None else status}\n".encode())
    return h.hexdigest()


def load(workload: str):
    """(task list builder, whose peak RSS to report) of a workload."""
    if workload == "cli-cold":
        import cli_tasks
        return cli_tasks.cli_cold, resource.RUSAGE_CHILDREN
    import tasks
    return tasks.WORKLOADS[workload], resource.RUSAGE_SELF


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default=None, help="trace mode: span file")
    args = ap.parse_args()
    signal.signal(signal.SIGALRM, _on_alarm)

    tracer = None
    if args.mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    build, rss_of = load(args.workload)

    warmups, task_list = build(args.seed)
    for fn in warmups:
        status, _, _ = run_task(fn)
        if status != "ok":
            raise SystemExit(f"warm-up failed: {status}")
    setup_s = time.perf_counter() - T0
    report = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s,
              "setup_speed": (START_SPEED + speed_sample(1.0)) / 2}
    if args.mode == "setup":
        _write(args.out, report)
        return 0

    speeds = [] if args.mode == "run" else None
    loop_start = time.perf_counter()
    first = run_pass(task_list, tracer, None, speeds)
    if tracer is not None:
        tracer.restore()
    texts = check_first_pass(task_list, first)
    passes, pass_speeds = [first], [speeds]
    report["digest"] = digest(task_list, texts, [s for s, _, _ in first])
    carried = {i: r for i, r in enumerate(first) if r[0] == "timeout"}
    if args.mode == "trace":
        report["trace"] = tracer.aggregate()
        if args.spans:
            tracing.write_spans(args.spans, tracer.span_arrays())
        passes.append(compare_pass(task_list, run_pass(task_list, None, carried), texts))
    else:
        while len(passes) < MIN_PASSES or (
                time.perf_counter() - loop_start < args.seconds
                and time.perf_counter() - T0 < RUN_DEADLINE_S):
            speeds = []
            passes.append(compare_pass(task_list, run_pass(task_list, None, carried, speeds),
                                       texts))
            pass_speeds.append(speeds)
        report["speeds"] = pass_speeds
    report["kinds"] = [task.kind for task in task_list]
    report["passes"] = [[[s, e] for s, e, _ in p] for p in passes]
    report["rss_kb"] = resource.getrusage(rss_of).ru_maxrss
    report["rss_of"] = "largest child" if rss_of == resource.RUSAGE_CHILDREN else "worker"
    _write(args.out, report)
    return 0


def _write(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    raise SystemExit(main())
