"""uavrf benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload ref-2week --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; ``uavrf`` is imported from
``src/``.  Each repetition is a fresh child process (``child.py``), so
each pays the library's cold caches the way a CLI user does.  Children
run one at a time, with BLAS and OpenMP pools pinned to one thread.
Repetitions follow each other while the next one should end within
``--seconds``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json (medians
over the repetitions, times at the reference speed of ``speed.py``).  ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics of the traced ones, plus
the tracing overhead (traced minus untraced median ``run_s``).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Lines above it are
for people.  Raw per-repetition records go to ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEADLINE_S = 170.0  # the whole run, children included, must end well within 180 s


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def run_child(workload, seed, traced, out_dir, deadline):
    """Run one repetition; returns its record (``None`` result on failure)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    argv = [sys.executable, str(HERE / "child.py"), workload, str(seed), "1" if traced else "0",
            str(out_dir)]
    env = dict(os.environ, **THREADS)
    start = time.monotonic()
    pid = os.posix_spawn(
        sys.executable, argv, env,
        file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)],
    )
    while True:
        # rusage of this child alone; RUSAGE_CHILDREN would keep the
        # maximum RSS over every child so far
        done, status, usage = os.wait4(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            done, status, usage = os.wait4(pid, 0)
            break
        time.sleep(0.02)
    wall = time.monotonic() - start
    record = {"traced": traced, "wall_s": wall, "exit": os.waitstatus_to_exitcode(status),
              "peak_rss_mb": usage.ru_maxrss / 1024.0, "result": None}
    result_path = out_dir / "result.json"
    if record["exit"] == 0 and result_path.is_file():
        with open(result_path) as fh:
            record["result"] = json.load(fh)
        # interpreter start-up, before the child's speed sampling begins
        record["spawn_s"] = record["result"]["child_start_monotonic"] - start
    return record


def spread(values):
    """(median, first quartile, third quartile) of a list of numbers."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "uavrf" / "__init__.py").is_file():
        return fail(f"no uavrf sources under {ROOT / 'src'}; run from a source checkout")
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")

    began = time.monotonic()
    deadline = began + DEADLINE_S
    reps = []
    while True:
        traced = args.trace == 1 and len(reps) % 2 == 1
        reps.append(run_child(args.workload, args.seed, traced,
                              OUT / args.workload / f"rep{len(reps)}", deadline))
        # start another repetition only if it should end within --seconds
        # (by the median repetition so far), so a run lasts about that long
        elapsed = time.monotonic() - began
        typical = statistics.median(r["wall_s"] for r in reps)
        longest = max(r["wall_s"] for r in reps)
        enough = elapsed + typical > args.seconds and (args.trace == 0 or len(reps) >= 2)
        if enough or elapsed + 1.5 * longest > DEADLINE_S:
            break

    good = [r for r in reps if r["result"] is not None]
    attempted = failed = 0
    failures = []
    for i, rep in enumerate(reps):
        if rep["result"] is None:
            attempted += 1
            failed += 1
            failures.append(f"rep{i}: child exited with {rep['exit']}")
            continue
        for op, error in rep["result"]["ops"]:
            attempted += 1
            if error is not None:
                failed += 1
                failures.append(f"rep{i} {op}: {error}")
    # the same inputs must give the same outputs in every repetition
    attempted += 1
    outputs = {json.dumps([r["result"]["digests"], r["result"]["rf"]]) for r in good}
    if len(outputs) > 1:
        failed += 1
        failures.append("repetitions disagree on CSV digests or rf")

    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    metrics = {}
    table = {
        "setup_s": [r["spawn_s"] + r["result"]["setup_s"] for r in untraced],
        "run_s": [r["result"]["run_s"] for r in untraced],
        "cpu_s": [r["result"]["cpu_s"] for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        "rf": [r["result"]["rf"] for r in untraced],
    }
    wall = {
        "setup_s": [r["spawn_s"] + r["result"]["wall_setup_s"] for r in untraced],
        "run_s": [r["result"]["wall_run_s"] for r in untraced],
        "cpu_s": [r["result"]["wall_cpu_s"] for r in untraced],
        "calibration_ms": [r["result"]["calibration_ms"] for r in good],
    }
    if args.trace == 0:
        wanted = bench["end_to_end"]
        values = {name: spread(v)[0] for name, v in table.items() if v}
    else:
        wanted = bench["per_layer"]
        layer_runs = [r["result"]["layers"] for r in traced]
        names = {n for run in layer_runs for n in run}
        values = {n: statistics.median(run.get(n, 0) for run in layer_runs) for n in names}
        if traced and untraced:
            values["trace.overhead_s"] = values["trace.run_s"] - statistics.median(table["run_s"])
    for m in wanted:
        metrics[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}

    info = good[0]["result"] if good else {}
    print(f"workload={args.workload} seed={args.seed} inputs={json.dumps(info.get('inputs'))} "
          f"repetitions={len(reps)} traced={len(traced)} seconds={time.monotonic() - began:.1f}")
    print("threads " + " ".join(f"{k}={v}" for k, v in THREADS.items())
          + f" nproc={os.cpu_count()} versions={json.dumps(info.get('versions'))}")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for name, v in table.items():
        if v:
            med, q1, q3 = spread(v)
            print(f"  {name:<12} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(v)}  "
                  f"{units.get(name, '')}")
    print("  as timed, before scaling to the reference speed: " + "  ".join(
        f"{name} {statistics.median(v):.6g}" for name, v in wall.items() if v))
    print(f"  failed_ratio {failed / attempted:.6g}  ({failed}/{attempted} operations)")
    if args.trace == 1:
        for m in wanted:
            print(f"  {m['name']:<44} {metrics[m['name']]['value']:.6g} {m['unit']}")
    for line in failures[:20]:
        print(f"  FAILED {line}")

    with open(OUT / args.workload / "run.json", "w") as fh:
        json.dump({"argv": vars(args), "threads": THREADS, "nproc": os.cpu_count(),
                   "repetitions": reps, "metrics": metrics, "failures": failures}, fh)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
