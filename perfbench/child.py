"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED TRACE OUT_DIR

Imports ``uavrf`` from ``src/``, builds the workload's inputs (set-up),
runs its operations once (timed), checks the outputs and writes
``OUT_DIR/result.json``.  Its own speed is sampled throughout, so that
its timings can be reported at a fixed reference speed (``speed.py``).
``run.py`` starts one of these per repetition so that every repetition
pays the library's cold caches.
"""

import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from speed import Sampler

CHILD_START = time.monotonic()
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _no_span(name):
    return nullcontext()


def main(argv):
    workload, seed, traced, out_dir = argv[0], int(argv[1]), argv[2] == "1", Path(argv[3])
    sampler = Sampler()
    sampler.start()
    import numpy
    import scipy

    import workloads
    from tracing import Tracer

    wl = workloads.WORKLOADS[workload](seed)
    setup_done = time.monotonic()

    tracer = None
    if traced:
        import layers

        tracer = Tracer()
        layers.instrument(tracer)
    csv_dir = out_dir / "csv"
    csv_dir.mkdir(parents=True, exist_ok=True)

    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.monotonic()
    wl.run(csv_dir, tracer.span if tracer else _no_span)
    end = time.monotonic()
    after = resource.getrusage(resource.RUSAGE_SELF)
    sampler.stop()
    run_s = end - start
    cpu_s = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)

    result = {
        "child_start_monotonic": CHILD_START,
        # timings at the reference speed (speed.py), then as timed
        "setup_s": sampler.at_reference(setup_done - CHILD_START, CHILD_START, setup_done),
        "run_s": sampler.at_reference(run_s, start, end),
        "cpu_s": sampler.at_reference(cpu_s, start, end),
        "wall_setup_s": setup_done - CHILD_START,
        "wall_run_s": run_s,
        "wall_cpu_s": cpu_s,
        "calibration_ms": sampler.median_ms(),
        "key": wl.key,
        "inputs": wl.inputs,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer:
        # spans are timed as they ran: scale their seconds like run_s
        scale = result["run_s"] / run_s
        result["layers"] = {k: v * scale if k.endswith(("_s", ".s")) else v
                            for k, v in layers.metrics(tracer, run_s).items()}
        tracer.write(out_dir / "spans.csv")
    digests = {p.name: workloads.sha256(p) for p in sorted(csv_dir.glob("*.csv"))}
    result["digests"] = digests
    result["ops"] = wl.check(digests)
    result["rf"] = wl.rf
    with open(out_dir / "result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
