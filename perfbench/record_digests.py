"""Record the sha256 of every CSV the workloads write, per input.

    python3 perfbench/record_digests.py

Runs one untraced repetition per input and rewrites
``perfbench/digests.json``, which the benchmark's output checks compare
against.  Only rerun it when a change is meant to alter the CSV bytes.

Inputs recorded: the four start days of ``ref-2week`` (seeds 0..3 map to
days 0, 7, 14 and 21), ``paper-ramp`` seeds 0..63, and the
seed-independent CSVs of ``single-slot``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = {"ref-2week": range(4), "paper-ramp": range(64), "single-slot": range(1)}


def main():
    from run import THREADS

    out = {}
    for name, seeds in SEEDS.items():
        for seed in seeds:
            rep_dir = HERE / "_out" / "record" / name
            shutil.rmtree(rep_dir, ignore_errors=True)
            subprocess.run(
                [sys.executable, str(HERE / "child.py"), name, str(seed), "0", str(rep_dir)],
                env=dict(os.environ, **THREADS), check=True, stdout=subprocess.DEVNULL,
            )
            with open(rep_dir / "result.json") as fh:
                result = json.load(fh)
            out.setdefault(name, {})[result["key"]] = result["digests"]
            print(name, seed, result["key"], flush=True)
    with open(HERE / "digests.json", "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
