"""Every demo runs to completion and prints something; demo 04 prints
the reference day's update instants."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def _run(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    return subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    done = _run(demo)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_update_scheduling_demo_prints_the_update_instants():
    # SMGD's update hours on the reference day at 1.5 W
    done = _run(ROOT / "demos" / "04_update_scheduling.py")
    lines = done.stdout.splitlines()
    at = lines.index("update instants at 1.5 W (hours):")
    assert lines[at + 1] == "  [0.17, 8.33, 8.5, 8.67, 8.83, 10.33, 18.5, 20.83, 21.0]"
