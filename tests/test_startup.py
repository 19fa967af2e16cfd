"""What ``import uavrf`` loads, each case in a fresh interpreter.

The assignment solver is scipy's ``linear_sum_assignment``, loaded from
its compiled module without ``scipy.optimize``'s package import (most
of the package's import time and half the peak RSS of a short run).
These tests pin that the package import leaves ``scipy.optimize`` out,
that the solver is the very function ``scipy.optimize`` re-exports in
either import order, and that the public import still serves when the
compiled module is not found.  Nor does the import load ``fractions``
(with ``decimal``) or ``configparser``: the cost shapes are exact
integer ratios, and only a parsed scenario file needs the parser.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_fresh(code: str) -> None:
    """Run ``code`` in a new interpreter with ``src/`` on the path; it must exit 0."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_import_leaves_out_scipy_optimize():
    run_fresh(
        "import sys, uavrf\n"
        "loaded = [m for m in ('scipy.optimize', 'scipy.linalg', 'numpy.f2py') if m in sys.modules]\n"
        "assert loaded == [], loaded\n"
        "# registered, so a later import of scipy.optimize reuses it\n"
        "module = sys.modules['scipy.optimize._lsap']\n"
        "assert module.linear_sum_assignment is uavrf.scheduling.linear_sum_assignment\n"
    )


def test_import_leaves_out_fractions_decimal_and_configparser():
    run_fresh(
        "import sys, uavrf, uavrf.experiments\n"
        "loaded = [m for m in ('fractions', 'decimal', 'configparser') if m in sys.modules]\n"
        "assert loaded == [], loaded\n"
    )


@pytest.mark.parametrize(
    "imports",
    ["import uavrf.scheduling, scipy.optimize", "import scipy.optimize, uavrf.scheduling"],
    ids=["uavrf-first", "scipy-first"],
)
def test_solver_is_scipys(imports):
    run_fresh(
        f"{imports}\n"
        "assert uavrf.scheduling.linear_sum_assignment is scipy.optimize.linear_sum_assignment\n"
    )


def test_loader_falls_back_to_the_public_import():
    # scipy.optimize is already imported, so the fallback needs no finder;
    # first no spec is found, then the module in sys.modules lacks the name
    run_fresh(
        "import importlib.machinery, sys, types\n"
        "import scipy.optimize\n"
        "from uavrf import scheduling\n"
        "name = 'scipy.optimize._lsap'\n"
        "find_spec = importlib.machinery.PathFinder.find_spec\n"
        "importlib.machinery.PathFinder.find_spec = classmethod(\n"
        "    lambda cls, fullname, path=None, target=None:\n"
        "    None if fullname == name else find_spec(fullname, path, target))\n"
        "del sys.modules[name]\n"
        "assert scheduling._load_linear_sum_assignment() is scipy.optimize.linear_sum_assignment\n"
        "assert name not in sys.modules\n"
        "sys.modules[name] = types.ModuleType(name)\n"
        "assert scheduling._load_linear_sum_assignment() is scipy.optimize.linear_sum_assignment\n"
    )
