"""The suite's pytest settings report a failing property test.

``pyproject.toml`` turns every warning into an error.  When a
hypothesis test fails, hypothesis's pytest plugin imports libcst (where
it is installed) to offer a patch, and libcst's import warns that
``mypy_extensions.TypedDict`` is deprecated.  As an error inside the
plugin's report hook that warning would end pytest with INTERNALERROR,
no falsifying example and no later test; the settings ignore it alone.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_property_test_is_reported_and_the_suite_goes_on(tmp_path):
    (tmp_path / "test_pair.py").write_text(FAILING_THEN_PASSING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-rA", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = done.stdout + done.stderr
    assert done.returncode == 1, output  # tests failed, not an internal error (3)
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output
    assert "PASSED test_pair.py::test_passes" in output
