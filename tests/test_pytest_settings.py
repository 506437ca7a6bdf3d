"""The suite's own pytest settings report every failure."""

import subprocess
import sys

from conftest import REPO_ROOT

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_a_failing_property(n):
    assert n < 0


def test_a_passing_test():
    pass
'''


def test_a_failing_property_test_is_reported_and_the_session_goes_on(tmp_path):
    """Under `pyproject.toml`'s settings, a failing `@given` test fails (exit 1)
    without ending the session in an internal error (exit 3), and the test after
    it still runs."""
    path = tmp_path / "test_property.py"
    path.write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(REPO_ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
            "-p", "no:cacheprovider", "-q", str(path),
        ],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
