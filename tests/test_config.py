"""The test configuration: a failing test is reported and the session goes on."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FAILING_GIVEN = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def test_failing_hypothesis_test_is_reported_under_the_repo_config(tmp_path):
    # a failing @given test makes hypothesis import libcst, whose import warns
    path = tmp_path / "test_given.py"
    path.write_text(FAILING_GIVEN)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", os.path.join(ROOT, "pyproject.toml"), "--rootdir", str(tmp_path),
                          str(path)],
                         capture_output=True, text=True, cwd=tmp_path, timeout=120)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out and "Falsifying example" in out
    assert run.returncode == 1
