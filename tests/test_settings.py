"""The repository's pytest settings, run on a test file of their own."""

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_failing_hypothesis_test_is_reported(tmp_path):
    # to report a failure hypothesis imports libcst, whose import of
    # mypy_extensions warns; the settings turn warnings into errors, and that
    # one must not end the session in an INTERNALERROR without the failure
    (tmp_path / "pyproject.toml").write_text((ROOT / "pyproject.toml").read_text())
    (tmp_path / "test_failing.py").write_text(textwrap.dedent("""
        from hypothesis import given
        from hypothesis import strategies as st


        @given(st.integers())
        def test_fails(x):
            assert x < 5
    """))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "FAILED test_failing.py::test_fails" in output
    assert result.returncode == 1
