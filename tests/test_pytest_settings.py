"""The repo's pytest settings report a failing property test as a failure.

``filterwarnings = ["error"]`` turns warnings into errors; a warning raised
while Hypothesis reports a failure (it imports ``libcst``, when installed,
to write a patch) must not end the session in INTERNALERROR.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROPERTY_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_failing_property_test_is_reported(tmp_path):
    (tmp_path / "test_property.py").write_text(PROPERTY_TESTS, encoding="utf-8")
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
            "test_property.py",
        ],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 1 passed" in output, output
