"""The repository's pytest settings let a failing property test report.

``pyproject.toml`` turns warnings into errors. A warning raised while
hypothesis writes its failure report must not turn that report into an
INTERNALERROR that hides the falsifying example.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 10
'''


def test_failing_hypothesis_test_names_its_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING)
    argv = ["-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "test_fails.py"]
    run = subprocess.run(
        [sys.executable, "-m", "pytest", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
