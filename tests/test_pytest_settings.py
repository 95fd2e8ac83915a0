"""The pytest settings themselves: a failing property test must still report
its falsifying example."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_hypothesis_test_shows_its_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "\n"
        "@given(st.integers())\n"
        "def test_below_five(x):\n"
        "    assert x < 5\n")
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         str(tmp_path / "test_fails.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert res.returncode == 1, res.stdout + res.stderr
    assert "Falsifying example" in res.stdout
    assert "INTERNALERROR" not in res.stdout + res.stderr
