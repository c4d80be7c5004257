"""README's library examples run as written."""

import re
import subprocess
import sys
from pathlib import Path

from conftest import child_env

README = Path(__file__).resolve().parent.parent / "README.md"


def test_streaming_example_runs(tmp_path):
    """The fenced streaming example runs in a fresh interpreter and prints one line per sample."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.DOTALL | re.MULTILINE)
    (example,) = [code for code in blocks if "MapEstimator(" in code]
    result = subprocess.run(
        [sys.executable, "-c", example], capture_output=True, text=True, env=child_env(), cwd=tmp_path, timeout=120
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 20
    assert all(line.startswith("largest torque error") for line in lines)
