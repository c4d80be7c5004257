"""README's library examples run as written, and its config reference lists every key of the config table."""

import re
import subprocess
import sys
from pathlib import Path

from conftest import child_env
from mapdyn import cli

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


def _table_paths(spec, path=""):
    """The key paths under ``spec`` of the config table; the ``sensors`` block and waveforms are listed at home only."""
    homes = {id(cli.SENSORS): "sensors", id(cli.WAVEFORM): "<waveform>"}
    if homes.get(id(spec), path) != path:
        return
    if isinstance(spec, cli.ListOf):
        yield f"{path}[i]"
        yield from _table_paths(spec.spec, f"{path}[i]")
    elif isinstance(spec, cli.MapOf):
        for key in (*spec.fixed, f"<{spec.label}>"):
            yield f"{path}.{key}"
            yield from _table_paths(spec.spec, f"{path}.{key}")
    elif isinstance(spec, cli.Kinds):
        yield f"{path}.kind"
        for block in spec.blocks.values():
            yield from _table_paths(block, path)
    elif isinstance(spec, cli.Block):
        for key, (item, _) in spec.keys.items():
            yield f"{path}.{key}" if path else key
            yield from _table_paths(item, f"{path}.{key}" if path else key)


def test_config_reference_lists_every_key():
    """Every key path of `cli.CONFIG` appears, in backticks, in README's "Config reference"."""
    text = README.read_text()
    reference = text[text.index("### Config reference"):text.index("### File formats")]
    paths = [*_table_paths(cli.CONFIG), *_table_paths(cli.WAVEFORM, "<waveform>")]
    assert len(paths) == len(set(paths)) > 50
    assert [path for path in paths if f"`{path}`" not in reference] == []
