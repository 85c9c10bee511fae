"""The README's library example runs as written and prints what it says,
and its module-file example loads and validates."""

import os
import re
import subprocess
import sys
from pathlib import Path

from preproj.serialize import load_module

ROOT = Path(__file__).resolve().parent.parent


def _code_block(lang):
    """The README's single code block in the given language."""
    blocks = re.findall(
        rf"^```{lang}\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M
    )
    assert len(blocks) == 1
    return blocks[0]


def _run(args):
    """Run python without site packages, on the package in ``src``."""
    return subprocess.run(
        [sys.executable, "-S", *args],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_readme_library_example_prints_its_comments():
    code = _code_block("python")
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    assert prints and all("#" in line for line in prints)
    want = [line.rsplit("#", 1)[1].strip() for line in prints]
    out = _run(["-c", code])
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == want


def test_readme_module_file_loads_and_validates(tmp_path):
    path = tmp_path / "readme_module.json"
    path.write_text(_code_block("json"))
    name, m = load_module(path)
    assert name == "S12" and m.dim == (1, 1)
    out = _run(["-m", "preproj.cli", "validate", str(path)])
    assert out.returncode == 0, out.stderr
