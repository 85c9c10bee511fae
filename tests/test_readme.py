"""The README's library example runs as written and prints what it says."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _python_example():
    """The README's single python code block."""
    blocks = re.findall(
        r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M
    )
    assert len(blocks) == 1
    return blocks[0]


def test_readme_library_example_prints_its_comments():
    code = _python_example()
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    assert prints and all("#" in line for line in prints)
    want = [line.rsplit("#", 1)[1].strip() for line in prints]
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == want
