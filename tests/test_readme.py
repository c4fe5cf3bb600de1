"""The python code blocks of README.md run, in order and in one namespace,
against the package in src/, so the README documents no API that is gone."""

import re
from pathlib import Path

from test_demos import run_demo

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run(tmp_path):
    assert BLOCKS
    script = tmp_path / "readme.py"
    script.write_text("\n".join(BLOCKS), encoding="utf-8")
    proc = run_demo(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
