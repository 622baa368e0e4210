"""The README's Python quick start runs as written and recovers its vector."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_succeeds(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", text, re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["report"].success
    assert capsys.readouterr().out.startswith("True ")
