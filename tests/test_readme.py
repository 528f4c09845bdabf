"""The README's library sketch runs as written: it pins the public API it documents."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs_and_certifies(capsys):
    section = README.read_text().split("## Library sketch", 1)[1]
    sketch = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(sketch, str(README), "exec"), namespace)
    report = namespace["report"]
    assert report.passed
    assert report.n_jumps >= 1  # started next to a half turn, the warp angle resets
    assert "status=PASS" in capsys.readouterr().out
