"""README's documented library use runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)\n```", section, re.S).group(1)
    exec(compile(block, f"{README}:Library use", "exec"), {})
    # the block reports a ChipletdseError as "error: ..." instead of raising it
    assert "error:" not in capsys.readouterr().out
