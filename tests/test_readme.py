"""The README's library quick start runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    """The python block under the README's "Library quick start" heading."""
    section = README.read_text().split("## Library quick start", 1)
    assert len(section) == 2, "README has no 'Library quick start' section"
    block = re.search(r"```python\n(.*?)```", section[1], re.S)
    assert block, "the quick start has no python block"
    return block.group(1)


def test_library_quick_start_runs(capsys):
    namespace = {}
    exec(compile(quick_start(), str(README), "exec"), namespace)
    ratios = [float(v) for v in capsys.readouterr().out.split()]
    # COA and GR against the fractional offline optimum, which lower-bounds both
    assert len(ratios) == 2 and all(r >= 1.0 - 1e-9 for r in ratios)
    assert set(namespace["online"].runs) == {"COA", "GR"}
