"""The README's library quick start runs as written against the package."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block, "README has no python block under 'Library quick start'"
    exec(compile(block.group(1), "README.md", "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out.split("\n")
    assert printed[1] == "400"  # X.nnz: the budget is spent exactly
