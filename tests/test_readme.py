"""The README's library quick start runs and its CLI walkthrough parses as written."""
import re
import shlex
from pathlib import Path

from batchsvd.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block, "README has no python block under 'Library quick start'"
    exec(compile(block.group(1), "README.md", "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out.split("\n")
    assert printed[1] == "400"  # X.nnz: the budget is spent exactly


def test_cli_walkthrough_parses():
    section = README.read_text(encoding="utf-8").split("## CLI walkthrough", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL)
    assert block, "README has no sh block under 'CLI walkthrough'"
    lines = block.group(1).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines]
    commands = [argv[1:] for argv in commands if argv[:1] == ["batchsvd"]]
    assert len(commands) == 7
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert args.command == argv[0]
