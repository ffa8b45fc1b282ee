import re
from pathlib import Path

from doctnn.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md (## Library)", "exec"), {})
    winning_class, *_ = capsys.readouterr().out.split()
    assert winning_class in ("invoice", "form", "letter")


def readme_commands() -> list[str]:
    """The ``doctnn`` command lines of the README's command-line block, continuations joined.

    CI runs these lines through the installed ``doctnn``.
    """
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("doctnn ")]


def test_readme_commands_parse():
    commands = [line.split()[1:] for line in readme_commands()]
    assert len(commands) == 6
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert args.command == argv[0]
