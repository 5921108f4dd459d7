"""The README's code runs as written."""

import pathlib
import re
import shlex

from screamingtoes import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_tour_runs():
    tour = README.read_text().split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})


def test_command_line_block_runs(capsys):
    section = README.read_text().split("## Command line", 1)[1]
    lines = re.search(r"```\n(.*?)```", section, re.S).group(1).splitlines()
    assert lines
    for line in lines:
        program, *argv = shlex.split(line, comments=True)
        assert program == "screamingtoes"
        assert cli.main(argv) == 0, line
        capsys.readouterr()
