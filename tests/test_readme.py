"""The README's command-line examples run as written."""

import pathlib
import shlex

import pytest

from folicurve import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def command_line_examples() -> list[str]:
    """The `folicurve ...` lines of the first code block under "## Command line"."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```\n", 2)[1]
    return [line for line in block.splitlines() if line.startswith("folicurve ")]


def test_examples_found():
    assert len(command_line_examples()) == 8


@pytest.mark.parametrize("line", command_line_examples())
def test_example_exits_zero(line, tmp_path, monkeypatch, capsys):
    # the examples write scan.csv, catenoid.csv and surface.off into the cwd
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(line, comments=True)
    assert argv[0] == "folicurve"
    code = cli.main(argv[1:])
    assert code == 0, capsys.readouterr().err
