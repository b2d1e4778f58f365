"""The README's examples run as written and give the values its comments state."""

import re
import shlex
from pathlib import Path

from choosability.bounds import BoundsReport, ExactWindow
from choosability.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading: str, language: str) -> str:
    """The first fenced block of `language` after the line `heading`."""
    section = README[README.index(f"\n{heading}\n"):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_example(capsys):
    exec(_block("## Library", "python"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "False 14 13",
        repr(BoundsReport(n=14, c=2, lower=6, lower_provenance="constructive",
                          upper=6, upper_provenance="hall-threshold", exact=6)),
        repr(ExactWindow(n_lo=14, n_hi=16, value=6)),
        "2",
    ]


def test_command_line_example(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CHOOSABILITY_SEARCH_CAP", raising=False)
    commands = [shlex.split(line)[1:] for line in _block("## Command line", "sh").splitlines()
                if line.startswith("choosability ")]
    assert [argv[0] for argv in commands] == [
        "construct", "solve", "verify", "bounds", "bounds", "exact", "probe"]
    for argv in commands:
        assert main(argv) == (1 if argv[0] == "solve" else 0), argv
        assert capsys.readouterr().err == ""
