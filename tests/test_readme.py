"""The README examples run as written: each command of "Command line" prints
the lines shown under it, with the chain file of "File formats" at hand, and
the "Library quick tour" block runs."""

import re
import shlex
from pathlib import Path

import pytest

from extcalc.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def blocks(heading, lang):
    """The fenced code blocks of one language in a README section, up to the
    next top-level section."""
    start = README.index(f"\n{heading}\n")
    end = README.find("\n## ", start + 1)
    return re.findall(rf"```{lang}\n(.*?)```", README[start:end], re.S)


def commands():
    """(argv, expected stdout lines) for each `extcalc` line of the section."""
    (script,) = blocks("## Command line", "sh")
    out = []
    for line in script.splitlines():
        if line.startswith("extcalc "):
            out.append((shlex.split(line)[1:], []))
        elif line.startswith("# "):
            out[-1][1].append(line[2:])
    return out


def test_every_command_shows_its_output():
    assert len(commands()) == 4
    assert all(expected for _, expected in commands())


@pytest.mark.parametrize("argv, expected", commands(), ids=[argv[0] for argv, _ in commands()])
def test_command_prints_what_the_readme_shows(argv, expected, capsys, tmp_path, monkeypatch):
    (chain,) = blocks("### File formats", "json")
    (tmp_path / "circle.json").write_text(chain)
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out.splitlines() == expected


def test_library_quick_tour_runs():
    (tour,) = blocks("## Library quick tour", "python")
    exec(compile(tour, "README.md", "exec"), {})
