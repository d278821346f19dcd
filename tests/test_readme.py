"""README's examples run as written: the Library block and each ``hopsync``
command under "Command line", with the output directory moved into a
temporary one."""
import re
import shlex
from pathlib import Path

import pytest

from hopsync.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _section(title):
    """The text of README's ``## title`` section."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _blocks(text, lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, re.M | re.S)


def _commands():
    """The ``hopsync ...`` commands of the Command line section's shell
    blocks, each as its argument list without the program name."""
    found = []
    for block in _blocks(_section("Command line"), "sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line)
            if words and words[0] == "hopsync":
                found.append(words[1:])
    return found


def test_the_library_example_runs(capsys):
    (block,) = _blocks(_section("Library"), "python")
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_readme_lists_the_three_commands():
    assert [words[0] for words in _commands()] == [
        "simulate", "sweep", "steady-state"]


@pytest.mark.parametrize("words", _commands(), ids=lambda words: words[0])
def test_each_command_example_runs(words, tmp_path, capsys):
    if "--out" in words:
        words = list(words)
        words[words.index("--out") + 1] = str(tmp_path)
    assert main(words) == 0
    assert words[0] == "steady-state" or any(tmp_path.iterdir())
    if words[0] == "steady-state":
        assert capsys.readouterr().out == "3, 4\n"
