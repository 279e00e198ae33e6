"""The README's commands run as written.

Every line of the README's ``sh`` blocks that starts with ``urcd`` (with
``\\`` continuations joined) goes, in order, through ``urcd.cli.main`` in
one temporary directory, so ``urcd train`` reads the file that ``urcd gen``
wrote.  The "Library quickstart" Python block runs too.  Each must succeed.
"""

import pathlib
import re
import shlex

from urcd.cli import main

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()


def _commands() -> list:
    blocks = re.findall(r"^```sh\n(.*?)^```", README, re.M | re.S)
    text = "\n".join(blocks).replace("\\\n", " ")
    return [shlex.split(line, comments=True)
            for line in text.splitlines() if line.startswith("urcd ")]


def test_readme_commands_exit_0(tmp_path, monkeypatch, capsys):
    commands = _commands()
    assert {"gen", "train", "eval", "experiment", "rates"} <= {
        argv[1] for argv in commands}
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code = main(argv[1:])
        assert code == 0, (shlex.join(argv), capsys.readouterr().err)


def test_readme_library_quickstart_runs(tmp_path, monkeypatch):
    section = README.split("## Library quickstart", 1)[1]
    block = re.search(r"^```python\n(.*?)^```", section, re.M | re.S)
    assert block is not None
    monkeypatch.chdir(tmp_path)
    exec(compile(block.group(1), "README.md quickstart", "exec"), {})
