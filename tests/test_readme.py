"""README's examples run and print what the README says they print."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from circlet import Complex
from circlet.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)


def run(block):
    """The block's namespace and the lines it prints."""
    out, namespace = io.StringIO(), {}
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), namespace)
    return namespace, out.getvalue().splitlines()


def comments_on_prints(block):
    """The comment after each top-level print call, in order."""
    return [
        line.split("# ", 1)[1]
        for line in block.splitlines()
        if line.startswith("print(")
    ]


def test_readme_has_the_two_examples():
    assert len(python_blocks()) == 2


def test_each_print_comment_starts_with_the_printed_value():
    for block in python_blocks():
        _, printed = run(block)
        comments = comments_on_prints(block)
        assert len(comments) == len(printed)
        for comment, line in zip(comments, printed):
            assert comment.startswith(line), (comment, line)


def test_quick_start_prints_what_the_readme_says():
    _, printed = run(python_blocks()[0])
    assert printed == ["[6, 6, 4, 4]", "30", "True"]


def test_triangle_example_builds_the_triangle():
    namespace, printed = run(python_blocks()[1])
    triangle = namespace["triangle"]
    assert isinstance(triangle, Complex)
    assert printed == ["Complex(dim=2, cells=[3,3,1])"]
    assert [triangle.cells_of_dim(r) for r in range(3)] == [
        ("a", "b", "c"),
        ("ab", "bc", "ca"),
        ("f",),
    ]


def shell_session():
    """README's circlet commands: argv, trailing comment, comment lines under."""
    blocks = re.findall(r"```sh\n(circlet .*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    commands = []
    for line in blocks[0].splitlines():
        if line.startswith("circlet "):
            command, _, comment = line.partition(" # ")
            commands.append((shlex.split(command)[1:], comment.strip(), []))
        elif line.startswith("#"):
            commands[-1][2].append(line[1:])
    return commands


def test_shell_session_prints_what_the_readme_says(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the session writes k.json, cover.json, cube.json
    session = shell_session()
    assert [argv[0] for argv, _, under in session if under] == ["analyze"]
    for argv, comment, under in session:
        assert main(argv) == 0, argv
        out, err = capsys.readouterr()
        assert err == comment + "\n", argv
        if under:
            assert json.loads("".join(under)) == json.loads(out)
