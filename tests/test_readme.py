"""README's Python examples run and print what the README says they print."""

import contextlib
import io
import re
from pathlib import Path

from circlet import Complex

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
