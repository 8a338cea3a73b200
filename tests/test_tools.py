"""The code-size count that tools/code_lines.py prints for src/sloccgeo."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment-only line


class Point:
    """Class docstring."""

    x = 1


def join(a,
         b):
    """Function docstring
    over two lines."""
    # another comment-only line
    label = "a string literal, not a docstring"
    return os.path.join(
        a,
        b,
    )


def later():
    pass
    """A string that does not open the body is code."""
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_counts_only_code():
    # import, class, x = 1, the two lines of the def, label, the four lines
    # of the call, def later, pass and the string after it: 13
    code_lines = load_tool().code_lines
    assert code_lines(FIXTURE) == 13
    assert code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0
