"""The code-size count that tools/code_lines.py prints for src/sloccgeo,
and the names the benchmark's tracer binds."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "code_lines.py"
TRACER = ROOT / "perfbench" / "tracer.py"

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


def load_tool(name="code_lines", path=TOOL):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_counts_only_code():
    # import, class, x = 1, the two lines of the def, label, the four lines
    # of the call, def later, pass and the string after it: 13
    code_lines = load_tool().code_lines
    assert code_lines(FIXTURE) == 13
    assert code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_tracer_names_exist():
    # a traced benchmark run wraps these by name, so deleting or renaming
    # one breaks it; this fails in the tier-1 run instead
    from sloccgeo.linalg import Matrix

    functions = load_tool("tracer", TRACER).FUNCTIONS
    assert functions
    for module, attr, _ in functions:
        assert callable(getattr(importlib.import_module(f"sloccgeo.{module}"), attr, None)), (
            f"sloccgeo.{module}.{attr}"
        )
    assert callable(Matrix.rref) and callable(Matrix.det)
